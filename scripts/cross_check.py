"""Randomized cross-check experiment: on random hypergraphs, compare the
engine's exact counts against the brute-force sweep and the
inclusion-exclusion oracle.  Then, in both edge orders (the file's, and
``--order size-asc``, whose engine checks run on the size-sorted
hypergraph), compare the spectrum against inclusion-exclusion by size, the
size-k transversals of the rows built from every stream of parts
``final_parts(hg, k)`` for a fixed k against the brute-force sets of size
k, the output of ``transversals count FILE --exactly k`` for every k in
-1..w+1 against inclusion-exclusion, the output of ``transversals count
FILE --at-least K`` for one random K in -1..w+1 (N less the counts of the
sizes below K) against the brute-force tail, and the rows built from the
parts of the stream ``final_parts(hg)`` left by one random require/forbid
pair (``filter_rows``, which cuts the parts and builds no row) against the
brute-force transversals that meet it.
Report compression statistics (final rows R versus represented
transversals N).

Usage:
    python scripts/cross_check.py [--instances 200] [--max-w 12] [--max-h 8] [--seed 1]
"""

from __future__ import annotations

import argparse
import contextlib
import io
from itertools import chain
import os
import pathlib
import random
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from transversals import (Hypergraph, Row, brute_transversals, count_total,
                          final_parts, inclusion_exclusion_count,
                          render_hypergraph, run, spectrum, vertex_mask)
from transversals.analytics import filter_rows
from transversals.cli import main as cli_main


def random_hypergraph(rng: random.Random, max_w: int, max_h: int) -> Hypergraph:
    w = rng.randint(1, max_w)
    h = rng.randint(0, max_h)
    edges = tuple(
        tuple(sorted(rng.sample(range(1, w + 1), rng.randint(1, w))))
        for _ in range(h))
    return Hypergraph(w, edges)


def cli_count(path: pathlib.Path, order: str, option: str, k: int) -> str:
    """stdout of ``transversals count PATH --order ORDER OPTION k``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["count", str(path), "--order", order, option, str(k)])
    return out.getvalue()


def order_checks(hg: Hypergraph, path: pathlib.Path, order: str, brute: list,
                 require: set, forbid: set, at_least: int) -> dict[str, bool]:
    """The checks that depend on the edge order: the engine's streams on
    ``hg`` (the file's edges in ``order``) and the CLI's counts on the file
    with ``--order order``, each against the oracles."""
    w = hg.w
    sp = spectrum(run(hg))
    cut = filter_rows(final_parts(hg), vertex_mask(require), vertex_mask(forbid))
    return {
        "spectrum": all(sp.counts[k] == inclusion_exclusion_count(hg, k)
                        for k in range(hg.w + 1)),
        "size_k": all(
            sorted(chain.from_iterable(
                Row(w, *p).members_of_size(k) for p in final_parts(hg, k)))
            == [x for x in brute if len(x) == k]
            for k in range(hg.w + 1)),
        "exactly": all(
            cli_count(path, order, "--exactly", k)
            == f"N(|X| = {k}) = {inclusion_exclusion_count(hg, k)}\n"
            for k in range(-1, hg.w + 2)),
        "filter": sorted(chain.from_iterable(
            Row(w, *p).members_of_size(k) for p in cut for k in range(w + 1))) == [
            x for x in brute if require <= set(x) and forbid.isdisjoint(x)],
        "at_least": cli_count(path, order, "--at-least", at_least).endswith(
            f"\nN(|X| >= {at_least}) = "
            f"{sum(len(x) >= at_least for x in brute)}\n"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--max-w", type=int, default=12)
    parser.add_argument("--max-h", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    mismatches = 0
    ratio_sum = 0.0
    s_max_seen = 0
    start = time.perf_counter()
    workdir = tempfile.TemporaryDirectory()
    path = pathlib.Path(workdir.name) / "instance.hg"
    for i in range(args.instances):
        hg = random_hypergraph(rng, args.max_w, args.max_h)
        path.write_text(render_hypergraph(hg))
        family = run(hg)
        n_engine = count_total(family)
        brute = brute_transversals(hg)
        n_brute = len(brute)
        n_ie = inclusion_exclusion_count(hg)
        # each vertex is required with odds 1/5, forbidden with 1/5, else free
        fate = {v: rng.randrange(5) for v in range(1, hg.w + 1)}
        require = {v for v, f in fate.items() if f == 0}
        forbid = {v for v, f in fate.items() if f == 1}
        at_least = rng.randint(-1, hg.w + 1)
        by_size = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
        failed = [f"{order}:{name}"
                  for order, ordered in (("input", hg), ("size-asc", by_size))
                  for name, ok in order_checks(ordered, path, order, brute, require,
                                               forbid, at_least).items()
                  if not ok]
        if not n_engine == n_brute == n_ie or failed:
            mismatches += 1
            print(f"[{i}] MISMATCH on w={hg.w} h={hg.h}: engine={n_engine}, "
                  f"brute={n_brute}, ie={n_ie}, failed={failed}")
        if n_engine:
            ratio_sum += len(family.rows) / n_engine
        s_max_seen = max(s_max_seen, family.stats.s_max)
    elapsed = time.perf_counter() - start
    workdir.cleanup()

    print(f"instances: {args.instances}  (max_w={args.max_w}, max_h={args.max_h}, "
          f"seed={args.seed})")
    print(f"mismatches: {mismatches}")
    print(f"mean R/N compression: {ratio_sum / args.instances:.4f}")
    print(f"largest split observed: {s_max_seen} sons")
    print(f"elapsed: {elapsed:.2f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); let the flush at exit hit devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
