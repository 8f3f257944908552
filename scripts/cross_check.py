"""Randomized cross-check experiment: on random hypergraphs, compare the
engine's exact counts against the brute-force sweep and the
inclusion-exclusion oracle, and the size-k transversals of every windowed
run ``run(hg, k, k)`` against the brute-force sets of size k; report
compression statistics (final rows R versus represented transversals N).

Usage:
    python scripts/cross_check.py [--instances 200] [--max-w 12] [--max-h 8] [--seed 1]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from transversals import (Hypergraph, brute_transversals, count_total,
                          inclusion_exclusion_count, run, spectrum,
                          transversals_of_size)


def random_hypergraph(rng: random.Random, max_w: int, max_h: int) -> Hypergraph:
    w = rng.randint(1, max_w)
    h = rng.randint(0, max_h)
    edges = tuple(
        tuple(sorted(rng.sample(range(1, w + 1), rng.randint(1, w))))
        for _ in range(h))
    return Hypergraph(w, edges)


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
    for i in range(args.instances):
        hg = random_hypergraph(rng, args.max_w, args.max_h)
        family = run(hg)
        n_engine = count_total(family)
        brute = brute_transversals(hg)
        n_brute = len(brute)
        n_ie = inclusion_exclusion_count(hg)
        sp = spectrum(family)
        per_k_ok = all(sp.counts[k] == inclusion_exclusion_count(hg, k)
                       for k in range(hg.w + 1))
        window_ok = all(
            sorted(transversals_of_size(run(hg, k, k), k))
            == [x for x in brute if len(x) == k]
            for k in range(hg.w + 1))
        ok = n_engine == n_brute == n_ie and per_k_ok and window_ok
        if not ok:
            mismatches += 1
            print(f"[{i}] MISMATCH on w={hg.w} h={hg.h}: engine={n_engine}, "
                  f"brute={n_brute}, ie={n_ie}, per_k_ok={per_k_ok}, "
                  f"window_ok={window_ok}")
        if n_engine:
            ratio_sum += len(family.rows) / n_engine
        s_max_seen = max(s_max_seen, family.stats.s_max)
    elapsed = time.perf_counter() - start

    print(f"instances: {args.instances}  (max_w={args.max_w}, max_h={args.max_h}, "
          f"seed={args.seed})")
    print(f"mismatches: {mismatches}")
    print(f"mean R/N compression: {ratio_sum / args.instances:.4f}")
    print(f"largest split observed: {s_max_seen} sons")
    print(f"elapsed: {elapsed:.2f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
