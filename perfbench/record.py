"""Record the instance pools and expected answers in ``answers.json``.

Run from the repository root when the workload shapes change:

    python3 perfbench/record.py

For every rung and edge order it draws candidate instances from seeds 0, 1,
2, ..., runs the engine on each, and keeps as the pool the ``PER_STRATUM`` x
pick candidates whose task cost (see ``ROW_WEIGHT``) lies closest to the
candidates' median; the top rung keeps those nearest ``TOP_ROWS`` rows and
the typical cost at that size, and query-mix the one base nearest
``QUERY_ROWS`` rows.
A run sorts the pool by cost and picks one instance from each stratum of
neighbours (``workloads.pick``), so a pass costs about the same whatever
the workload seed, and runs with different seeds can be compared.  The
answers of the pool members are cross-checked before they are written:

* against ``inclusion_exclusion_count`` when h <= 20, else against
  ``brute_transversals`` when w <= 24;
* otherwise by self-consistency: the spectrum sums to N, it is zero below
  k_min and tau_min at k_min, and N, k_min and tau_min agree between the
  two edge orders;
* each enumerated size-K collection has spectrum[K] distinct transversals
  of size K, and both edge orders give the same digest;
* each filtered count is recomputed by running the engine on the reduced
  system (edges through a required vertex dropped, forbidden vertices
  removed), which shares no code with row surgery.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from transversals import (Hypergraph, Row, brute_transversals,  # noqa: E402
                          count_total, filter_family, inclusion_exclusion_count,
                          parse_hypergraph, run, spectrum, transversal_number,
                          transversals_of_size)

from workloads import ANSWERS, ENUM_CAP, ORDERS, digest, hypergraph_text  # noqa: E402

# ((w, h, lo, hi), instances a run picks) of each count-ladder rung, smallest
# first; every instance runs in both edge orders.
# The two smallest rungs hold half the tasks, so that the median task lies
# among many tasks of like cost and not in a gap between rungs.
LADDER = [((20, 15, 2, 5), 13), ((24, 18, 2, 5), 13), ((28, 21, 2, 5), 8),
          ((32, 24, 2, 5), 6), ((36, 27, 2, 5), 5), ((40, 30, 2, 5), 3),
          ((30, 50, 2, 3), 4), ((34, 26, 3, 6), 3)]
LADDER_CANDIDATES = 60
# The top rung: one size-asc task whose family has about TOP_ROWS (>= 30k) rows.
TOP = (44, 34, 3, 6)
TOP_CANDIDATES, TOP_POOL, TOP_ROWS = 60, 3, 33_000
# fixed-k rungs and instances a run picks; each instance runs in both edge
# orders at K = k_min, k_min+1 and k_min+2.
FIXED_K = [((32, 24, 2, 5), 6), ((36, 27, 2, 5), 5), ((30, 24, 3, 6), 6)]
FIXED_K_CANDIDATES = 40
FIXED_K_MAX_SETS = 20_000   # "few size-K sets": at most this many at k_min+2
# query-mix: one base family of about QUERY_ROWS rows, input order.
QUERY = (36, 27, 2, 5)
QUERY_CANDIDATES, QUERY_ROWS, QUERY_FILTERS = 120, 3_000, 120
PER_STRATUM = 2             # pool size per picked instance
# Cost of a task: impositions + ROW_WEIGHT x final rows (+ printed sets / 4
# for fixed-k), fitted to task times measured on pool instances.
ROW_WEIGHT = 4


def instance(seed: int, shape: tuple[int, int, int, int], order: str = "input"):
    hg = parse_hypergraph(hypergraph_text(seed, *shape))
    if order == "size-asc":
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    return hg


def closest(costs: dict[int, float], size: int, target: float | None = None) -> list[int]:
    """The ``size`` seeds whose cost is nearest ``target`` (default: the
    median cost), in seed order."""
    if target is None:
        target = statistics.median(costs.values())
    ranked = sorted(costs, key=lambda s: (abs(costs[s] / target - 1), s))
    return sorted(ranked[:size])


def fail(message: str) -> None:
    raise SystemExit(f"record: cross-check failed: {message}")


def check_counts(hg: Hypergraph, n: int, counts: list[int], k_min: int,
                 tau_min: int, label: str) -> None:
    if sum(counts) != n or any(counts[:k_min]) or counts[k_min] != tau_min:
        fail(f"{label}: spectrum inconsistent with N, k_min, tau_min")
    if hg.h <= 20:
        if inclusion_exclusion_count(hg) != n:
            fail(f"{label}: inclusion-exclusion disagrees on N")
    elif hg.w <= 24 and len(brute_transversals(hg)) != n:
        fail(f"{label}: brute force disagrees on N")


def summary(hg: Hypergraph) -> dict:
    family = run(hg)
    k_min, tau_min = transversal_number(family)
    return {"family": family, "N": count_total(family), "R": len(family.rows),
            "k_min": k_min, "tau_min": tau_min,
            "impositions": family.stats.impositions}


def record_ladder_rung(shape, orders, candidates, pick, target_rows=None) -> dict:
    runs = {}
    for seed in range(candidates):
        runs[seed] = {order: summary(instance(seed, shape, order)) for order in orders}
        for got in runs[seed].values():
            del got["family"]
            got["cost"] = got.pop("impositions") + ROW_WEIGHT * got["R"]
        print(f"  {shape} seed {seed}: R "
              f"{[got['R'] for got in runs[seed].values()]}", flush=True)
    pools = {}
    for order in orders:
        costs = {s: r[order]["cost"] for s, r in runs.items()}
        if target_rows is None:
            pools[order] = closest(costs, PER_STRATUM * pick)
            continue
        # at least 30k rows, near the target in both family size (memory)
        # and cost (time)
        rows = {s: r[order]["R"] for s, r in runs.items()}
        near = [s for s in runs if rows[s] >= 30_000 and abs(rows[s] / target_rows - 1) <= 0.1]
        typical = statistics.median(costs[s] for s in near)
        pools[order] = sorted(sorted(near, key=lambda s: (max(
            abs(rows[s] / target_rows - 1), abs(costs[s] / typical - 1)), s))[:TOP_POOL])
    for seed in sorted(set().union(*pools.values())):
        first = runs[seed][orders[0]]
        hg = instance(seed, shape, orders[0])
        counts = list(spectrum(run(hg)).counts)
        check_counts(hg, first["N"], counts, first["k_min"], first["tau_min"],
                     f"{shape} seed {seed}")
        for got in runs[seed].values():
            if (got["N"], got["k_min"], got["tau_min"]) != (
                    first["N"], first["k_min"], first["tau_min"]):
                fail(f"{shape} seed {seed}: edge orders disagree")
    w, h, lo, hi = shape
    return {"w": w, "h": h, "lo": lo, "hi": hi, "pick": pick,
            "pools": {order: {str(s): runs[s][order] for s in pool}
                      for order, pool in pools.items()}}


def enumerated(family, k: int, edges, label: str) -> tuple[int, str]:
    lines = []
    for xs in transversals_of_size(family, k):
        if len(xs) != k or not all(frozenset(xs) & e for e in edges):
            fail(f"{label}: {xs} is not a size-{k} transversal")
        lines.append(" ".join(map(str, xs)))
    if len(set(lines)) != len(lines):
        fail(f"{label}: duplicate size-{k} transversals")
    return len(lines), digest(lines)


def record_fixed_k_rung(shape, pick) -> dict:
    runs = {}
    for seed in range(FIXED_K_CANDIDATES):
        families = {order: run(instance(seed, shape, order)) for order in ORDERS}
        k_min, tau_min = transversal_number(families["input"])
        sets = [sum(row.count_of_size(k_min + j) for row in families["input"].rows)
                for j in range(3)]
        print(f"  {shape} seed {seed}: R {[len(f.rows) for f in families.values()]} "
              f"sets {sets}", flush=True)
        if sets[2] > FIXED_K_MAX_SETS:
            continue
        # each task runs the engine, walks every row and prints the sets
        runs[seed] = {order: {"k_min": k_min, "R": len(f.rows),
                              "cost": (f.stats.impositions + ROW_WEIGHT * len(f.rows)
                                       + sum(sets) // 4)}
                      for order, f in families.items()}
    pools = {order: closest({s: r[order]["cost"] for s, r in runs.items()},
                            PER_STRATUM * pick) for order in ORDERS}
    for seed in sorted(set().union(*pools.values())):
        hg = instance(seed, shape)
        edges = [frozenset(e) for e in hg.edges]
        family = run(hg)
        counts = list(spectrum(family).counts)
        k_min = runs[seed]["input"]["k_min"]
        label = f"{shape} seed {seed}"
        check_counts(hg, count_total(family), counts, k_min,
                     transversal_number(family)[1], label)
        per_k = []
        for k in range(k_min, k_min + 3):
            found = enumerated(family, k, edges, label)
            if found[0] != counts[k]:
                fail(f"{label}: {found[0]} size-{k} sets, spectrum says {counts[k]}")
            if enumerated(run(instance(seed, shape, "size-asc")), k, edges, label) != found:
                fail(f"{label}: edge orders disagree at k={k}")
            per_k.append(found)
        for got in runs[seed].values():
            got["counts"] = [c for c, _ in per_k]
            got["digests"] = [d for _, d in per_k]
    w, h, lo, hi = shape
    return {"w": w, "h": h, "lo": lo, "hi": hi, "pick": pick,
            "pools": {order: {str(s): runs[s][order] for s in pool}
                      for order, pool in pools.items()}}


def constructions(call) -> int:
    """Number of ``Row`` constructions ``call`` performs: the cost of a filter."""
    count = 0
    original = Row.__post_init__

    def counting(self):
        nonlocal count
        count += 1
        original(self)
    Row.__post_init__ = counting
    try:
        call()
    finally:
        Row.__post_init__ = original
    return count


def reduced_count(hg: Hypergraph, require, forbid) -> int:
    """Transversals containing ``require`` and avoiding ``forbid``, counted by
    the engine on the reduced system; the fixed vertices are in no reduced
    edge, so every reduced transversal is counted 2^|fixed| times."""
    edges = []
    for edge in hg.edges:
        if set(edge) & set(require):
            continue
        cut = tuple(v for v in edge if v not in forbid)
        if not cut:
            return 0
        edges.append(cut)
    total = count_total(run(Hypergraph(hg.w, tuple(edges))))
    fixed = len(set(require) | set(forbid))
    if total % (1 << fixed):
        fail("reduced count not divisible by 2^|fixed|")
    return total >> fixed


def record_query_mix() -> dict:
    rows = {}
    for seed in range(QUERY_CANDIDATES):
        rows[seed] = len(run(instance(seed, QUERY)).rows)
        print(f"  {QUERY} seed {seed}: R {rows[seed]}", flush=True)
    # one base for every seed: bases of equal size still differ by a quarter
    # in query cost, which would swamp the differences between commits
    pool = closest(rows, 1, QUERY_ROWS)
    answers = {}
    for seed in pool:
        hg = instance(seed, QUERY)
        edges = [frozenset(e) for e in hg.edges]
        got = summary(hg)
        family = got["family"]
        counts = list(spectrum(family).counts)
        label = f"{QUERY} seed {seed}"
        check_counts(hg, got["N"], counts, got["k_min"], got["tau_min"], label)
        digests = {}
        for k in range(got["k_min"], got["k_min"] + 3):
            if counts[k] <= ENUM_CAP:
                n, digests[str(k)] = enumerated(family, k, edges, label)
                if n != counts[k]:
                    fail(f"{label}: enumeration disagrees with spectrum at k={k}")
        rng = random.Random(seed)
        filters = []
        for _ in range(QUERY_FILTERS):
            r1, r2, f1, f2 = rng.sample(range(1, hg.w + 1), 4)
            found = []
            cost = constructions(lambda: found.append(count_total(
                filter_family(family, require=(r1, r2), forbid=(f1, f2)))))
            if found[0] != reduced_count(hg, (r1, r2), (f1, f2)):
                fail(f"{label}: filter {(r1, r2, f1, f2)} disagrees with the reduced system")
            filters.append({"require": [r1, r2], "forbid": [f1, f2], "N": found[0],
                            "cost": cost})
        answers[str(seed)] = {"N": got["N"], "R": got["R"], "cost": got["R"],
                              "k_min": got["k_min"],
                              "tau_min": got["tau_min"], "spectrum": counts,
                              "digests": digests, "filters": filters}
        print(f"  query-mix base seed {seed}: R {got['R']}", flush=True)
    w, h, lo, hi = QUERY
    return {"w": w, "h": h, "lo": lo, "hi": hi, "pool": answers}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    rungs = [record_ladder_rung(shape, ORDERS, LADDER_CANDIDATES, pick)
             for shape, pick in LADDER]
    rungs.append(record_ladder_rung(TOP, ("size-asc",), TOP_CANDIDATES, 1, TOP_ROWS))
    answers = {"count-ladder": {"rungs": rungs},
               "fixed-k": {"rungs": [record_fixed_k_rung(shape, pick)
                                     for shape, pick in FIXED_K]},
               "query-mix": record_query_mix()}
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
