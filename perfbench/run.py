"""End-to-end and per-layer benchmark of the transversals package.

Run from the repository root:

    python3 perfbench/run.py --workload count-ladder --seed 1 --seconds 30 --trace 0

Each workload is one closed loop with one client: the next task starts when
the previous one returns, all in this single-threaded process.  Set-up
(package import, instance generation and, for query-mix, the family build;
the ``.hg`` files are written too, but their writes are not timed) is
repeated ``SETUP_REPS`` times and its median reported; the first repetition
is timed from process start.  The timed loop then repeats the seed's fixed
task list, one pass at a time, while another pass still fits in
``--seconds`` (at least one).
Answers are checked after each task, outside the timed region.

The speed of a shared host drifts by up to a third within minutes.  So each
task, and each set-up, is followed by slices of fixed work owned by the
benchmark (``reference_slice``), and times are reported at the reference
speed: each task's time is scaled by ``REF_SLICE_S`` over the mean time of
the slices around it (``WINDOW`` tasks either side).  The mean, not the
median, because short stalls of the host hit a few slices hard and the
tasks in proportion to their length.  The unscaled times are printed too.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
untraced and one traced pass (see ``tracing.py``), and the spans are written
to ``.perfbench_work/`` at the repository root.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 15
REF_SLICE_S = 0.0004      # one reference slice on a quiet host
SETUP_SLICES = 26         # reference slices around each set-up
WINDOW = 5                # tasks either side whose slices scale a task


def reference_slice() -> float:
    """Seconds taken by a fixed slice of work like the program's: frozenset
    algebra, sorting, tuples and big-int products."""
    start = time.perf_counter()
    acc = 0
    base = frozenset(range(1, 41))
    for i in range(120):
        part = frozenset(range(1 + i % 7, 41, 3))
        kept = tuple(sorted(((base - part) | {i}) & base))
        acc += len(kept) * (1 << (i % 61)) * (i + 1)
    return time.perf_counter() - start


def run_pass(prepared, tracer=None):
    """Run every task once, each followed by a reference slice.

    Returns (task latencies in s, task latencies at the reference speed,
    failed count, per-task outputs for comparing runs)."""
    latencies, slices, failed, outputs = [], [], 0, []
    for task in prepared.tasks:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = task.call()
            else:
                result = tracer.run_task(task.id, task.call)
        except Exception as exc:  # a crashing task is a failed task
            latencies.append(time.perf_counter() - start)
            print(f"task {task.id} raised {exc!r}", file=sys.stderr)
            failed += 1
            outputs.append(None)
        else:
            latencies.append(time.perf_counter() - start)
            if not task.check(result):
                print(f"task {task.id}: wrong answer", file=sys.stderr)
                failed += 1
            if tracer is not None:
                tracer.counters["cli.out_bytes"] += task.out_bytes(result)
            outputs.append(repr(result))
        slices.append(reference_slice())
    scaled = [x * REF_SLICE_S / statistics.mean(slices[max(i - WINDOW, 0):i + WINDOW + 1])
              for i, x in enumerate(latencies)]
    return latencies, scaled, failed, outputs


def percentile(values, q):
    """q-th percentile (q in 1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def timed_loop(prepared, seconds):
    """Passes while another fits in ``seconds``.  Returns, unscaled and at
    reference speed, each task's latencies and each pass's time, and the
    number of failed tasks."""
    raw = [[] for _ in prepared.tasks]
    scaled = [[] for _ in prepared.tasks]
    raw_walls, walls, failed, lengths = [], [], 0, []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        lat, lat_scaled, fails, _ = run_pass(prepared)
        lengths.append(time.perf_counter() - pass_start)
        for mine, mine_scaled, x, y in zip(raw, scaled, lat, lat_scaled):
            mine.append(x)
            mine_scaled.append(y)
        raw_walls.append(sum(lat))
        walls.append(sum(lat_scaled))
        failed += fails
        if time.perf_counter() - start + statistics.mean(lengths) > seconds:
            return raw, scaled, raw_walls, walls, failed


def timed_setup(args, start=None):
    """One set-up between two runs of reference slices; its time in s and at
    reference speed.  The clock starts at ``start`` (default: after the
    leading slices) and leaves out the leading slices and the instance-file
    writes."""
    lead_start = time.perf_counter()
    slices = [reference_slice() for _ in range(SETUP_SLICES // 2)]
    if start is None:
        start, lead = time.perf_counter(), 0.0
    else:
        lead = time.perf_counter() - lead_start
    prepared = workloads.setup(args.workload, args.seed, SRC,
                               WORK / f"{args.workload}-{os.getpid()}", args.tasks)
    took = time.perf_counter() - start - lead - prepared.write_s
    slices += [reference_slice() for _ in range(SETUP_SLICES - len(slices))]
    return prepared, took, took * REF_SLICE_S / statistics.mean(slices)


def bytes_per_row(prepared) -> float:
    """Memory retained by the largest family the workload builds, per row."""
    path, order, _ = prepared.biggest()
    pkg = prepared.pkg
    hg = pkg.hypergraph.load_hypergraph(str(path))
    if order == "size-asc":
        hg = pkg.hypergraph.Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = pkg.engine.run(hg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / max(len(family.rows), 1)


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, prepared, setups):
    raw, scaled, raw_walls, walls, failed = timed_loop(prepared, args.seconds)
    # each task's median over passes, so that one slow pass of a task is ignored
    ms = [statistics.median(x) * 1000 for x in scaled]
    raw_ms = [statistics.median(x) * 1000 for x in raw]
    p50, p90 = percentile(ms, 50), percentile(ms, 90)
    setup_s = statistics.median(s for _, s in setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(walls) * len(prepared.tasks)
    print(f"{args.workload} seed {args.seed}: {len(walls)} passes of "
          f"{len(prepared.tasks)} tasks, {attempted} task samples; times at "
          f"reference speed (unscaled in brackets)")
    print(f"  wall_s       {statistics.median(walls):.4f} s "
          f"({statistics.median(raw_walls):.4f}; median pass of "
          + ", ".join(f"{w:.3f}" for w in walls) + ")")
    print(f"  task_p50_ms  {p50:.3f} ms ({percentile(raw_ms, 50):.3f})")
    print(f"  task_p90_ms  {p90:.3f} ms ({percentile(raw_ms, 90):.3f}; over the "
          f"{len(ms)} task medians, {sum(x > p90 for x in ms)} beyond)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    print(f"  setup_s      {setup_s:.4f} s ({statistics.median(s for s, _ in setups):.4f}; "
          f"first, from process start: {setups[0][0]:.4f})")
    print(f"  fail_frac    {failed / attempted:.4f} ({failed} of {attempted})")
    metrics = {"wall_s": metric(statistics.median(walls), "s"),
               "task_p50_ms": metric(p50, "ms"),
               "task_p90_ms": metric(p90, "ms"),
               "peak_rss_mb": metric(rss_mb, "MB"),
               "setup_s": metric(setup_s, "s")}
    return failed == 0, attempted, failed, metrics


def traced(args, prepared):
    plain_lat, _, plain_failed, plain_out = run_pass(prepared)
    tracer = tracing.Tracer()
    tracer.install(prepared.pkg)
    try:
        if prepared.build is not None:
            tracer.run_task("build", prepared.build)
        lat, _, failed, out = run_pass(prepared, tracer)
    finally:
        tracer.remove()
    same = out == plain_out
    if not same:
        print("traced answers differ from untraced ones", file=sys.stderr)
    layers = tracer.layer_metrics()
    wall, plain_wall = sum(lat), sum(plain_lat)
    layers["trace.overhead_s"] = (wall - plain_wall, "s")
    layers["rows.bytes_per_row"] = (bytes_per_row(prepared), "B/row")
    print(f"{args.workload} seed {args.seed}: traced pass {wall:.4f} s, untraced "
          f"{plain_wall:.4f} s, overhead {wall - plain_wall:.4f} s")
    print(f"  traced tasks {tracer.totals['task'][1]:.4f} s = sum of self times "
          f"{tracer.self_time_sum():.4f} s (task-level self time "
          f"{tracer.totals['task'][2]:.4f} s)")
    for name, (value, unit) in layers.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    WORK.mkdir(exist_ok=True)
    dump = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps(dict(workload=args.workload, seed=args.seed,
                                    **tracer.dump())))
    print(f"  spans written to {dump.relative_to(ROOT)}")
    attempted = len(lat) + len(plain_lat)
    failed += plain_failed
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    return failed == 0 and same, attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, metavar="N",
                        help="keep only the first N tasks (smoke tests)")
    args = parser.parse_args()
    if not (SRC / "transversals" / "__init__.py").is_file():
        print(f"perfbench: no transversals package under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = []
        for rep in range(SETUP_REPS):
            prepared, took, scaled = timed_setup(args, START if rep == 0 else None)
            setups.append((took, scaled))
        if args.trace:
            correct, attempted, failed, metrics = traced(args, prepared)
        else:
            correct, attempted, failed, metrics = untraced(args, prepared, setups)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
