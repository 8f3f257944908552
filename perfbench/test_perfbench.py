"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

Each workload is smoke-run on its first few tasks, untraced and traced, and
its output is checked against the metric names and units in BENCHMARK.json.
A known slowdown of one layer must move the times at reference speed as much
as the raw ones.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_TASKS = "4"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_proc(workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tasks", SMOKE_TASKS)


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    return result(smoke_proc(workload, trace, seed))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, kind):
    got = smoke(workload, trace)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in got["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in got["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    proc = smoke_proc(workload, 1)
    first, second = result(proc), smoke(workload, 1)
    counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "B")]
    assert "engine.rows_final" in counts and "cli.out_bytes" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name

    traced, self_sum, task_self = map(float, re.search(
        r"traced tasks ([\d.]+) s = sum of self times ([\d.]+) s "
        r"\(task-level self time ([\d.]+) s\)", proc.stdout).groups())
    assert abs(traced - self_sum) < 1e-3
    metrics = first["metrics"]
    layers = sum(m["value"] for name, m in metrics.items()
                 if name.endswith("_s") and name not in
                 ("cli.main_s", "engine.run_s", "trace.overhead_s"))
    assert abs(traced - layers - task_self) < 1e-3


def test_same_seed_same_tasks_other_seed_other_tasks(tmp_path):
    def ids(seed):
        prepared = workloads.setup("count-ladder", seed, ROOT / "src", tmp_path)
        return [task.id for task in prepared.tasks]
    assert ids(5) == ids(5)
    assert ids(5) != ids(6)


def test_checks_reject_wrong_answers(tmp_path):
    prepared = workloads.setup("count-ladder", 1, ROOT / "src", tmp_path, limit=1)
    task = prepared.tasks[0]
    code, out = task.call()
    assert task.check((code, out))
    assert not task.check((1, out))
    wrong = out.replace("N = ", "N = 1", 1)
    assert not task.check((code, wrong))
    assert workloads.check_enumerate(1, workloads.digest(["1 2"]))((0, "1 2\n"))
    assert not workloads.check_enumerate(1, workloads.digest(["1 2"]))((0, "1 3\n"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "count-ladder", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def spin(*args, **kwargs):
    """Pure CPU work, no allocation."""
    acc = 0
    for i in range(300):
        acc += i * i


def garbage(*args, **kwargs):
    """Short-lived objects, which trigger collections of the program's heap."""
    [(i, str(i), frozenset((i, i + 1))) for i in range(40)]


@pytest.mark.parametrize("extra", [spin, garbage])
def test_reference_speed_keeps_a_slowdown_of_the_program(tmp_path, extra):
    """Slow ``engine.impose`` by a fixed amount of work in every other pass:
    the scaled pass times must grow by about the factor the raw ones do, so
    the reference slices do not absorb a change of the program."""
    prepared = workloads.setup("count-ladder", 1, ROOT / "src", tmp_path, limit=30)
    engine = prepared.pkg.engine
    impose = engine.impose

    def slowed(*args, **kwargs):
        extra()
        return impose(*args, **kwargs)

    raw, scaled = {False: [], True: []}, {False: [], True: []}
    for slow in (False, True) * 6:
        engine.impose = slowed if slow else impose
        try:
            latencies, at_reference, failed, _ = run.run_pass(prepared)
        finally:
            engine.impose = impose
        assert failed == 0
        raw[slow].append(sum(latencies))
        scaled[slow].append(sum(at_reference))
    raw_ratio, scaled_ratio = (statistics.median(times[True]) / statistics.median(times[False])
                               for times in (raw, scaled))
    assert raw_ratio > 1.5
    assert abs(scaled_ratio / raw_ratio - 1) < 0.15, (raw_ratio, scaled_ratio)
