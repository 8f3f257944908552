"""Seeded instances, task lists and answer checks for the three workloads.

Every instance is a random hypergraph drawn as in ``scripts/cross_check.py``
and the ROADMAP baseline: ``random.Random(instance_seed)``, w vertices, h
edges, each edge a uniform sample of lo..hi distinct vertices.  The instance
seeds of each rung come from a pool recorded in ``answers.json`` together with
the answers the engine gave when the pool was recorded (``record.py``).  The
workload seed picks the instances and the query stream from those pools, so
every task of every run has a recorded answer to be checked against.

The program under test sees only the ``.hg`` files written here (through
``transversals.cli.main``) or, for ``query-mix``, the family built from one of
them.  All names of the package are looked up at call time, so the tracer in
``tracing.py`` can wrap them.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"
WORKLOADS = ("count-ladder", "query-mix", "fixed-k")
ORDERS = ("input", "size-asc")

# Queries per pass of query-mix, by type.  More than a tenth are spectra, so
# that the p90 falls among these equal queries and not on whichever filter
# or count_at_least happens to be the dearest.
QUERY_MIX = {"filter": 55, "count_at_least": 16, "enumerate": 10,
             "spectrum": 12, "transversal_number": 7}
ENUM_CAP = 2000        # query-mix consumes at most this many size-k sets
AT_LEAST_SPAN = 4      # count_at_least asks for k in k_min..k_min+AT_LEAST_SPAN

COUNT_LINE = re.compile(
    r"N = (\d+), R = (\d+), k_min = (\d+), tau_min = (\d+)$")


def hypergraph_text(seed: int, w: int, h: int, lo: int, hi: int) -> str:
    """The instance in the plain ``w h`` text format."""
    rng = random.Random(seed)
    lines = [f"{w} {h}"]
    for _ in range(h):
        edge = sorted(rng.sample(range(1, w + 1), rng.randint(lo, hi)))
        lines.append(" ".join(map(str, edge)))
    return "\n".join(lines) + "\n"


def edges_of(text: str) -> list[frozenset[int]]:
    return [frozenset(map(int, line.split())) for line in text.splitlines()[1:]]


def digest(lines) -> str:
    """Order-free digest of a collection of transversals, one per line."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


def instance_name(rung: dict, seed: int) -> str:
    return f"w{rung['w']}h{rung['h']}e{rung['lo']}-{rung['hi']}s{seed}.hg"


# modules loaded by the last package import
PACKAGE_MODULES: set[str] = set()


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def import_package(src: Path) -> SimpleNamespace:
    """Import ``transversals`` afresh from ``src`` and return its modules.

    The modules the previous import loaded are dropped first, so that every
    set-up repetition pays for the package import, and for the modules it
    needs that the benchmark has not loaded itself, as a fresh process would.
    """
    for name in PACKAGE_MODULES.union(
            n for n in sys.modules if n.partition(".")[0] == "transversals"):
        sys.modules.pop(name, None)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    before = set(sys.modules)
    cli = importlib.import_module("transversals.cli")
    PACKAGE_MODULES.clear()
    PACKAGE_MODULES.update(set(sys.modules) - before)
    return SimpleNamespace(
        cli=cli,
        analytics=sys.modules["transversals.analytics"],
        engine=sys.modules["transversals.engine"],
        hypergraph=sys.modules["transversals.hypergraph"],
        rows=sys.modules["transversals.rows"])


@dataclass
class Task:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    # how much output the program printed; nonzero for CLI tasks only
    out_bytes: Callable[[Any], int] = lambda result: 0
    # (path, order, R) of the family the task builds, if it builds one
    instance: tuple[Path, str, int] | None = None


@dataclass
class Prepared:
    """Everything one set-up produces for the timed loop."""

    pkg: SimpleNamespace
    tasks: list[Task]
    # query-mix only: the family the queries read, and its (re)build
    base: tuple[Path, str, int] | None = None
    state: dict = field(default_factory=dict)
    build: Callable[[], None] | None = None
    # time spent writing instance files, which set-up time leaves out
    write_s: float = 0.0

    def biggest(self) -> tuple[Path, str, int]:
        """(path, order, R) of the largest family the workload builds; the
        traced run measures its bytes per row."""
        if self.base is not None:
            return self.base
        return max((t.instance for t in self.tasks), key=lambda inst: inst[2])


# ----- CLI tasks -------------------------------------------------------------

def cli_call(pkg: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_out_bytes(result: tuple[int, str]) -> int:
    return len(result[1].encode())


def check_count(expected: tuple[int, int, int, int]) -> Callable:
    def check(result: tuple[int, str]) -> bool:
        code, out = result
        lines = out.splitlines()
        match = COUNT_LINE.match(lines[0]) if lines else None
        return (code == 0 and match is not None
                and tuple(map(int, match.groups())) == expected)
    return check


def check_enumerate(count: int, want: str) -> Callable:
    def check(result: tuple[int, str]) -> bool:
        code, out = result
        lines = out.splitlines()
        return code == 0 and len(lines) == count and digest(lines) == want
    return check


class Writer:
    """Writes instance files into ``workdir`` and keeps the time the writes
    take.  Set-up time leaves it out: the program never pays it, and the
    latency of small file writes on a shared host swings fivefold between
    repetitions."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.seconds = 0.0

    def __call__(self, rung: dict, seed: int) -> Path:
        path = self.workdir / instance_name(rung, seed)
        text = hypergraph_text(seed, rung["w"], rung["h"], rung["lo"], rung["hi"])
        start = time.perf_counter()
        path.write_text(text, encoding="utf-8")
        self.seconds += time.perf_counter() - start
        return path


def pick(rng: random.Random, pool: dict, count: int) -> list[int]:
    """Split the pool, sorted by recorded cost, into ``count`` strata of
    neighbours and draw one key (instance seed or catalogue index) from each,
    so that every workload seed gets the same mix of cheap and dear tasks."""
    keys = sorted(pool, key=lambda key: (pool[key]["cost"], int(key)))
    n = len(keys)
    return [int(rng.choice(keys[i * n // count:(i + 1) * n // count]))
            for i in range(count)]


def setup_count_ladder(pkg, answers, rng, write) -> Prepared:
    tasks = []
    for rung in answers["rungs"]:
        for order, pool in rung["pools"].items():
            for seed in pick(rng, pool, rung["pick"]):
                rec = pool[str(seed)]
                path = write(rung, seed)
                expected = (rec["N"], rec["R"], rec["k_min"], rec["tau_min"])
                argv = ["count", str(path), "--order", order]
                tasks.append(Task(f"count {path.name} {order}",
                                  lambda argv=argv: cli_call(pkg, argv),
                                  check_count(expected), cli_out_bytes,
                                  (path, order, rec["R"])))
    return Prepared(pkg, tasks)


def setup_fixed_k(pkg, answers, rng, write) -> Prepared:
    tasks = []
    for rung in answers["rungs"]:
        for order, pool in rung["pools"].items():
            for seed in pick(rng, pool, rung["pick"]):
                rec = pool[str(seed)]
                path = write(rung, seed)
                for j, (count, want) in enumerate(zip(rec["counts"], rec["digests"])):
                    k = rec["k_min"] + j
                    argv = ["enumerate", str(path), "--k", str(k), "--order", order]
                    tasks.append(Task(f"enumerate {path.name} {order} k={k}",
                                      lambda argv=argv: cli_call(pkg, argv),
                                      check_enumerate(count, want), cli_out_bytes,
                                      (path, order, rec["R"])))
    return Prepared(pkg, tasks)


# ----- query-mix -------------------------------------------------------------

def setup_query_mix(pkg, answers, rng, write) -> Prepared:
    [seed] = pick(rng, answers["pool"], 1)
    rec = answers["pool"][str(seed)]
    path = write(answers, seed)
    edges = edges_of(path.read_text(encoding="utf-8"))
    spectrum = rec["spectrum"]
    k_min = rec["k_min"]
    state: dict = {}

    def build() -> None:
        hg = pkg.hypergraph.load_hypergraph(str(path))
        state["family"] = pkg.engine.run(hg)

    def is_transversal(xs) -> bool:
        members = frozenset(xs)
        return all(edge & members for edge in edges)

    def filter_task(req, forb, n):
        def call():
            an = pkg.analytics
            return an.count_total(an.filter_family(state["family"], require=req,
                                                   forbid=forb))
        return call, lambda got: got == n

    def at_least_task(k):
        return (lambda: pkg.analytics.count_at_least(state["family"], k),
                lambda got: got == sum(spectrum[k:]))

    def enumerate_task(k):
        def call():
            found = pkg.analytics.transversals_of_size(state["family"], k)
            return list(itertools.islice(found, ENUM_CAP))

        def check(got) -> bool:
            lines = [" ".join(map(str, xs)) for xs in got]
            if len(got) != min(ENUM_CAP, spectrum[k]) or len(set(lines)) != len(lines):
                return False
            if str(k) in rec["digests"]:
                return digest(lines) == rec["digests"][str(k)]
            return all(len(xs) == k and is_transversal(xs) for xs in got)
        return call, check

    def spectrum_task():
        return (lambda: pkg.analytics.spectrum(state["family"]),
                lambda got: list(got.counts) == spectrum and got.total == rec["N"])

    def number_task():
        return (lambda: pkg.analytics.transversal_number(state["family"]),
                lambda got: tuple(got) == (k_min, rec["tau_min"]))

    catalogue = dict(enumerate(rec["filters"]))
    filters = [catalogue[i] for i in pick(rng, catalogue, QUERY_MIX["filter"])]
    queries = [("filter", filter_task(f["require"], f["forbid"], f["N"]),
                f"+{f['require']} -{f['forbid']}") for f in filters]
    # k cycles through its range, so every seed asks the same mix of sizes
    for i in range(QUERY_MIX["count_at_least"]):
        k = k_min + i % (AT_LEAST_SPAN + 1)
        queries.append(("count_at_least", at_least_task(k), k))
    for i in range(QUERY_MIX["enumerate"]):
        k = k_min + i % 3
        queries.append(("enumerate", enumerate_task(k), k))
    queries += [("spectrum", spectrum_task(), "")] * QUERY_MIX["spectrum"]
    queries += [("transversal_number", number_task(), "")] * QUERY_MIX["transversal_number"]
    rng.shuffle(queries)
    tasks = [Task(f"{kind} {arg}", call, check)
             for kind, (call, check), arg in queries]
    build()
    return Prepared(pkg, tasks, (path, "input", rec["R"]), state, build)


SETUPS = {"count-ladder": setup_count_ladder, "query-mix": setup_query_mix,
          "fixed-k": setup_fixed_k}


def setup(workload: str, seed: int, src: Path, workdir: Path,
          limit: int | None = None) -> Prepared:
    """Import the package, draw this seed's instances and write them out,
    and build the task list (for query-mix, also the family).

    ``limit`` keeps only the first tasks, for smoke tests.
    """
    pkg = import_package(src)
    answers = load_answers()[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    write = Writer(workdir)
    prepared = SETUPS[workload](pkg, answers, random.Random(seed), write)
    prepared.write_s = write.seconds
    if limit is not None:
        prepared.tasks = prepared.tasks[:limit]
    return prepared
