"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public names of the ``transversals`` modules, at
the places where the program looks them up, with wrappers that time each
call.  Every timed call opens a region on one stack; a region's self time is
its duration minus the time of the regions nested in it, so the self times
of all regions of a task add up to the task's duration.

Task-level and layer-entry calls (``SPANS``) are also kept as spans (name,
start, end, parent span, task id).  The hot inner calls, such as the millions
of ``Row`` constructions, are not kept one by one: they are summed per
enclosing span name, so the trace stays small.  ``Tracer.remove`` puts the
original names back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from types import SimpleNamespace

# Names whose calls are kept as spans; all others are only aggregated.
SPANS = {"task", "cli.main", "hypergraph.load", "engine.run",
         "analytics.count_total", "analytics.spectrum", "analytics.count_at_least",
         "analytics.transversal_number", "analytics.filter"}

ANALYTICS = {"count_total": "analytics.count_total", "spectrum": "analytics.spectrum",
             "count_at_least": "analytics.count_at_least",
             "transversal_number": "analytics.transversal_number",
             "filter_family": "analytics.filter"}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []        # open regions: [start, child time]
        self.open_spans: list[tuple[int, str]] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.by_parent: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # calls, self
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []             # id, name, start, end, parent id, task id
        self.task_id: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ----- regions ------------------------------------------------------------

    def enter(self, name: str) -> list[float]:
        frame = [0.0, 0.0]
        if name in SPANS:
            self.open_spans.append((len(self.spans), name))
            self.spans.append(None)              # filled in by leave()
        self.stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def leave(self, name: str, frame: list[float], count: bool = True) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        elapsed = end - frame[0]
        if stack:
            stack[-1][1] += elapsed
        own = elapsed - frame[1]
        total = self.totals[name]
        total[0] += count
        total[1] += elapsed
        total[2] += own
        if name in SPANS:
            span_id, _ = self.open_spans.pop()
            parent = self.open_spans[-1][0] if self.open_spans else None
            self.spans[span_id] = (span_id, name, frame[0], end, parent, self.task_id)
        else:
            parent = self.open_spans[-1][1] if self.open_spans else None
            agg = self.by_parent[(parent, name)]
            agg[0] += count
            agg[1] += own

    def run_task(self, task_id: str, call):
        self.task_id = task_id
        frame = self.enter("task")
        try:
            return call()
        finally:
            self.leave("task", frame)

    # ----- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def timed_iter(self, name: str, iterator, counter: str | None = None):
        """Yield from ``iterator``, timing each step as a region of ``name``."""
        enter, leave, counters = self.enter, self.leave, self.counters
        iterator = iter(iterator)
        while True:
            frame = enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                leave(name, frame, count=False)
            if counter is not None:
                counters[counter] += 1
            yield item

    def generator(self, name: str, fn, counter: str | None = None):
        """Wrap a function returning an iterator: count the call, time the steps."""
        def wrapper(*args, **kwargs):
            self.totals[name][0] += 1
            return self.timed_iter(name, fn(*args, **kwargs), counter)
        return wrapper

    def patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self, pkg: SimpleNamespace) -> None:
        counters = self.counters

        def after_impose(sons, args):
            if len(sons) == 1 and sons[0] is args[0]:
                counters["engine.passthrough"] += 1
            else:
                counters["engine.sons"] += len(sons)

        def after_feasible(ok, args):
            counters["engine.kept"] += bool(ok)

        def after_run(family, args):
            counters["engine.rows_final"] += len(family.rows)
            stats = getattr(family, "stats", None)
            counters["engine.max_stack"] = max(counters["engine.max_stack"],
                                               getattr(stats, "max_stack", 0))

        def after_filter(family, args):
            counters["analytics.filter_rows_in"] += len(args[0].rows)
            counters["analytics.filter_rows_out"] += len(family.rows)

        def wrap(owner, attr, name, after=None):
            if hasattr(owner, attr):              # a renamed name is not traced
                self.patch(owner, attr, self.timed(name, getattr(owner, attr), after))

        engine, cli, analytics, rows = pkg.engine, pkg.cli, pkg.analytics, pkg.rows
        row = rows.Row
        wrap(row, "__post_init__", "rows.construct")
        wrap(row, "counts_by_size", "rows.counts_by_size")
        wrap(row, "require", "rows.surgery")
        wrap(row, "forbid", "rows.surgery")
        if hasattr(row, "members_of_size"):
            self.patch(row, "members_of_size",
                       self.generator("rows.members", row.members_of_size,
                                      "rows.members_yielded"))
        wrap(engine, "impose", "engine.impose", after_impose)
        wrap(engine, "is_feasible", "engine.feasible", after_feasible)
        wrap(engine, "is_extra_feasible", "engine.feasible", after_feasible)
        for module in (cli, engine):
            wrap(module, "run", "engine.run", after_run)
        for module in (cli, pkg.hypergraph):
            wrap(module, "load_hypergraph", "hypergraph.load")
        for module in (cli, analytics):
            for attr, name in ANALYTICS.items():
                wrap(module, attr, name, after_filter if attr == "filter_family" else None)
            if hasattr(module, "transversals_of_size"):
                self.patch(module, "transversals_of_size",
                           self.generator("analytics.enumerate",
                                          module.transversals_of_size))
        wrap(cli, "main", "cli.main")

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        t, c = self.totals, self.counters

        def calls(name):
            return t[name][0] if name in t else 0

        def total(name):
            return t[name][1] if name in t else 0.0

        def own(name):
            return t[name][2] if name in t else 0.0

        feasible = calls("engine.feasible")
        out = {
            "hypergraph.load_calls": (calls("hypergraph.load"), "count"),
            "hypergraph.load_s": (own("hypergraph.load"), "s"),
            "cli.main_s": (total("cli.main"), "s"),
            "cli.self_s": (own("cli.main"), "s"),
            "cli.out_bytes": (c["cli.out_bytes"], "B"),
            "engine.run_calls": (calls("engine.run"), "count"),
            "engine.run_s": (total("engine.run"), "s"),
            "engine.run_self_s": (own("engine.run"), "s"),
            "engine.impose_calls": (calls("engine.impose"), "count"),
            "engine.impose_self_s": (own("engine.impose"), "s"),
            "engine.sons": (c["engine.sons"], "count"),
            "engine.passthrough": (c["engine.passthrough"], "count"),
            "engine.feasible_calls": (feasible, "count"),
            "engine.feasible_s": (own("engine.feasible"), "s"),
            "engine.sons_kept_ratio": (c["engine.kept"] / feasible if feasible else 0.0,
                                       "ratio"),
            "engine.rows_final": (c["engine.rows_final"], "count"),
            "engine.max_stack": (c["engine.max_stack"], "count"),
            "rows.construct_calls": (calls("rows.construct"), "count"),
            "rows.construct_s": (own("rows.construct"), "s"),
            "rows.counts_by_size_calls": (calls("rows.counts_by_size"), "count"),
            "rows.counts_by_size_s": (own("rows.counts_by_size"), "s"),
            "rows.surgery_calls": (calls("rows.surgery"), "count"),
            "rows.surgery_s": (own("rows.surgery"), "s"),
            "rows.members_yielded": (c["rows.members_yielded"], "count"),
            "rows.members_s": (own("rows.members"), "s"),
        }
        for name in ("count_total", "spectrum", "count_at_least", "transversal_number",
                     "enumerate", "filter"):
            out[f"analytics.{name}_s"] = (own(f"analytics.{name}"), "s")
            out[f"analytics.{name}_calls"] = (calls(f"analytics.{name}"), "count")
        out["analytics.filter_rows_in"] = (c["analytics.filter_rows_in"], "count")
        out["analytics.filter_rows_out"] = (c["analytics.filter_rows_out"], "count")
        return out

    def self_time_sum(self) -> float:
        """Self time of every region, tasks included: equals the traced tasks'
        total duration up to the clock reads outside the regions."""
        return sum(own for _, _, own in self.totals.values())

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "task"), s))
                      for s in self.spans if s is not None],
            "by_parent": [{"parent": p, "name": n, "calls": a[0], "self_s": a[1]}
                          for (p, n), a in sorted(self.by_parent.items(), key=str)],
            "totals": {n: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                       for n, a in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
        }
