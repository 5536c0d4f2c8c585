"""Per-layer tracing: spans recorded around calls into each layer.

The benchmark installs wrappers from this file around the public
functions of each layer, patching every attribute where its caller
looks it up (``repro.core.rcdp.iter_valid_valuations``, not just
``repro.core.valuations.iter_valid_valuations``), so the program itself
is never edited.  Spans live in memory and are written out when the run
ends.

Two kinds of span are kept:

* **boundary spans** (an op, a bundle load, an analysis pass, a search
  set-up, a pool round) are recorded one by one with their name, start,
  end, parent span and op id;
* **hot spans** (per valuation, per tableau row or per candidate: the
  enumerator's ``next()``, the IND row filter, ``summary_under``, row
  ``instantiate``, the constraint check, plan lookups and evaluations)
  run up to hundreds of thousands of times per op, so they are folded
  into per-name totals (calls, inclusive and self nanoseconds) instead
  of being stored.

Self time is a span's duration minus the part its child spans cover.
Under ``fork`` the worker processes inherit the wrappers, but what they
record dies with them: for sharded ops the parent sees only its own
spans (the parallel entry point, the pool wait, its analysis pass).
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: Span names recorded one by one (a few per decision); every other
#: name is folded into per-name totals.
BOUNDARY = frozenset({
    "op", "io.load", "analysis.validate", "constraints.closedness",
    "core.prepare", "core.adom", "backends.attach", "parallel.call",
    "parallel.pool"})


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> [calls, inclusive ns, self ns] (outermost per name)
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        #: Open frames: [span id, name, start ns, child ns].
        self._stack: list[list] = []
        self._next_id = 0
        self.shard_skews: list[float] = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped is frame, "unbalanced span stack"
        span_id, name, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        # A name nested inside itself (evaluate inside evaluate) counts
        # once, at its outermost occurrence.
        if not any(f[1] == name for f in self._stack):
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += duration
        self.totals[name][2] += duration - child
        if name in BOUNDARY:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((self.op_id, span_id, parent, name,
                               start, end))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- reporting -----------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def inclusive_ns(self, name: str) -> int:
        return self.totals[name][1] if name in self.totals else 0

    def self_ns(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def dump(self, path: str) -> None:
        """Write the boundary spans and the hot-span totals as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["op", "span", "parent", "name", "start_ns",
                           "end_ns"],
                "spans": self.spans,
                "totals": {name: dict(zip(("calls", "inclusive_ns",
                                           "self_ns"), entry))
                           for name, entry in self.totals.items()},
                "counts": dict(self.counts),
            }, handle)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _traced_call(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _traced_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each ``next()`` of the generator *fn* returns: the time
    spent inside the enumerator, with the consumer's work excluded."""

    def wrapper(*args: Any, **kwargs: Any) -> Iterator:
        inner = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.enter(name)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.count("valuations.count")
                yield value
        finally:
            inner.close()

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _traced_split(tracer: Tracer, fn: Callable) -> Callable:
    """Wrap ``split_ind_constraints`` so the row filter it returns is
    timed and its pass rate counted."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        row_filter, others = fn(*args, **kwargs)
        if row_filter is None:
            return row_filter, others

        def traced_filter(relation: str, row: tuple) -> bool:
            frame = tracer.enter("valuations.filter")
            try:
                passed = row_filter(relation, row)
            finally:
                tracer.exit(frame)
            if passed:
                tracer.count("valuations.filter_pass")
            return passed

        return traced_filter, others

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _traced_run_shards(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter("parallel.pool")
        try:
            outcomes = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        consumed = [outcome.consumed for outcome in outcomes]
        if consumed and min(consumed) > 0:
            tracer.shard_skews.append(max(consumed) / min(consumed))
        return outcomes

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _targets() -> list[tuple[str, str, str, str]]:
    """``(module, attribute path, span name, wrapper kind)`` for every
    patch; each module is one where a caller looks the name up at call
    time."""
    call, gen = "call", "generator"
    targets = [
        ("repro.io.json_io", "load_bundle", "io.load", call),
        ("repro.relational.backends", "create_storage", "backends.attach",
         call),
        ("repro.core.valuations", "ActiveDomain.build", "core.adom",
         "classmethod"),
        ("repro.core.rcdp", "_prepare_search", "core.prepare", call),
        ("repro.queries.tableau", "Tableau.summary_under",
         "tableau.summary", call),
        ("repro.queries.tableau", "TableauRow.instantiate",
         "tableau.instantiate", call),
        ("repro.engine.context", "EvaluationContext.plan_for",
         "engine.compile", call),
        ("repro.engine.context", "EvaluationContext.evaluate",
         "engine.eval", call),
        ("repro.engine.context", "EvaluationContext.evaluate_extension",
         "engine.delta", call),
        ("repro.engine.context", "EvaluationContext.extension_satisfies",
         "engine.delta", call),
        ("repro.parallel.api", "run_shards", "parallel.pool", "pool"),
    ]
    for module in ("repro.core.rcdp", "repro.core.rcqp",
                   "repro.parallel.api"):
        targets.append((module, "validate_for_decision",
                        "analysis.validate", call))
    for module in ("repro.core.rcdp", "repro.incomplete.counting",
                   "repro.parallel.api"):
        targets.append((module, "ensure_partially_closed",
                        "constraints.closedness", call))
    for module in ("repro.core.rcdp", "repro.core.rcqp",
                   "repro.incomplete.counting"):
        targets.append((module, "satisfies_all_extension",
                        "constraints.check", call))
        targets.append((module, "iter_valid_valuations",
                        "valuations.next", gen))
    for module in ("repro.core.rcdp", "repro.incomplete.counting"):
        targets.append((module, "split_ind_constraints",
                        "valuations.split", "split"))
    for entry in ("decide_rcdp_parallel", "missing_answers_parallel",
                  "decide_rcqp_parallel", "decide_rcqp_with_inds_parallel"):
        targets.append(("repro.parallel.api", entry, "parallel.call", call))
    for module, cls in (
            ("repro.relational.backends", "StorageBackend"),
            ("repro.relational.backends.python_rows", "PythonRowStorage"),
            ("repro.relational.backends.columnar", "ColumnarStorage"),
            ("repro.relational.backends.sqlite", "SQLiteStorage")):
        for method in ("plan_rows", "plan_rows_extended", "plan_violates"):
            targets.append((module, f"{cls}.{method}",
                            f"backends.{method}", "method-if-own"))
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every layer boundary to record into *tracer*; returns the
    function that restores the originals."""
    restore: list[tuple[Any, str, Any]] = []
    for module_name, path, name, kind in _targets():
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        if kind == "method-if-own" and attribute not in vars(owner):
            continue  # inherited: wrapping the base class covers it
        original = vars(owner)[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if kind == "classmethod":
            wrapped: Any = classmethod(
                _traced_call(tracer, name, original.__func__))
        elif kind == "generator":
            wrapped = _traced_generator(tracer, name, original)
        elif kind == "split":
            wrapped = _traced_split(tracer, original)
        elif kind == "pool":
            wrapped = _traced_run_shards(tracer, original)
        else:
            wrapped = _traced_call(tracer, name, original)
        restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric with its unit, in report order.  ``_ms`` /
#: ``_us`` are per call of the named function unless the README says
#: "per op".
METRICS = (
    ("io.load_ms", "ms"),
    ("analysis.validate_ms", "ms"),
    ("analysis.calls", "count"),
    ("constraints.closedness_ms", "ms"),
    ("constraints.checks", "count"),
    ("constraints.check_us", "us"),
    ("core.prepare_ms", "ms"),
    ("core.self_ms", "ms"),
    ("valuations.count", "count"),
    ("valuations.enum_us", "us"),
    ("valuations.filter_calls", "count"),
    ("valuations.filter_pass_ratio", "ratio"),
    ("tableau.summary_us", "us"),
    ("tableau.summary_calls", "count"),
    ("tableau.instantiate_us", "us"),
    ("tableau.instantiate_calls", "count"),
    ("engine.compile_ms", "ms"),
    ("engine.eval_ms", "ms"),
    ("engine.delta_us", "us"),
    ("engine.delta_calls", "count"),
    ("engine.plans_compiled", "count"),
    ("engine.index_builds", "count"),
    ("engine.delta_evaluations", "count"),
    ("engine.full_evaluations", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("backends.attach_calls", "count"),
    ("backends.plan_rows_calls", "count"),
    ("backends.plan_rows_extended_calls", "count"),
    ("backends.plan_violates_calls", "count"),
    ("incomplete.extensions_per_check", "ratio"),
    ("parallel.pool_wait_ms", "ms"),
    ("parallel.merge_ms", "ms"),
    ("parallel.shard_skew", "ratio"),
    ("parallel.speedup.dense", "ratio"),
    ("parallel.speedup.pruned", "ratio"),
    ("parallel.speedup.denial", "ratio"),
    ("parallel.speedup.rcqp", "ratio"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.first_call_ms", "ms"),
    ("trace.overhead", "ratio"),
)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _outer_adom(tracer: Tracer) -> tuple[int, int]:
    """ActiveDomain builds not nested in ``_prepare_search`` (the RCQP
    and counting procedures build theirs directly): (calls, ns)."""
    parent_of = {span: (parent, name)
                 for _, span, parent, name, _, _ in tracer.spans}
    calls = total = 0
    for _, span, parent, name, start, end in tracer.spans:
        if name != "core.adom":
            continue
        while parent is not None and parent_of[parent][1] != "core.prepare":
            parent = parent_of[parent][0]
        if parent is None:
            calls += 1
            total += end - start
    return calls, total


def layer_metrics(tracer: Tracer, parallel: Tracer, *, ops: int,
                  counters: dict, speedups: dict[str, float],
                  cli: dict[str, float], overhead: float) -> dict:
    """The per-layer metrics of one traced pass.

    *tracer* recorded the workload's in-process ops (*ops* of them);
    *parallel* recorded sharded ops (the same tracer for the sharded
    workload); *counters* sums the traced ops' ``SearchStatistics``.
    """
    ms, us = 1e-6, 1e-3
    adom_calls, adom_ns = _outer_adom(tracer)
    hits = counters.get("engine_cache_hits", 0)
    lookups = (hits + counters.get("plans_compiled", 0)
               + counters.get("full_evaluations", 0))
    filter_calls = tracer.calls("valuations.filter")
    valuations = tracer.counts["valuations.count"]
    pool_calls = parallel.calls("parallel.call")
    values = {
        "io.load_ms": _per(tracer.inclusive_ns("io.load") * ms,
                           tracer.calls("io.load")),
        "analysis.validate_ms": _per(
            tracer.inclusive_ns("analysis.validate") * ms,
            tracer.calls("analysis.validate")),
        "analysis.calls": tracer.calls("analysis.validate"),
        "constraints.closedness_ms": _per(
            tracer.inclusive_ns("constraints.closedness") * ms,
            tracer.calls("constraints.closedness")),
        "constraints.checks": tracer.calls("constraints.check"),
        "constraints.check_us": _per(
            tracer.inclusive_ns("constraints.check") * us,
            tracer.calls("constraints.check")),
        "core.prepare_ms": _per(
            (tracer.inclusive_ns("core.prepare") + adom_ns) * ms,
            tracer.calls("core.prepare") + adom_calls),
        "core.self_ms": _per(tracer.self_ns("op") * ms, ops),
        "valuations.count": valuations,
        "valuations.enum_us": _per(
            tracer.inclusive_ns("valuations.next") * us, valuations),
        "valuations.filter_calls": filter_calls,
        "valuations.filter_pass_ratio": _per(
            tracer.counts["valuations.filter_pass"], filter_calls),
        "tableau.summary_us": _per(
            tracer.inclusive_ns("tableau.summary") * us,
            tracer.calls("tableau.summary")),
        "tableau.summary_calls": tracer.calls("tableau.summary"),
        "tableau.instantiate_us": _per(
            tracer.inclusive_ns("tableau.instantiate") * us,
            tracer.calls("tableau.instantiate")),
        "tableau.instantiate_calls": tracer.calls("tableau.instantiate"),
        "engine.compile_ms": _per(
            tracer.inclusive_ns("engine.compile") * ms, ops),
        "engine.eval_ms": _per(tracer.inclusive_ns("engine.eval") * ms, ops),
        "engine.delta_us": _per(tracer.inclusive_ns("engine.delta") * us,
                                tracer.calls("engine.delta")),
        "engine.delta_calls": tracer.calls("engine.delta"),
        "engine.plans_compiled": counters.get("plans_compiled", 0),
        "engine.index_builds": counters.get("index_builds", 0),
        "engine.delta_evaluations": counters.get("delta_evaluations", 0),
        "engine.full_evaluations": counters.get("full_evaluations", 0),
        "engine.cache_hit_ratio": _per(hits, lookups),
        "backends.attach_calls": tracer.calls("backends.attach"),
        "backends.plan_rows_calls": tracer.calls("backends.plan_rows"),
        "backends.plan_rows_extended_calls":
            tracer.calls("backends.plan_rows_extended"),
        "backends.plan_violates_calls":
            tracer.calls("backends.plan_violates"),
        "incomplete.extensions_per_check": _per(
            counters.get("extensions", 0),
            counters.get("general_checks", 0)),
        "parallel.pool_wait_ms": _per(
            parallel.inclusive_ns("parallel.pool") * ms, pool_calls),
        "parallel.merge_ms": _per(
            (parallel.inclusive_ns("parallel.call")
             - parallel.inclusive_ns("parallel.pool")) * ms, pool_calls),
        "parallel.shard_skew": (statistics.median(parallel.shard_skews)
                                if parallel.shard_skews else 0.0),
        "cli.interpreter_ms": cli["interpreter_ms"],
        "cli.import_ms": cli["import_ms"],
        "cli.first_call_ms": cli["first_call_ms"],
        "trace.overhead": overhead,
    }
    for kind, ratio in speedups.items():
        values[f"parallel.speedup.{kind}"] = ratio
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS}


def backend_times(tracer: Tracer) -> dict[str, float | None]:
    """Per-call storage-backend times in µs (None when never called: the
    default python backend evaluates without the storage seam)."""
    times: dict[str, float | None] = {}
    for name in ("backends.attach", "backends.plan_rows",
                 "backends.plan_rows_extended", "backends.plan_violates"):
        calls = tracer.calls(name)
        times[name] = (tracer.inclusive_ns(name) / 1e3 / calls
                       if calls else None)
    return times
