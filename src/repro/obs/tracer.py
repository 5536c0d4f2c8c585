"""Phase spans: monotonic timings with tick attribution.

A :class:`Span` is one timed phase of a decision — ``analyze``,
``compile_plans``, ``enumerate_valuations``, a solver invocation — with
a parent link (spans nest), wall-clock bounds from
:func:`time.perf_counter` (``CLOCK_MONOTONIC``, comparable across
forked workers on the platforms the parallel layer targets), and a
per-kind *tick delta*: the governor budget-ledger work charged while
the span was open.  The :class:`Tracer` maintains the span stack, so
instrumentation sites never pass parent ids around — they just open a
span and the nesting falls out of dynamic scope.

Tracing is observation-only by construction: spans read the budget
ledger (:meth:`~repro.runtime.budget.Budget.snapshot`) but never charge
it, and a disabled tracer yields no spans at all, so a traced search
examines exactly what an untraced one does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer"]

#: Ledger snapshots are plain ``{kind: ticks}`` dicts.
TickSnapshot = dict[str, int]


class Span:
    """One completed (or in-flight) phase."""

    __slots__ = ("name", "span_id", "parent_id", "started", "ended",
                 "attributes", "ticks", "_tick_base")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 started: float, *,
                 attributes: dict[str, Any] | None = None,
                 tick_base: TickSnapshot | None = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started = started
        self.ended = started
        self.attributes = attributes or {}
        #: Per-kind governor ticks charged while the span was open.
        self.ticks: TickSnapshot = {}
        self._tick_base = tick_base

    @property
    def duration(self) -> float:
        return max(0.0, self.ended - self.started)

    def close(self, ended: float,
              tick_now: TickSnapshot | None) -> None:
        self.ended = ended
        if self._tick_base is not None and tick_now is not None:
            base = self._tick_base
            self.ticks = {
                kind: delta for kind, total in tick_now.items()
                if (delta := total - base.get(kind, 0)) > 0}
        self._tick_base = None

    def to_record(self) -> dict:
        """The JSONL wire form (see :mod:`repro.obs.trace_io`)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.started,
            "end": self.ended,
            "dur": self.duration,
            "ticks": dict(self.ticks),
            "attrs": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (f"Span[{self.name} #{self.span_id} "
                f"{self.duration * 1e3:.3f}ms ticks={self.ticks}]")


class Tracer:
    """Span factory + stack; completed spans accumulate in order.

    ``tick_source`` is a zero-argument callable returning the current
    per-kind tick ledger (normally the attached governor's
    ``budget.snapshot``); each span diffs it between open and close to
    attribute search work to phases.  ``on_span_end`` hooks fire with
    each completed span (external sinks, metrics bridging).

    ``max_spans`` bounds memory on adversarial workloads (a QBF
    expansion can invoke the SAT solver exponentially often): past the
    cap new spans are silently dropped — dropped spans are always
    leaves, so the recorded tree stays well-formed — and
    ``dropped_spans`` counts them.
    """

    __slots__ = ("enabled", "spans", "on_span_end", "max_spans",
                 "dropped_spans", "_stack", "_next_id", "_tick_source")

    def __init__(self, *, enabled: bool = True,
                 tick_source: Callable[[], TickSnapshot] | None = None,
                 max_spans: int = 100_000) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.on_span_end: list[Callable[[Span], None]] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._stack: list[Span] = []
        self._next_id = 0
        self._tick_source = tick_source

    def bind_tick_source(
            self, source: Callable[[], TickSnapshot] | None) -> None:
        self._tick_source = source

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span | None]:
        """Open a phase span; nests under the innermost open span."""
        if not self.enabled:
            yield None
            return
        if len(self.spans) + len(self._stack) >= self.max_spans:
            self.dropped_spans += 1
            yield None
            return
        source = self._tick_source
        span = Span(
            name, self._next_id,
            self._stack[-1].span_id if self._stack else None,
            time.perf_counter(),
            attributes=attributes or None,
            tick_base=source() if source is not None else None)
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.close(time.perf_counter(),
                       source() if source is not None else None)
            self.spans.append(span)
            for hook in self.on_span_end:
                hook(span)

    def annotate_root(self, **attributes: Any) -> None:
        """Set *attributes* on the outermost open span (the decision's
        root span), if one is open."""
        if self._stack:
            self._stack[0].attributes.update(attributes)

    def to_records(self) -> list[dict]:
        return [span.to_record() for span in self.spans]

    def absorb(self, records: list[dict], *,
               lane: str | None = None) -> None:
        """Graft spans exported by another tracer (a worker) into this
        one: ids are re-issued, the foreign roots are re-parented under
        the currently open span, and every grafted span is stamped with
        *lane* so overlap checks know which spans shared a thread of
        execution.  ``on_span_end`` hooks do not re-fire — the worker's
        own hooks already saw these spans."""
        if not self.enabled or not records:
            return
        graft_parent = self._stack[-1].span_id if self._stack else None
        remap: dict[int, int] = {}
        for record in records:
            remap[record["id"]] = self._next_id
            self._next_id += 1
        for record in records:
            attributes = dict(record.get("attrs") or {})
            if lane is not None:
                attributes.setdefault("lane", lane)
            span = Span(record["name"], remap[record["id"]],
                        remap.get(record["parent"], graft_parent),
                        record["start"], attributes=attributes or None)
            span.ended = record["end"]
            span.ticks = dict(record.get("ticks") or {})
            self.spans.append(span)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"Tracer[{state}, {len(self.spans)} span(s), "
                f"depth={len(self._stack)}]")
