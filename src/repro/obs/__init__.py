"""``repro.obs`` — unified tracing, metrics, and profiling.

The observability layer rides on the :class:`ExecutionGovernor`: an
:class:`Observation` (one :class:`~repro.obs.tracer.Tracer` plus one
:class:`~repro.obs.metrics.MetricsRegistry`) attaches to the
governor's ``obs`` slot and every instrumented site reaches it through
:func:`obs_of`.  No governor — or a governor without an observation —
means :func:`obs_span` hands back a shared null context and the hot
paths stay exactly as fast as before; that invariant is gated by
``benchmarks/bench_engine.py``.

Two hard rules keep tracing *observation-only* (property-tested in
``tests/test_obs.py``):

* instrumentation never charges the governor, touches the search
  order, or changes any verdict/witness/statistics;
* spans read the budget ledger (``budget.snapshot``) to attribute
  ticks to phases, but never write it.

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the metrics
catalog, and the JSONL trace format.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, ContextManager

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.export import (event_records, prometheus_lines,
                                  render_events, render_prometheus,
                                  write_events, write_prometheus)
    from repro.obs.ledger import (LEDGER_ENV, LEDGER_VERSION, RunRecord,
                                  append_record, check_ledger,
                                  ledger_metrics, ledger_report,
                                  read_ledger, render_summary, run_key,
                                  statistics_fields, summarize_ledger)
    from repro.obs.metrics import MetricsRegistry, merged_span_ticks
    from repro.obs.profile import profile_rows, render_profile
    from repro.obs.progress import ProgressReporter
    from repro.obs.tracer import Span, Tracer
    from repro.obs.trace_io import (PROCEDURE_TICK_FIELDS, TRACE_VERSION,
                                    atomic_write_text, check_trace,
                                    read_trace, trace_records, write_trace)
    from repro.runtime.governor import ExecutionGovernor

__all__ = [
    "Observation", "obs_of", "obs_span", "traced",
    "Tracer", "Span", "MetricsRegistry",
    "profile_rows", "render_profile", "merged_span_ticks",
    "trace_records", "write_trace", "read_trace", "check_trace",
    "atomic_write_text", "TRACE_VERSION", "PROCEDURE_TICK_FIELDS",
    # The cross-run layer (run ledger, live progress, export).
    "LEDGER_VERSION", "LEDGER_ENV", "RunRecord", "run_key",
    "statistics_fields", "append_record", "read_ledger", "check_ledger",
    "summarize_ledger", "render_summary", "ledger_report",
    "ledger_metrics", "ProgressReporter",
    "prometheus_lines", "render_prometheus", "write_prometheus",
    "event_records", "render_events", "write_events",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.obs.export": ("event_records", "prometheus_lines",
                         "render_events", "render_prometheus",
                         "write_events", "write_prometheus"),
    "repro.obs.ledger": ("LEDGER_ENV", "LEDGER_VERSION", "RunRecord",
                         "append_record", "check_ledger", "ledger_metrics",
                         "ledger_report", "read_ledger", "render_summary",
                         "run_key", "statistics_fields", "summarize_ledger"),
    "repro.obs.metrics": ("MetricsRegistry", "merged_span_ticks"),
    "repro.obs.profile": ("profile_rows", "render_profile"),
    "repro.obs.progress": ("ProgressReporter",),
    "repro.obs.tracer": ("Span", "Tracer"),
    "repro.obs.trace_io": ("PROCEDURE_TICK_FIELDS", "TRACE_VERSION",
                           "atomic_write_text", "check_trace", "read_trace",
                           "trace_records", "write_trace"),
})

#: Shared, stateless "not tracing" context — ``nullcontext`` keeps no
#: per-use state, so one instance serves every disabled span site.
_NULL_SPAN: ContextManager[None] = nullcontext()


class Observation:
    """One tracer + one metrics registry, bound to a governor."""

    __slots__ = ("tracer", "metrics", "_annotations")

    def __init__(self, *, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        # Imported here: every decider imports this package, and only an
        # observed run needs the tracer and the registry.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Attributes queued for the next root span (see :meth:`annotate`).
        self._annotations: dict[str, Any] = {}
        # Bridge: every completed span lands in the registry as a call
        # counter + duration histogram.
        self.tracer.on_span_end.append(self.metrics.record_span)

    @classmethod
    def attach(cls, governor: "ExecutionGovernor", *,
               enabled: bool = True,
               max_spans: int = 100_000) -> "Observation":
        """Create an observation and bind it to *governor*: spans will
        diff the governor's budget ledger for tick attribution, and
        every instrumented site on the governor's path will see it."""
        from repro.obs.tracer import Tracer

        observation = cls(tracer=Tracer(enabled=enabled,
                                        max_spans=max_spans))
        if governor.budget is not None:
            observation.tracer.bind_tick_source(governor.budget.snapshot)
        governor.obs = observation
        return observation

    # ------------------------------------------------------------------
    # Root-span annotations
    # ------------------------------------------------------------------

    def annotate(self, **attributes: Any) -> None:
        """Queue *attributes* for the next ``@traced`` root span.

        The CLI preflight records the static cost estimate here before
        calling a decider; :func:`traced` drains the queue into the
        decision's root span, so the prediction travels with the trace
        (``repro trace`` shows it next to the actual tick ledger).
        Harmless without a consumer — the queue is just dropped.
        """
        self._annotations.update(attributes)

    def take_annotations(self) -> dict[str, Any]:
        """Drain the queued root-span attributes."""
        taken, self._annotations = self._annotations, {}
        return taken

    # ------------------------------------------------------------------
    # Finalization and parallel merge
    # ------------------------------------------------------------------

    def finalize(self, governor: "ExecutionGovernor | None" = None,
                 statistics: Any | None = None) -> None:
        """Absorb the run's terminal counters into the registry: the
        governor's per-kind tick ledger and the decision's
        ``SearchStatistics`` (engine counters and analyzer warnings
        included)."""
        if governor is not None and governor.budget is not None:
            self.metrics.record_ticks(governor.budget.snapshot())
        if statistics is not None:
            self.metrics.record_statistics(statistics)

    def payload(self) -> dict:
        """The picklable wire form a worker ships home on its
        :class:`~repro.parallel.worker.ShardOutcome`."""
        return {"spans": self.tracer.to_records(),
                "metrics": self.metrics.snapshot()}

    def absorb_outcomes(self, outcomes: Any) -> None:
        """Rank-merge worker observations (and per-shard bookkeeping)
        into this one, in shard order.  Outcomes without a payload —
        done shards answered inline by the pool — still contribute
        their consumed/done gauges."""
        for outcome in sorted(outcomes, key=lambda o: o.index):
            self.metrics.record_shard(
                outcome.index, consumed=outcome.consumed,
                done=(outcome.kind == "complete"))
            payload = getattr(outcome, "obs", None)
            if not payload:
                continue
            # Retried shards get a per-attempt lane (``shard-N.aK``) so
            # the per-lane overlap checks of ``check_trace`` stay valid
            # even though attempts of one shard overlap in time.
            lane = f"shard-{outcome.index}"
            attempt = getattr(outcome, "attempt", 0)
            if attempt:
                lane += f".a{attempt}"
            self.tracer.absorb(payload.get("spans") or [], lane=lane)
            self.metrics.merge(payload.get("metrics") or {})

    def __repr__(self) -> str:
        return f"Observation[{self.tracer!r}, {self.metrics!r}]"


def obs_of(governor: "ExecutionGovernor | None") -> Observation | None:
    """The observation attached to *governor*, if any."""
    return getattr(governor, "obs", None)


def obs_span(observation: Observation | None, name: str,
             **attributes: Any) -> ContextManager[Span | None]:
    """A phase span under *observation*, or the shared null context
    when nothing is observing — the one-line instrumentation entry
    point used by every decider, solver, and worker."""
    if observation is None or not observation.tracer.enabled:
        return _NULL_SPAN
    return observation.tracer.span(name, **attributes)


def traced(name: str) -> Callable:
    """Wrap a decision procedure in a root span named *name*.

    The procedure's keyword-only ``governor`` argument carries the
    observation (if any); without one the wrapper is a single dict
    lookup and the call proceeds untouched.  Used on the public
    deciders so one span brackets the whole decision — setup phases,
    the governed search loop, nested verification calls, and (via the
    pool's reconciliation) any grafted worker spans."""

    def decorate(procedure: Callable) -> Callable:
        @functools.wraps(procedure)
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            observation = obs_of(kwargs.get("governor"))
            if observation is None or not observation.tracer.enabled:
                return procedure(*args, **kwargs)
            with observation.tracer.span(
                    name, **observation.take_annotations()):
                return procedure(*args, **kwargs)
        return wrapped

    return decorate
