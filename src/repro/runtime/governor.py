"""The execution governor: one cooperative control point for every search.

RCDP is Πᵖ₂-complete and RCQP is NEXPTIME-complete (Theorems 3.6 and
4.5), so every exact decider in this library is one adversarial input
away from hanging.  The governor is the single object threaded through
all the hot enumeration loops (``core/rcdp.py``, ``core/rcqp.py``,
``core/bounded.py`` and the four ``solvers/`` modules); each loop
iteration calls :meth:`ExecutionGovernor.tick`, which

* charges the unified :class:`~repro.runtime.budget.Budget`,
* checks the wall-clock :class:`~repro.runtime.control.Deadline`,
* observes the cooperative
  :class:`~repro.runtime.control.CancellationToken`, and
* consults the :class:`~repro.runtime.faults.FaultInjector`, if any,

raising :class:`~repro.errors.ExecutionInterrupted` the moment any of
them trips.  Deciders catch that exception and degrade gracefully: they
return an ``EXHAUSTED`` result carrying statistics and a resumable
:class:`~repro.runtime.checkpoint.SearchCheckpoint` (or re-raise with
those attached, in strict mode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ExecutionInterrupted, ReproError
from repro.runtime.budget import Budget
from repro.runtime.control import CancellationToken, Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultInjector
    from repro.runtime.retry import RetryPolicy

__all__ = ["ExecutionGovernor", "resolve_governor",
           "validate_exhaustion_mode", "EXHAUSTION_MODES"]

#: Valid values for the deciders' ``on_exhausted`` parameter.
EXHAUSTION_MODES = ("error", "partial")


class ExecutionGovernor:
    """Budget + deadline + cancellation + faults behind a single tick API.

    All components are optional; a governor with none of them is a pure
    tick counter (useful for instrumentation).  One governor instance may
    be shared across nested searches — e.g. ``decide_rcqp`` passes its
    governor into the ``decide_rcdp`` calls that verify candidate
    witnesses — so a single budget bounds the whole composite decision.
    """

    __slots__ = ("budget", "deadline", "cancellation", "faults", "ticks",
                 "obs", "retry", "progress", "fan_out")

    def __init__(self, budget: Budget | None = None,
                 deadline: Deadline | None = None,
                 cancellation: CancellationToken | None = None,
                 faults: "FaultInjector | None" = None,
                 obs: object | None = None,
                 retry: "RetryPolicy | None" = None,
                 progress: object | None = None) -> None:
        self.budget = budget
        self.deadline = deadline
        self.cancellation = cancellation
        self.faults = faults
        self.ticks = 0
        #: Optional :class:`repro.obs.Observation` — tracing/metrics
        #: ride on the governor because it already travels down every
        #: search path; :meth:`tick` never touches it, so observation
        #: costs nothing when detached.
        self.obs = obs
        #: Optional :class:`repro.runtime.retry.RetryPolicy` — how the
        #: parallel shard supervisor handles worker failure.  Like
        #: ``obs``, it rides on the governor (the one object already
        #: threaded everywhere) and :meth:`tick` never consults it.
        self.retry = retry
        #: Optional :class:`repro.obs.progress.ProgressReporter` — live
        #: percent/ETA rendering.  Parent-side only (never travels in a
        #: :class:`~repro.parallel.partition.GovernorSpec`); the shard
        #: supervisor forwards heartbeat snapshots to it, and
        #: :meth:`tick` never consults it.
        self.progress = progress
        #: :class:`repro.core.search.FanOut`, set once a search this
        #: governor runs at ``workers > 1`` has run its in-process head:
        #: the heads' work units and whether (and why) the pool ran.
        #: Parent-side and observation-only, like ``progress``.
        self.fan_out: object | None = None

    @classmethod
    def from_limits(cls, *, budget: int | None = None,
                    timeout: float | None = None,
                    cancellation: CancellationToken | None = None,
                    faults: "FaultInjector | None" = None,
                    retry: "RetryPolicy | None" = None,
                    ) -> "ExecutionGovernor":
        """Convenience constructor from plain numbers (CLI-flag shaped)."""
        return cls(
            budget=Budget(limit=budget) if budget is not None else None,
            deadline=Deadline.after(timeout) if timeout is not None else None,
            cancellation=cancellation,
            faults=faults,
            retry=retry)

    def tick(self, kind: str = "work", amount: int = 1) -> None:
        """Charge *amount* units of *kind* work; raise on any trip.

        Called *before* the unit of work is performed, so an interrupted
        search has examined exactly the ticks that were admitted — which
        is what makes skip-count checkpoints exact.
        """
        self.ticks += amount
        if self.faults is not None:
            reason = self.faults.before_work(amount)
            if reason is not None:
                raise ExecutionInterrupted(
                    f"injected fault: simulated {reason} after "
                    f"{self.ticks - amount} tick(s)", reason=reason)
        if self.cancellation is not None and self.cancellation.cancelled:
            raise ExecutionInterrupted(
                f"search cancelled after {self.ticks - amount} tick(s)",
                reason="cancelled")
        if self.budget is not None:
            breached = self.budget.charge(kind, amount)
            if breached is not None:
                limit = (self.budget.limit if breached == "total"
                         else self.budget.kind_limits[breached])
                raise ExecutionInterrupted(
                    f"search budget of {limit} {breached} tick(s) exceeded",
                    reason="budget")
        if self.deadline is not None and self.deadline.expired():
            raise ExecutionInterrupted(
                f"deadline expired after {self.ticks - amount} tick(s)",
                reason="deadline")

    def admits(self, kind: str, amount: int) -> bool:
        """Whether one :meth:`tick` of *amount* units of *kind* is the
        same as *amount* ticks of one unit: no fault injector is
        attached, whose schedule counts single ticks; no cancellation or
        deadline is due already, which the first of them would trip on;
        and the budget has room for all of them, so no limit trips part
        way."""
        return (self.faults is None
                and (self.cancellation is None
                     or not self.cancellation.cancelled)
                and (self.deadline is None or not self.deadline.expired())
                and (self.budget is None
                     or self.budget.admits(kind, amount)))

    def absorb(self, counts: "dict[str, int] | None") -> None:
        """Record work that *workers* performed against split-off budget
        slices, without re-checking any limit.

        The parallel drivers (:mod:`repro.parallel`) hand each worker a
        share of this governor's *remaining* budget; after the pool is
        reconciled, the per-kind tick counts actually consumed come back
        through this method so the parent ledger stays exact across
        serial and parallel phases.  Charges here can never overdraw —
        the slices were carved out of ``budget.remaining`` — so breach
        reports are deliberately ignored; a worker that exhausted its
        slice already surfaced that as an ``EXHAUSTED`` outcome.
        """
        if not counts:
            return
        for kind, amount in counts.items():
            if amount <= 0:
                continue
            self.ticks += amount
            if self.budget is not None:
                self.budget.charge(kind, amount)

    def suggest_budget(self, estimate: object, *,
                       safety: int = 4, adopt: bool = False) -> int:
        """A budget limit sized to a static cost estimate.

        *estimate* is anything exposing a ``total_predicted`` tick count
        — a :class:`repro.analysis.cost.CostEstimate` — or a plain
        integer.  The suggestion multiplies the point estimate by
        *safety* (the cost model is bench-gated at within-4× agreement
        on full enumerations, so ``safety=4`` admits every decision the
        model understands).  With ``adopt=True`` the suggestion is
        installed as this governor's budget when none is set yet;
        an existing budget is never overwritten.
        """
        predicted = int(getattr(estimate, "total_predicted", estimate))
        suggestion = max(1, predicted) * max(1, safety)
        if adopt and self.budget is None:
            self.budget = Budget(limit=suggestion)
        return suggestion

    def check(self) -> None:
        """A zero-cost checkpoint: observe deadline/cancellation/faults
        without charging the budget."""
        if self.cancellation is not None and self.cancellation.cancelled:
            raise ExecutionInterrupted(
                f"search cancelled after {self.ticks} tick(s)",
                reason="cancelled")
        if self.deadline is not None and self.deadline.expired():
            raise ExecutionInterrupted(
                f"deadline expired after {self.ticks} tick(s)",
                reason="deadline")

    def __repr__(self) -> str:
        parts = [f"ticks={self.ticks}"]
        if self.budget is not None:
            parts.append(repr(self.budget))
        if self.deadline is not None:
            parts.append(repr(self.deadline))
        if self.cancellation is not None and self.cancellation.cancelled:
            parts.append("cancelled")
        if self.faults is not None:
            parts.append(repr(self.faults))
        return f"ExecutionGovernor[{', '.join(parts)}]"


def resolve_governor(governor: ExecutionGovernor | None,
                     budget: int | None) -> ExecutionGovernor | None:
    """Normalize a decider's ``(governor, budget)`` pair.

    The legacy ``budget=N`` kwarg becomes a governor whose budget caps the
    *total* ticks at ``N``.  For single-loop deciders like ``decide_rcdp``
    this preserves the historical "N valuations admitted" semantics; for
    composite searches it caps the combined work of every phase and nested
    call, which is the only meaningful reading of one number.  Passing
    both is ambiguous and rejected.
    """
    if governor is not None:
        if budget is not None:
            raise ReproError(
                "pass either budget= or governor=, not both — wrap the "
                "budget in ExecutionGovernor(budget=Budget(...)) instead")
        return governor
    if budget is None:
        return None
    return ExecutionGovernor(budget=Budget(limit=budget))


def validate_exhaustion_mode(on_exhausted: str) -> str:
    """Reject typos early; returns the mode unchanged."""
    if on_exhausted not in EXHAUSTION_MODES:
        raise ReproError(
            f"on_exhausted must be one of {EXHAUSTION_MODES}, "
            f"got {on_exhausted!r}")
    return on_exhausted
