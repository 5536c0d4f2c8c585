"""Splitting a parent governor across worker shards.

Shard *ownership* (which candidates a shard searches) and the per-shard
resume points live with the kernels, in :mod:`repro.core.search`: shard
``i`` of ``n`` owns the candidates whose deterministic position ``p``
has ``p % n == i``, so the union over shards is the serial stream for
*every* shard count.  This module splits the **governor**: via
:class:`GovernorSpec`, each worker receives a picklable description of
its share of the parent's *remaining* budget (floor division, remainder
to the least-advanced shards), the parent's absolute deadline
(monotonic clocks are system-wide on Linux, so the instant transfers
across ``fork``), a private copy of the fault injector (fault clocks
are per-worker), and a flag wiring it to the pool's shared cancellation
event.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs import Observation, obs_of
from repro.runtime import Budget, Deadline, ExecutionGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultInjector
    from repro.runtime.retry import RetryPolicy

__all__ = ["suggest_workers", "GovernorSpec", "split_governor",
           "materialize_governor", "EventCancellation"]

#: Below this many predicted ticks per worker, adding a process costs
#: more (spawn + pickle + merge) than the slice it would own.
MIN_TICKS_PER_WORKER = 25_000


def suggest_workers(estimate: Any, *,
                    cpu_count: int | None = None) -> int:
    """A ``workers=`` suggestion from a static cost estimate.

    *estimate* is anything with a ``total_predicted`` tick count (a
    `repro.analysis.cost.CostEstimate`) or a plain integer.  The
    suggestion gives every worker at least :data:`MIN_TICKS_PER_WORKER`
    predicted ticks — pool startup dominates below that
    (BENCH_parallel.json) — and never exceeds the machine's cores.
    """
    ticks = int(getattr(estimate, "total_predicted", estimate))
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if ticks <= 0 or cores <= 1:
        return 1
    return max(1, min(cores, ticks // MIN_TICKS_PER_WORKER))


def _shares(total: int | None, order: Sequence[int],
            count: int) -> list[int | None]:
    """Shares of *total* per shard index, split across the shards listed
    in *order* (remainder to the earliest entries); shards not in *order*
    get 0.  ``None`` (unlimited) passes through to everyone."""
    if total is None:
        return [None] * count
    result = [0] * count
    base, remainder = divmod(total, len(order))
    for position, index in enumerate(order):
        result[index] = base + (1 if position < remainder else 0)
    return result


@dataclass(frozen=True)
class GovernorSpec:
    """Picklable description of one worker's governor."""

    budget_limit: int | None = None
    kind_limits: dict[str, int] = field(default_factory=dict)
    deadline_at: float | None = None
    faults: "FaultInjector | None" = None
    watch_cancellation: bool = False
    #: Mirror the parent's tracing into the worker: the worker attaches
    #: its own :class:`~repro.obs.Observation`, whose spans/metrics come
    #: back on the shard outcome and are rank-merged by the parent.
    trace: bool = False
    #: The parent governor's :class:`~repro.runtime.retry.RetryPolicy`,
    #: threaded through so a respawned shard's governor spec carries the
    #: same policy — retried attempts draw from the same budget ledger
    #: and honor the same absolute deadline as their predecessors.
    retry: "RetryPolicy | None" = None


def split_governor(governor: ExecutionGovernor | None, count: int,
                   *, consumed: Sequence[int] | None = None,
                   done: Sequence[bool] | None = None,
                   ) -> list[GovernorSpec | None]:
    """Split *governor*'s remaining allowance into *count* worker specs.

    The total budget and every per-kind cap are divided by floor across
    the shards that still have work (*done* marks finished ones), so the
    shares sum exactly to the remaining allowance: the pool as a whole
    can never admit more work than the serial search would have.  The
    division remainder goes to the least-advanced shards (*consumed*
    ascending) — this makes multi-leg resumption live even when the
    remaining budget is smaller than the worker count, because every leg
    hands at least one admissible tick to a shard that was starved on
    the previous one.  Deadlines pass through as absolute instants; the
    fault injector is copied per worker (each worker advances its own
    fault clock — see ``docs/PARALLEL.md``).
    """
    if governor is None:
        return [None] * count
    done = list(done) if done is not None else [False] * count
    consumed = list(consumed) if consumed is not None else [0] * count
    active = [index for index in range(count) if not done[index]]
    if not active:
        active = list(range(count))
    order = sorted(active, key=lambda index: (consumed[index], index))
    budget = governor.budget
    total_shares = _shares(
        budget.remaining if budget is not None else None, order, count)
    kind_shares: dict[str, list[int | None]] = {}
    if budget is not None:
        for kind, cap in budget.kind_limits.items():
            kind_shares[kind] = _shares(
                max(0, cap - budget.spent_for(kind)), order, count)
    deadline_at = (governor.deadline.at
                   if governor.deadline is not None else None)
    observation = obs_of(governor)
    trace = observation is not None and observation.tracer.enabled
    return [GovernorSpec(
        budget_limit=total_shares[index],
        kind_limits={kind: shares[index]
                     for kind, shares in kind_shares.items()},
        deadline_at=deadline_at,
        faults=governor.faults,
        watch_cancellation=governor.cancellation is not None,
        trace=trace,
        retry=governor.retry,
    ) for index in range(count)]


class EventCancellation:
    """Duck-typed cancellation token over a shared process Event.

    The real :class:`~repro.runtime.control.CancellationToken` wraps a
    ``threading.Event`` and cannot cross a process boundary; the pool
    shares one ``multiprocessing`` event instead, which the parent sets
    when its own token is cancelled.  The governor only reads
    ``.cancelled``, so this adapter is all a worker needs.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Any) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def materialize_governor(spec: GovernorSpec | None, cancel_event: Any,
                         *, arm_process_faults: bool = True,
                         ) -> ExecutionGovernor | None:
    """Build a worker-local governor from its picklable *spec*.

    Even a spec with no limits yields a governor with an unlimited
    budget: that budget is the worker's tick *ledger*, whose per-kind
    snapshot travels back in the shard outcome so the parent can absorb
    the exact charges into its own governor.

    *arm_process_faults* enables the injector's process-level fault
    kinds (``worker_crash``/``worker_hang``/``outcome_drop``) — true in
    a worker process, false for a quarantined in-process re-run, which
    must not be crashable by the faults that forced it.
    """
    if spec is None:
        return None
    budget = Budget(limit=spec.budget_limit, **spec.kind_limits)
    deadline = (Deadline(spec.deadline_at)
                if spec.deadline_at is not None else None)
    cancellation = (EventCancellation(cancel_event)
                    if spec.watch_cancellation and cancel_event is not None
                    else None)
    faults = copy.deepcopy(spec.faults) if spec.faults is not None else None
    if faults is not None and arm_process_faults:
        faults.arm_process_faults()
    governor = ExecutionGovernor(budget=budget, deadline=deadline,
                                 cancellation=cancellation, faults=faults,
                                 retry=spec.retry)
    if spec.trace:
        Observation.attach(governor)
    return governor
