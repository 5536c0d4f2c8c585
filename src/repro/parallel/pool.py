"""The worker-pool driver: spawn shards, collect outcomes, reconcile.

One :func:`run_shards` call is one fan-out/fan-in round: every
:class:`~repro.parallel.worker.ShardTask` becomes a worker process (a
shard already marked ``done`` by a resumed checkpoint is answered
inline), outcomes stream back over a queue, and the parent reconciles
one outcome per shard, in shard order.

Since the supervision layer landed, the pool is fault tolerant by
default: the collection loop lives in
:class:`~repro.parallel.supervise.ShardSupervisor`, which detects dead
or silent workers via heartbeat progress snapshots, respawns failed
shards from their last snapshot cursor under the governing
:class:`~repro.runtime.RetryPolicy`, and quarantines poison shards to
an in-process serial re-run — see ``docs/PARALLEL.md`` ("Fault
tolerance").  ``RetryPolicy.disabled()`` restores the legacy fail-fast
behavior, where any worker death raises
:class:`~repro.errors.WorkerPoolError`.

``fork`` is the preferred start method (cheap, inherits the prepared
objects); every task and outcome is nevertheless fully picklable, so
the ``spawn`` fallback works where ``fork`` is unavailable, and the
``REPRO_PARALLEL_START_METHOD`` environment variable forces a specific
method (the CI exercises ``spawn`` explicitly).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.search import ShardOutcome
from repro.parallel.supervise import ShardSupervisor
from repro.parallel.worker import ShardTask
from repro.runtime import ExecutionGovernor, RetryPolicy

__all__ = ["run_shards", "merged_ticks"]


def run_shards(tasks: Sequence[ShardTask],
               *, governor: ExecutionGovernor | None = None,
               use_beacon: bool = True,
               retry: RetryPolicy | None = None) -> list[ShardOutcome]:
    """Run every task in its own worker process; return outcomes in
    shard order.

    Worker death is recoverable: failed shards are retried from their
    last progress snapshot and, past the retry budget, quarantined to
    an in-process serial re-run, so the returned outcomes always cover
    the full union of shard slices.  *retry* overrides the policy; by
    default the parent governor's ``retry`` slot applies, falling back
    to ``RetryPolicy()``.  Only unrecovered failures — a worker that
    *reported* an unexpected exception, or any death under a disabled
    policy — raise :class:`~repro.errors.WorkerPoolError`, with the
    worker details attached.
    """
    supervisor = ShardSupervisor(tasks, governor=governor,
                                 use_beacon=use_beacon, retry=retry)
    return supervisor.run()


def merged_ticks(outcomes: Sequence[ShardOutcome]) -> dict[str, int]:
    """Sum the per-kind budget-ledger snapshots of all outcomes, for
    :meth:`~repro.runtime.governor.ExecutionGovernor.absorb`."""
    totals: dict[str, int] = {}
    for outcome in outcomes:
        for kind, amount in outcome.ticks.items():
            totals[kind] = totals.get(kind, 0) + amount
    return totals
