"""Shard supervision: fault-tolerant fan-out/fan-in for the worker pool.

:class:`ShardSupervisor` replaces the pool's old fail-fast collection
loop (any worker death aborted the whole decision) with a recoverable
protocol built on three pieces:

**Heartbeat progress snapshots.**  Each supervised worker publishes a
``"progress"`` :class:`~repro.core.search.ShardOutcome` on the
policy's heartbeat interval — a full snapshot (consumed count,
statistics, budget ledger, partial answers) taken at a candidate
boundary.  A snapshot is simultaneously a liveness beat and an exact
restart checkpoint: ``consumed`` and the partial answers are directly a
:class:`~repro.core.search.ShardSpec` resume point, the same one a
resumed decision hands its kernel.

**Checkpoint-based retry.**  A worker that dies without reporting
(crash, OOM kill) or goes silent past ``silent_after`` (hang) is
respawned from its last snapshot, after an exponential backoff with
seeded jitter.  The dead attempt's statistics and ledger charges are
folded into a *committed* prefix the final outcome will be merged
with, the replacement resumes at the snapshot's resume point (carrying
its partial answers), and its governor spec is carved out of the
**same** budget: its limits are the original share minus the committed
charges, and its deadline is the parent's unchanged absolute instant.
Work the dead attempt did between its last snapshot and its death is
re-scanned (the counters stay exact because the snapshot was taken at
a candidate boundary, so committed + retry covers the shard's slice
with no gap and no overlap).  The fault injector is reseeded per
attempt, so a probabilistic crash schedule differs across attempts.

**Poison-shard quarantine.**  A shard that fails ``max_retries + 1``
times is poison.  Under ``on_poison="serial"`` (default) its remaining
slice is re-run **in-process**, with process-level fault injection
disarmed — the in-process runner cannot crash, so the supervised run
always terminates, the union of scanned slices stays exact, and the
verdict/witness remain worker-count-invariant even as the per-attempt
crash probability approaches 1.  Under ``on_poison="error"`` the pool
raises :class:`~repro.errors.WorkerPoolError` instead.

A worker that *reports* an ``"error"`` outcome (an unexpected
exception, traceback attached) is **not** retried: that is a
deterministic bug, and replaying it would reproduce it.  It surfaces
as :class:`~repro.errors.WorkerPoolError` after the pool drains,
exactly like the legacy path.

Budget exhaustion is never crash-shaped: a replacement whose share is
already spent reports ``"exhausted"`` on its first tick, and the
decider assembles the usual resumable checkpoint from the cumulative
``consumed`` counts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as queue_module
import time
import traceback
from typing import Any, Sequence

from repro.core.search import ShardOutcome, ShardSpec, run_inline
from repro.errors import ReproError, WorkerPoolError
from repro.obs import obs_of, obs_span
from repro.parallel.beacon import WitnessBeacon
from repro.parallel.partition import materialize_governor
from repro.parallel.worker import ShardTask, run_task, shard_entry
from repro.runtime import ExecutionGovernor, RetryPolicy

__all__ = ["ShardSupervisor"]

#: Grace period before a dead, silent worker is declared lost — long
#: enough for a final outcome already in flight (the queue's feeder
#: thread may lag the process's death) to drain.  Unsupervised pools
#: use it as-is (the legacy fixed poll); supervised pools shorten it
#: toward the heartbeat interval for faster recovery.
_DEAD_WORKER_GRACE = 1.0

_QUEUE_POLL = 0.05


def _mp_context() -> multiprocessing.context.BaseContext:
    preferred = os.environ.get("REPRO_PARALLEL_START_METHOD")
    methods = multiprocessing.get_all_start_methods()
    if preferred:
        if preferred not in methods:
            raise ReproError(
                f"REPRO_PARALLEL_START_METHOD={preferred!r} is not "
                f"available on this platform (choices: {methods})")
        return multiprocessing.get_context(preferred)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclasses.dataclass
class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    task: ShardTask
    process: Any = None
    #: Attempts started so far; the live attempt's id is ``attempt - 1``.
    attempt: int = 0
    last_seen: float = 0.0
    #: When the live process was first observed dead without a final.
    dead_at: float | None = None
    #: When a scheduled respawn becomes due (backoff), else None.
    respawn_at: float | None = None
    #: Latest progress snapshot from the live attempt.
    snapshot: ShardOutcome | None = None
    #: Merged results of dead attempts' last snapshots.
    committed_stats: Any = None
    committed_ticks: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Where the next attempt resumes: the last snapshot's consumed
    #: count and partial answers.
    restart: ShardSpec | None = None
    failures: list[str] = dataclasses.field(default_factory=list)
    final: ShardOutcome | None = None


class ShardSupervisor:
    """Run shard tasks under a retry policy; return one outcome each.

    The policy is resolved in order: the explicit *retry* argument, the
    parent governor's :attr:`~repro.runtime.governor.ExecutionGovernor.
    retry` slot, then the default :class:`~repro.runtime.RetryPolicy`.
    ``RetryPolicy.disabled()`` selects the legacy fail-fast pool: no
    heartbeats, no retries, any worker death raises.
    """

    def __init__(self, tasks: Sequence[ShardTask], *,
                 governor: ExecutionGovernor | None = None,
                 use_beacon: bool = True,
                 retry: RetryPolicy | None = None) -> None:
        self._tasks = list(tasks)
        self._governor = governor
        if retry is None and governor is not None:
            retry = governor.retry
        self._policy = retry if retry is not None else RetryPolicy()
        self._use_beacon = use_beacon
        self._observation = obs_of(governor)
        if self._policy.supervise:
            self._death_grace = min(_DEAD_WORKER_GRACE,
                                    max(0.2, self._policy.heartbeat))
        else:
            self._death_grace = _DEAD_WORKER_GRACE

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> list[ShardOutcome]:
        ctx = _mp_context()
        self._ctx = ctx
        self._beacon = WitnessBeacon(ctx) if self._use_beacon else None
        self._cancel_event = ctx.Event()
        self._queue = ctx.Queue()
        self._inline: dict[int, ShardOutcome] = {}
        self._states: dict[int, _ShardState] = {}
        for task in self._tasks:
            if task.shard.done:
                # Fully scanned before the interruption; answered inline.
                self._inline[task.shard.index] = run_inline(
                    task.kernel, task.payload, task.shard, None, None)
                continue
            self._states[task.shard.index] = _ShardState(
                task=task, restart=task.shard)
        try:
            for state in self._states.values():
                self._spawn(state)
            while any(s.final is None for s in self._states.values()):
                self._propagate_cancellation()
                self._drain()
                now = time.monotonic()
                for state in self._states.values():
                    if state.final is not None:
                        continue
                    if state.respawn_at is not None:
                        if now >= state.respawn_at:
                            self._spawn(state)
                        continue
                    process = state.process
                    if process is not None and not process.is_alive():
                        if state.dead_at is None:
                            state.dead_at = now
                        elif now - state.dead_at >= self._death_grace:
                            self._fail(state,
                                       f"exited with code "
                                       f"{process.exitcode} before "
                                       f"reporting a result")
                    elif (self._policy.supervise
                          and now - state.last_seen
                          > self._policy.effective_silent_after):
                        self._fail(state,
                                   f"went silent for more than "
                                   f"{self._policy.effective_silent_after:.1f}"
                                   f"s (missed heartbeats)", kill=True)
        finally:
            self._teardown()

        ordered = [self._inline.get(task.shard.index)
                   or self._states[task.shard.index].final
                   for task in self._tasks]
        errors = [o for o in ordered if o.kind == "error"]
        if errors:
            details = "\n".join(
                f"[shard {o.index}] {o.error}" for o in errors)
            raise WorkerPoolError(
                f"{len(errors)} of {len(self._tasks)} search worker(s) "
                f"failed", details=details)
        return ordered

    # ------------------------------------------------------------------
    # Spawning and failure handling
    # ------------------------------------------------------------------

    def _spawn(self, state: _ShardState) -> None:
        attempt = state.attempt
        state.attempt += 1
        task = state.task if attempt == 0 else self._respawn_task(state)
        args: tuple = (task, self._beacon, self._cancel_event, self._queue)
        if self._policy.supervise:
            args += (self._policy.heartbeat, attempt)
        process = self._ctx.Process(target=shard_entry, args=args,
                                    daemon=True)
        process.start()
        state.process = process
        state.respawn_at = None
        state.dead_at = None
        state.last_seen = time.monotonic()

    def _respawn_task(self, state: _ShardState) -> ShardTask:
        """The original task, fast-forwarded to the committed cursor and
        re-budgeted with whatever its dead attempts did not spend."""
        task = state.task
        spec = task.governor
        if spec is not None:
            total = sum(state.committed_ticks.values())
            budget_limit = spec.budget_limit
            if budget_limit is not None:
                budget_limit = max(0, budget_limit - total)
            kind_limits = {
                kind: (cap if cap is None
                       else max(0, cap - state.committed_ticks.get(kind, 0)))
                for kind, cap in spec.kind_limits.items()}
            faults = spec.faults
            if faults is not None:
                faults = faults.reseeded(
                    1 + state.task.shard.index + 7919 * state.attempt)
            spec = dataclasses.replace(spec, budget_limit=budget_limit,
                                       kind_limits=kind_limits,
                                       faults=faults)
        return dataclasses.replace(task, shard=state.restart, governor=spec)

    def _fail(self, state: _ShardState, reason: str,
              kill: bool = False) -> None:
        process = state.process
        if kill and process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=1.0)
        state.process = None
        state.dead_at = None
        self._commit_snapshot(state)
        state.failures.append(reason)
        index = state.task.shard.index
        self._count("crash", index)
        if not self._policy.supervise:
            state.final = ShardOutcome(
                index=index, kind="error",
                error=f"worker {index} {reason}")
            return
        retries_used = state.attempt - 1
        if retries_used >= self._policy.max_retries:
            self._poison(state, reason)
            return
        delay = self._policy.backoff_delay(retries_used, key=index)
        state.respawn_at = time.monotonic() + delay
        self._count("retry", index)
        self._event("supervisor.retry", index=index, attempt=state.attempt,
                    reason=reason, delay=round(delay, 4))

    def _commit_snapshot(self, state: _ShardState) -> None:
        """Fold the dead attempt's last progress snapshot into the
        committed prefix the final outcome will be merged with."""
        snapshot = state.snapshot
        if snapshot is None:
            return
        state.committed_stats = (
            snapshot.statistics if state.committed_stats is None
            else state.committed_stats.merged(snapshot.statistics))
        for kind, amount in snapshot.ticks.items():
            state.committed_ticks[kind] = \
                state.committed_ticks.get(kind, 0) + amount
        state.restart = dataclasses.replace(
            state.task.shard, skip=snapshot.consumed,
            carried=tuple(snapshot.data or ()))
        state.snapshot = None

    def _poison(self, state: _ShardState, reason: str) -> None:
        index = state.task.shard.index
        if self._policy.on_poison == "error":
            state.final = ShardOutcome(
                index=index, kind="error",
                error=(f"worker {index} is poison: {state.attempt} "
                       f"attempt(s) failed; last failure: {reason}"))
            return
        self._count("quarantine", index)
        attempt = state.attempt
        state.attempt += 1
        task = self._respawn_task(state)
        with obs_span(self._observation, "supervisor.quarantine",
                      index=index, attempt=attempt,
                      failures=len(state.failures)):
            # Process faults stay disarmed: graceful degradation to
            # serial must not be crashable by the faults that forced it.
            governor = materialize_governor(task.governor,
                                            self._cancel_event,
                                            arm_process_faults=False)
            worker_obs = obs_of(governor)
            try:
                with obs_span(worker_obs, "shard", kind=task.kind,
                              index=index, attempt=attempt):
                    outcome = run_task(task, self._beacon, governor)
                if worker_obs is not None:
                    outcome.obs = worker_obs.payload()
            except Exception:
                outcome = ShardOutcome(index=index, kind="error",
                                       error=traceback.format_exc())
        outcome.attempt = attempt
        self._finish(state, outcome)
        # The in-process run starved the drain loop; give live workers a
        # fresh liveness horizon so they are not misjudged as silent.
        now = time.monotonic()
        for other in self._states.values():
            if other.final is None:
                other.last_seen = now

    # ------------------------------------------------------------------
    # Queue draining and reconciliation
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        try:
            self._accept(self._queue.get(timeout=_QUEUE_POLL))
            while True:
                self._accept(self._queue.get_nowait())
        except queue_module.Empty:
            pass

    def _accept(self, outcome: ShardOutcome) -> None:
        state = self._states.get(outcome.index)
        if state is None or state.final is not None:
            return
        if outcome.attempt != state.attempt - 1:
            return  # straggler from an attempt already given up on
        state.last_seen = time.monotonic()
        state.dead_at = None
        if outcome.kind == "progress":
            state.snapshot = outcome
            # A heartbeat snapshot is also a live progress sample: ship
            # the shard's cumulative tick count (committed prefix +
            # this attempt) to the parent's progress reporter, if any.
            self._ship_progress(
                state.task.shard.index,
                sum(state.committed_ticks.values())
                + sum((outcome.ticks or {}).values()))
            return
        self._finish(state, outcome)

    def _finish(self, state: _ShardState, outcome: ShardOutcome) -> None:
        """Merge the committed prefix of dead attempts into the final
        outcome; one outcome per shard is what the parent reconciles."""
        if state.committed_stats is not None:
            outcome.statistics = \
                state.committed_stats.merged(outcome.statistics)
        if state.committed_ticks:
            ticks = dict(state.committed_ticks)
            for kind, amount in outcome.ticks.items():
                ticks[kind] = ticks.get(kind, 0) + amount
            outcome.ticks = ticks
        state.snapshot = None
        state.final = outcome
        self._ship_progress(state.task.shard.index,
                            sum((outcome.ticks or {}).values()))

    def _ship_progress(self, index: int, ticks: int) -> None:
        """Forward one shard's cumulative tick count to the parent
        governor's progress reporter.  Observation-only: failures are
        swallowed and the supervision protocol is untouched."""
        progress = getattr(self._governor, "progress", None)
        if progress is None:
            return
        try:
            progress.update_shard(index, ticks)
        except Exception:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _propagate_cancellation(self) -> None:
        governor = self._governor
        if (governor is not None and governor.cancellation is not None
                and governor.cancellation.cancelled):
            self._cancel_event.set()

    def _count(self, event: str, shard: int) -> None:
        if self._observation is not None:
            self._observation.metrics.record_supervision(event, shard=shard)

    def _event(self, name: str, **attributes: Any) -> None:
        with obs_span(self._observation, name, **attributes):
            pass

    def _teardown(self) -> None:
        terminated = False
        for state in self._states.values():
            process = state.process
            if process is None:
                continue
            if process.is_alive():
                process.join(timeout=2.0)
            if process.is_alive():
                self._cancel_event.set()
                process.terminate()
                process.join(timeout=2.0)
                terminated = True
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=1.0)
        self._queue.close()
        if terminated:
            # A terminated worker may have died mid-write; without this
            # the parent could hang flushing the queue's feeder thread
            # at interpreter exit (notably under the spawn method).
            self._queue.cancel_join_thread()
