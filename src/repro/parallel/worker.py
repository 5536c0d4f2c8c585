"""Worker-side execution of one shard task.

A worker process runs one search kernel (:mod:`repro.core.search`) —
the same function a decider runs in-process at ``workers=1`` — over the
slice its :class:`~repro.core.search.ShardSpec` owns, on a private
evaluation context and a governor materialized from the task's
picklable :class:`~repro.parallel.partition.GovernorSpec`.

A kernel returns a :class:`~repro.core.search.ShardOutcome` and never
raises :class:`~repro.errors.ExecutionInterrupted` (it becomes an
``"exhausted"`` outcome carrying the shard's resume cursor); any other
exception is caught by :func:`shard_entry` and shipped back as an
``"error"`` outcome with the formatted traceback.

Under supervision (:mod:`repro.parallel.supervise`) a worker also
publishes periodic ``"progress"`` outcomes: full snapshots (consumed
count, statistics, ledger, partial answers) taken at a candidate
boundary, so each doubles as a liveness heartbeat *and* an exact
restart checkpoint.  A :class:`_Beat` daemon thread arms a flag on the
heartbeat interval; the search loop checks the flag between candidates
and publishes — a loop that stops advancing therefore goes silent,
which is exactly how the supervisor detects a hung worker.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass
from typing import Any

from repro.core.search import Kernel, SearchRun, ShardOutcome, ShardSpec
from repro.engine import EvaluationContext
from repro.obs import obs_of, obs_span
from repro.parallel.beacon import WitnessBeacon
from repro.parallel.partition import GovernorSpec, materialize_governor

__all__ = ["ShardTask", "run_task", "shard_entry"]


@dataclass(frozen=True)
class ShardTask:
    """A picklable description of one worker's job.

    *kernel* is a module-level function, so it pickles by import path.
    *backend* names the storage backend the worker's private
    :class:`~repro.engine.EvaluationContext` runs on.  Storages
    themselves never cross the process boundary (they may hold an
    sqlite connection); each worker re-attaches fresh ones to the
    unpickled instances on first use.
    """

    kind: str
    kernel: Kernel
    shard: ShardSpec
    governor: GovernorSpec | None
    use_engine: bool
    payload: dict[str, Any]
    backend: str = "python"


class _Beat:
    """Worker-side heartbeat pacing.

    A daemon timer thread arms :attr:`due` every *interval* seconds;
    the search loop polls the flag between candidates (one attribute
    read on the hot path) and, when due, publishes a ``"progress"``
    snapshot outcome.  Publishing from the loop — not the timer — keeps
    snapshots consistent (taken at a candidate boundary) and makes a
    hung loop go silent, which is the supervisor's hang signal.
    """

    __slots__ = ("queue", "attempt", "due", "_stop")

    def __init__(self, queue: Any, interval: float, attempt: int) -> None:
        self.queue = queue
        self.attempt = attempt
        self.due = False
        self._stop = threading.Event()
        thread = threading.Thread(
            target=self._pace, args=(interval,), daemon=True)
        thread.start()

    def _pace(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.due = True

    def publish(self, outcome: ShardOutcome, *position: Any) -> None:
        self.due = False
        outcome.attempt = self.attempt
        self.queue.put(outcome)

    def stop(self) -> None:
        self._stop.set()


def run_task(task: ShardTask, beacon: WitnessBeacon | None, governor: Any,
             beat: _Beat | None = None) -> ShardOutcome:
    """Run the task's kernel on a fresh context of its own, whose engine
    counters the outcome then reports."""
    context = (EvaluationContext(backend=task.backend)
               if task.use_engine else None)
    run = SearchRun(task.shard, governor, context, beacon=beacon,
                    beat=beat, owns_context=True)
    return task.kernel(run, task.payload)


def shard_entry(task: ShardTask, beacon: WitnessBeacon | None,
                cancel_event: Any, queue: Any,
                heartbeat: float | None = None, attempt: int = 0) -> None:
    """Process entry point: run the task's shard, report one outcome.

    Under supervision, *heartbeat* sets the progress-snapshot interval
    and *attempt* stamps every message, so the supervisor can discard
    stragglers from attempts it already gave up on.  The worker also
    honors the injector's ``outcome_drop`` fault here: the final
    outcome is silently discarded, simulating a report lost in flight.
    """
    governor = None
    beat = None
    try:
        governor = materialize_governor(task.governor, cancel_event)
        if heartbeat is not None and heartbeat > 0:
            beat = _Beat(queue, heartbeat, attempt)
        observation = obs_of(governor)
        with obs_span(observation, "shard", kind=task.kind,
                      index=task.shard.index, attempt=attempt):
            outcome = run_task(task, beacon, governor, beat)
        if observation is not None:
            outcome.obs = observation.payload()
    except BaseException:
        outcome = ShardOutcome(index=task.shard.index, kind="error",
                               error=traceback.format_exc())
    finally:
        if beat is not None:
            beat.stop()
    outcome.attempt = attempt
    faults = governor.faults if governor is not None else None
    if faults is not None and faults.should_drop_outcome():
        return
    try:
        queue.put(outcome)
    except BaseException:  # pragma: no cover - queue teardown race
        os._exit(1)
