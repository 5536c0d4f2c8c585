"""The workers > 1 step of every exact search: one kernel per shard.

A decider in :mod:`repro.core` validates and prepares its search once,
then hands its kernel to :func:`repro.core.search.run_search`, which
runs it in-process as shard 0 of 1 when ``workers`` resolves to 1 and,
at ``workers > 1``, first in-process as a head start; only a search
still running after it reaches its step here, by name
(``decide_rcdp_parallel`` and so on).  The step splits the parent
governor's remaining allowance across the shards
(:func:`~repro.parallel.partition.split_governor`), runs one
:class:`~repro.parallel.worker.ShardTask` per shard under the supervised
pool (:func:`~repro.parallel.pool.run_shards`), and absorbs the workers'
tick ledgers and traces into the parent governor.  The decider then
reconciles the outcomes exactly as it does the in-process one.

Determinism contract (see ``docs/PARALLEL.md``):

* **Verdicts** are identical for every worker count, including which
  witness is reported: every candidate has a unique rank in the serial
  enumeration order, shards report the rank of what they find, and the
  decider keeps the minimum — the serial-first find.
* **Statistics**: ``valuations_examined`` / ``constraint_checks`` /
  ``candidate_sets_examined`` are exactly the serial counts whenever the
  enumeration runs to completion (COMPLETE / EMPTY / exhaustive
  verdicts).  On early exits the totals may differ (shards examine
  candidates the serial search never reached before the beacon stops
  them), and per-process engine counters (plans compiled, indexes
  built) scale with the worker count.
* **Governors**: each worker receives a slice of the remaining budget,
  the shared absolute deadline, and a cancellation adapter; consumed
  ticks are absorbed back into the parent governor, and per-shard resume
  points make interrupted runs resumable — with the same worker count,
  since shard ownership is a function of it (a checkpoint taken before
  the fan-out has one shard and resumes with any count).
* **Fault tolerance**: worker death does not change any of the above.
  The pool's :class:`~repro.parallel.supervise.ShardSupervisor` respawns
  crashed or silent shards from their last progress snapshot, and
  quarantines shards that exhaust their
  :class:`~repro.runtime.RetryPolicy` budget to an in-process re-run of
  the identical slice.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.driver import validate_for_decision
from repro.core.rcdp import ensure_partially_closed
from repro.core.search import Kernel, ShardOutcome, ShardSpec
from repro.engine import EvaluationContext
from repro.obs import obs_of
from repro.parallel.partition import split_governor
from repro.parallel.pool import merged_ticks, run_shards
from repro.parallel.worker import ShardTask
from repro.runtime import ExecutionGovernor

__all__ = ["fan_out", "decide_rcdp_parallel", "missing_answers_parallel",
           "brute_force_rcdp_parallel", "brute_force_rcqp_parallel",
           "decide_rcqp_parallel", "decide_rcqp_with_inds_parallel",
           # Re-exported: the benchmark's traced mode (perfbench/layers.py)
           # patches these names here as well as on repro.core.rcdp.
           "validate_for_decision", "ensure_partially_closed"]


def fan_out(kind: str, kernel: Kernel, payload: dict[str, Any],
            shards: Sequence[ShardSpec], *,
            governor: ExecutionGovernor | None,
            context: EvaluationContext,
            use_beacon: bool = True) -> list[ShardOutcome]:
    """Run *kernel* once per shard in a worker pool; one outcome per
    shard, in shard order.

    Workers build private evaluation contexts on the parent context's
    backend.  *use_beacon* lets shards stop at candidates ranked after a
    sibling's witness; full scans (partial-answer kernels) run without
    it.
    """
    specs = split_governor(governor, len(shards),
                           consumed=[shard.skip for shard in shards],
                           done=[shard.done for shard in shards])
    tasks = [ShardTask(kind=kind, kernel=kernel, shard=shard, governor=spec,
                       payload=payload, backend=context.backend)
             for shard, spec in zip(shards, specs)]
    outcomes = run_shards(tasks, governor=governor, use_beacon=use_beacon)
    if governor is not None:
        governor.absorb(merged_ticks(outcomes))
        observation = obs_of(governor)
        if observation is not None:
            observation.absorb_outcomes(outcomes)
    return outcomes


#: Each decider calls :func:`fan_out` under its own name, so a profiler
#: that wraps one name times that procedure's pool rounds alone.
decide_rcdp_parallel = fan_out
missing_answers_parallel = fan_out
brute_force_rcdp_parallel = fan_out
brute_force_rcqp_parallel = fan_out
decide_rcqp_parallel = fan_out
decide_rcqp_with_inds_parallel = fan_out
