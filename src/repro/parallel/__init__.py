"""Parallel execution of the exact search procedures.

The deciders in :mod:`repro.core` enumerate deterministic,
``Adom``-bounded search spaces — candidate valuations, extension sets,
candidate databases, valuation-unit sets — each with one search kernel
(:mod:`repro.core.search`).  With ``workers > 1`` a decider runs that
kernel once per shard across a ``multiprocessing`` worker pool instead
of once in-process, without changing any verdict:

* :mod:`~repro.parallel.partition` — governor splitting and the
  ``workers=`` suggestion from a cost estimate;
* :mod:`~repro.parallel.beacon` — the shared early-exit signal that
  carries the best witness rank found so far;
* :mod:`~repro.parallel.worker` — what one worker process runs;
* :mod:`~repro.parallel.supervise` — the fault-tolerant supervisor:
  heartbeat liveness, checkpoint-based retry, poison-shard quarantine;
* :mod:`~repro.parallel.pool` — the fan-out/fan-in process driver;
* :mod:`~repro.parallel.api` — the deciders' ``workers > 1`` step.

Users normally never import this package: every decider and the CLI
expose a ``workers=`` / ``--workers`` knob (1 = in-process, 0 = all
cores), and a decision with one worker never loads it.  See
``docs/PARALLEL.md`` for the sharding model and its determinism proof
obligations.
"""

from repro.core.search import ShardOutcome, ShardSpec, resolve_workers
from repro.parallel.api import (brute_force_rcdp_parallel,
                                brute_force_rcqp_parallel,
                                decide_rcdp_parallel,
                                decide_rcqp_parallel,
                                decide_rcqp_with_inds_parallel, fan_out,
                                missing_answers_parallel)
from repro.parallel.beacon import WitnessBeacon
from repro.parallel.partition import (EventCancellation, GovernorSpec,
                                      materialize_governor, split_governor,
                                      suggest_workers)
from repro.parallel.pool import merged_ticks, run_shards
from repro.parallel.supervise import ShardSupervisor
from repro.parallel.worker import ShardTask

__all__ = [
    "fan_out",
    "decide_rcdp_parallel",
    "missing_answers_parallel",
    "brute_force_rcdp_parallel",
    "brute_force_rcqp_parallel",
    "decide_rcqp_parallel",
    "decide_rcqp_with_inds_parallel",
    "resolve_workers",
    "suggest_workers",
    "split_governor",
    "materialize_governor",
    "ShardSpec",
    "GovernorSpec",
    "EventCancellation",
    "ShardTask",
    "ShardOutcome",
    "ShardSupervisor",
    "WitnessBeacon",
    "run_shards",
    "merged_ticks",
]
