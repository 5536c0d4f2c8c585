"""Execution governor: budgets, deadlines, degradation, fault injection.

The problems this library decides are Πᵖ₂- to NEXPTIME-complete, so every
exact search needs to be *boundable* and *interruptible* without throwing
away the work it has done.  This package provides the machinery:

* :class:`~repro.runtime.budget.Budget` — unified work accounting across
  valuations, candidate sets, units, solver nodes, ...;
* :class:`~repro.runtime.control.Deadline` /
  :class:`~repro.runtime.control.CancellationToken` — wall-clock limits
  and cooperative cancellation;
* :class:`~repro.runtime.governor.ExecutionGovernor` — the single object
  threaded through every hot loop;
* :class:`~repro.runtime.checkpoint.SearchCheckpoint` — resumable search
  frontiers for graceful degradation;
* :class:`~repro.runtime.faults.FaultInjector` — deterministic, seedable
  fault injection (including process-level worker faults) so the
  degradation paths are themselves testable;
* :class:`~repro.runtime.retry.RetryPolicy` — how the parallel shard
  supervisor retries, backs off, and quarantines failed workers.

See ``docs/RUNTIME.md`` for the full story.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.budget import Budget
    from repro.runtime.checkpoint import SearchCheckpoint
    from repro.runtime.control import CancellationToken, Deadline
    from repro.runtime.faults import CRASH_EXIT_CODE, FaultInjector
    from repro.runtime.governor import (EXHAUSTION_MODES, ExecutionGovernor,
                                        resolve_governor,
                                        validate_exhaustion_mode)
    from repro.runtime.retry import POISON_MODES, RetryPolicy

__all__ = [
    "Budget",
    "CRASH_EXIT_CODE",
    "CancellationToken",
    "Deadline",
    "EXHAUSTION_MODES",
    "ExecutionGovernor",
    "FaultInjector",
    "POISON_MODES",
    "RetryPolicy",
    "SearchCheckpoint",
    "resolve_governor",
    "validate_exhaustion_mode",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.runtime.budget": ("Budget",),
    "repro.runtime.checkpoint": ("SearchCheckpoint",),
    "repro.runtime.control": ("CancellationToken", "Deadline"),
    "repro.runtime.faults": ("CRASH_EXIT_CODE", "FaultInjector"),
    "repro.runtime.governor": ("EXHAUSTION_MODES", "ExecutionGovernor",
                               "resolve_governor",
                               "validate_exhaustion_mode"),
    "repro.runtime.retry": ("POISON_MODES", "RetryPolicy"),
})
