"""The evaluation engine: compiled plans, hash-indexed joins, memoized
master projections, and semi-naive delta evaluation.

All query evaluation in the library routes through this package — either
explicitly via an :class:`EvaluationContext` threaded through a decision
procedure, or implicitly when ``query.evaluate(instance)`` is called
without one (each CQ then runs its compiled plan over per-call indexes).
The pre-engine backtracking evaluators survive as ``evaluate_naive`` on
every query class and serve as the cross-validation oracle in the
property tests (see ``docs/ENGINE.md``).

Execution is backend-pluggable: the context routes through the storage
backends of :mod:`repro.relational.backends` (tuple-at-a-time python
rows, set-at-a-time columnar, SQL pushdown via :mod:`repro.engine.sql`
— see ``docs/BACKENDS.md``).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import (ENGINE_LANGUAGES, EngineStatistics,
                                      EvaluationContext)
    from repro.engine.executor import (ChainSource, DeltaSource,
                                       IndexedSource, evaluate_plan,
                                       iter_rows, plan_holds)
    from repro.engine.indexes import InstanceIndexes, build_index
    from repro.engine.keys import decision_key, stable_key
    from repro.engine.plan import CompiledPlan, PlanStep, compile_plan
    from repro.engine.sql import LoweredPlan, lower_plan

__all__ = [
    "decision_key",
    "stable_key",
    "ENGINE_LANGUAGES",
    "EngineStatistics",
    "EvaluationContext",
    "ChainSource",
    "DeltaSource",
    "IndexedSource",
    "evaluate_plan",
    "iter_rows",
    "plan_holds",
    "InstanceIndexes",
    "build_index",
    "CompiledPlan",
    "PlanStep",
    "compile_plan",
    "LoweredPlan",
    "lower_plan",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.engine.context": ("ENGINE_LANGUAGES", "EngineStatistics",
                             "EvaluationContext"),
    "repro.engine.executor": ("ChainSource", "DeltaSource", "IndexedSource",
                              "evaluate_plan", "iter_rows", "plan_holds"),
    "repro.engine.indexes": ("InstanceIndexes", "build_index"),
    "repro.engine.keys": ("decision_key", "stable_key"),
    "repro.engine.plan": ("CompiledPlan", "PlanStep", "compile_plan"),
    "repro.engine.sql": ("LoweredPlan", "lower_plan"),
})
