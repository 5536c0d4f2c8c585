"""repro — relative information completeness for partially closed databases.

A from-scratch reproduction of *Relative Information Completeness*
(Wenfei Fan and Floris Geerts, PODS 2009 / ACM TODS 35(4), 2010).

The library models databases that are *partially closed* with respect to
master data ``Dm`` through containment constraints ``V`` (``q(D) ⊆ p(Dm)``),
and decides:

* **RCDP** — is a given database ``D`` complete for a query ``Q`` relative
  to ``(Dm, V)``?  (:func:`repro.core.decide_rcdp`)
* **RCQP** — does *any* relatively complete database exist for ``Q``?
  (:func:`repro.core.decide_rcqp`)

Quick example::

    from repro import (Attribute, DatabaseSchema, Instance, RelationSchema,
                       decide_rcdp, cq, rel, var, InclusionDependency)

    schema = DatabaseSchema([RelationSchema("Supt", ["eid", "dept", "cid"])])
    master_schema = DatabaseSchema([RelationSchema("DCust", ["cid"])])
    dm = Instance(master_schema, {"DCust": {("c1",), ("c2",)}})
    d = Instance(schema, {"Supt": {("e0", "sales", "c1"),
                                   ("e0", "sales", "c2")}})
    v = [InclusionDependency("Supt", ["cid"], "DCust", ["cid"])
         .to_containment_constraint(schema, master_schema)]
    q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
    result = decide_rcdp(q, d, dm, v)
    assert result.status.value == "complete"

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the reproduction of the paper's complexity tables.
"""

from time import perf_counter as _perf_counter

#: ``perf_counter()`` as ``import repro`` begins: an observed CLI run
#: reports the seconds from here to its verb dispatch as ``import_s``.
_IMPORT_STARTED = _perf_counter()

import importlib  # noqa: E402
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping  # noqa: E402


def _lazy_exports(namespace: dict[str, Any],
                  exports: Mapping[str, Iterable[str]],
                  ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``(__getattr__, __dir__)`` pair for the package whose
    ``globals()`` is *namespace*; *exports* maps each absolute module
    name to the public names it defines.

    Every package ``__init__`` re-exports its submodules' public names
    this way, so importing a package imports none of its submodules: a
    CLI verb compiles only the modules it runs.  A name's module is
    imported on the name's first access, and the value is then stored
    in the package namespace so later reads are plain attribute reads.
    Each package repeats the imports under ``TYPE_CHECKING`` for type
    checkers.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import (AnalysisFacts, Diagnostic, Fixit, Report,
                                Severity, Span, analyze, lint_bundle,
                                lint_path, validate_for_decision)
    from repro.constraints import (ConditionalFunctionalDependency,
                                   ConditionalInclusionDependency,
                                   ContainmentConstraint, DenialConstraint,
                                   FunctionalDependency, InclusionDependency,
                                   Projection, compile_all,
                                   compile_to_containment, satisfies_all,
                                   violated_constraints)
    from repro.core import (ActiveDomain, CompletionOutcome,
                            IncompletenessCertificate, MissingAnswersReport,
                            RCDPResult, RCDPStatus, RCQPResult, RCQPStatus,
                            SearchStatistics, brute_force_rcdp,
                            brute_force_rcqp, decide_rcdp, decide_rcqp,
                            decide_rcqp_with_inds, enumerate_missing_answers,
                            make_complete, minimize_witness,
                            missing_answers_report)
    from repro.engine import EvaluationContext
    from repro.errors import (AnalysisError, ConstraintError, DomainError,
                              EvaluationError, ExecutionInterrupted,
                              NotPartiallyClosedError, ParseError, QueryError,
                              ReproError, SchemaError,
                              SearchBudgetExceededError,
                              UndecidableConfigurationError,
                              UnsatisfiableQueryError, WorkerPoolError)
    from repro.runtime import (Budget, CancellationToken, Deadline,
                               ExecutionGovernor, FaultInjector, RetryPolicy,
                               SearchCheckpoint)
    from repro.queries import (ConjunctiveQuery, Const, DatalogQuery,
                               EFOQuery, Eq, FOQuery, Neq, RelAtom, Rule,
                               Tableau, UnionOfConjunctiveQueries, Var, cq,
                               eq, neq, rel, rule, ucq, var)
    from repro.relational import (Attribute, BOOLEAN, DatabaseSchema,
                                  FiniteDomain, FreshValue, INFINITE,
                                  Instance, RelationSchema)

__version__ = "1.0.0"

__all__ = [
    "ActiveDomain", "AnalysisError", "AnalysisFacts", "Attribute",
    "BOOLEAN", "Budget", "CancellationToken",
    "CompletionOutcome", "ConditionalFunctionalDependency",
    "ConditionalInclusionDependency", "ConjunctiveQuery", "Const",
    "ConstraintError", "ContainmentConstraint", "DatabaseSchema",
    "DatalogQuery", "Deadline", "DenialConstraint", "Diagnostic",
    "DomainError",
    "EFOQuery", "Eq", "EvaluationContext", "EvaluationError",
    "ExecutionGovernor",
    "ExecutionInterrupted", "FOQuery", "FaultInjector", "FiniteDomain",
    "Fixit", "FreshValue", "FunctionalDependency", "INFINITE",
    "InclusionDependency", "IncompletenessCertificate", "Instance",
    "MissingAnswersReport", "Neq", "NotPartiallyClosedError", "ParseError",
    "Projection", "QueryError", "RCDPResult", "RCDPStatus", "RCQPResult",
    "RCQPStatus", "RelAtom", "RelationSchema", "Report", "ReproError",
    "RetryPolicy", "Rule",
    "SchemaError", "SearchBudgetExceededError", "SearchCheckpoint",
    "SearchStatistics", "Severity", "Span", "Tableau",
    "UndecidableConfigurationError",
    "UnionOfConjunctiveQueries", "UnsatisfiableQueryError", "Var",
    "WorkerPoolError",
    "analyze",
    "brute_force_rcdp", "brute_force_rcqp", "compile_all",
    "compile_to_containment", "cq", "decide_rcdp", "decide_rcqp",
    "decide_rcqp_with_inds", "eq", "enumerate_missing_answers",
    "lint_bundle", "lint_path",
    "make_complete", "minimize_witness", "missing_answers_report", "neq",
    "rel", "rule", "satisfies_all", "ucq", "var",
    "validate_for_decision", "violated_constraints",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.analysis": ("AnalysisFacts", "Diagnostic", "Fixit", "Report",
                       "Severity", "Span", "analyze", "lint_bundle",
                       "lint_path", "validate_for_decision"),
    "repro.constraints": ("ConditionalFunctionalDependency",
                          "ConditionalInclusionDependency",
                          "ContainmentConstraint", "DenialConstraint",
                          "FunctionalDependency", "InclusionDependency",
                          "Projection", "compile_all",
                          "compile_to_containment", "satisfies_all",
                          "violated_constraints"),
    "repro.core": ("ActiveDomain", "CompletionOutcome",
                   "IncompletenessCertificate", "MissingAnswersReport",
                   "RCDPResult", "RCDPStatus", "RCQPResult", "RCQPStatus",
                   "SearchStatistics", "brute_force_rcdp", "brute_force_rcqp",
                   "decide_rcdp", "decide_rcqp", "decide_rcqp_with_inds",
                   "enumerate_missing_answers", "make_complete",
                   "minimize_witness", "missing_answers_report"),
    "repro.engine": ("EvaluationContext",),
    "repro.errors": ("AnalysisError", "ConstraintError", "DomainError",
                     "EvaluationError", "ExecutionInterrupted",
                     "NotPartiallyClosedError", "ParseError", "QueryError",
                     "ReproError", "SchemaError", "SearchBudgetExceededError",
                     "UndecidableConfigurationError",
                     "UnsatisfiableQueryError", "WorkerPoolError"),
    "repro.runtime": ("Budget", "CancellationToken", "Deadline",
                      "ExecutionGovernor", "FaultInjector", "RetryPolicy",
                      "SearchCheckpoint"),
    "repro.queries": ("ConjunctiveQuery", "Const", "DatalogQuery", "EFOQuery",
                      "Eq", "FOQuery", "Neq", "RelAtom", "Rule", "Tableau",
                      "UnionOfConjunctiveQueries", "Var", "cq", "eq", "neq",
                      "rel", "rule", "ucq", "var"),
    "repro.relational": ("Attribute", "BOOLEAN", "DatabaseSchema",
                         "FiniteDomain", "FreshValue", "INFINITE", "Instance",
                         "RelationSchema"),
})
