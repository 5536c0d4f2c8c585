"""Counting workloads over the relative-completeness margin.

The deciders answer *whether* a database is relatively complete; the
counting problems ask *how much* is missing — following the counting
variants of missing-answer reasoning studied by Arenas, Barceló and
Monet (arXiv:1912.11064), layered on the paper's margin semantics:

* :func:`count_missing_answers` — ``#{s ∉ Q(D) : s is attainable}``,
  the cardinality of :func:`~repro.core.rcdp.missing_answers_report`'s
  answer set.  By definition ``count == 0 ⟺ D`` is relatively complete.
* :func:`count_completing_extensions` — how many *distinct* consistent
  extensions ``Δ`` (instantiated query tableaux, deduplicated by the
  fresh facts they add) change the query answer.  This is the number of
  distinct certificates :func:`~repro.core.rcdp.decide_rcdp` could have
  returned over the same candidate space: the active domain plus one
  canonical fresh value per tableau variable.

Both are governed like the deciders (budget / deadline / cancellation
at every valuation boundary) and degrade gracefully to a lower-bound
count with ``exhaustive=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all_extension)
from repro.core.rcdp import (_search_space, _validate_rcdp,
                             ensure_partially_closed,
                             missing_answers_report, resolve_context,
                             split_ind_constraints)
from repro.core.results import SearchStatistics
from repro.core.search import ShardSpec
from repro.core.valuations import TableauTemplates, iter_valid_valuations
from repro.engine import EvaluationContext
from repro.errors import ExecutionInterrupted
from repro.obs import obs_of, obs_span, traced
from repro.relational.instance import Instance
from repro.runtime import (ExecutionGovernor, resolve_governor,
                           validate_exhaustion_mode)

__all__ = ["CountReport", "count_missing_answers",
           "count_completing_extensions",
           # Module attributes the benchmark's traced mode
           # (perfbench/layers.py) patches here.  The count enumerates
           # with iter_valid_valuations, checks through the context's
           # check programs, and validates and prepares through
           # repro.core.rcdp, where the other three are patched too.
           "iter_valid_valuations", "split_ind_constraints",
           "ensure_partially_closed", "satisfies_all_extension"]


@dataclass(frozen=True)
class CountReport:
    """Outcome of a counting workload.

    ``count`` is exact when ``exhaustive`` is True and a lower bound
    otherwise (the enumeration was truncated by a limit, a budget, or a
    deadline; ``interrupted`` carries the governor's reason when one
    tripped).
    """

    count: int
    exhaustive: bool
    statistics: SearchStatistics
    interrupted: str | None = None

    def __repr__(self) -> str:
        qualifier = "" if self.exhaustive else "≥"
        return f"CountReport[{qualifier}{self.count}]"


def count_missing_answers(query: Any, database: Instance,
                          master: Instance,
                          constraints: Sequence[ContainmentConstraint],
                          *, limit: int | None = None,
                          check_partially_closed: bool = True,
                          budget: int | None = None,
                          governor: ExecutionGovernor | None = None,
                          on_exhausted: str = "partial",
                          context: EvaluationContext | None = None,
                          backend: str | None = None,
                          workers: int | None = 1) -> CountReport:
    """How many answers could the query still gain?

    Definitionally ``count_missing_answers(...).count ==
    len(missing_answers_report(...).answers)`` (the property suite pins
    this), with the same governance, backend- and worker-invariance;
    *limit* truncates the count at that many distinct answers.
    """
    report = missing_answers_report(
        query, database, master, constraints, limit=limit,
        check_partially_closed=check_partially_closed, budget=budget,
        governor=governor, on_exhausted=on_exhausted, context=context,
        backend=backend, workers=workers)
    return CountReport(count=len(report.answers),
                       exhaustive=report.exhaustive,
                       statistics=report.statistics,
                       interrupted=report.interrupted)


@traced("count_completing_extensions")
def count_completing_extensions(
        query: Any, database: Instance, master: Instance,
        constraints: Sequence[ContainmentConstraint],
        *, max_extensions: int | None = None,
        check_partially_closed: bool = True,
        budget: int | None = None,
        governor: ExecutionGovernor | None = None,
        on_exhausted: str = "partial",
        context: EvaluationContext | None = None,
        backend: str | None = None) -> CountReport:
    """Count the distinct completing extensions of ``D``.

    A completing extension is a set of fresh facts ``Δ = μ(T_i) ∖ D``
    for some valid valuation ``μ`` of a disjunct tableau ``T_i`` such
    that ``(D ∪ Δ, Dm) ⊨ V`` and ``μ(u_i) ∉ Q(D)`` — exactly the
    witnesses the RCDP decider searches, so ``count == 0`` iff
    :func:`~repro.core.rcdp.decide_rcdp` returns COMPLETE.  Extensions
    are deduplicated by their fresh-fact set: two valuations that add
    the same facts count once, even when they expose different new
    answers.

    Exact counting is #P-hard in general (Arenas, Barceló and Monet), so
    this is an enumeration over the decider's own search space (one
    helper builds both, with the same validation), and each candidate
    costs one test.  Per tableau, the context's check program
    (:meth:`~repro.engine.context.EvaluationContext.check_program`) is
    built at the first valuation whose summary is not in ``Q(D)``; its
    compiled ``Δ \\ D`` (:attr:`~repro.engine.checks.CheckProgram.delta`)
    lists each valuation's fresh facts, flat.  Extensions are kept by a
    canonical key of that list: the fact itself when Δ has one fact,
    else the ``frozenset`` of its facts (Δ has at least one, since a
    valuation landing inside ``D`` has its summary in ``Q(D)``).  A
    tuple never equals a frozenset, and sets of different sizes never
    compare equal, so equal keys mean equal fresh-fact sets.  When the
    key is new, the same list goes to the program's ``(D ∪ Δ, Dm) ⊨ V``
    test: a candidate costs one template call and one base membership
    test per tableau row and one set lookup before its check.

    *max_extensions* truncates the count (``exhaustive=False``); the
    governor interrupts at valuation boundaries like the deciders.
    """
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    _validate_rcdp(query, database, master, constraints, obs, context,
                   check_partially_closed, analysis=None, analyze=False)
    tableaux, adom, answers, row_filter, other_constraints = _search_space(
        query, database, master, constraints, context, obs)

    # The accepted fresh-fact sets, by canonical key (see above).
    extensions: set[Any] = set()
    examined = 0
    constraint_checks = 0

    def _stats() -> SearchStatistics:
        return SearchStatistics(
            valuations_examined=examined,
            constraint_checks=constraint_checks).merged(
            context.statistics.since(engine_base))

    try:
        with context.governed(governor), obs_span(obs,
                                                  "enumerate_valuations"):
            for tableau in tableaux:
                if not tableau.satisfiable:
                    continue
                templates = TableauTemplates(tableau)
                summary_of = templates.summary
                check = None
                # Shard 0 of 1: the whole stream, as value tuples.
                for _, _, values in iter_valid_valuations(
                        tableau, adom, fresh="own", row_filter=row_filter,
                        shard=ShardSpec()):
                    if governor is not None:
                        governor.tick("valuations")
                    examined += 1
                    summary = summary_of(values)
                    if summary in answers:
                        continue
                    if check is None:
                        check = context.check_program(
                            templates, database, master, other_constraints)
                        delta = check.delta
                    facts = delta(values)
                    # A valuation landing entirely inside D would have
                    # summary ∈ Q(D); surviving deltas add ≥ 1 fact.
                    key = facts[0] if len(facts) == 1 else frozenset(facts)
                    if key in extensions:
                        continue
                    if other_constraints:
                        constraint_checks += 1
                        if not check(values, facts):
                            continue
                    extensions.add(key)
                    if (max_extensions is not None
                            and len(extensions) >= max_extensions):
                        return CountReport(count=len(extensions),
                                           exhaustive=False,
                                           statistics=_stats())
    except ExecutionInterrupted as interrupt:
        report = CountReport(count=len(extensions), exhaustive=False,
                             statistics=_stats(),
                             interrupted=interrupt.reason)
        if on_exhausted == "error":
            interrupt.statistics = report.statistics
            interrupt.partial_result = report
            raise
        return report
    return CountReport(count=len(extensions), exhaustive=True,
                       statistics=_stats())
