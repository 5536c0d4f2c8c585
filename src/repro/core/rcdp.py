"""RCDP — the relatively complete database problem (Section 3).

Given a query ``Q`` (CQ / UCQ / ∃FO⁺), master data ``Dm``, containment
constraints ``V`` (same languages, or INDs), and a partially closed ``D``,
decide whether ``D ∈ RCQ(Q, Dm, V)``.

The decider implements the Σᵖ₂ algorithm from the proof of Theorem 3.6,
justified by the characterizations of Proposition 3.3 (conditions C1/C2 for
CQ), Corollary 3.4 (C3 for INDs), and Corollary 3.5 (C4 for UCQ):

1. enumerate a CQ disjunct ``Q_i = (T_i, u_i)`` of ``Q``;
2. enumerate a *valid valuation* ``μ`` of ``T_i`` over the active domain;
3. reject the guess when ``μ(u_i) ∈ Q(D)``;
4. otherwise test ``(D ∪ μ(T_i), Dm) ⊨ V`` — when ``V`` consists of INDs,
   testing ``(μ(T_i), Dm) ⊨ V`` suffices (Corollary 3.4), since ``D`` is
   already partially closed and IND satisfaction is tuple-local;
5. a surviving guess is a counterexample: ``D`` is INCOMPLETE, and the
   instantiated tableau is returned as a certificate.  If no guess survives,
   ``D`` is COMPLETE.

Steps 1–5 are one search kernel (:func:`_rcdp_kernel`), run in-process as
shard 0 of 1 or, with ``workers > 1``, in-process for a head start and then,
if the search is still running, once per shard across a worker pool
(:mod:`repro.core.search`, ``docs/PARALLEL.md``).

The enumeration is *governed* (:mod:`repro.runtime`): a budget, deadline,
cancellation token, or injected fault can interrupt it at any valuation
boundary.  Under ``on_exhausted="partial"`` the decider then degrades
gracefully — it returns an :class:`~repro.core.results.RCDPStatus.EXHAUSTED`
result carrying the statistics accumulated so far and a resumable
:class:`~repro.runtime.checkpoint.SearchCheckpoint`; under the default
``"error"`` mode it raises :class:`~repro.errors.SearchBudgetExceededError`
with the same data attached.

FO / FP queries or constraints raise
:class:`~repro.errors.UndecidableConfigurationError` (Theorem 3.1); use
:mod:`repro.core.bounded` for best-effort semi-decision.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.analysis.diagnostics import Report
from repro.analysis.driver import validate_for_decision
from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all_extension,
                                           violated_constraints)
from repro.core.results import (IncompletenessCertificate,
                                MissingAnswersReport, RCDPResult,
                                RCDPStatus, SearchStatistics)
from repro.core.search import (SearchRun, ShardOutcome, best_witness,
                               exhausted_result, first_exhausted,
                               fresh_shards, merged_finds, resolve_workers,
                               resume_point, resume_shards, run_search,
                               search_checkpoint, total_statistics)
from repro.core.valuations import (ActiveDomain, ProjectionFilter,
                                   TableauTemplates, iter_valid_valuations)
from repro.engine import EvaluationContext, decision_key
from repro.errors import NotPartiallyClosedError, UndecidableConfigurationError
from repro.obs import obs_of, obs_span, traced
from repro.queries.tableau import Tableau
from repro.relational.instance import Instance
from repro.runtime import (ExecutionGovernor, SearchCheckpoint,
                           resolve_governor, validate_exhaustion_mode)

__all__ = ["decide_rcdp", "enumerate_missing_answers",
           "missing_answers_report", "split_ind_constraints",
           "assert_decidable_configuration", "ensure_partially_closed",
           "resolve_context", "resolve_analysis",
           # Re-exported: the benchmark's traced mode (perfbench/layers.py)
           # patches this name here; the kernels check through the
           # context's check programs instead.
           "satisfies_all_extension"]

_DECIDABLE = frozenset({"CQ", "UCQ", "EFO"})

RowFilter = Callable[[str, tuple], bool]


def resolve_context(context: EvaluationContext | None,
                    backend: str | None = None) -> EvaluationContext:
    """The context a decider runs on: the caller's shared one, or a
    private one on *backend* (one of
    :data:`~repro.relational.backends.BACKEND_NAMES`, ``None`` resolving
    via ``$REPRO_BACKEND``).  A caller-supplied context keeps its own
    backend.
    """
    return context if context is not None else EvaluationContext(
        backend=backend)


def assert_decidable_configuration(
        query: Any,
        constraints: Sequence[ContainmentConstraint]) -> None:
    """Raise unless ``(L_Q, L_C)`` is a decidable configuration.

    By Theorems 3.1 and 4.1, FO or FP on either side makes both problems
    undecidable.
    """
    language = getattr(query, "language", None)
    if language not in _DECIDABLE:
        raise UndecidableConfigurationError(
            f"L_Q = {language}: RCDP/RCQP are undecidable beyond ∃FO⁺ "
            f"(Theorem 3.1 / 4.1); use repro.core.bounded for a bounded "
            f"semi-decision")
    for constraint in constraints:
        if not constraint.is_decidable_language:
            raise UndecidableConfigurationError(
                f"containment constraint {constraint.name!r} is in "
                f"{constraint.language}: RCDP/RCQP are undecidable beyond "
                f"∃FO⁺ (Theorem 3.1 / 4.1); use repro.core.bounded for a "
                f"bounded semi-decision")


def resolve_analysis(query: Any,
                     constraints: Sequence[ContainmentConstraint],
                     database: Instance, master: Instance,
                     analysis: Report | None,
                     analyze: bool, obs: Any = None) -> Report | None:
    """Normalize a decider's ``(analysis, analyze)`` pair.

    A caller-supplied report (audits, completion loops — one pass shared
    across many decisions) wins; otherwise the cheap decider rules run
    here, in an ``analyze`` span of *obs*.  ``analyze=False`` disables
    the pass entirely (for ablation and for inner loops that already
    validated), and with it the span.  Error-severity findings raise
    :class:`~repro.errors.AnalysisError` from inside
    :func:`~repro.analysis.driver.validate_for_decision`.
    """
    if analysis is not None or not analyze:
        return analysis
    with obs_span(obs, "analyze"):
        return validate_for_decision(
            query, constraints, schema=database.schema,
            master_schema=master.schema, database=database, master=master)


def ensure_partially_closed(
        database: Instance, master: Instance,
        constraints: Sequence[ContainmentConstraint],
        context: EvaluationContext | None = None) -> None:
    """Raise :class:`NotPartiallyClosedError` unless ``(D, Dm) ⊨ V``."""
    violated = violated_constraints(database, master, constraints,
                                    context=context)
    if violated:
        names = ", ".join(c.name for c in violated)
        raise NotPartiallyClosedError(
            f"database is not partially closed: violates {names}")


def split_ind_constraints(
        constraints: Sequence[ContainmentConstraint], master: Instance,
        *, use_ind_pruning: bool = True,
        context: EvaluationContext | None = None,
        ) -> tuple[RowFilter | None, list[ContainmentConstraint]]:
    """Compile IND constraints into a tuple-local row filter.

    IND constraints are tuple-local, so they can prune the valuation
    enumeration row-by-row (Corollary 3.4 made operational): a single
    instantiated tableau row whose projection leaves the master projection
    kills the whole branch.  Returns ``(row_filter, other_constraints)``
    where *row_filter* is ``None`` when no IND is available (or pruning is
    disabled) and *other_constraints* are the ones that still need the
    full ``(D ∪ Δ, Dm) ⊨ V`` check per surviving valuation.  The filter
    is a :class:`~repro.core.valuations.ProjectionFilter`, which the
    enumerator compiles to set membership on the projected columns.
    """
    ind_projections: dict[str, list[tuple[tuple[int, ...], frozenset]]] = {}
    other_constraints: list[ContainmentConstraint] = []
    for constraint in constraints:
        if use_ind_pruning and constraint.is_ind():
            relation, columns = constraint.ind_source()
            ind_projections.setdefault(relation, []).append(
                (columns,
                 constraint.projection.evaluate(master, context=context)))
        else:
            other_constraints.append(constraint)
    if not ind_projections:
        return None, other_constraints
    return ProjectionFilter(ind_projections), other_constraints


def _prepare_search(query: Any, database: Instance, master: Instance,
                    constraints: Sequence[ContainmentConstraint],
                    context: EvaluationContext,
                    ) -> tuple[list[Tableau], ActiveDomain]:
    """Tableaux and active domain for one ``(Q, D, Dm, V)`` decision.

    They are memoized on the context, so repeated decisions on the same
    inputs with a shared context (audits, completion loops, benchmarks)
    stop paying the per-entry rebuild cost."""

    def build() -> tuple[list[Tableau], ActiveDomain]:
        disjuncts = query.to_cq_disjuncts()
        tableaux = [Tableau(d, database.schema) for d in disjuncts]
        adom = ActiveDomain.build(
            instances=(database, master),
            queries=[query] + [c.query for c in constraints],
            tableaux=[t for t in tableaux if t.satisfiable])
        return tableaux, adom

    # Content-based key: a repeated or resumed decision on equal inputs
    # hits it whichever objects carry them.
    key = decision_key("rcdp-search", query, database, master, *constraints)
    return context.memo(key, build,
                        pin=(query, database, master, *constraints))


def _search_space(query: Any, database: Instance, master: Instance,
                  constraints: Sequence[ContainmentConstraint],
                  context: EvaluationContext, obs: Any,
                  use_ind_pruning: bool = True) -> tuple:
    """The C1–C4 search space of one decision, built once on the
    decider's context: ``(tableaux, adom, Q(D), row_filter, non-IND
    constraints)``.  The search kernels and the completion count walk
    it; a sharded search ships it to its workers in the payload."""
    with obs_span(obs, "compile_plans"):
        tableaux, adom = _prepare_search(query, database, master,
                                         constraints, context)
    with obs_span(obs, "evaluate_Q"):
        answers = context.evaluate(query, database)
    row_filter, other_constraints = split_ind_constraints(
        constraints, master, use_ind_pruning=use_ind_pruning,
        context=context)
    return tableaux, adom, answers, row_filter, other_constraints


def _rcdp_kernel(run: SearchRun, payload: dict[str, Any]) -> ShardOutcome:
    """Steps 1–5 over one shard: stop at the first valuation whose
    instantiation adds an answer while keeping ``V`` satisfied.  Ranks
    are ``(tableau_index, prefix_index, position)``.  A tableau whose
    summary is bound before its last variable comes in groups of one
    summary each: a group whose summary is in ``Q(D)`` is decided as one
    block, and the others are walked one valuation at a time."""
    tableaux, adom, answers, row_filter, other_constraints = payload["space"]
    database, master = payload["database"], payload["master"]
    context, governor = run.context, run.governor
    beacon, beat, skip = run.beacon, run.beat, run.shard.skip
    with run.governed(), run.enumerating():
        for tableau_index, tableau in enumerate(tableaux):
            if not tableau.satisfiable:
                continue
            templates = TableauTemplates(tableau)
            summary_of = templates.summary
            program = None
            stream = iter_valid_valuations(
                tableau, adom, fresh="own", row_filter=row_filter,
                shard=run.shard, outer=(tableau_index,), meter=run.meter,
                groups=True)
            if templates.grouped:
                for prefix, position, group in stream:
                    within = 0
                    if skip:
                        within = min(skip, group.size)
                        skip -= within
                        if within == group.size:
                            continue
                    summary = group.summary
                    if summary in answers:
                        at = position + within
                        if beacon is not None and beacon.superseded(
                                (tableau_index, prefix, at)):
                            return run.outcome("superseded")
                        run.decide(group.size - within,
                                   (tableau_index, prefix), at)
                        continue
                    for _, at, values in group.walk(within):
                        if beat is not None and beat.due:
                            run.heartbeat((tableau_index, prefix), at)
                        rank = (tableau_index, prefix, at)
                        if beacon is not None and beacon.superseded(rank):
                            return run.outcome("superseded")
                        if governor is not None:
                            governor.tick("valuations")
                        run.examined += 1
                        run.checks += 1
                        if other_constraints and program is None:
                            program = context.check_program(
                                templates, database, master,
                                other_constraints)
                        if not other_constraints or program.check(values):
                            return run.witness(rank, (
                                tuple(templates.facts(values)), summary,
                                tableau.query.name))
                        run.consumed += 1
                continue
            for prefix, position, values in stream:
                if skip:
                    skip -= 1
                    continue
                if beat is not None and beat.due:
                    run.heartbeat((tableau_index, prefix), position)
                rank = (tableau_index, prefix, position)
                if beacon is not None and beacon.superseded(rank):
                    return run.outcome("superseded")
                if governor is not None:
                    governor.tick("valuations")
                run.examined += 1
                summary = summary_of(values)
                if summary in answers:
                    run.consumed += 1
                    continue
                run.checks += 1
                if other_constraints and program is None:
                    program = context.check_program(
                        templates, database, master, other_constraints)
                if not other_constraints or program.check(values):
                    return run.witness(rank, (
                        tuple(templates.facts(values)), summary,
                        tableau.query.name))
                run.consumed += 1
    return run.outcome("complete")


def _missing_kernel(run: SearchRun, payload: dict[str, Any],
                    ) -> ShardOutcome:
    """The C1–C4 enumeration over one shard without the early exit:
    every constraint-consistent new answer, keyed to the rank of its
    first occurrence in :attr:`SearchRun.found`.  A group of valuations
    with one summary (see :func:`_rcdp_kernel`) is decided as one block
    when its summary is in ``Q(D)`` or found already, and the rest of an
    open group becomes one once a valuation of it finds its summary."""
    tableaux, adom, answers, row_filter, other_constraints = payload["space"]
    database, master = payload["database"], payload["master"]
    limit = payload["limit"]
    context, governor = run.context, run.governor
    beat, skip, found = run.beat, run.shard.skip, run.found
    with run.governed(), run.enumerating():
        for tableau_index, tableau in enumerate(tableaux):
            if not tableau.satisfiable:
                continue
            templates = TableauTemplates(tableau)
            summary_of = templates.summary
            program = None
            stream = iter_valid_valuations(
                tableau, adom, fresh="own", row_filter=row_filter,
                shard=run.shard, outer=(tableau_index,), meter=run.meter,
                groups=True)
            if templates.grouped:
                for prefix, position, group in stream:
                    within = 0
                    if skip:
                        within = min(skip, group.size)
                        skip -= within
                        if within == group.size:
                            continue
                    summary = group.summary
                    if summary in answers or summary in found:
                        run.decide(group.size - within,
                                   (tableau_index, prefix), position + within)
                        continue
                    for _, at, values in group.walk(within):
                        if beat is not None and beat.due:
                            run.heartbeat((tableau_index, prefix), at)
                        if governor is not None:
                            governor.tick("valuations")
                        run.examined += 1
                        run.consumed += 1
                        if other_constraints:
                            run.checks += 1
                            if program is None:
                                program = context.check_program(
                                    templates, database, master,
                                    other_constraints)
                            if not program.check(values):
                                continue
                        found[summary] = ((tableau_index, prefix, at),
                                          summary)
                        if limit is not None and len(found) >= limit:
                            return run.outcome("complete")
                        # The group's summary is known now: the rest of
                        # the group is one block.
                        run.decide(position + group.size - at - 1,
                                   (tableau_index, prefix), at + 1)
                        break
                continue
            for prefix, position, values in stream:
                if skip:
                    skip -= 1
                    continue
                if beat is not None and beat.due:
                    run.heartbeat((tableau_index, prefix), position)
                if governor is not None:
                    governor.tick("valuations")
                run.examined += 1
                run.consumed += 1
                summary = summary_of(values)
                if summary in answers or summary in found:
                    continue
                if other_constraints:
                    run.checks += 1
                    if program is None:
                        program = context.check_program(
                            templates, database, master, other_constraints)
                    if not program.check(values):
                        continue
                found[summary] = ((tableau_index, prefix, position), summary)
                if limit is not None and len(found) >= limit:
                    # Any later find in this slice ranks after all of
                    # these, so none can enter the rank-ordered first
                    # `limit` answers.
                    return run.outcome("complete")
    return run.outcome("complete")


def validate_limit(name: str, limit: int | None) -> None:
    """Reject a negative truncation limit (None means no limit)."""
    if limit is not None and limit < 0:
        raise ValueError(f"{name} must be at least 0, got {limit}")


def _validate_rcdp(query: Any, database: Instance, master: Instance,
                   constraints: Sequence[ContainmentConstraint], obs: Any,
                   context: EvaluationContext,
                   check_partially_closed: bool, analysis: Report | None,
                   analyze: bool) -> Report | None:
    """The checks every RCDP-style decision makes before it searches."""
    assert_decidable_configuration(query, constraints)
    analysis = resolve_analysis(query, constraints, database, master,
                                analysis, analyze, obs)
    query.validate(database.schema)
    if check_partially_closed:
        with obs_span(obs, "check_ccs"):
            ensure_partially_closed(database, master, constraints, context)
    return analysis


@traced("decide_rcdp")
def decide_rcdp(query: Any, database: Instance, master: Instance,
                constraints: Sequence[ContainmentConstraint],
                *, check_partially_closed: bool = True,
                budget: int | None = None,
                use_ind_pruning: bool = True,
                governor: ExecutionGovernor | None = None,
                on_exhausted: str = "error",
                resume_from: SearchCheckpoint | None = None,
                context: EvaluationContext | None = None,
                backend: str | None = None,
                analyze: bool = True,
                analysis: Report | None = None,
                workers: int | None = 1) -> RCDPResult:
    """Decide whether *database* is complete for *query* relative to
    ``(master, constraints)``.

    Parameters
    ----------
    query:
        A CQ, UCQ, or ∃FO⁺ query over the database schema.
    database, master:
        The partially closed database ``D`` and master data ``Dm``.
    constraints:
        Containment constraints ``V`` (CQ/UCQ/∃FO⁺ queries on the left).
    check_partially_closed:
        When True (default), verify ``(D, Dm) ⊨ V`` first and raise
        :class:`NotPartiallyClosedError` otherwise — RCDP is only defined
        for partially closed inputs.
    budget:
        Shorthand for a governor capping the number of valuations
        examined.  The problem is Πᵖ₂-complete, so adversarial inputs are
        necessarily expensive.  Mutually exclusive with *governor*.
    use_ind_pruning:
        When True (default), IND constraints prune the valuation
        enumeration row-by-row instead of being re-checked per candidate
        extension (Corollary 3.4 made operational).  Setting it to False
        is for the ablation benchmarks only — the verdict is identical.
    governor:
        An :class:`~repro.runtime.ExecutionGovernor` checked at every
        valuation; may be shared with enclosing searches for unified
        accounting.
    on_exhausted:
        ``"error"`` (default): interruption raises
        :class:`~repro.errors.SearchBudgetExceededError` with statistics,
        partial result, and checkpoint attached.  ``"partial"``: the
        decider returns an ``EXHAUSTED`` result instead.
    resume_from:
        A checkpoint from a previous interrupted ``decide_rcdp`` run *on
        the same inputs*: one taken before the search fanned out (one
        shard) resumes with any worker count, one taken after it with
        the same count.  The enumeration fast-forwards past the
        already-examined (and rejected) prefix without charging the
        governor, and statistics are reported cumulatively.
    context:
        The :class:`~repro.engine.EvaluationContext` the decision runs
        on — compiled plans, hash-indexed joins, and a check program
        per tableau deciding each candidate's ``(D ∪ Δ, Dm) ⊨ V``.  A
        shared one carries plan/index/answer caches across calls
        (audits, completion loops); defaults to a fresh private
        context.  The decider attaches its governor to the context only
        while the search loop runs, so engine work during setup is
        never charged.
    backend:
        Storage backend for the private context — ``"python"``
        (default), ``"columnar"``, or ``"sqlite"`` (see
        ``docs/BACKENDS.md``); ``None`` resolves via ``$REPRO_BACKEND``.
        The verdict, witness, and search statistics are identical across
        backends.  Ignored when *context* is supplied (it has its own).
    analyze:
        When True (default), the static analyzer's cheap decider rules
        (:mod:`repro.analysis`) run first: error-severity findings
        (schema mismatches, invalid constraints) raise
        :class:`~repro.errors.AnalysisError` carrying the full report;
        warning counts fold into ``statistics.analysis_warnings``; and a
        query the analyzer proves empty short-circuits to COMPLETE
        without searching (``Q(D') = ∅`` for every ``D'``, so no
        extension changes the answer).
    analysis:
        A precomputed :class:`~repro.analysis.diagnostics.Report` to use
        instead of re-running the pass (audits and completion loops
        analyze once and share).
    workers:
        Shard the valuation search across this many worker processes
        (``1`` = in-process, ``0`` = all cores; see
        ``docs/PARALLEL.md``), after an in-process head start that
        small searches end in.  The verdict — including which witness
        is reported — is identical for every worker count.

    Returns
    -------
    RCDPResult
        COMPLETE, INCOMPLETE with an
        :class:`~repro.core.results.IncompletenessCertificate`, or
        EXHAUSTED (only under ``on_exhausted="partial"``) with a
        checkpoint.  The checkpoint cursor is ``(shards,)``; its payload
        holds each shard's resume point (valuations consumed, slice
        done).
    """
    count = resolve_workers(workers)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    analysis = _validate_rcdp(query, database, master, constraints, obs,
                              context, check_partially_closed, analysis,
                              analyze)
    # Resumed searches already counted the warnings in the checkpoint's
    # base statistics; recounting would double them.
    stats = SearchStatistics(analysis_warnings=(
        len(analysis.warnings)
        if analysis is not None and resume_from is None else 0))

    if analysis is not None and analysis.facts.query_provably_empty:
        stats = stats.merged(context.statistics.since(engine_base))
        return RCDPResult(
            status=RCDPStatus.COMPLETE,
            explanation=(
                "static analysis proved the query empty (contradictory "
                "=/≠ atoms in every disjunct): Q(D') = ∅ for every D', "
                "so no extension can add an answer and D is trivially "
                "relatively complete"),
            statistics=stats)

    shards = fresh_shards()
    if resume_from is not None:
        _, shards, _ = resume_point(resume_from, "rcdp", count)
        stats = stats.merged(resume_from.base_statistics())
    payload = dict(database=database, master=master, space=_search_space(
        query, database, master, constraints, context, obs,
        use_ind_pruning))
    outcomes = run_search("decide_rcdp_parallel", "rcdp", _rcdp_kernel,
                          payload, shards, count=count, governor=governor,
                          context=context)
    stats = stats.merged(total_statistics(outcomes))
    stats = stats.merged(context.statistics.since(engine_base))

    best = best_witness(outcomes)
    if best is not None:
        delta, summary, disjunct_name = best.data
        return RCDPResult(
            status=RCDPStatus.INCOMPLETE,
            certificate=IncompletenessCertificate(
                extension_facts=delta, new_answer=summary,
                disjunct_name=disjunct_name),
            explanation=(
                f"adding {len(delta)} fact(s) keeps V satisfied but "
                f"produces the new answer {summary!r}"),
            statistics=stats)

    exhausted = first_exhausted(outcomes)
    if exhausted is not None:
        return exhausted_result(RCDPResult(
            status=RCDPStatus.EXHAUSTED,
            explanation=(
                f"search interrupted ({exhausted.reason}) after "
                f"{stats.valuations_examined} valuation(s); resume from "
                f"the checkpoint to continue"),
            statistics=stats,
            checkpoint=search_checkpoint("rcdp", resume_shards(outcomes),
                                         stats),
            interrupted=exhausted.reason), on_exhausted)

    return RCDPResult(
        status=RCDPStatus.COMPLETE,
        explanation=(
            "no valid valuation over the active domain extends D "
            "consistently with V while changing Q(D) "
            "(conditions C1/C2 hold)"),
        statistics=stats)


@traced("missing_answers_report")
def missing_answers_report(query: Any, database: Instance,
                           master: Instance,
                           constraints: Sequence[ContainmentConstraint],
                           *, limit: int | None = None,
                           check_partially_closed: bool = True,
                           budget: int | None = None,
                           governor: ExecutionGovernor | None = None,
                           on_exhausted: str = "partial",
                           resume_from: SearchCheckpoint | None = None,
                           context: EvaluationContext | None = None,
                           backend: str | None = None,
                           analyze: bool = True,
                           analysis: Report | None = None,
                           workers: int | None = 1,
                           ) -> MissingAnswersReport:
    """All answers the query could still gain over the active domain.

    Example 1.1 observes that when an employee supports at most ``k``
    customers and ``k'`` are known, "we need to add at most ``k − k'``
    tuples to make it complete": this function makes that kind of margin
    computable.  It reports every tuple ``s ∉ Q(D)`` such that some valid
    valuation over the active domain yields ``s`` via a constraint-
    consistent extension.  The database is relatively complete iff the
    full enumeration is empty (same enumeration as :func:`decide_rcdp`,
    without the early exit).

    *limit* truncates the enumeration once that many missing answers have
    been found (``limit == 0`` reports the one find that trips it; a
    negative *limit* is a ``ValueError``); a *budget*/*governor*
    interrupts it mid-search.  In both
    cases ``exhaustive`` is False and the answer set is a lower bound; an
    interrupted report additionally carries a resumable checkpoint (cursor
    ``(shards,)``) whose per-shard resume points preserve the answers
    already found.  *on_exhausted* defaults to ``"partial"`` here — a
    truncated margin is still useful — but ``"error"`` gives strict-mode
    callers the historical raising behavior with the partial report
    attached to the exception.  *workers* shards the enumeration like
    :func:`decide_rcdp`'s.
    """
    count = resolve_workers(workers)
    validate_exhaustion_mode(on_exhausted)
    validate_limit("limit", limit)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    analysis = _validate_rcdp(query, database, master, constraints, obs,
                              context, check_partially_closed, analysis,
                              analyze)
    stats = SearchStatistics(analysis_warnings=(
        len(analysis.warnings)
        if analysis is not None and resume_from is None else 0))

    if analysis is not None and analysis.facts.query_provably_empty:
        stats = stats.merged(context.statistics.since(engine_base))
        return MissingAnswersReport(answers=frozenset(),
                                    exhaustive=True, statistics=stats)

    shards = fresh_shards()
    if resume_from is not None:
        _, shards, _ = resume_point(resume_from, "missing", count)
        stats = stats.merged(resume_from.base_statistics())
    payload = dict(database=database, master=master, limit=limit,
                   space=_search_space(query, database, master,
                                       constraints, context, obs))
    outcomes = run_search("missing_answers_parallel", "missing",
                          _missing_kernel, payload, shards, count=count,
                          governor=governor, context=context,
                          use_beacon=False)
    stats = stats.merged(total_statistics(outcomes))
    stats = stats.merged(context.statistics.since(engine_base))
    answers = [summary for _, summary in merged_finds(outcomes)]

    exhausted = first_exhausted(outcomes)
    if exhausted is not None:
        return exhausted_result(MissingAnswersReport(
            answers=frozenset(answers), exhaustive=False, statistics=stats,
            checkpoint=search_checkpoint("missing",
                                         resume_shards(outcomes), stats),
            interrupted=exhausted.reason), on_exhausted,
            f"missing-answers scan interrupted ({exhausted.reason}); "
            f"resume from the checkpoint to continue")
    if limit is not None and len(answers) >= max(limit, 1):
        # The scan stops as soon as the limit-th distinct answer appears,
        # so it reports the first finds in stream order (one when
        # limit == 0: the answer that tripped it).
        return MissingAnswersReport(
            answers=frozenset(answers[:max(limit, 1)]), exhaustive=False,
            statistics=stats)
    return MissingAnswersReport(answers=frozenset(answers),
                                exhaustive=True, statistics=stats)


def enumerate_missing_answers(query: Any, database: Instance,
                              master: Instance,
                              constraints: Sequence[ContainmentConstraint],
                              *, limit: int | None = None,
                              check_partially_closed: bool = True,
                              budget: int | None = None,
                              governor: ExecutionGovernor | None = None,
                              on_exhausted: str = "error",
                              resume_from: SearchCheckpoint | None = None,
                              context: EvaluationContext | None = None,
                              backend: str | None = None,
                              analyze: bool = True,
                              analysis: Report | None = None,
                              workers: int | None = 1,
                              ) -> frozenset[tuple]:
    """Plain-set façade over :func:`missing_answers_report`.

    Historically this enumeration accepted no budget at all and could hang
    on adversarial inputs even though :func:`decide_rcdp` was capped; it
    is now governed identically.  Under ``on_exhausted="partial"`` an
    interrupted enumeration returns the lower-bound set found so far (use
    :func:`missing_answers_report` when you also need the checkpoint);
    under the default ``"error"`` it raises, with the partial report
    attached to the exception.
    """
    return missing_answers_report(
        query, database, master, constraints, limit=limit,
        check_partially_closed=check_partially_closed, budget=budget,
        governor=governor, on_exhausted=on_exhausted,
        resume_from=resume_from, context=context, backend=backend,
        analyze=analyze, analysis=analysis, workers=workers).answers
