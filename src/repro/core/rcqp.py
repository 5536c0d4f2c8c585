"""RCQP — the relatively complete query problem (Section 4).

Given ``Q``, ``Dm``, and ``V``, decide whether some relatively complete
database exists, i.e. whether ``RCQ(Q, Dm, V)`` is nonempty.

Two exact engines:

* :func:`decide_rcqp_with_inds` — the coNP procedure of Theorem 4.5(1),
  driven by the *syntactic* boundedness characterization of
  Proposition 4.3 (conditions E3/E4): every infinite-domain output variable
  must sit in an IND-projected column, unless the disjunct admits no
  constraint-compatible valid valuation at all.

* :func:`decide_rcqp` — the general characterization of Propositions 4.2 /
  Corollary 4.4 (conditions E1/E2, E5/E6): search for a set ``V`` of partial
  valuations of the constraint tableaux such that ``D_V`` satisfies ``V``
  and *bounds* every constraint-compatible valid valuation of the query
  tableau.  NONEMPTY verdicts construct the witness database (``D_V`` plus
  the ground tableau rows) and re-verify it through the exact RCDP decider,
  so they are sound by construction.

The general search is parameterized (valuation-set size, rows instantiated
per partial valuation); the problem is NEXPTIME-complete, so *some* budget
is unavoidable.  When the budget covers the whole unit space the EMPTY
verdict is exact; otherwise it is reported as ``EMPTY_UP_TO_BOUND``.

Each scan is one search kernel (:func:`_inds_scan_kernel`,
:func:`_inds_build_kernel`, :func:`_rcqp_sets_kernel`), run in-process as
shard 0 of 1 or, with ``workers > 1``, in-process for a head start and
then, if the scan is still running, once per shard across a worker pool
(:mod:`repro.core.search`, ``docs/PARALLEL.md``).

Both engines are *governed* (:mod:`repro.runtime`): one
:class:`~repro.runtime.ExecutionGovernor` is threaded through the unit
enumeration, the candidate-set search, and every nested ``decide_rcdp`` /
``make_complete`` call, so a single budget bounds the whole composite
NEXPTIME decision.  Interrupted searches degrade to an ``EXHAUSTED``
result with statistics and a resumable checkpoint (or raise with those
attached, under ``on_exhausted="error"``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.analysis.boundedness import covering_ind
from repro.analysis.driver import validate_for_decision
from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all,
                                           satisfies_all_extension)
from repro.core.rcdp import (assert_decidable_configuration, decide_rcdp,
                             resolve_context)
from repro.core.results import (RCDPStatus, RCQPResult, RCQPStatus,
                                SearchStatistics)
from repro.core.search import (SearchRun, ShardOutcome, best_witness,
                               exhausted_result, first_exhausted,
                               fresh_shards, merged_finds, owned,
                               resolve_workers, resume_point, resume_shards,
                               run_search, search_checkpoint, subsets,
                               total_statistics)
from repro.engine import EvaluationContext
from repro.core.valuations import (ActiveDomain, TableauTemplates,
                                   iter_valid_valuations)
from repro.core.witness import make_complete
from repro.errors import ConstraintError, ExecutionInterrupted, ReproError
from repro.obs import obs_of, obs_span, traced
from repro.queries.tableau import Tableau
from repro.queries.terms import Const
from repro.relational.domain import is_fresh
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema
from repro.runtime import (ExecutionGovernor, SearchCheckpoint,
                           resolve_governor, validate_exhaustion_mode)

__all__ = ["decide_rcqp", "decide_rcqp_with_inds", "ValuationUnit"]

Fact = tuple[str, tuple]


def _query_tableaux(query: Any, schema: DatabaseSchema) -> list[Tableau]:
    """Satisfiable tableaux of the CQ disjuncts of *query*."""
    return [t for t in (Tableau(d, schema) for d in query.to_cq_disjuncts())
            if t.satisfiable]


def _facts_instance(schema: DatabaseSchema,
                    facts: Iterable[Fact]) -> Instance:
    return extend_unvalidated(Instance.empty(schema), list(facts))


# ---------------------------------------------------------------------------
# INDs: the coNP algorithm (Theorem 4.5(1), Proposition 4.3)
# ---------------------------------------------------------------------------


def _inds_scan_kernel(run: SearchRun, payload: dict[str, Any],
                      ) -> ShardOutcome:
    """E3 relevance over one shard: does the tableau admit a
    constraint-compatible valid valuation?  Relevance is existential,
    so the first one found settles it.  Ranks are ``(prefix_index,
    position)``."""
    tableau = payload["tableau"]
    templates = TableauTemplates(tableau)
    master, constraints = payload["master"], payload["constraints"]
    empty_base = payload["empty_base"]
    context, governor = run.context, run.governor
    beacon, beat, skip = run.beacon, run.beat, run.shard.skip
    program = None
    with run.governed():
        for prefix, position, values in iter_valid_valuations(
                tableau, payload["adom"], fresh="own", shard=run.shard,
                meter=run.meter):
            if skip:
                skip -= 1
                continue
            if beat is not None and beat.due:
                run.heartbeat((prefix,), position)
            rank = (prefix, position)
            if beacon is not None and beacon.superseded(rank):
                return run.outcome("superseded")
            if governor is not None:
                governor.tick("valuations")
            run.examined += 1
            if program is None:
                program = context.check_program(templates, empty_base,
                                                master, constraints)
            if program.check(values):
                return run.witness(rank, True)
            run.consumed += 1
    return run.outcome("complete")


def _inds_build_kernel(run: SearchRun, payload: dict[str, Any],
                       ) -> ShardOutcome:
    """E4 witness construction over one shard: for every output tuple,
    the first constraint-compatible instantiation of the tableau, kept
    in :attr:`SearchRun.found` as ``(rank, summary, Δ)``.  A full scan;
    incompatible occurrences leave their summary open.  When the summary
    is bound before the tableau's last variable, the valuations come in
    groups of one summary each: a group whose summary is found already
    is decided as one block, and so is the rest of a group once a
    valuation of it finds its summary."""
    tableau = payload["tableau"]
    templates = TableauTemplates(tableau)
    master, constraints = payload["master"], payload["constraints"]
    empty_base = payload["empty_base"]
    context, governor = run.context, run.governor
    beat, skip, found = run.beat, run.shard.skip, run.found
    program = None
    stream = iter_valid_valuations(tableau, payload["adom"], fresh="own",
                                   shard=run.shard, meter=run.meter,
                                   groups=True)
    with run.governed():
        if templates.grouped:
            for prefix, position, group in stream:
                within = 0
                if skip:
                    within = min(skip, group.size)
                    skip -= within
                    if within == group.size:
                        continue
                summary = group.summary
                if summary in found:
                    run.decide(group.size - within, (prefix,),
                               position + within)
                    continue
                for _, at, values in group.walk(within):
                    if beat is not None and beat.due:
                        run.heartbeat((prefix,), at)
                    if governor is not None:
                        governor.tick("valuations")
                    run.examined += 1
                    if program is None:
                        program = context.check_program(templates, empty_base,
                                                        master, constraints)
                    compatible = program.check(values)
                    run.consumed += 1
                    if compatible:
                        found[summary] = ((prefix, at), summary,
                                          tuple(templates.facts(values)))
                        run.decide(position + group.size - at - 1,
                                   (prefix,), at + 1)
                        break
            return run.outcome("complete")
        for prefix, position, values in stream:
            if skip:
                skip -= 1
                continue
            if beat is not None and beat.due:
                run.heartbeat((prefix,), position)
            if governor is not None:
                governor.tick("valuations")
            run.examined += 1
            summary = templates.summary(values)
            if summary not in found:
                if program is None:
                    program = context.check_program(templates, empty_base,
                                                    master, constraints)
                if program.check(values):
                    found[summary] = ((prefix, position), summary,
                                      tuple(templates.facts(values)))
            run.consumed += 1
    return run.outcome("complete")


@traced("decide_rcqp_with_inds")
def decide_rcqp_with_inds(query: Any, master: Instance,
                          constraints: Sequence[ContainmentConstraint],
                          schema: DatabaseSchema,
                          *, construct_witness: bool = True,
                          verify_witness: bool = True,
                          budget: int | None = None,
                          governor: ExecutionGovernor | None = None,
                          on_exhausted: str = "error",
                          resume_from: SearchCheckpoint | None = None,
                          context: EvaluationContext | None = None,
                          backend: str | None = None,
                          workers: int | None = 1,
                          ) -> RCQPResult:
    """Decide RCQP when every containment constraint is an IND.

    Implements Proposition 4.3: ``RCQ(Q, Dm, V)`` is nonempty iff every
    disjunct is syntactically bounded (each infinite-domain output variable
    has a finite attribute domain (E3) or is IND-covered (E4)), or the
    disjunct admits no valid valuation satisfying ``V``.

    On NONEMPTY the witness database from the proof is constructed: for
    every achievable output tuple over the active domain, one instantiated
    tableau producing it.

    Governed like :func:`decide_rcdp`; the checkpoint cursor is
    ``(shards, phase, index)`` where phase 0 is the relevance/
    boundedness scan (index into the tableau list) and phase 1 the
    witness construction (index into the relevant-tableau list); its
    payload holds the current scan's per-shard resume points, the
    relevant tableaux, and the witness facts built so far.  *workers*
    shards both valuation scans across processes (``docs/PARALLEL.md``);
    the verdict is worker-count invariant.
    """
    count = resolve_workers(workers)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    assert_decidable_configuration(query, constraints)
    for constraint in constraints:
        if not constraint.is_ind():
            raise ConstraintError(
                f"decide_rcqp_with_inds requires IND constraints; "
                f"{constraint.name!r} is not an IND")
    query.validate(schema)
    tableaux = _query_tableaux(query, schema)

    phase, start, shards = 0, 0, fresh_shards()
    relevant: list[int] = []
    witness_facts: list[Fact] = []
    base_stats = SearchStatistics()
    if resume_from is not None:
        (phase, start), shards, (carried_relevant, carried_facts) = \
            resume_point(resume_from, "rcqp-inds", count)
        relevant, witness_facts = list(carried_relevant), list(carried_facts)
        base_stats = resume_from.base_statistics()
    searched = SearchStatistics()

    def _stats() -> SearchStatistics:
        return base_stats.merged(searched).merged(
            context.statistics.since(engine_base))

    def _exhausted(cursor_phase: int, index: int, at: list,
                   reason: str) -> RCQPResult:
        stats = _stats()
        return exhausted_result(RCQPResult(
            status=RCQPStatus.EXHAUSTED,
            explanation=(
                f"search interrupted ({reason}) after "
                f"{stats.valuations_examined} valuation(s); resume from "
                f"the checkpoint to continue"),
            statistics=stats,
            checkpoint=search_checkpoint(
                "rcqp-inds", at, stats, position=(cursor_phase, index),
                extra=(tuple(relevant), tuple(witness_facts))),
            interrupted=reason), on_exhausted)

    # Both scans enumerate each tableau over one Adom(Dm, Q, V), and
    # every per-valuation Δ extends one empty base, so the constraint
    # checks run on the delta path against it.
    payload = dict(master=master, constraints=tuple(constraints),
                   empty_base=Instance.empty(schema),
                   adom=ActiveDomain.build(
                       instances=(master,),
                       queries=[query] + [c.query for c in constraints],
                       tableaux=tableaux))

    def _scan(kind: str, kernel: Any, tableau_index: int,
              shards: list, use_beacon: bool) -> list[ShardOutcome]:
        return run_search("decide_rcqp_with_inds_parallel", kind, kernel,
                          dict(payload, tableau=tableaux[tableau_index]),
                          shards, count=count, governor=governor,
                          context=context, use_beacon=use_beacon)

    with context.governed(governor):
        if phase == 0:
            with obs_span(obs, "enumerate_E3"):
                for t_index in range(start, len(tableaux)):
                    outcomes = _scan("inds-scan", _inds_scan_kernel,
                                     t_index, shards, True)
                    shards = fresh_shards()
                    searched = searched.merged(total_statistics(outcomes))
                    if best_witness(outcomes) is None:
                        exhausted = first_exhausted(outcomes)
                        if exhausted is not None:
                            return _exhausted(0, t_index,
                                              resume_shards(outcomes),
                                              exhausted.reason)
                        # The disjunct can never fire in a partially
                        # closed database; it cannot break boundedness
                        # (second case of Prop. 4.3).
                        continue
                    relevant.append(t_index)
                    tableau = tableaux[t_index]
                    for variable in sorted(tableau.summary_variables(),
                                           key=lambda v: v.name):
                        if tableau.has_finite_domain(variable):
                            continue  # condition E3
                        if covering_ind(tableau, variable,
                                        constraints) is None:
                            return RCQPResult(
                                status=RCQPStatus.EMPTY,
                                explanation=(
                                    f"output variable {variable!r} of "
                                    f"disjunct {tableau.query.name!r} "
                                    f"has an infinite domain and is not "
                                    f"covered by any IND (conditions "
                                    f"E3/E4 both fail)"),
                                statistics=_stats())
            start, shards = 0, fresh_shards()

        witness = None
        if construct_witness:
            with obs_span(obs, "enumerate_E4"):
                for r_pos in range(start, len(relevant)):
                    outcomes = _scan("inds-build", _inds_build_kernel,
                                     relevant[r_pos], shards, False)
                    shards = fresh_shards()
                    searched = searched.merged(total_statistics(outcomes))
                    exhausted = first_exhausted(outcomes)
                    if exhausted is not None:
                        return _exhausted(1, r_pos, resume_shards(outcomes),
                                          exhausted.reason)
                    for _, _, delta in merged_finds(outcomes):
                        witness_facts.extend(delta)
            witness = _facts_instance(schema, witness_facts)
            if verify_witness:
                try:
                    with obs_span(obs, "verify_witness"):
                        verdict = decide_rcdp(
                            query, witness, master, constraints,
                            governor=governor, context=context,
                            workers=count)
                except ExecutionInterrupted as interrupt:
                    # Verification restarts from scratch on resume: the
                    # cursor points past the whole build.
                    return _exhausted(1, len(relevant), fresh_shards(),
                                      interrupt.reason)
                if verdict.status is not RCDPStatus.COMPLETE:
                    raise ReproError(
                        "internal error: Proposition 4.3 witness failed "
                        "RCDP verification — please report this as a bug")
    return RCQPResult(
        status=RCQPStatus.NONEMPTY,
        witness=witness,
        explanation=(
            "every relevant disjunct is syntactically bounded "
            "(conditions E3/E4); witness covers all achievable output "
            "tuples over the active domain"),
        statistics=_stats())


# ---------------------------------------------------------------------------
# General case: conditions E1/E2 and E5/E6 (Propositions 4.2, Corollary 4.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuationUnit:
    """One partial valuation ``ν_i`` of one constraint tableau.

    *facts* are the instantiated tuple templates ``ν_i(S)`` for the chosen
    row subset ``S``; *summary_values* the values of the constraint-query
    summary positions that the valuation defines (used by the boundedness
    test "μ(y) appears in ν_j(u_j)").
    """

    facts: frozenset[Fact]
    summary_values: frozenset

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{r!r}" for n, r in sorted(
            self.facts, key=repr))
        return f"Unit[{{{inner}}} ↦ {sorted(self.summary_values, key=repr)}]"


def _constraint_tableaux(constraints: Sequence[ContainmentConstraint],
                         schema: DatabaseSchema) -> list[Tableau]:
    tableaux: list[Tableau] = []
    for constraint in constraints:
        for disjunct in constraint.query.to_cq_disjuncts():
            tableau = Tableau(disjunct, schema)
            if tableau.satisfiable:
                tableaux.append(tableau)
    return tableaux


def _enumerate_units(cc_tableaux: Sequence[Tableau], adom: ActiveDomain,
                     max_rows_per_unit: int,
                     governor: ExecutionGovernor | None = None,
                     skip: int = 0,
                     progress: dict | None = None) -> list[ValuationUnit]:
    """All partial valuations of constraint tableaux over the active domain.

    Each infinite-domain variable ranges over the shared constants plus its
    own dedicated fresh value (see the dedicated-fresh discussion in
    :mod:`repro.core.valuations`); *max_rows_per_unit* caps how many tuple
    templates one partial valuation instantiates.

    The enumeration charges one ``"units"`` tick per candidate partial
    valuation; the first *skip* candidates are charged nothing (they were
    already paid for by the interrupted run being resumed).  *progress*,
    when given, tracks the number of completed candidates under the key
    ``"units"`` so an interrupt handler can checkpoint the frontier.
    """
    units: list[ValuationUnit] = []
    seen: set[tuple[frozenset, frozenset]] = set()
    completed = 0
    for tableau in cc_tableaux:
        rows = tableau.rows
        row_indices = range(len(rows))
        max_rows = min(max_rows_per_unit, len(rows))
        for size in range(1, max_rows + 1):
            for subset in itertools.combinations(row_indices, size):
                chosen = [rows[i] for i in subset]
                variables = sorted(
                    {v for row in chosen for v in row.variables()},
                    key=lambda v: v.name)
                candidate_lists = [
                    adom.candidates_for(tableau, v, fresh="own")
                    for v in variables]
                for combo in itertools.product(*candidate_lists):
                    if governor is not None and completed >= skip:
                        governor.tick("units")
                    valuation = dict(zip(variables, combo))
                    facts = frozenset(
                        (row.relation, row.instantiate(valuation))
                        for row in chosen)
                    summary_values = []
                    for term in tableau.summary:
                        if isinstance(term, Const):
                            summary_values.append(term.value)
                        elif term in valuation:
                            summary_values.append(valuation[term])
                    key = (facts, frozenset(summary_values))
                    completed += 1
                    if progress is not None:
                        progress["units"] = completed
                    if key in seen:
                        continue
                    seen.add(key)
                    units.append(ValuationUnit(
                        facts=facts,
                        summary_values=frozenset(summary_values)))
    return units


def _candidate_is_bounding(schema: DatabaseSchema, master: Instance,
                           constraints: Sequence[ContainmentConstraint],
                           q_tableaux: Sequence[Tableau],
                           adom: ActiveDomain,
                           dv_facts: frozenset[Fact],
                           bound_values: frozenset,
                           governor: ExecutionGovernor | None,
                           context: EvaluationContext,
                           ) -> bool:
    """Condition E2/E6 for one candidate set: every constraint-compatible
    valid valuation must have all its infinite-domain output variables
    bounded by the candidate's summary values."""
    dv_instance = _facts_instance(schema, dv_facts)
    if not satisfies_all(dv_instance, master, constraints, context=context):
        return False
    extra_values = {value for _, row in dv_facts for value in row
                    if is_fresh(value)}
    extra_values |= {value for value in bound_values if is_fresh(value)}
    for tableau in q_tableaux:
        infinite_vars = [
            v for v in sorted(tableau.summary_variables(),
                              key=lambda v: v.name)
            if not tableau.has_finite_domain(v)]
        for valuation in iter_valid_valuations(
                tableau, adom, fresh="own", extra=sorted(
                    extra_values, key=repr)):
            if governor is not None:
                governor.tick("valuations")
            if all(valuation[v] in bound_values for v in infinite_vars):
                continue
            delta = tableau.instantiate(valuation)
            if satisfies_all_extension(dv_instance, delta, master,
                                       constraints, context=context):
                return False
    return True


def _rcqp_search_space(query: Any, master: Instance,
                       constraints: Sequence[ContainmentConstraint],
                       schema: DatabaseSchema,
                       ) -> tuple[list[Tableau], list[Tableau], ActiveDomain]:
    """``(query tableaux, constraint tableaux, Adom)`` of the general
    search."""
    q_tableaux = _query_tableaux(query, schema)
    cc_tableaux = _constraint_tableaux(constraints, schema)
    adom = ActiveDomain.build(
        instances=(master,),
        queries=[query] + [c.query for c in constraints],
        tableaux=list(q_tableaux) + cc_tableaux)
    return q_tableaux, cc_tableaux, adom


def _verified_witness(payload: dict[str, Any], combo: Sequence[ValuationUnit],
                      governor: Any, context: EvaluationContext, obs: Any,
                      ) -> Instance | None:
    """The witness database of one candidate set, or None: ``D_V`` must
    bound the query (E2/E6) and satisfy ``V`` with the ground tableau
    rows added, close under certificate completion, and (with
    ``verify_witness``) pass the exact RCDP decider."""
    query, master = payload["query"], payload["master"]
    constraints, schema = payload["constraints"], payload["schema"]
    dv_facts = frozenset().union(*(unit.facts for unit in combo))
    bound_values = frozenset().union(*(unit.summary_values
                                       for unit in combo))
    if not _candidate_is_bounding(schema, master, constraints,
                                  payload["q_tableaux"], payload["adom"],
                                  dv_facts, bound_values,
                                  governor=governor, context=context):
        return None
    witness = _facts_instance(schema,
                              list(dv_facts) + payload["ground_rows"])
    if not satisfies_all(witness, master, constraints, context=context):
        return None
    outcome = make_complete(
        query, witness, master, constraints,
        max_rounds=payload["max_completion_rounds"], governor=governor,
        on_exhausted="error", context=context,
        analysis=payload["analysis"], analyze=False)
    if not outcome.complete:
        return None
    if payload["verify_witness"]:
        with obs_span(obs, "verify_witness"):
            verdict = decide_rcdp(query, outcome.database, master,
                                  constraints, governor=governor,
                                  context=context,
                                  analysis=payload["analysis"],
                                  analyze=False)
        if verdict.status is not RCDPStatus.COMPLETE:
            return None  # conservative: keep searching
    return outcome.database


def _rcqp_sets_kernel(run: SearchRun, payload: dict[str, Any],
                      ) -> ShardOutcome:
    """E2/E6 over one shard of the candidate sets (smallest first): stop
    at the first bounding set whose completed witness verifies.  Ranks
    are ``(position,)`` in the flat candidate-set stream."""
    context, governor = run.context, run.governor
    obs = obs_of(governor)
    beacon, beat = run.beacon, run.beat
    run.examined_as = "candidate_sets_examined"
    with run.governed(), obs_span(obs, "enumerate_candidate_sets"):
        for position, combo in owned(run.shard, subsets(
                payload["units"], 0, payload["max_size"])):
            if beat is not None and beat.due:
                run.heartbeat((position,))
            if beacon is not None and beacon.superseded((position,)):
                return run.outcome("superseded")
            if governor is not None:
                governor.tick("candidate_sets")
            run.examined += 1
            witness = _verified_witness(payload, combo, governor, context,
                                        obs)
            if witness is not None:
                return run.witness((position,), (witness, len(combo)))
            run.consumed += 1
    return run.outcome("complete")


@traced("decide_rcqp")
def decide_rcqp(query: Any, master: Instance,
                constraints: Sequence[ContainmentConstraint],
                schema: DatabaseSchema,
                *, max_valuation_set_size: int = 2,
                max_rows_per_unit: int = 1,
                max_completion_rounds: int = 64,
                verify_witness: bool = True,
                budget: int | None = None,
                governor: ExecutionGovernor | None = None,
                on_exhausted: str = "error",
                resume_from: SearchCheckpoint | None = None,
                context: EvaluationContext | None = None,
                backend: str | None = None,
                analyze: bool = True,
                analysis: Any = None,
                workers: int | None = 1) -> RCQPResult:
    """Decide RCQP for CQ/UCQ/∃FO⁺ queries and constraints.

    Dispatches to the syntactic IND algorithm when every constraint is an
    IND.  Otherwise implements the boundedness characterization:

    * **E1/E5** — if every output variable of every (relevant) disjunct has
      a finite domain, the query is relatively complete; the witness is
      built by certificate-completion from the empty database, which
      terminates because the answer space over the active domain is finite.
    * **E2/E6** — search over candidate sets ``V`` of partial valuations of
      the constraint tableaux (at most *max_valuation_set_size* units, each
      instantiating at most *max_rows_per_unit* tuple templates).  A
      candidate is *bounding* when ``D_V ⊨ V`` and every
      constraint-compatible valid valuation of the query has its
      infinite-domain output values among the candidate's summary values.
      Bounding candidates yield a witness (``D_V`` plus ground tableau
      rows, closed under certificate completion) that is re-verified with
      the exact RCDP decider before NONEMPTY is returned.

    EMPTY is exact when the unit budget covers the whole unit space;
    otherwise ``EMPTY_UP_TO_BOUND`` is returned.

    The shared *governor* spans unit enumeration (``"units"`` ticks), the
    candidate-set loop (``"candidate_sets"`` ticks), and every nested
    bounding check, completion, and RCDP verification (``"valuations"``
    ticks).  The checkpoint cursor is ``(shards, phase, n)``: phase 0 is
    the unit enumeration (*n* partial valuations built), phase 1 the
    candidate-set search, whose per-shard resume points (candidate sets
    fully processed) the payload holds.

    *workers* shards the candidate-set search across processes
    (``docs/PARALLEL.md``); the unit enumeration stays in this process,
    since its order defines the candidate-set stream.  The verdict is
    worker-count invariant.
    """
    validate_exhaustion_mode(on_exhausted)
    if constraints and all(c.is_ind() for c in constraints):
        return decide_rcqp_with_inds(query, master, constraints, schema,
                                     verify_witness=verify_witness,
                                     budget=budget, governor=governor,
                                     on_exhausted=on_exhausted,
                                     resume_from=resume_from,
                                     context=context, backend=backend,
                                     workers=workers)
    count = resolve_workers(workers)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    assert_decidable_configuration(query, constraints)
    if analysis is None and analyze:
        # RCQP has no database D — the scenario rules that need one
        # (partial closedness) skip themselves.
        with obs_span(obs, "analyze"):
            analysis = validate_for_decision(
                query, constraints, schema=schema,
                master_schema=master.schema, master=master)
    fresh_warnings = (len(analysis.warnings)
                      if analysis is not None and resume_from is None
                      else 0)
    query.validate(schema)
    q_tableaux, cc_tableaux, adom = _rcqp_search_space(
        query, master, constraints, schema)

    if not q_tableaux:
        return RCQPResult(
            status=RCQPStatus.NONEMPTY,
            witness=Instance.empty(schema),
            explanation="the query is unsatisfiable; every partially "
                        "closed database is trivially complete",
            statistics=SearchStatistics(
                analysis_warnings=fresh_warnings))

    phase, start_units, shards = 0, 0, fresh_shards()
    base_stats = SearchStatistics()
    if resume_from is not None:
        (phase, start_units), shards, _ = resume_point(resume_from, "rcqp",
                                                       count)
        base_stats = resume_from.base_statistics()
    new_units = 0
    frontier: dict[str, Any] = {"units": start_units}
    outcomes: list[ShardOutcome] = []

    def _stats() -> SearchStatistics:
        stats = base_stats.merged(SearchStatistics(
            units_examined=new_units,
            analysis_warnings=fresh_warnings)).merged(
            total_statistics(outcomes))
        return stats.merged(context.statistics.since(engine_base))

    with context.governed(governor):
        try:
            # Condition E1/E5: all output variables range over finite
            # domains.
            if all(tableau.has_finite_domain(v)
                   for tableau in q_tableaux
                   for v in tableau.summary_variables()):
                outcome = make_complete(
                    query, Instance.empty(schema), master, constraints,
                    max_rounds=max_completion_rounds, governor=governor,
                    on_exhausted="error", context=context,
                    analysis=analysis, analyze=False, workers=count)
                if outcome.complete:
                    # The completion shares the context, so _stats()
                    # already holds its engine counters.
                    completion = outcome.statistics
                    return RCQPResult(
                        status=RCQPStatus.NONEMPTY,
                        witness=outcome.database,
                        explanation=(
                            "all output variables have finite domains "
                            "(condition E1/E5); witness built by "
                            "certificate completion"),
                        statistics=_stats().merged(SearchStatistics(
                            valuations_examined=completion.valuations_examined,
                            constraint_checks=completion.constraint_checks)))
                raise ReproError(
                    "internal error: E1/E5 completion did not converge — "
                    "raise max_completion_rounds or report this as a bug")

            # Condition E2/E6: search for a bounding set of partial
            # valuations.  The units are enumerated here, in order, since
            # that order defines the candidate-set stream every shard
            # indexes into; a resumed phase 1 rebuilds them without
            # charge.
            with obs_span(obs, "enumerate_units"):
                if phase == 0:
                    units = _enumerate_units(
                        cc_tableaux, adom, max_rows_per_unit,
                        governor=governor, skip=start_units,
                        progress=frontier)
                    new_units = max(0, frontier["units"] - start_units)
                else:
                    units = _enumerate_units(cc_tableaux, adom,
                                             max_rows_per_unit)
            payload = dict(query=query, master=master,
                           constraints=tuple(constraints), schema=schema,
                           q_tableaux=q_tableaux, adom=adom,
                           ground_rows=[
                               (row.relation, row.instantiate({}))
                               for tableau in q_tableaux
                               for row in tableau.ground_rows()],
                           units=tuple(units),
                           max_size=min(max_valuation_set_size, len(units)),
                           max_completion_rounds=max_completion_rounds,
                           verify_witness=verify_witness,
                           analysis=analysis)
            outcomes = run_search("decide_rcqp_parallel", "rcqp-sets",
                                  _rcqp_sets_kernel, payload, shards,
                                  count=count, governor=governor,
                                  context=context)
        except ExecutionInterrupted as interrupt:
            stats = _stats()
            return exhausted_result(RCQPResult(
                status=RCQPStatus.EXHAUSTED,
                explanation=(
                    f"search interrupted ({interrupt.reason}) at unit "
                    f"enumeration position {frontier['units']}; resume "
                    f"from the checkpoint to continue"),
                statistics=stats,
                checkpoint=search_checkpoint(
                    "rcqp", fresh_shards(), stats,
                    position=(0, frontier["units"])),
                interrupted=interrupt.reason), on_exhausted)

    stats = _stats()
    best = best_witness(outcomes)
    if best is not None:
        witness_database, size = best.data
        return RCQPResult(
            status=RCQPStatus.NONEMPTY,
            witness=witness_database,
            explanation=(
                f"bounding valuation set of size {size} found "
                f"(condition E2/E6); witness verified complete"),
            statistics=stats)

    exhausted = first_exhausted(outcomes)
    if exhausted is not None:
        shards = resume_shards(outcomes)
        return exhausted_result(RCQPResult(
            status=RCQPStatus.EXHAUSTED,
            explanation=(
                f"search interrupted ({exhausted.reason}) at "
                f"candidate-set search position "
                f"{sum(s.skip for s in shards)}; resume from the "
                f"checkpoint to continue"),
            statistics=stats,
            checkpoint=search_checkpoint("rcqp", shards, stats,
                                         position=(1, 0)),
            interrupted=exhausted.reason), on_exhausted)

    space_covered = max_valuation_set_size >= len(units)
    return RCQPResult(
        status=(RCQPStatus.EMPTY if space_covered
                else RCQPStatus.EMPTY_UP_TO_BOUND),
        explanation=(
            f"no bounding valuation set among "
            f"{stats.candidate_sets_examined} candidate set(s) over "
            f"{len(units)} unit(s)"
            + ("" if space_covered else
               f" (search capped at size {max_valuation_set_size})")),
        statistics=stats,
        bound=None if space_covered else max_valuation_set_size)
