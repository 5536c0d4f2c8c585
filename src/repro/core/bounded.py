"""Brute-force oracles and bounded semi-decision procedures.

Two roles:

1. **Cross-validation.**  ``brute_force_rcdp`` enumerates *all* extension
   sets ``Δ`` up to a size bound over an explicit value pool and checks the
   definition of relative completeness directly.  On decidable
   configurations, with the pool set to the active domain and the bound to
   the tableau size, it must agree with the characterization-based decider —
   the test suite and benchmarks exploit this.

2. **FO / FP.**  RCDP and RCQP are undecidable once FO or FP appears on
   either side (Theorems 3.1 and 4.1).  The bounded procedures here are the
   honest fallback: they can certify INCOMPLETE (a counterexample is a
   finite object) but only ever report ``COMPLETE_UP_TO_BOUND`` /
   ``EMPTY_UP_TO_BOUND`` on the other side.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Sequence

from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all_extension)
from repro.core.rcdp import (assert_decidable_configuration, decide_rcdp,
                             ensure_partially_closed, resolve_context)
from repro.core.results import (IncompletenessCertificate, RCDPResult,
                                RCDPStatus, RCQPResult, RCQPStatus,
                                SearchStatistics)
from repro.core.search import (SearchRun, ShardOutcome, best_witness,
                               exhausted_result, first_exhausted,
                               fresh_shards, owned, resolve_workers,
                               resume_point, resume_shards, run_search,
                               search_checkpoint, subsets,
                               total_statistics)
from repro.engine import EvaluationContext, decision_key
from repro.errors import UndecidableConfigurationError
from repro.obs import obs_of, obs_span, traced
from repro.relational.domain import FreshValueSupply
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema
from repro.runtime import (ExecutionGovernor, SearchCheckpoint,
                           resolve_governor, validate_exhaustion_mode)

__all__ = ["candidate_fact_pool", "default_value_pool",
           "resolve_value_pool", "brute_force_rcdp", "brute_force_rcqp"]

Fact = tuple[str, tuple]


def default_value_pool(schema: DatabaseSchema,
                       instances: Iterable[Instance],
                       queries: Iterable[Any],
                       fresh_count: int = 2) -> list[Any]:
    """Constants of *instances* and *queries* plus *fresh_count* fresh
    values — a sensible default pool for the brute-force procedures."""
    values: set[Any] = set()
    for instance in instances:
        values |= instance.active_domain()
    for query in queries:
        values |= set(query.constants())
    supply = FreshValueSupply(prefix="brute")
    pool = sorted(values, key=repr)
    pool.extend(supply.take_many(fresh_count))
    return pool


def candidate_fact_pool(schema: DatabaseSchema,
                        values: Sequence[Any],
                        relations: Iterable[str] | None = None,
                        ) -> list[Fact]:
    """All facts over *schema* whose infinite columns draw from *values*
    and whose finite columns draw from their (full) finite domains.

    *relations* optionally restricts the pool to a subset of relations —
    essential on wide schemas, where the full pool is ``|values|^arity``
    per relation.
    """
    facts: list[Fact] = []
    chosen = None if relations is None else set(relations)
    for relation in schema:
        if chosen is not None and relation.name not in chosen:
            continue
        per_column: list[list[Any]] = []
        for attribute in relation.attributes:
            if attribute.domain.is_infinite:
                per_column.append(list(values))
            else:
                per_column.append(
                    sorted(attribute.domain.values, key=repr))
        for row in itertools.product(*per_column):
            facts.append((relation.name, row))
    return facts


def resolve_value_pool(query: Any,
                       constraints: Sequence[ContainmentConstraint],
                       schema: DatabaseSchema,
                       instances: Sequence[Instance],
                       values: Sequence[Any] | None,
                       context: EvaluationContext,
                       ) -> Sequence[Any]:
    """The brute-force value pool for one decision, memoized by content.

    A caller-supplied *values* sequence wins.  Otherwise the default pool
    is built from *instances* and the query/constraint constants, and
    memoized on *context* under a
    :func:`~repro.engine.keys.decision_key`.  A content-based key makes
    the memo entry independent of object identity (an ``id()``-based key
    could collide after the pinned objects are collected).
    """
    if values is not None:
        return values
    queries = [query] + [c.query for c in constraints]

    def _build_pool() -> list[Any]:
        return default_value_pool(schema, instances, queries)

    return context.memo(
        decision_key("value-pool", schema, *instances, query, *constraints),
        _build_pool,
        pin=(*instances, query, *constraints))


def _brute_rcdp_kernel(run: SearchRun, payload: dict[str, Any],
                       ) -> ShardOutcome:
    """One shard of the extension-set enumeration: stop at the first
    ``Δ`` that keeps ``V`` satisfied and changes ``Q(D)``.  Ranks are
    ``(position,)`` in the flat smallest-first stream."""
    query, database = payload["query"], payload["database"]
    master, constraints = payload["master"], payload["constraints"]
    baseline = payload["baseline"]
    context, governor = run.context, run.governor
    beacon, beat = run.beacon, run.beat
    with run.governed(), obs_span(obs_of(governor), "enumerate_extensions"):
        for position, combo in owned(run.shard, subsets(
                payload["pool"], 1, payload["max_extra_facts"])):
            if beat is not None and beat.due:
                run.heartbeat((position,))
            if beacon is not None and beacon.superseded((position,)):
                return run.outcome("superseded")
            if governor is not None:
                governor.tick("extensions")
            run.examined += 1
            delta = list(combo)
            run.checks += 1
            # Evaluate Q(D ∪ Δ) at most once per candidate; the != test
            # (not ⊋) also catches FO answer *loss*.
            compatible = satisfies_all_extension(
                database, delta, master, constraints, context=context)
            extended_answers = (
                context.evaluate_extension(query, database, delta)
                if compatible else None)
            if compatible and extended_answers != baseline:
                new_answers = extended_answers - baseline
                answer = next(iter(new_answers)) if new_answers else ()
                return run.witness((position,), (combo, answer))
            run.consumed += 1
    return run.outcome("complete")


@traced("brute_force_rcdp")
def brute_force_rcdp(query: Any, database: Instance, master: Instance,
                     constraints: Sequence[ContainmentConstraint],
                     *, max_extra_facts: int,
                     values: Sequence[Any] | None = None,
                     relations: Iterable[str] | None = None,
                     check_partially_closed: bool = True,
                     budget: int | None = None,
                     governor: ExecutionGovernor | None = None,
                     on_exhausted: str = "error",
                     resume_from: SearchCheckpoint | None = None,
                     context: EvaluationContext | None = None,
                     backend: str | None = None,
                     workers: int | None = 1,
                     ) -> RCDPResult:
    """Check relative completeness by exhaustive extension enumeration.

    Enumerates every set ``Δ`` of at most *max_extra_facts* new facts over
    the value pool, smallest first; the first ``Δ`` with
    ``(D ∪ Δ, Dm) ⊨ V`` and ``Q(D ∪ Δ) ≠ Q(D)`` yields INCOMPLETE.
    Otherwise the verdict is ``COMPLETE_UP_TO_BOUND`` — a genuine COMPLETE
    claim would require the characterization-based decider.

    Works for **any** query language the library evaluates, including FO
    and FP, where this is the only procedure available.

    Governed like the exact deciders (``"extensions"`` ticks, one per
    candidate ``Δ``); the checkpoint cursor is ``(shards,)``, with each
    shard's count of extension sets already examined, in deterministic
    smallest-first order, in its payload.  *workers* shards the
    enumeration across processes (``docs/PARALLEL.md``); the verdict is
    worker-count invariant.
    """
    count = resolve_workers(workers)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    if check_partially_closed:
        with obs_span(obs, "check_ccs"):
            ensure_partially_closed(database, master, constraints, context)
    values = resolve_value_pool(query, constraints, database.schema,
                                (database, master), values, context)
    existing = set(database.facts())
    pool = tuple(fact for fact in candidate_fact_pool(
        database.schema, values, relations=relations)
        if fact not in existing)

    stats = SearchStatistics()
    shards = fresh_shards()
    if resume_from is not None:
        _, shards, _ = resume_point(resume_from, "brute-rcdp", count)
        stats = resume_from.base_statistics()
    with obs_span(obs, "evaluate_Q"):
        baseline = context.evaluate(query, database)
    payload = dict(query=query, database=database, master=master,
                   constraints=tuple(constraints), baseline=baseline,
                   max_extra_facts=max_extra_facts, pool=pool)
    outcomes = run_search("brute_force_rcdp_parallel", "brute-rcdp",
                          _brute_rcdp_kernel, payload, shards, count=count,
                          governor=governor, context=context)
    stats = stats.merged(total_statistics(outcomes))
    stats = stats.merged(context.statistics.since(engine_base))

    best = best_witness(outcomes)
    if best is not None:
        combo, answer = best.data
        return RCDPResult(
            status=RCDPStatus.INCOMPLETE,
            certificate=IncompletenessCertificate(
                extension_facts=tuple(combo), new_answer=answer),
            explanation=(
                f"brute force found a {len(combo)}-fact consistent "
                f"extension changing the answer"),
            statistics=stats, bound=max_extra_facts)

    exhausted = first_exhausted(outcomes)
    if exhausted is not None:
        shards = resume_shards(outcomes)
        return exhausted_result(RCDPResult(
            status=RCDPStatus.EXHAUSTED,
            explanation=(
                f"brute-force search interrupted ({exhausted.reason}) "
                f"after {sum(s.skip for s in shards)} extension set(s); "
                f"resume from the checkpoint to continue"),
            statistics=stats,
            checkpoint=search_checkpoint("brute-rcdp", shards, stats),
            interrupted=exhausted.reason, bound=max_extra_facts),
            on_exhausted)
    return RCDPResult(
        status=RCDPStatus.COMPLETE_UP_TO_BOUND,
        explanation=(
            f"no consistent answer-changing extension of ≤ "
            f"{max_extra_facts} fact(s) over a pool of {len(pool)} "
            f"candidates"),
        statistics=stats,
        bound=max_extra_facts)


def _brute_rcqp_kernel(run: SearchRun, payload: dict[str, Any],
                       ) -> ShardOutcome:
    """One shard of the candidate-database enumeration: stop at the
    first partially closed candidate the completeness test accepts.
    Ranks are ``(position,)`` in the flat smallest-first stream."""
    query, master = payload["query"], payload["master"]
    constraints = payload["constraints"]
    empty = Instance.empty(payload["schema"])
    context, governor = run.context, run.governor
    beacon, beat = run.beacon, run.beat
    run.examined_as = "candidate_sets_examined"
    with run.governed(), obs_span(obs_of(governor), "enumerate_candidates"):
        for position, combo in owned(run.shard, subsets(
                payload["pool"], 0, payload["max_database_size"])):
            if beat is not None and beat.due:
                run.heartbeat((position,))
            if beacon is not None and beacon.superseded((position,)):
                return run.outcome("superseded")
            if governor is not None:
                governor.tick("candidates")
            run.examined += 1
            facts = list(combo)
            if not satisfies_all_extension(empty, facts, master,
                                           constraints, context=context):
                run.consumed += 1
                continue
            candidate = extend_unvalidated(empty, facts)
            if payload["decidable"]:
                verdict = decide_rcdp(
                    query, candidate, master, constraints,
                    check_partially_closed=False, governor=governor,
                    context=context)
                sound = verdict.status is RCDPStatus.COMPLETE
            else:
                verdict = brute_force_rcdp(
                    query, candidate, master, constraints,
                    max_extra_facts=payload["completeness_bound"],
                    values=payload["values"],
                    check_partially_closed=False, governor=governor,
                    context=context)
                sound = verdict.status is RCDPStatus.COMPLETE_UP_TO_BOUND
            if sound:
                return run.witness((position,), candidate)
            run.consumed += 1
    return run.outcome("complete")


@traced("brute_force_rcqp")
def brute_force_rcqp(query: Any, master: Instance,
                     constraints: Sequence[ContainmentConstraint],
                     schema: DatabaseSchema,
                     *, max_database_size: int,
                     values: Sequence[Any] | None = None,
                     completeness_bound: int | None = None,
                     budget: int | None = None,
                     governor: ExecutionGovernor | None = None,
                     on_exhausted: str = "error",
                     resume_from: SearchCheckpoint | None = None,
                     context: EvaluationContext | None = None,
                     backend: str | None = None,
                     workers: int | None = 1,
                     ) -> RCQPResult:
    """Search for a relatively complete database by enumeration.

    Enumerates candidate databases ``D`` of at most *max_database_size*
    facts over the value pool (smallest first); each partially closed
    candidate is tested for completeness:

    * for decidable configurations, with the exact RCDP decider — a hit is
      a sound NONEMPTY verdict with ``D`` as witness;
    * for FO/FP (undecidable), with :func:`brute_force_rcdp` under
      *completeness_bound* — a hit is then only evidence, and the result
      explanation says so.

    Exhausting the search yields ``EMPTY_UP_TO_BOUND``; an exact EMPTY
    answer for decidable configurations comes from
    :func:`repro.core.rcqp.decide_rcqp`.

    Governed (``"candidates"`` ticks, one per candidate database, with the
    nested completeness checks charging the same governor); the checkpoint
    cursor is ``(shards,)``, with each shard's count of candidate
    databases fully processed in its payload.  *workers* shards the
    candidate enumeration across processes (``docs/PARALLEL.md``); the
    verdict is worker-count invariant.
    """
    count = resolve_workers(workers)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    context = resolve_context(context, backend)
    engine_base = context.statistics.copy()
    values = resolve_value_pool(query, constraints, schema, (master,),
                                values, context)
    pool = tuple(candidate_fact_pool(schema, values))

    decidable = True
    try:
        assert_decidable_configuration(query, constraints)
    except UndecidableConfigurationError as exc:
        decidable = False
        if completeness_bound is None:
            raise UndecidableConfigurationError(
                "brute_force_rcqp on an undecidable configuration needs "
                "an explicit completeness_bound") from exc

    stats = SearchStatistics()
    shards = fresh_shards()
    if resume_from is not None:
        _, shards, _ = resume_point(resume_from, "brute-rcqp", count)
        stats = resume_from.base_statistics()
    payload = dict(query=query, master=master,
                   constraints=tuple(constraints), schema=schema,
                   max_database_size=max_database_size, pool=pool,
                   values=tuple(values),
                   completeness_bound=completeness_bound,
                   decidable=decidable)
    outcomes = run_search("brute_force_rcqp_parallel", "brute-rcqp",
                          _brute_rcqp_kernel, payload, shards, count=count,
                          governor=governor, context=context)
    stats = stats.merged(total_statistics(outcomes))
    stats = stats.merged(context.statistics.since(engine_base))

    best = best_witness(outcomes)
    if best is not None:
        note = ("witness verified by the exact RCDP decider"
                if decidable else
                f"witness only checked up to extensions of "
                f"{completeness_bound} fact(s) — configuration is "
                f"undecidable")
        return RCQPResult(status=RCQPStatus.NONEMPTY, witness=best.data,
                          explanation=note, statistics=stats,
                          bound=max_database_size)

    exhausted = first_exhausted(outcomes)
    if exhausted is not None:
        shards = resume_shards(outcomes)
        return exhausted_result(RCQPResult(
            status=RCQPStatus.EXHAUSTED,
            explanation=(
                f"brute-force search interrupted ({exhausted.reason}) "
                f"after {sum(s.skip for s in shards)} candidate "
                f"database(s); resume from the checkpoint to continue"),
            statistics=stats,
            checkpoint=search_checkpoint("brute-rcqp", shards, stats),
            interrupted=exhausted.reason, bound=max_database_size),
            on_exhausted)
    return RCQPResult(
        status=RCQPStatus.EMPTY_UP_TO_BOUND,
        explanation=(
            f"no relatively complete database of ≤ {max_database_size} "
            f"fact(s) over a pool of {len(pool)} candidate facts"),
        statistics=stats,
        bound=max_database_size)
