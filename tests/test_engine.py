"""Property tests for the evaluation engine (:mod:`repro.engine`).

The pre-engine backtracking evaluators survive as ``evaluate_naive`` on
every query class; they are the oracle here.  Three independent
agreements are checked on random queries and instances:

1. the compiled/indexed engine path equals the naive evaluator;
2. the semi-naive delta rule ``Q(D ∪ Δ)`` equals naive evaluation of the
   materialized union (with Δ deliberately allowed to overlap ``D``);
3. the RCDP decider reaches the verdict of the materializing reference
   (``benchmarks/reference_rcdp.py``).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.containment import (ContainmentConstraint,
                                           Projection, satisfies_all)
from repro.constraints.ind import InclusionDependency
from repro.core.rcdp import decide_rcdp
from repro.core.results import RCDPStatus
from repro.engine import EvaluationContext, compile_plan
from repro.io.json_io import load_bundle
from repro.queries.atoms import neq, rel
from repro.queries.cq import cq
from repro.queries.terms import Var, var
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

from benchmarks.reference_rcdp import reference_rcdp
from tests.strategies import (conjunctive_queries, extension_facts,
                              instances, union_queries)


class TestEngineMatchesNaive:
    @settings(max_examples=100, deadline=None)
    @given(query=conjunctive_queries(max_comparisons=3),
           instance=instances())
    def test_cq_evaluate(self, query, instance):
        assert query.evaluate(instance) == query.evaluate_naive(instance)

    @settings(max_examples=60, deadline=None)
    @given(query=union_queries(max_comparisons=3), instance=instances())
    def test_ucq_evaluate(self, query, instance):
        assert query.evaluate(instance) == query.evaluate_naive(instance)

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_cq_holds(self, query, instance):
        assert query.holds_in(instance) == bool(
            query.evaluate_naive(instance))

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_context_evaluate_and_cache(self, query, instance):
        context = EvaluationContext()
        first = context.evaluate(query, instance)
        assert first == query.evaluate_naive(instance)
        again = context.evaluate(query, instance)
        assert again == first
        assert context.statistics.cache_hits >= 1
        assert context.statistics.full_evaluations == 1

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_plan_compiles_once_per_query(self, query, instance):
        context = EvaluationContext()
        context.evaluate(query, instance)
        compiled_once = context.statistics.plans_compiled
        context.evaluate(query, instance)
        assert context.statistics.plans_compiled == compiled_once

    @settings(max_examples=40, deadline=None)
    @given(query=conjunctive_queries())
    def test_plan_binds_every_head_variable(self, query):
        # The first occurrence of any variable is always an output, so a
        # safe query's head variables must all appear as plan outputs.
        plan = compile_plan(query)
        if not plan.satisfiable:
            return
        bound = {variable for step in plan.steps
                 for _, variable in step.outputs}
        for term in query.head:
            if isinstance(term, Var):
                assert term in bound


class TestDeltaMatchesFull:
    @settings(max_examples=100, deadline=None)
    @given(query=conjunctive_queries(max_comparisons=3), base=instances(),
           delta=extension_facts())
    def test_cq_delta(self, query, base, delta):
        context = EvaluationContext()
        via_delta = context.evaluate_extension(query, base, delta)
        materialized = extend_unvalidated(base, delta)
        assert via_delta == query.evaluate_naive(materialized)

    @settings(max_examples=60, deadline=None)
    @given(query=union_queries(max_comparisons=3), base=instances(),
           delta=extension_facts())
    def test_ucq_delta(self, query, base, delta):
        context = EvaluationContext()
        via_delta = context.evaluate_extension(query, base, delta)
        materialized = extend_unvalidated(base, delta)
        assert via_delta == query.evaluate_naive(materialized)

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), base=instances(),
           delta=extension_facts())
    def test_delta_reuses_cached_base(self, query, base, delta):
        context = EvaluationContext()
        context.evaluate(query, base)  # warm the base answer cache
        via_delta = context.evaluate_extension(query, base, delta)
        materialized = extend_unvalidated(base, delta)
        assert via_delta == query.evaluate_naive(materialized)

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), base=instances(),
           delta=extension_facts())
    def test_repeated_delta_is_stable(self, query, base, delta):
        context = EvaluationContext()
        first = context.evaluate_extension(query, base, delta)
        second = context.evaluate_extension(query, base, delta)
        assert first == second


# The violation check against the materializing check it replaced: the
# same verdict and the same engine counters, except that an early exit
# may leave some index unbuilt.  The benchmark's exact-counter check
# relies on this.
_M2_SCHEMA = DatabaseSchema([RelationSchema("M", ["a", "b"])])
_M2 = Instance(_M2_SCHEMA, {"M": {(0, 0), (0, 1), (1, 2), (2, 1)}})
_PARITY_COUNTERS = ("plans_compiled", "delta_evaluations",
                    "full_evaluations", "cache_hits", "cache_misses")


def _materialized_check(context, query, base, delta, projection, master):
    """``Q(base ∪ Δ) ⊆ p(master)`` by computing every answer first."""
    answers = context.evaluate_extension(query, base, delta)
    if not answers:
        return True
    if projection.is_empty_target:
        return False
    return answers <= context.projection_rows(projection, master)


def _assert_counter_parity(query, base, delta, projection, master):
    early = EvaluationContext(backend="python")
    full = EvaluationContext(backend="python")
    for _ in range(2):  # cold, then with every cache warm
        verdict = early.extension_satisfies(query, base, delta,
                                            projection, master)
        expected = _materialized_check(full, query, base, delta,
                                       projection, master)
        assert verdict == expected
    for counter in _PARITY_COUNTERS:
        assert getattr(early.statistics, counter) \
            == getattr(full.statistics, counter), counter
    assert early.statistics.index_builds <= full.statistics.index_builds
    return verdict


class TestViolationCheckCounters:
    @settings(max_examples=100, deadline=None)
    @given(query=st.one_of(conjunctive_queries(max_comparisons=3),
                           union_queries(max_comparisons=3)),
           base=instances(), delta=extension_facts())
    def test_counters_match_the_materializing_check(self, query, base,
                                                   delta):
        general = Projection.on("M", range(query.arity))
        for projection in (general, Projection.empty()):
            _assert_counter_parity(query, base, delta, projection, _M2)

    def test_phi1_exits_at_the_first_new_answer(self):
        # φ1 at most k = 2 customers per employee: e0 supports two, Δ
        # adds a third, and every ordering of the three is an answer.
        schema = DatabaseSchema([RelationSchema("Supt", ["e", "d", "c"])])
        base = Instance(schema, {"Supt": {("e0", "d0", "c0"),
                                          ("e0", "d0", "c1"),
                                          ("e1", "d0", "c0")}})
        body = [rel("Supt", var("e"), var(f"d{i}"), var(f"c{i}"))
                for i in range(3)]
        body += [neq(var(f"c{i}"), var(f"c{j}"))
                 for i in range(3) for j in range(i + 1, 3)]
        phi1 = cq([var("e")], body, name="φ1")
        delta = [("Supt", ("e0", "d0", "c2"))]
        assert EvaluationContext().evaluate_extension(
            phi1, base, delta) == frozenset({("e0",)})
        assert not _assert_counter_parity(phi1, base, delta,
                                          Projection.empty(), _M2)


# A tiny RCDP workload for the engine-on/engine-off ablation: suppliers
# constrained to master customers (the paper's Example 1.1 shape).
_SCHEMA = DatabaseSchema([RelationSchema("S", ["eid", "cid"])])
_MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["cid"])])
_DM = Instance(_MASTER_SCHEMA, {"M": {("c1",), ("c2",)}})
_IND = InclusionDependency(
    "S", ["cid"], "M", ["cid"]).to_containment_constraint(
    _SCHEMA, _MASTER_SCHEMA)
_EMPTY_CC = ContainmentConstraint(
    cq([], [rel("S", "e9", var("c"))]), Projection.empty(), name="ban-e9")
_Q = cq([var("c")], [rel("S", "e0", var("c"))], name="Q")

_s_rows = st.frozensets(
    st.tuples(st.sampled_from(["e0", "e1"]),
              st.sampled_from(["c1", "c2"])),
    max_size=4)


class TestDeciderAblation:
    @settings(max_examples=50, deadline=None)
    @given(rows=_s_rows)
    def test_rcdp_engine_matches_naive_decider(self, rows):
        db = Instance(_SCHEMA, {"S": rows})
        constraints = [_IND, _EMPTY_CC]
        if not satisfies_all(db, _DM, constraints):
            return
        engine = decide_rcdp(_Q, db, _DM, constraints)
        status, certificate, checks, examined = reference_rcdp(
            _Q, db, _DM, constraints)
        assert engine.status is status
        assert (engine.certificate is None) == (certificate is None)
        assert engine.statistics.constraint_checks == checks
        assert engine.statistics.valuations_examined == examined

    @settings(max_examples=40, deadline=None)
    @given(rows=_s_rows)
    def test_shared_context_matches_fresh(self, rows):
        db = Instance(_SCHEMA, {"S": rows})
        constraints = [_IND]
        if not satisfies_all(db, _DM, constraints):
            return
        shared = EvaluationContext()
        first = decide_rcdp(_Q, db, _DM, constraints, context=shared)
        second = decide_rcdp(_Q, db, _DM, constraints, context=shared)
        fresh = decide_rcdp(_Q, db, _DM, constraints)
        assert first.status is second.status is fresh.status

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parent.parent / "examples" / "bundles")
        .glob("*.json")), ids=lambda path: path.stem)
    def test_rcdp_matches_reference_on_shipped_bundles(self, path):
        """The bundles add multi-atom, CIND, denial and key constraints
        to the IND and empty-target constraint the properties above
        draw."""
        bundle = load_bundle(path)
        inputs = (bundle["query"], bundle["database"], bundle["master"],
                  bundle["constraints"])
        result = decide_rcdp(*inputs)
        status, certificate, checks, examined = reference_rcdp(*inputs)
        assert result.status is status
        if result.certificate is None:
            assert certificate is None
        else:
            assert certificate == (result.certificate.extension_facts,
                                   result.certificate.new_answer)
        assert result.statistics.constraint_checks == checks
        assert result.statistics.valuations_examined == examined

    def test_engine_statistics_populated(self):
        db = Instance(_SCHEMA, {"S": {("e0", "c1")}})
        context = EvaluationContext()
        result = decide_rcdp(_Q, db, _DM, [_IND], context=context)
        assert result.status is RCDPStatus.INCOMPLETE
        stats = result.statistics
        assert stats.plans_compiled >= 1
        assert stats.full_evaluations >= 1
        assert stats.delta_evaluations + stats.full_evaluations >= 2

    def test_delta_statistics_counted(self):
        base = Instance(_SCHEMA, {"S": {("e0", "c1")}})
        context = EvaluationContext()
        answers = context.evaluate_extension(
            _Q, base, [("S", ("e0", "c2"))])
        assert answers == frozenset({("c1",), ("c2",)})
        assert context.statistics.delta_evaluations == 1
