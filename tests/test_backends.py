"""Differential tests for the pluggable instance storage backends.

The :mod:`repro.relational.backends` contract is that the backend is
*invisible* in every result: for any query, any extension Δ, any
constraint, and any decider, the python (frozenset-of-tuples), columnar
(set-at-a-time), and sqlite (SQL pushdown) backends return the same
answers, the same verdicts, the same witnesses, and the same
search-level statistics.  The backtracking ``evaluate_naive`` is the
shared oracle; these tests pin every backend to it with
Hypothesis-random queries and instances, then cross-check the deciders
end to end at worker counts 1 and 2.

Engine-internal counters (cache hits, delta vs full evaluations) are
deliberately *not* compared across backends — the backends differ in
how they evaluate, and only search-level statistics (valuations
examined, constraint checks) are part of the equivalence contract.
"""

import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.containment import (Projection, satisfies_all,
                                           satisfies_all_extension)
from repro.constraints.ind import InclusionDependency
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.results import RCDPStatus
from repro.engine import EvaluationContext
from repro.errors import ReproError
from repro.mdm.generators import GeneratorConfig, generate_scenario
from repro.relational.backends import (BACKEND_NAMES, StorageBackend,
                                       create_storage,
                                       resolve_backend_name)
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

from tests.strategies import (SCHEMA, conjunctive_queries, extension_facts,
                              instances, union_queries)

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})

IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)

NON_PYTHON = tuple(name for name in BACKEND_NAMES if name != "python")


# ---------------------------------------------------------------------------
# Backend resolution and attachment
# ---------------------------------------------------------------------------


class TestResolution:
    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        assert resolve_backend_name("columnar") == "columnar"

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        assert resolve_backend_name(None) == "columnar"
        assert EvaluationContext().backend == "columnar"

    def test_falls_back_to_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "python"

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            resolve_backend_name("duckdb")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "duckdb")
        with pytest.raises(ReproError):
            resolve_backend_name(None)

    def test_storage_cached_per_kind(self):
        inst = Instance(SCHEMA, {"R": {(1, 2)}})
        for kind in BACKEND_NAMES:
            storage = inst.storage(kind)
            assert isinstance(storage, StorageBackend)
            assert storage.kind == kind
            assert inst.storage(kind) is storage

    def test_attach_preserves_equality_hash_repr(self):
        plain = Instance(SCHEMA, {"R": {(1, 2)}, "T": {(0, 1, 2)}})
        attached = Instance(SCHEMA, {"R": {(1, 2)}, "T": {(0, 1, 2)}})
        before = repr(attached)
        for kind in BACKEND_NAMES:
            attached.storage(kind)
        assert attached == plain
        assert hash(attached) == hash(plain)
        assert repr(attached) == before

    def test_instance_with_sqlite_storage_pickles(self):
        inst = Instance(SCHEMA, {"R": {(1, 2)}})
        inst.storage("sqlite")  # sqlite3.Connection is unpicklable
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        # The clone re-attaches its own storages on demand.
        assert clone.storage("sqlite").plan_rows is not None


# ---------------------------------------------------------------------------
# Query evaluation conformance: every backend ≡ evaluate_naive
# ---------------------------------------------------------------------------


class TestEvaluationConformance:
    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(max_comparisons=3), db=instances())
    def test_cq_matches_naive_oracle(self, query, db):
        expected = query.evaluate_naive(db)
        for backend in BACKEND_NAMES:
            context = EvaluationContext(backend=backend)
            assert context.evaluate(query, db) == expected, backend

    @settings(max_examples=40, deadline=None)
    @given(query=union_queries(max_comparisons=3), db=instances())
    def test_ucq_matches_naive_oracle(self, query, db):
        expected = query.evaluate_naive(db)
        for backend in BACKEND_NAMES:
            context = EvaluationContext(backend=backend)
            assert context.evaluate(query, db) == expected, backend

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(max_comparisons=3), db=instances(),
           delta=extension_facts())
    def test_extension_matches_materialized_union(self, query, db, delta):
        expected = query.evaluate_naive(extend_unvalidated(db, delta))
        for backend in BACKEND_NAMES:
            context = EvaluationContext(backend=backend)
            context.evaluate(query, db)  # warm the base answer
            assert context.evaluate_extension(query, db, delta) \
                == expected, backend


# ---------------------------------------------------------------------------
# Constraint checks: plan_violates ≡ the materialized subset test
# ---------------------------------------------------------------------------


class TestConstraintConformance:
    @settings(max_examples=60, deadline=None)
    @given(query=st.one_of(conjunctive_queries(), union_queries()),
           db=instances(), delta=extension_facts())
    def test_extension_check_matches_contextless(self, query, db, delta):
        """Both projection shapes per draw: the R[b] ⊆ M[c] IND (the
        allowed-set path) and q ⊆ ∅ (the existence-probe pushdown)."""
        from repro.constraints.containment import ContainmentConstraint

        empty_target = ContainmentConstraint(
            query, Projection.empty(), name="q⊆∅")
        for constraint in (IND, empty_target):
            expected = constraint.is_satisfied_extension(
                db, delta, DM, context=None)
            for backend in BACKEND_NAMES:
                context = EvaluationContext(backend=backend)
                assert constraint.is_satisfied_extension(
                    db, delta, DM, context=context) == expected, \
                    (backend, constraint.name)

    @settings(max_examples=30, deadline=None)
    @given(db=instances(), delta=extension_facts())
    def test_satisfies_all_extension_across_backends(self, db, delta):
        expected = satisfies_all_extension(db, delta, DM, [IND],
                                           context=None)
        for backend in BACKEND_NAMES:
            context = EvaluationContext(backend=backend)
            assert satisfies_all_extension(
                db, delta, DM, [IND], context=context) == expected, backend


# ---------------------------------------------------------------------------
# Decider differential: backend × worker count is invisible end to end
# ---------------------------------------------------------------------------


def _crm_problem(num_domestic: int = 3):
    config = GeneratorConfig(
        num_domestic=num_domestic, num_international=0, num_employees=2,
        support_probability=1.0, missing_support_fraction=0.0)
    scenario = generate_scenario(config, random.Random(7))
    spare = f"c{num_domestic - 1}"
    database = scenario.database(
        missing_support=[(f"e{i}", spare) for i in range(2)])
    constraints = [scenario.supt_cid_ind(),
                   scenario.phi1_at_most_k(num_domestic - 1)]
    return (scenario.q2_all_supported_by("e0"), database,
            scenario.master(), constraints)


class TestDeciderDifferential:
    @pytest.mark.usefixtures("no_head_start")
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rcdp_complete_verdict_invariant(self, backend, workers):
        query, database, master, constraints = _crm_problem()
        baseline = decide_rcdp(query, database, master, constraints)
        result = decide_rcdp(query, database, master, constraints,
                             backend=backend, workers=workers)
        assert result.status is baseline.status is RCDPStatus.COMPLETE
        assert (result.statistics.valuations_examined
                == baseline.statistics.valuations_examined)
        assert (result.statistics.constraint_checks
                == baseline.statistics.constraint_checks)

    @pytest.mark.usefixtures("no_head_start")
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rcdp_incomplete_certificate_invariant(self, backend, workers):
        query, database, master, constraints = _crm_problem()
        # Drop φ1: the spare master customer is now an admissible
        # extension, so the decider finds a counterexample.
        baseline = decide_rcdp(query, database, master, constraints[:1])
        result = decide_rcdp(query, database, master, constraints[:1],
                             backend=backend, workers=workers)
        assert result.status is baseline.status is RCDPStatus.INCOMPLETE
        assert result.certificate is not None
        assert (result.certificate.extension_facts
                == baseline.certificate.extension_facts)
        assert (result.certificate.new_answer
                == baseline.certificate.new_answer)

    @pytest.mark.usefixtures("no_head_start")
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_answers_invariant(self, backend, workers):
        query, database, master, constraints = _crm_problem()
        baseline = missing_answers_report(query, database, master,
                                          constraints[:1])
        report = missing_answers_report(query, database, master,
                                        constraints[:1], backend=backend,
                                        workers=workers)
        assert report.answers == baseline.answers
        assert report.exhaustive == baseline.exhaustive
        assert (report.statistics.valuations_examined
                == baseline.statistics.valuations_examined)

    @settings(max_examples=12, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_random_rcdp_verdict_backend_invariant(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            baseline = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        for backend in NON_PYTHON:
            result = decide_rcdp(query, db, DM, [IND], backend=backend)
            assert result.status is baseline.status, backend
            assert (result.statistics.valuations_examined
                    == baseline.statistics.valuations_examined), backend


# ---------------------------------------------------------------------------
# Storage-level edge cases
# ---------------------------------------------------------------------------


class TestStorageEdges:
    def test_nullary_relation_round_trips(self):
        schema = DatabaseSchema([RelationSchema("P", [])])
        populated = Instance(schema, {"P": {()}})
        empty = Instance.empty(schema)
        from repro.queries.atoms import RelAtom
        from repro.queries.cq import ConjunctiveQuery

        query = ConjunctiveQuery([], [RelAtom("P", [])], name="boolean")
        for backend in BACKEND_NAMES:
            assert EvaluationContext(backend=backend).evaluate(
                query, populated) == frozenset({()}), backend
            assert EvaluationContext(backend=backend).evaluate(
                query, empty) == frozenset(), backend

    def test_interning_respects_python_equality(self):
        # 1 == True under Python (and SQLite) semantics; the columnar
        # interner must collapse them exactly like frozenset storage.
        schema = DatabaseSchema([RelationSchema("R", ["a", "b"])])
        inst = Instance(schema, {"R": {(1, 2), (True, 2)}})
        assert len(inst["R"]) == 1
        from repro.queries.atoms import RelAtom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Const, Var

        query = ConjunctiveQuery(
            [Var("x")], [RelAtom("R", [Const(True), Var("x")])], name="q")
        expected = query.evaluate_naive(inst)
        for backend in BACKEND_NAMES:
            assert EvaluationContext(backend=backend).evaluate(
                query, inst) == expected, backend

    def test_derive_keeps_columnar_overlay_consistent(self):
        inst = Instance(SCHEMA, {"R": {(0, 1)}, "T": {(0, 1, 2)}})
        storage = inst.storage("columnar")
        extended = extend_unvalidated(inst, [("R", (1, 2))])
        derived = extended._storages.get("columnar")
        assert derived is not None and derived is not storage
        assert extended.storage("columnar") is derived
        from repro.queries.atoms import RelAtom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Var

        query = ConjunctiveQuery(
            [Var("x"), Var("y")], [RelAtom("R", [Var("x"), Var("y")])],
            name="all_r")
        assert EvaluationContext(backend="columnar").evaluate(
            query, extended) == extended["R"]

    def test_create_storage_unknown_kind(self):
        inst = Instance(SCHEMA, {})
        with pytest.raises(ReproError):
            create_storage("duckdb", inst)


# ---------------------------------------------------------------------------
# The sqlite violation probe at SQLite's host-parameter limit
# ---------------------------------------------------------------------------

_WIDE = DatabaseSchema([RelationSchema("W", ["a", "b", "c", "d"])])
_WIDE_MASTER = DatabaseSchema([RelationSchema("WM", ["a", "b", "c", "d"])])


def _wide_case(rows: int, head: list, body: list, columns: list[int]):
    """A CC ``q(head) :- W(body) ⊆ π[columns](WM)`` over a master of
    *rows* rows ``(a_i, b_i, c_i, d_i)``, so the allowed set has *rows*
    rows; the base holds master row 0."""
    from repro.constraints.containment import ContainmentConstraint
    from repro.queries.atoms import RelAtom
    from repro.queries.cq import ConjunctiveQuery

    master = Instance(_WIDE_MASTER, {"WM": {
        (f"a{i}", f"b{i}", f"c{i}", f"d{i}") for i in range(rows)}})
    base = Instance(_WIDE, {"W": {("a0", "b0", "c0", "d0")}})
    constraint = ContainmentConstraint(
        ConjunctiveQuery(head, [RelAtom("W", body)], name="q"),
        Projection.on("WM", columns), name="cap")
    return constraint, base, master


def _sqlite_verdicts(constraint, base, master) -> list[bool]:
    """``is_satisfied_extension`` on sqlite under a 999-parameter limit
    (SQLite's default before 3.32.0), for a Δ inside and a Δ outside
    the master; each must equal the python backend's verdict."""
    import sqlite3

    base.storage("sqlite")._connection.setlimit(
        sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
    verdicts = []
    for delta in ([("W", ("a1", "b1", "c1", "d1"))],
                  [("W", ("a1", "b1", "x", "y"))],
                  [("W", ("z", "b1", "c1", "d1"))]):
        sqlite = constraint.is_satisfied_extension(
            base, delta, master, context=EvaluationContext(backend="sqlite"))
        python = constraint.is_satisfied_extension(
            base, delta, master, context=EvaluationContext(backend="python"))
        assert sqlite == python, delta
        verdicts.append(sqlite)
    return verdicts


class TestSQLiteParameterCap:
    """The ``NOT IN (VALUES …)`` pushdown binds the plan's parameters
    plus one per selected column of each allowed row; above 999 it falls
    back to a full evaluation, so no probe exceeds the limit."""

    @pytest.mark.parametrize("rows", [499, 500])
    def test_two_columns_at_the_limit(self, rows):
        from repro.queries.terms import Var

        x, y, z, w = (Var(n) for n in "xyzw")
        case = _wide_case(rows, [x, y], [x, y, z, w], [0, 1])
        assert _sqlite_verdicts(*case) == [True, True, False]

    @pytest.mark.parametrize("rows", [249, 250])
    def test_four_columns_at_the_limit(self, rows):
        from repro.queries.terms import Var

        x, y, z, w = (Var(n) for n in "xyzw")
        case = _wide_case(rows, [x, y, z, w], [x, y, z, w], [0, 1, 2, 3])
        assert _sqlite_verdicts(*case) == [True, False, False]

    @pytest.mark.parametrize("rows", [500, 501])
    def test_one_column_past_the_former_row_cap(self, rows):
        from repro.queries.terms import Var

        x, y, z, w = (Var(n) for n in "xyzw")
        case = _wide_case(rows, [x], [x, y, z, w], [0])
        assert _sqlite_verdicts(*case) == [True, True, False]

    @pytest.mark.parametrize("rows", [499, 500])
    def test_plan_parameters_count_toward_the_limit(self, rows):
        # One constant in the body: 2 × 499 + 1 = 999 binds, 2 × 500 + 1
        # falls back.
        from repro.queries.terms import Const, Var

        x, y, w = Var("x"), Var("y"), Var("w")
        case = _wide_case(rows, [x, y], [x, y, Const("c1"), w], [0, 1])
        assert _sqlite_verdicts(*case) == [True, True, False]

    @pytest.mark.parametrize("rows", [499, 1200])
    def test_constant_head_covered_by_the_target(self, rows):
        # An all-constant head selects no column: the probe is decided
        # by whether the head itself is allowed, at any target size.
        from repro.queries.terms import Const, Var

        x, y, z, w = (Var(n) for n in "xyzw")
        covered = _wide_case(rows, [Const("a3")], [x, y, z, w], [0])
        assert _sqlite_verdicts(*covered) == [True, True, True]
        outside = _wide_case(rows, [Const("zz")], [x, y, z, w], [0])
        assert _sqlite_verdicts(*outside) == [False, False, False]


# ---------------------------------------------------------------------------
# The sqlite lowering keeps the compiled join order
# ---------------------------------------------------------------------------


class TestSQLiteJoinOrder:
    def test_explain_visits_the_tables_in_plan_order(self):
        """The Theorem 4.5 witness query for 30 clauses joins 36 atoms;
        lowered with comma joins, SQLite re-plans it (s12, s19, s13,
        s31, ...), while ``CROSS JOIN`` keeps the compiled order."""
        import re

        from repro.engine.plan import compile_plan
        from repro.reductions.sat_to_rcqp import reduce_3sat_to_rcqp
        from repro.solvers.sat import random_3sat

        instance = reduce_3sat_to_rcqp(random_3sat(5, 30, random.Random(1)))
        plan = compile_plan(instance.query)
        storage = Instance.empty(instance.schema).storage("sqlite")
        lowered = storage._lowered(plan)
        storage._ensure_indexes(plan, None)
        rows = storage._connection.execute(
            "EXPLAIN QUERY PLAN " + lowered.sql_rows(),
            storage._encode_params(lowered.params)).fetchall()
        visited = [match.group(1) for *_, detail in rows
                   if (match := re.search(r"\b(s\d+)\b", detail))]
        assert len(plan.steps) == 36
        assert visited == [f"s{i}" for i in range(len(plan.steps))]
