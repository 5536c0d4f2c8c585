"""Metamorphic tests for the deciders.

Three relations that must hold by construction, checked on random
scenarios:

* **Shard-count invariance** — the brute-force C1–C4 bounded-database
  check enumerates a fixed candidate stream, so splitting it across any
  number of shards must not change the verdict or the (serial-first)
  certificate.
* **Constant-renaming invariance** — the characterizations quantify
  over the active domain only, never over the identity of its values:
  applying an injective, order-preserving rename to every constant in
  the query, database, and master data must preserve the verdict, and
  the counterexample answer must be the renamed original.
* **Monotone Δ-extension consistency** — the engine's semi-naive delta
  rule, the naive materialized evaluation, and the decider built on
  either must agree; and for the monotone languages ``Q(D) ⊆ Q(D ∪ Δ)``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.containment import satisfies_all
from repro.constraints.ind import InclusionDependency
from repro.core.bounded import brute_force_rcdp
from repro.core.rcdp import decide_rcdp
from repro.core.results import RCDPStatus
from repro.engine import EvaluationContext
from repro.errors import ReproError
from repro.queries.atoms import RelAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Const, Var
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

from benchmarks.reference_rcdp import reference_rcdp
from tests.strategies import (SCHEMA, conjunctive_queries,
                              extension_facts, instances)

import pytest

# The pool is this suite's subject: hand every search at workers > 1
# to it at the first candidate instead of finishing in-process.
pytestmark = pytest.mark.usefixtures("no_head_start")

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)


# ---------------------------------------------------------------------------
# Shard-count invariance of the brute-force C1–C4 check
# ---------------------------------------------------------------------------


class TestShardCountInvariance:
    @settings(max_examples=15, deadline=None)
    @given(query=conjunctive_queries(max_atoms=2,
                                     allow_inequalities=False),
           db=instances(), workers=st.sampled_from([2, 3]))
    def test_bounded_check_is_shard_count_invariant(self, query, db,
                                                    workers):
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = brute_force_rcdp(query, db, DM, [IND],
                                      max_extra_facts=1)
        except ReproError:
            assume(False)
        sharded = brute_force_rcdp(query, db, DM, [IND],
                                   max_extra_facts=1, workers=workers)
        assert sharded.status is serial.status
        assert sharded.explanation == serial.explanation
        if serial.certificate is None:
            assert sharded.certificate is None
        else:
            assert (sharded.certificate.extension_facts
                    == serial.certificate.extension_facts)
            assert (sharded.certificate.new_answer
                    == serial.certificate.new_answer)


# ---------------------------------------------------------------------------
# Constant-renaming invariance
# ---------------------------------------------------------------------------

# Order-preserving on the strategies' constant pool {0, 1, 2}, so the
# sorted active-domain enumeration visits renamed candidates in the
# original order and even the *witness* must map across.
RENAME = {0: 10, 1: 11, 2: 12}


def _rename_instance(instance: Instance, mapping: dict) -> Instance:
    contents = {
        name: {tuple(mapping.get(value, value) for value in row)
               for row in rows}
        for name, rows in instance}
    return Instance(instance.schema, contents)


def _rename_term(term, mapping):
    if isinstance(term, Const):
        return Const(mapping.get(term.value, term.value))
    return term


def _rename_query(query: ConjunctiveQuery,
                  mapping: dict) -> ConjunctiveQuery:
    body = []
    for atom in query.body:
        if isinstance(atom, RelAtom):
            body.append(RelAtom(atom.relation,
                                [_rename_term(t, mapping)
                                 for t in atom.terms]))
        else:
            body.append(type(atom)(_rename_term(atom.left, mapping),
                                   _rename_term(atom.right, mapping)))
    head = [_rename_term(t, mapping) for t in query.head]
    return ConjunctiveQuery(head, body, name=query.name)


class TestConstantRenamingInvariance:
    @settings(max_examples=30, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_verdict_survives_renaming(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            original = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        renamed = decide_rcdp(
            _rename_query(query, RENAME),
            _rename_instance(db, RENAME),
            _rename_instance(DM, RENAME), [IND])
        assert renamed.status is original.status
        if original.certificate is not None:
            mapped = tuple(
                RENAME.get(value, value)
                for value in original.certificate.new_answer)
            assert renamed.certificate.new_answer == mapped

    @settings(max_examples=12, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_renamed_parallel_matches_original_serial(self, query, db):
        """Composition: renaming and sharding together still preserve
        the verdict."""
        assume(satisfies_all(db, DM, [IND]))
        try:
            original = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        renamed = decide_rcdp(
            _rename_query(query, RENAME),
            _rename_instance(db, RENAME),
            _rename_instance(DM, RENAME), [IND], workers=2)
        assert renamed.status is original.status


# ---------------------------------------------------------------------------
# Monotone Δ-extension consistency
# ---------------------------------------------------------------------------


class TestDeltaExtensionConsistency:
    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           base=instances(), delta=extension_facts())
    def test_monotone_queries_only_gain_answers(self, query, base,
                                                delta):
        """CQs without inequalities are monotone: extending the
        database can only add answers, under either evaluation route."""
        context = EvaluationContext()
        before = context.evaluate(query, base)
        via_delta = context.evaluate_extension(query, base, delta)
        assert before <= via_delta
        materialized = extend_unvalidated(base, delta)
        assert via_delta == query.evaluate_naive(materialized)

    @settings(max_examples=20, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_decider_agrees_across_evaluation_routes(self, query, db):
        """The delta-evaluating engine decider and the naive
        full-evaluation decider must reach the same verdict and the
        same certificate."""
        assume(satisfies_all(db, DM, [IND]))
        try:
            engine = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        status, certificate, _ = reference_rcdp(query, db, DM, [IND])
        assert status is engine.status
        if engine.certificate is None:
            assert certificate is None
        else:
            facts, new_answer = certificate
            assert facts == engine.certificate.extension_facts
            assert new_answer == engine.certificate.new_answer


# A fixed INCOMPLETE scenario for the deterministic rename ladder.
_X, _Y = Var("x"), Var("y")
_QPROJ = ConjunctiveQuery((_X,), [RelAtom("R", (_X, _Y))], name="qproj")
_DB = Instance(SCHEMA, {"R": {(0, 0)}})


class TestRenameLadder:
    @pytest.mark.parametrize("offset", [10, 100, 1000])
    def test_offset_renames_map_the_witness(self, offset):
        mapping = {value: value + offset for value in (0, 1, 2)}
        original = decide_rcdp(_QPROJ, _DB, DM, [IND])
        assert original.status is RCDPStatus.INCOMPLETE
        renamed = decide_rcdp(
            _rename_query(_QPROJ, mapping),
            _rename_instance(_DB, mapping),
            _rename_instance(DM, mapping), [IND])
        assert renamed.status is RCDPStatus.INCOMPLETE
        mapped = tuple(mapping.get(value, value)
                       for value in original.certificate.new_answer)
        assert renamed.certificate.new_answer == mapped
