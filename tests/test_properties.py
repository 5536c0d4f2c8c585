"""Property-based tests for cross-cutting invariants (hypothesis).

These target the lemmas the deciders silently rely on:

* instance algebra is a lattice (union laws, containment order);
* CQ/UCQ evaluation is monotone under instance extension;
* for a valid valuation μ, ``μ(u_Q) ∈ Q(μ(T_Q))`` — the tableau lemma
  behind conditions C1–C4;
* INCOMPLETE certificates are always actionable (consistent + answer-
  changing);
* folding (Lemma 3.2) commutes with evaluation on random instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ind import InclusionDependency
from repro.core.rcdp import decide_rcdp
from repro.core.results import RCDPStatus
from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.constraints.containment import satisfies_all
from repro.queries.atoms import neq, rel
from repro.queries.cq import cq
from repro.queries.folding import Folding
from repro.queries.tableau import Tableau
from repro.queries.terms import var
from repro.queries.ucq import ucq
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema([
    RelationSchema("E", ["a", "b"]),
    RelationSchema("L", ["n", "t"]),
])

_edges = st.frozensets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)
_labels = st.frozensets(
    st.tuples(st.integers(0, 3), st.sampled_from("xy")), max_size=4)


def _instance(edges, labels):
    return Instance(SCHEMA, {"E": edges, "L": labels})


class TestInstanceLattice:
    @settings(max_examples=50, deadline=None)
    @given(a=_edges, b=_edges)
    def test_union_commutative(self, a, b):
        left = _instance(a, frozenset()).union(_instance(b, frozenset()))
        right = _instance(b, frozenset()).union(_instance(a, frozenset()))
        assert left == right

    @settings(max_examples=50, deadline=None)
    @given(a=_edges, b=_edges, c=_edges)
    def test_union_associative(self, a, b, c)\
            :
        ia, ib, ic = (_instance(x, frozenset()) for x in (a, b, c))
        assert ia.union(ib).union(ic) == ia.union(ib.union(ic))

    @settings(max_examples=50, deadline=None)
    @given(a=_edges)
    def test_union_idempotent(self, a):
        inst = _instance(a, frozenset())
        assert inst.union(inst) == inst

    @settings(max_examples=50, deadline=None)
    @given(a=_edges, b=_edges)
    def test_union_is_upper_bound(self, a, b):
        ia, ib = _instance(a, frozenset()), _instance(b, frozenset())
        u = ia.union(ib)
        assert u.contains(ia) and u.contains(ib)


QUERIES = [
    cq([var("x"), var("y")], [rel("E", var("x"), var("y"))]),
    cq([var("x")], [rel("E", var("x"), var("y")),
                    rel("E", var("y"), var("z"))]),
    cq([var("x")], [rel("E", var("x"), var("y")),
                    rel("L", var("y"), "x")]),
    ucq([cq([var("x")], [rel("L", var("x"), "x")]),
         cq([var("x")], [rel("L", var("x"), "y")])]),
]


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(e1=_edges, e2=_edges, l1=_labels, l2=_labels,
           index=st.integers(0, len(QUERIES) - 1))
    def test_evaluation_monotone(self, e1, e2, l1, l2, index):
        small = _instance(e1, l1)
        big = _instance(e1 | e2, l1 | l2)
        q = QUERIES[index]
        assert q.evaluate(small) <= q.evaluate(big)


class TestTableauLemma:
    """μ valid ⇒ μ(u_Q) ∈ Q(μ(T_Q)) — the backbone of C1–C4."""

    @settings(max_examples=40, deadline=None)
    @given(e=_edges, l=_labels, index=st.integers(0, len(QUERIES) - 2))
    def test_summary_in_answer_of_instantiated_tableau(self, e, l, index):
        q = QUERIES[index]  # CQ entries only
        instance = _instance(e, l)
        tableau = Tableau(q, SCHEMA)
        adom = ActiveDomain.build(instances=(instance,), queries=(q,),
                                  tableaux=(tableau,))
        count = 0
        for valuation in iter_valid_valuations(tableau, adom):
            frozen = extend_unvalidated(
                Instance.empty(SCHEMA), tableau.instantiate(valuation))
            assert tableau.summary_under(valuation) in q.evaluate(frozen)
            count += 1
            if count >= 25:  # keep each example cheap
                break

    @settings(max_examples=30, deadline=None)
    @given(e=_edges)
    def test_inequality_valuations_are_filtered(self, e):
        q = cq([var("x"), var("y")],
               [rel("E", var("x"), var("y")), neq(var("x"), var("y"))])
        instance = _instance(e, frozenset())
        tableau = Tableau(q, SCHEMA)
        adom = ActiveDomain.build(instances=(instance,), queries=(q,),
                                  tableaux=(tableau,))
        for valuation in iter_valid_valuations(tableau, adom):
            assert valuation[var("x")] != valuation[var("y")]


MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["b"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
IND = InclusionDependency("E", ["b"], "M", ["b"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)


class TestCertificateActionability:
    @settings(max_examples=50, deadline=None)
    @given(e=_edges)
    def test_incomplete_certificates_are_actionable(self, e):
        db = _instance(e, frozenset())
        if not satisfies_all(db, DM, [IND]):
            return
        q = cq([var("y")], [rel("E", 0, var("y"))])
        result = decide_rcdp(q, db, DM, [IND])
        if result.status is RCDPStatus.INCOMPLETE:
            cert = result.certificate
            extended = extend_unvalidated(
                db, list(cert.extension_facts))
            assert satisfies_all(extended, DM, [IND])
            assert cert.new_answer in q.evaluate(extended)
            assert cert.new_answer not in q.evaluate(db)


class TestFoldingProperty:
    @settings(max_examples=50, deadline=None)
    @given(e=_edges, l=_labels, index=st.integers(0, len(QUERIES) - 2))
    def test_fold_commutes_with_evaluation(self, e, l, index):
        folding = Folding.of(SCHEMA)
        q = QUERIES[index]
        instance = _instance(e, l)
        assert (folding.fold_query(q).evaluate(
            folding.fold_instance(instance)) == q.evaluate(instance))


class TestParserRenderRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(e=_edges, l=_labels, index=st.integers(0, len(QUERIES) - 1))
    def test_json_round_trip_preserves_semantics(self, e, l, index):
        from repro.io.json_io import query_from_dict, query_to_dict

        q = QUERIES[index]
        restored = query_from_dict(query_to_dict(q))
        instance = _instance(e, l)
        assert restored.evaluate(instance) == q.evaluate(instance)
