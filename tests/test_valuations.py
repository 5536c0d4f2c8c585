"""Tests for active domains and valid-valuation enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ind import InclusionDependency
from repro.core.rcdp import split_ind_constraints
from repro.core.search import ShardSpec
from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.queries.atoms import eq, neq, rel
from repro.queries.cq import cq
from repro.queries.tableau import Tableau
from repro.queries.terms import Var, var
from repro.relational.domain import BOOLEAN, is_fresh
from repro.relational.instance import Instance
from repro.relational.schema import (Attribute, DatabaseSchema,
                                     RelationSchema)

from tests import strategies

SCHEMA = DatabaseSchema([
    RelationSchema("R", ["a", "b"]),
    RelationSchema("F", [Attribute("u", BOOLEAN)]),
])


@pytest.fixture
def adom():
    inst = Instance(SCHEMA, {"R": {(1, 2)}})
    q = cq([var("x")], [rel("R", var("x"), 3)])
    return ActiveDomain.build(instances=(inst,), queries=(q,))


class TestActiveDomain:
    def test_constants_collected(self, adom):
        assert adom.constants == frozenset({1, 2, 3})

    def test_fresh_values_dedicated_and_stable(self, adom):
        a = adom.fresh_for(Var("x"))
        b = adom.fresh_for(Var("x"))
        c = adom.fresh_for(Var("y"))
        assert a == b
        assert a != c
        assert is_fresh(a)

    def test_candidates_infinite_var(self, adom):
        q = cq([var("x")], [rel("R", var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        candidates = adom.candidates_for(t, Var("x"), fresh="own")
        assert set(candidates) == {1, 2, 3, adom.fresh_for(Var("x"))}

    def test_candidates_finite_var_ignore_fresh(self, adom):
        q = cq([var("u")], [rel("F", var("u"))])
        t = Tableau(q, SCHEMA)
        assert set(adom.candidates_for(t, Var("u"), fresh="own")) == {0, 1}

    def test_candidates_fresh_all(self, adom):
        adom.fresh_for(Var("x"))
        adom.fresh_for(Var("y"))
        q = cq([var("x")], [rel("R", var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        candidates = adom.candidates_for(t, Var("x"), fresh="all")
        assert len([v for v in candidates if is_fresh(v)]) == 2

    def test_candidates_fresh_none(self, adom):
        q = cq([var("x")], [rel("R", var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        candidates = adom.candidates_for(t, Var("x"), fresh="none")
        assert not any(is_fresh(v) for v in candidates)

    def test_extra_values_appended_without_duplicates(self, adom):
        q = cq([var("x")], [rel("R", var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        candidates = adom.candidates_for(t, Var("x"), fresh="none",
                                         extra=[1, "new"])
        assert candidates.count(1) == 1
        assert "new" in candidates


class TestValuationEnumeration:
    def test_counts(self, adom):
        q = cq([var("x"), var("y")], [rel("R", var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        adom.register_tableau(t)
        vals = list(iter_valid_valuations(t, adom, fresh="own"))
        # 4 candidates per variable (3 constants + own fresh)
        assert len(vals) == 16

    def test_inequality_pruning(self, adom):
        q = cq([var("x"), var("y")],
               [rel("R", var("x"), var("y")), neq(var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        vals = list(iter_valid_valuations(t, adom, fresh="own"))
        assert all(v[Var("x")] != v[Var("y")] for v in vals)
        # 16 total minus the 3 equal-constant pairs (fresh values differ)
        assert len(vals) == 13

    def test_constant_inequality(self, adom):
        q = cq([var("x")], [rel("R", var("x"), var("y")), neq(var("x"), 1)])
        t = Tableau(q, SCHEMA)
        vals = list(iter_valid_valuations(t, adom, fresh="own"))
        assert all(v[Var("x")] != 1 for v in vals)

    def test_unsatisfiable_tableau_yields_nothing(self, adom):
        q = cq([], [rel("R", var("x"), var("y")),
                    eq(var("x"), 1), eq(var("x"), 2)])
        t = Tableau(q, SCHEMA)
        assert list(iter_valid_valuations(t, adom)) == []

    def test_ground_tableau_yields_empty_valuation(self, adom):
        q = cq([], [rel("R", 1, 2)])
        t = Tableau(q, SCHEMA)
        assert list(iter_valid_valuations(t, adom)) == [{}]

    def test_finite_domain_variable_ranges_over_domain(self, adom):
        q = cq([var("u")], [rel("F", var("u"))])
        t = Tableau(q, SCHEMA)
        vals = list(iter_valid_valuations(t, adom, fresh="own"))
        assert {v[Var("u")] for v in vals} == {0, 1}

    def test_determinism(self, adom):
        q = cq([var("x"), var("y")], [rel("R", var("x"), var("y"))])
        t = Tableau(q, SCHEMA)
        first = list(iter_valid_valuations(t, adom, fresh="own"))
        second = list(iter_valid_valuations(t, adom, fresh="own"))
        assert first == second


# ---------------------------------------------------------------------
# Sharded slices of the one enumerator
# ---------------------------------------------------------------------

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
# R[b] ⊆ M[c], compiled to the row filter the RCDP search prunes with.
IND_ROW_FILTER, _ = split_ind_constraints(
    [InclusionDependency("R", ["b"], "M", ["c"]).to_containment_constraint(
        strategies.SCHEMA, MASTER_SCHEMA)], DM)


def _product_oracle(tableau, adom, row_filter):
    """Valid valuations by brute force: every combination of the
    candidate lists, in lexicographic order, kept when all ``≠`` atoms
    and (given a filter) all instantiated rows pass."""
    if not tableau.satisfiable:
        return []
    variables = tableau.ordered_variables()
    lists = [adom.candidates_for(tableau, v, fresh="own") for v in variables]
    kept = []
    for combo in itertools.product(*lists):
        valuation = dict(zip(variables, combo))
        sides = [tuple(valuation[t] if isinstance(t, Var) else t.value
                       for t in pair) for pair in tableau.inequalities]
        if any(left == right for left, right in sides):
            continue
        if row_filter is not None and not all(
                row_filter(row.relation, row.instantiate(valuation))
                for row in tableau.rows):
            continue
        kept.append(valuation)
    return kept


@settings(max_examples=80, deadline=None)
@given(query=strategies.conjunctive_queries(), db=strategies.instances(),
       use_filter=st.booleans())
def test_shards_partition_the_valuation_stream(query, db, use_filter):
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(
        instances=(db, DM), queries=[query],
        tableaux=[tableau] if tableau.satisfiable else [])
    row_filter = IND_ROW_FILTER if use_filter else None
    stream = list(iter_valid_valuations(tableau, adom,
                                        row_filter=row_filter))
    assert stream == _product_oracle(tableau, adom, row_filter)
    for count in (1, 2, 3, 5):
        union = []
        for index in range(count):
            ranked = list(iter_valid_valuations(
                tableau, adom, row_filter=row_filter,
                shard=ShardSpec(index, count)))
            ranks = [item[:2] for item in ranked]
            assert all(a < b for a, b in zip(ranks, ranks[1:]))
            union.extend(ranked)
        union.sort(key=lambda item: item[:2])
        assert [valuation for _, _, valuation in union] == stream
