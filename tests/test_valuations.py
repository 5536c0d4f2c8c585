"""Tests for active domains and valid-valuation enumeration."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ind import InclusionDependency
from repro.core.bounded import brute_force_rcdp
from repro.core.rcdp import decide_rcdp, split_ind_constraints
from repro.core.results import RCDPStatus
from repro.core.search import ShardSpec
from repro.core.valuations import (ActiveDomain, TableauTemplates,
                                   ValuationGroup, _GroupPlan, _row_checks,
                                   _summary_depth, _template,
                                   iter_valid_valuations)
from repro.queries.atoms import eq, neq, rel
from repro.queries.cq import cq
from repro.queries.tableau import Tableau
from repro.queries.terms import Var, var
from repro.relational.domain import BOOLEAN, FiniteDomain, is_fresh
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

# Beside it, T[x, z] ⊆ N[c, d]: N's c column lacks 2 and its d column
# lacks 0, so whichever of a T row's two variables is bound first, the
# prefix test rejects some of its values (and every fresh one) before
# the row's last variable is.
PAIR_MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"]),
                                     RelationSchema("N", ["c", "d"])])
PREFIX_DM = Instance(PAIR_MASTER_SCHEMA, {
    "M": {(0,), (1,)}, "N": {(0, 1), (0, 2), (1, 1)}})
PREFIX_ROW_FILTER, _ = split_ind_constraints([
    InclusionDependency("R", ["b"], "M", ["c"]).to_containment_constraint(
        strategies.SCHEMA, PAIR_MASTER_SCHEMA),
    InclusionDependency("T", ["x", "z"], "N", ["c", "d"])
    .to_containment_constraint(strategies.SCHEMA, PAIR_MASTER_SCHEMA)],
    PREFIX_DM)


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
       row_filter=st.sampled_from([None, IND_ROW_FILTER,
                                   PREFIX_ROW_FILTER]))
def test_shards_partition_the_valuation_stream(query, db, row_filter):
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(
        instances=(db, PREFIX_DM), queries=[query],
        tableaux=[tableau] if tableau.satisfiable else [])
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
        variables = tableau.ordered_variables()
        assert [dict(zip(variables, values))
                for _, _, values in union] == stream


# ---------------------------------------------------------------------
# Grouped streams: the valuations below each summary prefix as one item
# ---------------------------------------------------------------------

#: Every shard of 1, 2, 3 and 5, and a head (shard 0 of 1) in the
#: layout of 2, 3 and 5 shards.
LAYOUTS = [ShardSpec(index, count) for count in (1, 2, 3, 5)
           for index in range(count)] + [
               ShardSpec(0, 1, layout=count) for count in (2, 3, 5)]


def _assert_groups_expand(tableau, adom, row_filter):
    """At every layout the grouped stream, expanded, is the plain stream:
    values, prefix numbers and positions.  Each group's size is the
    brute-force count of the valid valuations extending its bound, and
    they all share its summary; a walk from any valuation on is the
    rest of the whole walk.  Returns the number of groups seen."""
    templates = TableauTemplates(tableau)
    oracle = [tuple(valuation[v] for v in templates.variables)
              for valuation in _product_oracle(tableau, adom, row_filter)]
    groups = 0
    for shard in LAYOUTS:
        expanded = []
        for prefix, position, item in iter_valid_valuations(
                tableau, adom, row_filter=row_filter, shard=shard,
                groups=True):
            if not templates.grouped:
                assert type(item) is tuple
                expanded.append((prefix, position, item))
                continue
            groups += 1
            assert isinstance(item, ValuationGroup)
            assert item.position == position
            depth = len(item.bound)
            walked = list(item.walk())
            assert len(walked) == item.size == sum(
                1 for values in oracle if values[:depth] == item.bound)
            assert all(values[:depth] == item.bound
                       and templates.summary(values) == item.summary
                       for _, _, values in walked)
            skip = item.size // 2
            assert list(item.walk(skip)) == walked[skip:]
            expanded.extend(walked)
        assert expanded == list(iter_valid_valuations(
            tableau, adom, row_filter=row_filter, shard=shard))
    return groups


@settings(max_examples=60, deadline=None)
@given(query=strategies.conjunctive_queries(), db=strategies.instances(),
       row_filter=st.sampled_from([None, IND_ROW_FILTER,
                                   PREFIX_ROW_FILTER]))
def test_groups_expand_to_the_plain_stream(query, db, row_filter):
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(
        instances=(db, PREFIX_DM), queries=[query],
        tableaux=[tableau] if tableau.satisfiable else [])
    _assert_groups_expand(tableau, adom, row_filter)


def _grouped_case(query):
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(PREFIX_DM,), queries=[query],
                              tableaux=[tableau])
    return tableau, adom


def test_groups_counted_through_ind_prefix_tests_and_inequalities():
    """The summary v0 is bound first; T[x, z] ⊆ N[c, d] tests v0 and
    then v2, R[b] ⊆ M[c] tests v3, and v3 ≠ v1 falls due at v3: every
    group below v0 is counted through the plan."""
    tableau, adom = _grouped_case(cq(
        [var("v0")], [rel("T", var("v0"), var("v1"), var("v2")),
                      rel("R", var("v2"), var("v3")),
                      neq(var("v3"), var("v1"))]))
    assert TableauTemplates(tableau).grouped
    assert _assert_groups_expand(tableau, adom, PREFIX_ROW_FILTER) > 0
    assert _assert_groups_expand(tableau, adom, None) > 0


def test_boolean_query_is_one_group_per_prefix():
    tableau, adom = _grouped_case(
        cq([], [rel("R", var("v0"), var("v1")), neq(var("v0"), var("v1"))]))
    assert _assert_groups_expand(tableau, adom, IND_ROW_FILTER) > 0
    (item,) = iter_valid_valuations(tableau, adom, row_filter=IND_ROW_FILTER,
                                    shard=ShardSpec(), groups=True)
    prefix, position, group = item
    assert (prefix, position, group.summary, group.bound) == (0, 0, (), ())
    assert group.size == len(_product_oracle(tableau, adom, IND_ROW_FILTER))


def test_summary_bound_by_the_last_variable_yields_no_groups():
    tableau, adom = _grouped_case(
        cq([var("v1")], [rel("R", var("v0"), var("v1"))]))
    assert not TableauTemplates(tableau).grouped
    assert _assert_groups_expand(tableau, adom, IND_ROW_FILTER) == 0


def test_a_counted_group_is_counted_only_when_its_size_is_read(
        monkeypatch):
    """With v0 ≠ v1 below it, the Boolean query's one group is counted
    through the plan, but only when its size is read: a walk stopped
    early counts nothing, so a witness found there costs no count."""
    tableau, adom = _grouped_case(
        cq([], [rel("R", var("v0"), var("v1")), neq(var("v0"), var("v1"))]))
    counted = []
    count = _GroupPlan.count
    monkeypatch.setattr(_GroupPlan, "count", lambda plan, members: (
        counted.append(1) or count(plan, members)))
    variables = TableauTemplates(tableau).variables
    oracle = [tuple(valuation[v] for v in variables)
              for valuation in _product_oracle(tableau, adom, None)]

    stream = iter_valid_valuations(tableau, adom, shard=ShardSpec(),
                                   groups=True)
    _, _, group = next(stream)
    assert next(group.walk())[2] == oracle[0]
    assert counted == []
    assert group.size == len(oracle) and counted == [1]
    assert list(stream) == [] and counted == [1]


# ---------------------------------------------------------------------
# Compiled templates and checks agree with the tableau
# ---------------------------------------------------------------------

def _assert_compiled_agrees(tableau, adom, row_filters):
    """Over every raw combination of the candidate lists: the compiled
    summary and facts equal the tableau's, and so does the summary a
    grouped enumeration compiles over the values up to each group depth
    (one past the summary point or deeper); and each row's compiled
    tests together (each fed the value prefix it sees during
    enumeration, IND prefix tests included) equal the filter on the
    instantiated row."""
    templates = TableauTemplates(tableau)
    variables = templates.variables
    point = _summary_depth(tableau, templates.position)
    assert templates.grouped == (point < len(variables))
    bound_summaries = {
        depth: _template(tableau.summary, templates.position, depth)
        for depth in range(point, len(variables) + 1)}
    lists = [adom.candidates_for(tableau, v) for v in variables]
    compiled = {
        row_filter: [_row_checks(row, templates.position, row_filter, lists)
                     for row in tableau.rows]
        for row_filter in row_filters}
    for values in itertools.product(*lists):
        valuation = dict(zip(variables, values))
        assert templates.summary(values) == tableau.summary_under(valuation)
        for depth, summary in bound_summaries.items():
            assert summary(values[:depth]) == templates.summary(values)
        assert templates.facts(values) == tableau.instantiate(valuation)
        for row_filter, per_row in compiled.items():
            for row, checks in zip(tableau.rows, per_row):
                passed = checks is not None and all(
                    check(values[:point + 1]) for point, check in checks)
                assert passed == row_filter(row.relation,
                                            row.instantiate(valuation))


def _plain(relation, row):
    """The IND filter as a plain predicate (the full-row path)."""
    return IND_ROW_FILTER(relation, row)


@settings(max_examples=80, deadline=None)
@given(query=strategies.conjunctive_queries(), db=strategies.instances())
def test_compiled_templates_agree_with_the_tableau(query, db):
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(db, PREFIX_DM), queries=[query],
                              tableaux=[tableau])
    _assert_compiled_agrees(tableau, adom,
                            [IND_ROW_FILTER, PREFIX_ROW_FILTER, _plain])


# T[x, y] ⊆ N[c, d] beside R[b] ⊆ M[c]: a two-column projection.
PAIR_DM = Instance(PAIR_MASTER_SCHEMA, {
    "M": {(0,), (1,)}, "N": {(0, 1), (1, 1), (2, 0), (0, 2)}})
PAIR_ROW_FILTER, _ = split_ind_constraints([
    InclusionDependency("R", ["b"], "M", ["c"]).to_containment_constraint(
        strategies.SCHEMA, PAIR_MASTER_SCHEMA),
    InclusionDependency("T", ["x", "y"], "N", ["c", "d"])
    .to_containment_constraint(strategies.SCHEMA, PAIR_MASTER_SCHEMA)],
    PAIR_DM)


@pytest.mark.parametrize("query", [
    # a projected column holding a constant
    cq([var("v")], [rel("T", 0, var("v"), var("w"))]),
    # a variable repeated inside the projected columns
    cq([var("v")], [rel("T", var("v"), var("v"), var("w"))]),
    # a one-column IND: scalar membership, beside a two-column one
    cq([var("u"), var("v")], [rel("R", var("u"), var("v")),
                              rel("T", var("v"), var("u"), 2)]),
    # a ground head, pinned by = and written as a constant
    cq([var("u"), 1], [rel("R", var("u"), var("v")), eq(var("u"), 2)]),
], ids=["constant-column", "repeated-variable", "scalar", "ground-head"])
def test_compiled_templates_fixed_cases(query):
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(PAIR_DM,), queries=[query],
                              tableaux=[tableau])
    _assert_compiled_agrees(
        tableau, adom,
        [PAIR_ROW_FILTER, lambda r, row: PAIR_ROW_FILTER(r, row)])


# ---------------------------------------------------------------------
# Enumerator edge cases at every shard count
# ---------------------------------------------------------------------

SHARD_COUNTS = (1, 2, 3, 5)


def _shard_streams(tableau, adom, row_filter, count):
    return [list(iter_valid_valuations(tableau, adom, row_filter=row_filter,
                                       shard=ShardSpec(index, count)))
            for index in range(count)]


def _assert_partitions(tableau, adom, row_filter, expected):
    """The unsharded stream is *expected*, and at every shard count the
    shards' ranked slices merge back into it."""
    assert list(iter_valid_valuations(tableau, adom,
                                      row_filter=row_filter)) == expected
    variables = tableau.ordered_variables()
    for count in SHARD_COUNTS:
        union = sorted(
            (item for stream in _shard_streams(tableau, adom, row_filter,
                                               count)
             for item in stream), key=lambda item: item[:2])
        assert [dict(zip(variables, values))
                for _, _, values in union] == expected


def test_ground_tableau_yields_from_shard_zero_only():
    query = cq([], [rel("R", 1, 0)])
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(DM,), queries=[query])
    _assert_partitions(tableau, adom, IND_ROW_FILTER, [{}])
    for count in SHARD_COUNTS:
        streams = _shard_streams(tableau, adom, IND_ROW_FILTER, count)
        assert streams[0] == [(0, 0, ())]
        assert not any(streams[1:])


@pytest.mark.parametrize("atoms", [
    [rel("R", 1, 5)],
    [rel("R", 1, 5), rel("R", var("v0"), var("v1"))],
], ids=["ground", "ground-row-beside-variables"])
def test_ground_row_failing_the_filter_yields_nothing(atoms):
    query = cq([], atoms)
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(DM,), queries=[query],
                              tableaux=[tableau])
    _assert_partitions(tableau, adom, IND_ROW_FILTER, [])
    _assert_partitions(tableau, adom, _plain, [])


def test_only_pruning_point_is_the_last_variable():
    query = cq([var("v0")], [rel("T", var("v0"), var("v1"), var("v2")),
                             rel("R", var("v2"), var("v3")),
                             neq(var("v3"), var("v0"))])
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(DM,), queries=[query],
                              tableaux=[tableau])
    expected = _product_oracle(tableau, adom, None)
    assert expected and len(expected) < len(adom.candidates_for(
        tableau, Var("v0"))) ** 4
    _assert_partitions(tableau, adom, None, expected)


def _two_column_case():
    """``T(v0, v1, v2)`` under T[x, z] ⊆ N[c, d]: the IND reads v0 and
    v2; its plan's candidate lists and the compiled row tests."""
    query = cq([var("v0")], [rel("T", var("v0"), var("v1"), var("v2"))])
    tableau = Tableau(query, strategies.SCHEMA)
    adom = ActiveDomain.build(instances=(PREFIX_DM,), queries=[query],
                              tableaux=[tableau])
    templates = TableauTemplates(tableau)
    lists = [tuple(adom.candidates_for(tableau, v))
             for v in templates.variables]
    (row,) = tableau.rows
    return tableau, adom, lists, partial(
        _row_checks, row, templates.position, PREFIX_ROW_FILTER)


def test_two_column_ind_is_refuted_at_its_first_slot():
    """Besides the full test at v2's slot, v0 alone must lie in N's c
    column: the plan rejects 2 and v0's fresh value before binding v1."""
    tableau, adom, lists, row_checks = _two_column_case()
    checks = row_checks(lists)
    assert [point for point, _ in checks] == [0, 2]
    assert [value for value in lists[0] if checks[0][1]((value,))] == [0, 1]
    _assert_partitions(tableau, adom, PREFIX_ROW_FILTER, _product_oracle(
        tableau, adom, PREFIX_ROW_FILTER))


def test_prefix_test_every_candidate_passes_is_dropped():
    _, _, lists, row_checks = _two_column_case()
    checks = row_checks([(0, 1), *lists[1:]])
    assert [point for point, _ in checks] == [2]


# ---------------------------------------------------------------------
# Variables in several finite-domain columns
# ---------------------------------------------------------------------

def _domain_case(second_domain):
    """``Q(x) :- A(x), B(x)`` with ``A.x`` boolean and ``B.y`` over
    *second_domain*, on ``D = {A(1), B(min(second_domain))}`` and an
    empty master."""
    schema = DatabaseSchema([
        RelationSchema("A", [Attribute("x", BOOLEAN)]),
        RelationSchema("B", [Attribute("y", FiniteDomain(second_domain))]),
    ])
    query = cq([var("x")], [rel("A", var("x")), rel("B", var("x"))])
    database = Instance(schema, {"A": {(1,)},
                                 "B": {(min(second_domain),)}})
    master = Instance.empty(MASTER_SCHEMA)
    return query, database, master


@pytest.mark.parametrize("second_domain, expected", [
    ({1, 2}, [1]), ({2, 3}, [])], ids=["one-shared", "disjoint"])
def test_variable_ranges_over_the_shared_finite_values(second_domain,
                                                       expected):
    query, database, master = _domain_case(second_domain)
    tableau = Tableau(query, database.schema)
    adom = ActiveDomain.build(instances=(database,), queries=[query],
                              tableaux=[tableau])
    assert adom.candidates_for(tableau, Var("x")) == expected
    _assert_partitions(tableau, adom, None,
                       [{Var("x"): value} for value in expected])


def test_one_shared_finite_value_is_complete_like_brute_force():
    query, database, master = _domain_case({1, 2})
    assert decide_rcdp(query, database, master, []).status \
        is RCDPStatus.COMPLETE
    assert brute_force_rcdp(query, database, master, [],
                            max_extra_facts=2).status \
        is RCDPStatus.COMPLETE_UP_TO_BOUND
