"""Deep property tests over *random* conjunctive queries.

Unlike the fixed-query property suite, these draw the queries themselves
from a hypothesis strategy, exercising corner shapes (repeated variables,
constants in atoms, Boolean heads, cross products) that hand-written
tests miss.
"""

from hypothesis import given, settings

from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.queries.atoms import Neq
from repro.queries.containment import (is_contained_in,
                                       is_ucq_contained_in, minimize)
from repro.queries.folding import Folding
from repro.queries.tableau import Tableau
from repro.relational.instance import Instance, extend_unvalidated

from tests.strategies import (SCHEMA, conjunctive_queries, instances,
                              union_queries)


def _inequality_free(query) -> bool:
    return not any(isinstance(c, Neq) for c in query.comparisons)


class TestEvaluationInvariants:
    @settings(max_examples=80, deadline=None)
    @given(query=conjunctive_queries(), instance=instances(),
           extra=instances())
    def test_monotone_under_extension(self, query, instance, extra):
        bigger = instance.union(extra)
        assert query.evaluate(instance) <= query.evaluate(bigger)

    @settings(max_examples=80, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_answers_have_head_arity(self, query, instance):
        for row in query.evaluate(instance):
            assert len(row) == query.arity

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_rename_preserves_semantics(self, query, instance):
        from repro.queries.terms import Var

        mapping = {v: Var(v.name + "_r") for v in query.variables()}
        renamed = query.rename_variables(mapping)
        assert renamed.evaluate(instance) == query.evaluate(instance)


class TestTableauInvariants:
    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_valid_valuation_summary_lemma(self, query, instance):
        tableau = Tableau(query, SCHEMA)
        if not tableau.satisfiable:
            return
        adom = ActiveDomain.build(instances=(instance,), queries=(query,),
                                  tableaux=(tableau,))
        for count, valuation in enumerate(
                iter_valid_valuations(tableau, adom)):
            frozen = extend_unvalidated(
                Instance.empty(SCHEMA), tableau.instantiate(valuation))
            assert tableau.summary_under(valuation) in \
                query.evaluate(frozen)
            if count >= 20:
                break

    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_unsatisfiable_tableau_means_empty_answers(self, query,
                                                       instance):
        tableau = Tableau(query, SCHEMA)
        if not tableau.satisfiable:
            assert query.evaluate(instance) == frozenset()


class TestContainmentInvariants:
    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False))
    def test_containment_reflexive(self, query):
        assert is_contained_in(query, query, SCHEMA)

    @settings(max_examples=40, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           instance=instances())
    def test_minimize_preserves_semantics(self, query, instance):
        minimal = minimize(query, SCHEMA)
        assert minimal.evaluate(instance) == query.evaluate(instance)
        assert len(minimal.relation_atoms) <= len(query.relation_atoms)

    @settings(max_examples=40, deadline=None)
    @given(union=union_queries(allow_inequalities=False),
           instance=instances())
    def test_containment_soundness_on_data(self, union, instance):
        """Whenever SY claims Q1 ⊆ Q2, the answers agree on real data."""
        disjunct = union.disjuncts[0]
        from repro.queries.ucq import UnionOfConjunctiveQueries

        single = UnionOfConjunctiveQueries([disjunct])
        assert is_ucq_contained_in(single, union, SCHEMA)
        assert single.evaluate(instance) <= union.evaluate(instance)


class TestFoldingInvariant:
    @settings(max_examples=60, deadline=None)
    @given(query=conjunctive_queries(), instance=instances())
    def test_fold_commutes(self, query, instance):
        folding = Folding.of(SCHEMA)
        assert (folding.fold_query(query).evaluate(
            folding.fold_instance(instance)) == query.evaluate(instance))

    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_fold_round_trip(self, instance):
        folding = Folding.of(SCHEMA)
        assert folding.unfold_instance(
            folding.fold_instance(instance)) == instance
