"""The check program against the per-constraint check it replaces.

:meth:`EvaluationContext.check_program` compiles ``(D ∪ μ(T), Dm) ⊨ V``
once per tableau ``T`` and decides it from the valuation's value tuple.
On every backend it must give the verdict of
``satisfies_all_extension`` over the per-constraint
``extension_satisfies`` and of ``satisfies_all`` on the materialized
union, with the same ``plans_compiled``, ``delta_evaluations``,
``full_evaluations`` and ``index_builds``, and no more cache hits — the
contract the kernels' exact counters rest on.  The program's own
``Δ \\ D``, a flat list of new facts, must group into ``group_delta``'s;
a gated delta plan must run only when a new row passes its gate, and
the same gates fire and the same plans run on every backend.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.containment import (ContainmentConstraint,
                                           Projection, satisfies_all,
                                           satisfies_all_extension)
from repro.core.rcdp import decide_rcdp
from repro.core.results import RCDPStatus
from repro.core.valuations import TableauTemplates
from repro.engine import EvaluationContext
from repro.engine import checks as program_module
from repro.engine.executor import group_delta
from repro.queries.atoms import eq, neq, rel
from repro.queries.cq import cq
from repro.queries.tableau import Tableau
from repro.queries.terms import var
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.backends import BACKEND_NAMES
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

from benchmarks.reference_rcdp import reference_rcdp
from tests.strategies import (SCHEMA, conjunctive_queries, instances,
                              union_queries)

_M_SCHEMA = DatabaseSchema([RelationSchema("M", ["a", "b"])])
_VALUES = [0, 1, 2, 3]  # 3 occurs in no base or master row
_COUNTERS = ("plans_compiled", "delta_evaluations", "full_evaluations",
             "index_builds")

_masters = st.frozensets(
    st.tuples(st.sampled_from(_VALUES[:3]), st.sampled_from(_VALUES[:3])),
    max_size=5).map(lambda rows: Instance(_M_SCHEMA, {"M": rows}))


@st.composite
def constraints(draw):
    """One CC: a single-atom CQ (constants, repeated variables, ``=`` and
    ``≠``), a multi-atom CQ or a UCQ mixing both, Boolean heads
    included, against ``π(M)`` or ``∅``."""
    query = draw(st.one_of(
        conjunctive_queries(max_atoms=1, max_comparisons=3),
        conjunctive_queries(max_comparisons=3),
        union_queries(max_comparisons=3)))
    if draw(st.booleans()):
        target = Projection.empty()
    else:
        target = Projection.on("M", range(query.arity))
    return ContainmentConstraint(query, target, name="cc")


@st.composite
def templates(draw):
    """A satisfiable tableau of a random CQ, read positionally."""
    tableau = Tableau(draw(conjunctive_queries(max_comparisons=2)), SCHEMA)
    assume(tableau.satisfiable)
    return TableauTemplates(tableau)


def _assert_program_matches(templates, base, master, ccs, valuations,
                            backend):
    program_context = EvaluationContext(backend=backend)
    per_call = EvaluationContext(backend=backend)
    program = program_context.check_program(templates, base, master, ccs)
    verdicts = []
    for values in valuations:
        facts = templates.facts(values)
        expected = satisfies_all(extend_unvalidated(base, facts), master,
                                 ccs)
        assert program(values) == expected, values
        assert satisfies_all_extension(base, facts, master, ccs,
                                       context=per_call) == expected
        verdicts.append(expected)
    ours, theirs = program_context.statistics, per_call.statistics
    for counter in _COUNTERS:
        assert getattr(ours, counter) == getattr(theirs, counter), counter
    assert ours.cache_hits <= theirs.cache_hits
    return verdicts


def _check_everywhere(templates, base, master, ccs, valuations):
    verdicts = {backend: _assert_program_matches(
        templates, base, master, ccs, valuations, backend)
        for backend in BACKEND_NAMES}
    assert len({tuple(v) for v in verdicts.values()}) == 1
    return verdicts["python"]


class TestProgramMatchesPerConstraintCheck:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), templates=templates(), base=instances(),
           master=_masters, ccs=st.lists(constraints(), min_size=1,
                                         max_size=3))
    def test_random_constraints_tableaux_and_valuations(
            self, data, templates, base, master, ccs):
        width = len(templates.variables)
        valuations = data.draw(st.lists(
            st.tuples(*[st.sampled_from(_VALUES)] * width),
            min_size=1, max_size=3))
        _check_everywhere(templates, base, master, ccs, valuations)


class TestProgramDelta:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), templates=templates(), base=instances())
    def test_delta_is_group_delta_of_the_instantiated_tableau(
            self, data, templates, base):
        program = EvaluationContext().check_program(templates, base,
                                                    _MASTER, [])
        width = len(templates.variables)
        for values in data.draw(st.lists(
                st.tuples(*[st.sampled_from(_VALUES)] * width),
                min_size=1, max_size=4)):
            facts = program.delta(values)
            # Each new fact once, in tableau-row order.
            assert facts == [
                (relation, row)
                for relation, row in dict.fromkeys(templates.facts(values))
                if row not in base.relation(relation)]
            # Grouped, as the program groups it for a plan, it is the
            # instantiated tableau's group_delta: the same relations,
            # rows and order of first occurrence, so the list is
            # group_delta's flattening with each relation's rows in the
            # same order.
            expected = group_delta(base, templates.facts(values))
            assert list(program_module._group(facts).items()) == \
                list(expected.items())


_R = SCHEMA
_X, _Y, _Z, _W = var("x"), var("y"), var("z"), var("w")
_MASTER = Instance(_M_SCHEMA, {"M": {(0, 0), (1, 1), (2, 1)}})


def _templates_of(*body):
    return TableauTemplates(Tableau(cq([_X], list(body), name="Q"), _R))


class TestFixedCases:
    def test_constraint_no_tableau_relation_reaches(self):
        # Δ holds R rows only; the CC reads T, so only q(D) ⊆ p(Dm)
        # decides it, and each check still counts one delta evaluation.
        templates = _templates_of(rel("R", _X, _Y))
        base = Instance(_R, {"R": {(0, 0)}, "T": {(1, 1, 1), (2, 1, 0)}})
        t_only = ContainmentConstraint(
            cq([_X, _Y], [rel("T", _X, _Y, _Z)]), Projection.on("M", [0, 1]))
        verdicts = _check_everywhere(templates, base, _MASTER, [t_only],
                                     [(0, 1), (3, 3), (0, 0)])
        assert verdicts == [True, True, True]

    def test_base_violating_v_fails_every_check(self):
        base = Instance(_R, {"R": {(0, 0)}, "T": {(0, 0, 0)}})
        # Not an IND (x repeats), so the decider checks it per valuation.
        ban_t = ContainmentConstraint(cq([_X], [rel("T", _X, _X, _Z)]),
                                      Projection.empty(), name="ban-t")
        templates = _templates_of(rel("R", _X, _Y))
        verdicts = _check_everywhere(templates, base, _MASTER, [ban_t],
                                     [(1, 1), (0, 0), (3, 2)])
        assert verdicts == [False, False, False]
        query = cq([_X], [rel("R", _X, _Y)], name="Q")
        status, _, checks, _ = reference_rcdp(query, base, _MASTER, [ban_t])
        for backend in BACKEND_NAMES:
            result = decide_rcdp(query, base, _MASTER, [ban_t],
                                 check_partially_closed=False,
                                 backend=backend)
            assert result.status is status is RCDPStatus.COMPLETE
            stats = result.statistics
            assert stats.constraint_checks > 0
            assert stats.constraint_checks == checks

    def test_ucq_mixing_single_and_multi_atom_disjuncts(self):
        mixed = ContainmentConstraint(UnionOfConjunctiveQueries([
            cq([_X], [rel("R", _X, 1)]),
            cq([_X], [rel("R", _X, _Y), rel("T", _Y, _Z, _W),
                      neq(_Z, _W)])]), Projection.on("M", [0]))
        base = Instance(_R, {"R": {(0, 1)}, "T": {(2, 0, 1), (0, 1, 1)}})
        templates = _templates_of(rel("R", _X, _Y), rel("T", _Y, _Z, _Z))
        valuations = [(0, 2, 1), (3, 1, 0), (2, 2, 2), (1, 0, 1)]
        verdicts = _check_everywhere(templates, base, _MASTER, [mixed],
                                     valuations)
        assert False in verdicts and True in verdicts

    @pytest.mark.parametrize("target", [Projection.on("M", [0, 1]),
                                        Projection.empty()])
    def test_delta_row_already_in_the_base(self, target):
        base = Instance(_R, {"R": {(0, 0), (3, 1)}, "T": set()})
        templates = _templates_of(rel("R", _X, _Y))
        cc = ContainmentConstraint(
            cq([_X, _Y], [rel("R", _X, _Y), neq(_Y, 1)]), target)
        # (0, 0) is in D; (2, 1) is new but not selected; (3, 3) is new.
        verdicts = _check_everywhere(templates, base, _MASTER, [cc],
                                     [(0, 0), (2, 1), (3, 3)])
        empty = target.is_empty_target
        assert verdicts == [not empty, not empty, False]


def _values(templates, **assignment):
    """A value tuple in the templates' variable order."""
    return tuple(assignment[v.name] for v in templates.variables)


class TestGatedDeltaPlans:
    """A multi-atom constraint's delta plan runs only when a new row of
    the valuation passes one of its gates, and the same gates fire and
    the same plans run on every backend; verdicts and counters are the
    per-constraint check's, ``index_builds`` included."""

    @pytest.fixture
    def plan_runs(self, monkeypatch):
        runs = []
        iter_rows = program_module.iter_rows

        def counted(plan, sources):
            runs.append(plan.steps[0].relation)
            return iter_rows(plan, sources)

        monkeypatch.setattr(program_module, "iter_rows", counted)
        return runs

    @staticmethod
    def _runs_everywhere(plan_runs, templates, base, ccs, valuations,
                         verdicts):
        """The first step's relation of every plan the program runs, on
        each backend: the same on all of them, and returned once."""
        runs = {}
        for backend in BACKEND_NAMES:
            plan_runs.clear()
            program = EvaluationContext(backend=backend).check_program(
                templates, base, _MASTER, ccs)
            assert [program(values) for values in valuations] == verdicts
            runs[backend] = list(plan_runs)
        assert len({tuple(each) for each in runs.values()}) == 1, runs
        return runs["python"]

    def test_gate_folding_to_false_never_runs_the_plan(self, plan_runs):
        # The tableau's T row has z = 1; the constraint's T atom wants
        # z = 2, so no valuation's T row can start a binding.
        templates = _templates_of(rel("T", _X, _Y, 1))
        base = Instance(_R, {"R": {(0, 0), (3, 1)}, "T": set()})
        cc = ContainmentConstraint(
            cq([_X], [rel("T", _X, _Y, 2), rel("R", _X, _W)]),
            Projection.on("M", [0]))
        valuations = [_values(templates, x=x, y=y)
                      for x, y in ((3, 0), (0, 1), (3, 3))]
        verdicts = _check_everywhere(templates, base, _MASTER, [cc],
                                     valuations)
        assert verdicts == [True, True, True]
        assert self._runs_everywhere(plan_runs, templates, base, [cc],
                                     valuations, verdicts) == []

    def test_gate_on_the_values_fires_only_when_it_holds(self, plan_runs):
        # φ0's shape: T ⋈ R with z = 1 on the Δ atom, so the plan can
        # fire only for a new T row whose z is 1.
        templates = _templates_of(rel("T", _X, _Y, _Z))
        base = Instance(_R, {"R": {(0, 0), (3, 1)}, "T": set()})
        cc = ContainmentConstraint(
            cq([_X], [rel("T", _X, _Y, _Z), rel("R", _X, _W),
                      eq(_Z, 1)]), Projection.on("M", [0]))
        valuations = [_values(templates, x=x, y=0, z=z)
                      for x, z in ((3, 1), (3, 2), (0, 1), (2, 1), (3, 0))]
        verdicts = _check_everywhere(templates, base, _MASTER, [cc],
                                     valuations)
        # 3 ∉ π(M) joins R(3, 1); 0 is allowed; 2 has no R row.
        assert verdicts == [False, True, True, True, True]
        # One run for each new T row with z = 1.
        assert self._runs_everywhere(plan_runs, templates, base, [cc],
                                     valuations, verdicts) == ["T", "T", "T"]

    def test_gated_row_already_in_the_base(self, plan_runs):
        # Two T rows: the first passes its gate but is already in D, the
        # second is new and fails its gate, so the plan does not run.
        templates = _templates_of(rel("T", _X, _Y, _Z),
                                  rel("T", _Y, _X, _W))
        base = Instance(_R, {"R": {(0, 0), (3, 1)}, "T": {(0, 3, 1)}})
        cc = ContainmentConstraint(
            cq([_X], [rel("T", _X, _Y, _Z), rel("R", _X, _W),
                      eq(_Z, 1)]), Projection.on("M", [0]))
        valuations = [_values(templates, x=0, y=3, z=z, w=w)
                      for z, w in ((1, 2), (1, 1), (2, 2))]
        verdicts = _check_everywhere(templates, base, _MASTER, [cc],
                                     valuations)
        # Only the new row T(3, 0, 1) passes its gate, and it joins
        # R(3, 1) with 3 outside π(M).
        assert verdicts == [True, False, True]
        assert self._runs_everywhere(plan_runs, templates, base, [cc],
                                     valuations, verdicts) == ["T"]

    def test_open_gate_runs_only_for_its_relation(self, plan_runs):
        # No atom of the constraint has a condition, so every gate is
        # open: a plan runs exactly when Δ has a new row of its Δ atom's
        # relation.
        templates = _templates_of(rel("R", _X, _Y), rel("T", _Y, _X, _W))
        base = Instance(_R, {"R": {(0, 0)}, "T": {(1, 0, 1)}})
        cc = ContainmentConstraint(
            cq([_X], [rel("T", _X, _Y, _Z), rel("R", _X, _W)]),
            Projection.on("M", [0]))
        # Δ: R(0, 1) alone; R(2, 1) and T(1, 2, 0); T(0, 0, 3) alone.
        valuations = [_values(templates, x=x, y=y, w=w)
                      for x, y, w in ((0, 1, 1), (2, 1, 0), (0, 0, 3))]
        verdicts = _check_everywhere(templates, base, _MASTER, [cc],
                                     valuations)
        assert verdicts == [True, True, True]
        assert self._runs_everywhere(plan_runs, templates, base, [cc],
                                     valuations, verdicts) == [
            "R", "T", "R", "T"]
