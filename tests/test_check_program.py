"""The check program against the per-constraint check it replaces.

:meth:`EvaluationContext.check_program` compiles ``(D ∪ μ(T), Dm) ⊨ V``
once per tableau ``T`` and decides it from the valuation's value tuple.
On every backend it must give the verdict of
``satisfies_all_extension`` over the per-constraint
``extension_satisfies`` and of ``satisfies_all`` on the materialized
union, with the same ``plans_compiled``, ``delta_evaluations`` and
``full_evaluations``, ``index_builds`` no higher (equal on python), and
no more cache hits — the contract the kernels' exact counters rest on.
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
from repro.queries.atoms import neq, rel
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
_COUNTERS = ("plans_compiled", "delta_evaluations", "full_evaluations")

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
    if backend == "python":
        assert ours.index_builds == theirs.index_builds
    else:
        assert ours.index_builds <= theirs.index_builds
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
        status, _, checks = reference_rcdp(query, base, _MASTER, [ban_t])
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
