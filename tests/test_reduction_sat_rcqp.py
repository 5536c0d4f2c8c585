"""Tests for the Theorem 4.5(1) reduction: 3SAT ⟶ co-RCQP(CQ, INDs)."""

import random
from dataclasses import replace

import pytest

from repro.core.rcqp import decide_rcqp_with_inds
from repro.core.results import RCDPStatus, RCQPStatus, SearchStatistics
from repro.reductions.sat_to_rcqp import reduce_3sat_to_rcqp
from repro.solvers.sat import CNF, dpll_satisfiable, random_3sat


def _decide(instance):
    return decide_rcqp_with_inds(instance.query, instance.master,
                                 list(instance.constraints),
                                 instance.schema)


class TestHandPicked:
    def test_satisfiable_formula_gives_empty(self):
        cnf = CNF([(1, 2, 3)])
        assert dpll_satisfiable(cnf) is not None
        result = _decide(reduce_3sat_to_rcqp(cnf))
        assert result.status is RCQPStatus.EMPTY

    def test_unsatisfiable_formula_gives_nonempty(self):
        # x XOR-style contradiction over two variables (padded to width 3)
        cnf = CNF([(1, 2, 2), (-1, -2, -2), (1, -2, -2), (-1, 2, 2)])
        assert dpll_satisfiable(cnf) is None
        instance = reduce_3sat_to_rcqp(cnf)
        result = _decide(instance)
        assert result.status is RCQPStatus.NONEMPTY
        # The E3 scan runs in full (no valuation satisfies the INDs);
        # its python counters are exact and pinned, and a change to the
        # check layer may lower only the cache hits.
        python = decide_rcqp_with_inds(
            instance.query, instance.master, list(instance.constraints),
            instance.schema, backend="python")
        assert replace(python.statistics, engine_cache_hits=0) \
            == SearchStatistics(valuations_examined=48, plans_compiled=5,
                                index_builds=4, delta_evaluations=60,
                                full_evaluations=5)

    def test_nonempty_witness_is_verified_complete(self):
        cnf = CNF([(1, 2, 2), (-1, -2, -2), (1, -2, -2), (-1, 2, 2)])
        instance = reduce_3sat_to_rcqp(cnf)
        result = _decide(instance)
        from repro.core.rcdp import decide_rcdp

        verdict = decide_rcdp(instance.query, result.witness,
                              instance.master, list(instance.constraints))
        assert verdict.status is RCDPStatus.COMPLETE

    def test_empty_explanation_names_the_tag_variable(self):
        cnf = CNF([(1, 2, 3)])
        result = _decide(reduce_3sat_to_rcqp(cnf))
        assert "infinite domain" in result.explanation

    def test_constraints_are_fixed_inds(self):
        instance = reduce_3sat_to_rcqp(CNF([(1, 2, 3)]))
        assert len(instance.constraints) == 2
        assert all(c.is_ind() for c in instance.constraints)

    def test_wide_clause_rejected(self):
        with pytest.raises(ValueError):
            reduce_3sat_to_rcqp(CNF([(1, 2, 3, 4)]))


@pytest.mark.parametrize("seed", range(12))
def test_agrees_with_dpll_on_random_instances(seed):
    rng = random.Random(seed)
    cnf = random_3sat(3, rng.randint(1, 10), rng)
    instance = reduce_3sat_to_rcqp(cnf)
    result = _decide(instance)
    satisfiable = dpll_satisfiable(cnf) is not None
    assert (result.status is RCQPStatus.EMPTY) == satisfiable
