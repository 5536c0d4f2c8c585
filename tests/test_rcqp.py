"""Tests for the RCQP deciders (IND-syntactic and general E1/E2 search)."""

import pytest

from repro.analysis.driver import validate_for_decision
from repro.constraints.cfd import FunctionalDependency
from repro.constraints.ind import InclusionDependency
from repro.core import rcdp, rcqp
from repro.core.rcdp import decide_rcdp
from repro.core.rcqp import decide_rcqp, decide_rcqp_with_inds
from repro.core.results import RCDPStatus, RCQPStatus
from repro.errors import ConstraintError, UndecidableConfigurationError
from repro.queries.atoms import eq, rel
from repro.queries.cq import cq
from repro.queries.datalog import DatalogQuery, rule
from repro.queries.terms import var
from repro.queries.ucq import ucq
from repro.relational.domain import BOOLEAN
from repro.relational.instance import Instance
from repro.relational.schema import (Attribute, DatabaseSchema,
                                     RelationSchema)
from repro.runtime import Budget, ExecutionGovernor

SCHEMA = DatabaseSchema([
    RelationSchema("Supt", ["eid", "dept", "cid"]),
    RelationSchema("Flag", [Attribute("b", BOOLEAN)]),
])
MASTER_SCHEMA = DatabaseSchema([
    RelationSchema("DCust", ["cid"]),
    RelationSchema("Empty", ["z"]),
])
DM = Instance(MASTER_SCHEMA, {"DCust": {("c1",), ("c2",)}})


def cid_ind():
    return InclusionDependency(
        "Supt", ["cid"], "DCust", ["cid"]).to_containment_constraint(
        SCHEMA, MASTER_SCHEMA)


def eid_empty_ind():
    return InclusionDependency(
        "Supt", ["eid"], None).to_containment_constraint(
        SCHEMA, MASTER_SCHEMA)


class TestINDSyntactic:
    """Proposition 4.3 / Theorem 4.5(1)."""

    def test_covered_output_variable_nonempty(self):
        q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
        result = decide_rcqp_with_inds(q, DM, [cid_ind()], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        # the witness really is relatively complete
        verdict = decide_rcdp(q, result.witness, DM, [cid_ind()])
        assert verdict.status is RCDPStatus.COMPLETE

    def test_uncovered_output_variable_empty(self):
        # dept is infinite-domain and no IND covers it
        q = cq([var("d")], [rel("Supt", "e0", var("d"), var("c"))])
        result = decide_rcqp_with_inds(q, DM, [cid_ind()], SCHEMA)
        assert result.status is RCQPStatus.EMPTY

    def test_finite_domain_output_nonempty_without_inds(self):
        q = cq([var("b")], [rel("Flag", var("b"))])
        result = decide_rcqp_with_inds(q, DM, [], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY

    def test_unachievable_disjunct_is_harmless(self):
        # eid ⊆ ∅ makes any Supt tuple violate V, so the uncovered output
        # variable never materializes (second case of Prop. 4.3).
        q = cq([var("d")], [rel("Supt", "e0", var("d"), var("c"))])
        result = decide_rcqp_with_inds(
            q, DM, [cid_ind(), eid_empty_ind()], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        assert result.witness.is_empty()

    def test_boolean_query_nonempty(self):
        q = cq([], [rel("Supt", var("e"), var("d"), var("c"))])
        result = decide_rcqp_with_inds(q, DM, [cid_ind()], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY

    def test_ucq_each_disjunct_checked(self):
        q = ucq([
            cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))]),
            cq([var("d")], [rel("Supt", "e1", var("d"), var("c"))]),
        ])
        result = decide_rcqp_with_inds(q, DM, [cid_ind()], SCHEMA)
        assert result.status is RCQPStatus.EMPTY

    def test_non_ind_constraint_rejected(self):
        fd_ccs = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([], [rel("Supt", var("e"), var("d"), var("c"))])
        with pytest.raises(ConstraintError):
            decide_rcqp_with_inds(q, DM, fd_ccs, SCHEMA)

    def test_unsatisfiable_query_nonempty(self):
        q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c")),
                            eq(var("c"), "a"), eq(var("c"), "b")])
        result = decide_rcqp_with_inds(q, DM, [cid_ind()], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY


class TestGeneralE1:
    def test_all_finite_outputs_nonempty(self):
        fd_ccs = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([var("b")], [rel("Flag", var("b"))])
        result = decide_rcqp(q, DM, fd_ccs, SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        verdict = decide_rcdp(q, result.witness, DM, fd_ccs)
        assert verdict.status is RCDPStatus.COMPLETE

    def test_all_finite_outputs_report_the_completion_search(self):
        """The E1/E5 verdict counts the completion's valuations and the
        index builds it paid for, as the governor does."""
        fd_ccs = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([var("b")], [rel("Flag", var("b"))])
        governor = ExecutionGovernor(budget=Budget())
        result = decide_rcqp(q, DM, fd_ccs, SCHEMA, governor=governor)
        assert result.status is RCQPStatus.NONEMPTY
        ticks = governor.budget.snapshot()
        stats = result.statistics
        assert stats.valuations_examined == ticks["valuations"] > 0
        # sqlite pushes the joins down and builds no index.
        assert stats.index_builds == ticks.get("index_builds", 0)

    def test_no_constraints_infinite_output_empty(self):
        q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
        result = decide_rcqp(q, DM, [], SCHEMA)
        assert result.status is RCQPStatus.EMPTY

    def test_no_constraints_finite_output_nonempty(self):
        q = cq([var("b")], [rel("Flag", var("b"))])
        result = decide_rcqp(q, DM, [], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY


class TestOneAnalysisPass:
    """A general RCQP decision runs the static analyzer once and hands
    its report to every nested completion and witness verification."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return validate_for_decision(*args, **kwargs)

        # The deciders bind the name at import, so count it where read.
        monkeypatch.setattr(rcdp, "validate_for_decision", counted)
        monkeypatch.setattr(rcqp, "validate_for_decision", counted)
        return calls

    def test_e1_e5_completion_reuses_the_report(self, passes):
        fd_ccs = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([var("b")], [rel("Flag", var("b"))])
        result = decide_rcqp(q, DM, fd_ccs, SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        assert passes == [q]

    def test_e2_e6_witness_verification_reuses_the_report(self, passes):
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept", "cid"]).to_containment_constraints(
            SCHEMA)
        q2 = TestGeneralE2()._q2()
        result = decide_rcqp(q2, Instance(MASTER_SCHEMA), v, SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        assert result.statistics.candidate_sets_examined == 2
        assert passes == [q2]


class TestGeneralE2:
    """Example 4.1 of the paper."""

    def _q2(self):
        return cq([var("e"), var("d"), var("c")],
                  [rel("Supt", var("e"), var("d"), var("c")),
                   eq(var("e"), "e0")], name="Q2")

    def _q4(self):
        return cq([var("e"), var("d"), var("c")],
                  [rel("Supt", var("e"), var("d"), var("c")),
                   eq(var("e"), "e0"), eq(var("d"), "d0")], name="Q4")

    def test_q2_with_full_fd_nonempty(self):
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept", "cid"]).to_containment_constraints(
            SCHEMA)
        result = decide_rcqp(self._q2(), Instance(MASTER_SCHEMA), v, SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        verdict = decide_rcdp(self._q2(), result.witness,
                              Instance(MASTER_SCHEMA), v)
        assert verdict.status is RCDPStatus.COMPLETE

    def test_q2_with_partial_fd_not_found(self):
        # FD eid → dept leaves cid unbounded: the paper argues Q2 is not
        # relatively complete (dom(cid) infinite).
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        result = decide_rcqp(self._q2(), Instance(MASTER_SCHEMA), v, SCHEMA)
        assert result.status in (RCQPStatus.EMPTY,
                                 RCQPStatus.EMPTY_UP_TO_BOUND)

    def test_q4_blocking_witness_nonempty(self):
        # Example 4.1: D− = {(e0, d', c)} with d' ≠ d0 blocks additions.
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        result = decide_rcqp(self._q4(), Instance(MASTER_SCHEMA), v, SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        # The blocking witness has empty query answer!
        assert self._q4().evaluate(result.witness) == frozenset()

    def test_witness_verification_can_be_disabled(self):
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        result = decide_rcqp(self._q4(), Instance(MASTER_SCHEMA), v, SCHEMA,
                             verify_witness=False)
        assert result.status is RCQPStatus.NONEMPTY


class TestGuards:
    def test_fp_query_rejected(self):
        q = DatalogQuery(
            [rule(rel("T", var("e")),
                  rel("Supt", var("e"), var("d"), var("c")))], goal="T")
        with pytest.raises(UndecidableConfigurationError):
            decide_rcqp(q, DM, [], SCHEMA)

    def test_statistics_reported(self):
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([var("e"), var("d"), var("c")],
               [rel("Supt", var("e"), var("d"), var("c")),
                eq(var("e"), "e0"), eq(var("d"), "d0")])
        result = decide_rcqp(q, Instance(MASTER_SCHEMA), v, SCHEMA)
        assert result.statistics.candidate_sets_examined > 0

    def test_ind_dispatch_from_general_entry(self):
        q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
        result = decide_rcqp(q, DM, [cid_ind()], SCHEMA)
        assert result.status is RCQPStatus.NONEMPTY
        assert "E3/E4" in result.explanation


class TestUnitSizeKnobs:
    def test_two_row_units_allowed(self):
        """max_rows_per_unit=2 lets one partial valuation instantiate two
        tuple templates of a single constraint; the verdict matches the
        default search on the Example 4.1 workload."""
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([var("e"), var("d"), var("c")],
               [rel("Supt", var("e"), var("d"), var("c")),
                eq(var("e"), "e0"), eq(var("d"), "d0")], name="Q4")
        default = decide_rcqp(q, Instance(MASTER_SCHEMA), v, SCHEMA)
        wide = decide_rcqp(q, Instance(MASTER_SCHEMA), v, SCHEMA,
                           max_rows_per_unit=2,
                           max_valuation_set_size=1)
        assert default.status is RCQPStatus.NONEMPTY
        assert wide.status is RCQPStatus.NONEMPTY

    def test_zero_set_budget_only_tries_empty_set(self):
        v = FunctionalDependency(
            "Supt", ["eid"], ["dept"]).to_containment_constraints(SCHEMA)
        q = cq([var("e"), var("d"), var("c")],
               [rel("Supt", var("e"), var("d"), var("c")),
                eq(var("e"), "e0"), eq(var("d"), "d0")], name="Q4")
        result = decide_rcqp(q, Instance(MASTER_SCHEMA), v, SCHEMA,
                             max_valuation_set_size=0)
        # The blocking witness needs one unit, so the budget-0 search
        # reports only up-to-bound emptiness.
        assert result.status is RCQPStatus.EMPTY_UP_TO_BOUND
