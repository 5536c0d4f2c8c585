"""Tests for the static boundedness analysis."""

import pytest

from repro.constraints.cfd import FunctionalDependency
from repro.constraints.ind import InclusionDependency
from repro.analysis import VariableStatus, analyze_boundedness
from repro.core.rcqp import decide_rcqp_with_inds
from repro.core.results import RCQPStatus
from repro.queries.atoms import eq, rel
from repro.queries.cq import cq
from repro.queries.terms import Var, var
from repro.queries.ucq import ucq
from repro.relational.domain import BOOLEAN
from repro.relational.instance import Instance
from repro.relational.schema import (Attribute, DatabaseSchema,
                                     RelationSchema)

SCHEMA = DatabaseSchema([
    RelationSchema("Supt", ["eid", "dept", "cid"]),
    RelationSchema("Flag", [Attribute("b", BOOLEAN)]),
])
MASTER_SCHEMA = DatabaseSchema([RelationSchema("DCust", ["cid"])])
DM = Instance(MASTER_SCHEMA, {"DCust": {("c1",)}})


def cid_ind():
    return InclusionDependency(
        "Supt", ["cid"], "DCust", ["cid"],
        name="cid-ind").to_containment_constraint(SCHEMA, MASTER_SCHEMA)


class TestStatuses:
    def test_ind_covered(self):
        q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
        report = analyze_boundedness(q, [cid_ind()], SCHEMA)
        (entry,) = report.variables
        assert entry.status is VariableStatus.IND_COVERED
        assert entry.constraints == ("cid-ind",)
        assert report.syntactically_bounded

    def test_unbounded_names_columns(self):
        q = cq([var("e")], [rel("Supt", var("e"), var("d"), var("c"))])
        report = analyze_boundedness(q, [cid_ind()], SCHEMA)
        (entry,) = report.variables
        assert entry.status is VariableStatus.UNBOUNDED
        assert entry.columns == (("Supt", "eid"),)
        assert not report.syntactically_bounded
        (suggestion,) = report.master_data_suggestions()
        assert "Supt.eid" in suggestion

    def test_finite_domain(self):
        q = cq([var("b")], [rel("Flag", var("b"))])
        report = analyze_boundedness(q, [], SCHEMA)
        (entry,) = report.variables
        assert entry.status is VariableStatus.FINITE_DOMAIN

    def test_constrained_by_cq_constraint(self):
        fd_ccs = FunctionalDependency(
            "Supt", ["eid"], ["cid"],
            name="fd").to_containment_constraints(SCHEMA)
        q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
        report = analyze_boundedness(q, fd_ccs, SCHEMA)
        (entry,) = report.variables
        assert entry.status is VariableStatus.CONSTRAINED
        assert entry.constraints  # names the touching FD CC

    def test_head_constants_ignored(self):
        q = cq([var("c")],
               [rel("Supt", var("e"), var("d"), var("c")),
                eq(var("e"), "e0")])
        report = analyze_boundedness(q, [cid_ind()], SCHEMA)
        # e was pinned to a constant by equality folding: only c remains.
        assert [r.variable for r in report.variables] == [Var("c")]

    def test_ucq_per_disjunct(self):
        q = ucq([
            cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))]),
            cq([var("e")], [rel("Supt", var("e"), var("d"), var("c"))]),
        ])
        report = analyze_boundedness(q, [cid_ind()], SCHEMA)
        statuses = {r.variable.name: r.status for r in report.variables}
        assert statuses["c"] is VariableStatus.IND_COVERED
        assert statuses["e"] is VariableStatus.UNBOUNDED


class TestAgreementWithDecider:
    """For IND-only constraint sets the syntactic report must agree with
    the exact decider — unless the no-valid-valuation escape applies."""

    @pytest.mark.parametrize("head, expected", [
        ("c", RCQPStatus.NONEMPTY),
        ("e", RCQPStatus.EMPTY),
        ("d", RCQPStatus.EMPTY),
    ])
    def test_report_predicts_verdict(self, head, expected):
        q = cq([var(head)], [rel("Supt", var("e"), var("d"), var("c"))])
        report = analyze_boundedness(q, [cid_ind()], SCHEMA)
        result = decide_rcqp_with_inds(q, DM, [cid_ind()], SCHEMA,
                                       construct_witness=False)
        assert result.status is expected
        assert report.syntactically_bounded == (
            expected is RCQPStatus.NONEMPTY)
