"""Tests for the supply-chain MDM scenario."""

import pytest

from repro.constraints.containment import satisfies_all
from repro.analysis import analyze_boundedness
from repro.core.rcdp import decide_rcdp, enumerate_missing_answers
from repro.core.rcqp import decide_rcqp
from repro.core.results import RCDPStatus, RCQPStatus
from repro.mdm.audit import AuditVerdict, CompletenessAudit
from repro.mdm.scm import SCMScenario


@pytest.fixture
def scenario():
    return SCMScenario.example()


class TestScenario:
    def test_database_partially_closed(self, scenario):
        assert satisfies_all(scenario.database(), scenario.master(),
                             scenario.default_constraints())

    def test_missing_shipments_knob(self, scenario):
        db = scenario.database(missing_shipments=["s1"])
        sids = {row[0] for row in db["Ship"]}
        assert "s1" not in sids and "s2" in sids

    def test_q_parts_from(self, scenario):
        q = scenario.q_parts_from("acme")
        assert q.evaluate(scenario.database()) == frozenset(
            {("p1",), ("p2",)})

    def test_q_suppliers_of_category(self, scenario):
        q = scenario.q_suppliers_of_category("bolts")
        assert q.evaluate(scenario.database()) == frozenset({("acme",)})


class TestCompleteness:
    def test_category_suppliers_bounded_by_master(self, scenario):
        # globex has not shipped bolts yet, so the answer can still grow.
        q = scenario.q_suppliers_of_category("bolts")
        result = decide_rcdp(q, scenario.database(), scenario.master(),
                             scenario.default_constraints())
        assert result.status is RCDPStatus.INCOMPLETE
        missing = enumerate_missing_answers(
            q, scenario.database(), scenario.master(),
            scenario.default_constraints())
        assert missing == frozenset({("globex",)})

    def test_category_suppliers_complete_once_both_ship(self, scenario):
        scenario.shipments.add(("s4", "globex", "p1"))
        q = scenario.q_suppliers_of_category("bolts")
        result = decide_rcdp(q, scenario.database(), scenario.master(),
                             scenario.default_constraints())
        assert result.status is RCDPStatus.COMPLETE

    def test_parts_from_supplier_bounded_by_catalog(self, scenario):
        # acme could still ship p3 — incomplete until it has shipped every
        # catalog part.
        q = scenario.q_parts_from("acme")
        result = decide_rcdp(q, scenario.database(), scenario.master(),
                             scenario.default_constraints())
        assert result.status is RCDPStatus.INCOMPLETE
        scenario.shipments.add(("s5", "acme", "p3"))
        result = decide_rcdp(q, scenario.database(), scenario.master(),
                             scenario.default_constraints())
        assert result.status is RCDPStatus.COMPLETE

    def test_shipment_ids_need_master_expansion(self, scenario):
        q = scenario.q_shipment_ids()
        result = decide_rcqp(q, scenario.master(),
                             scenario.default_constraints(),
                             scenario.schema,
                             max_valuation_set_size=1)
        assert result.status in (RCQPStatus.EMPTY,
                                 RCQPStatus.EMPTY_UP_TO_BOUND)
        # With IND-only constraints the report is exact: sid is unbounded
        # and the suggestion names its column.  (Under the sid-key FD the
        # variable is merely CONSTRAINED — the FD touches the column but
        # cannot bound an infinite key, as the decider verdict shows.)
        ind_only = [scenario.supplier_ind(), scenario.part_ind(),
                    scenario.part_info_ind()]
        report = analyze_boundedness(q, ind_only, scenario.schema)
        (suggestion,) = report.master_data_suggestions()
        assert "Ship.sid" in suggestion


class TestAudit:
    def test_audit_cascade(self, scenario):
        audit = CompletenessAudit(
            master=scenario.master(),
            constraints=[scenario.supplier_ind(), scenario.part_ind(),
                         scenario.part_info_ind()],
            schema=scenario.schema)
        q = scenario.q_suppliers_of_category("bolts")
        report = audit.assess(q, scenario.database())
        assert report.verdict is AuditVerdict.COLLECT_DATA
        suggested_suppliers = {
            row[1] for name, row in report.suggested_facts
            if name == "Ship"}
        assert "globex" in suggested_suppliers
