"""Tests for the CRM scenario, generators, and the §2.3 audit workflow."""

import random
from pathlib import Path

import pytest

from repro.constraints.containment import satisfies_all
from repro.core.results import RCDPStatus
from repro.io.json_io import load_bundle
from repro.mdm.audit import AuditVerdict, CompletenessAudit
from repro.mdm.generators import GeneratorConfig, generate_scenario
from repro.mdm.scenario import CRMScenario


@pytest.fixture
def scenario():
    return CRMScenario.example()


class TestScenario:
    def test_database_partially_closed(self, scenario):
        db = scenario.database()
        assert satisfies_all(db, scenario.master(),
                             scenario.default_constraints())

    def test_missing_customer_knob(self, scenario):
        db = scenario.database(missing_customers=["c1"])
        cids = {row[0] for row in db["Cust"]}
        assert "c1" not in cids
        assert "c2" in cids

    def test_missing_support_knob(self, scenario):
        db = scenario.database(missing_support=[("e0", "c1")])
        assert ("e0", "sales", "c1") not in db["Supt"]

    def test_q0_answers(self, scenario):
        q0 = scenario.q0_customers_with_area_code("908")
        assert q0.evaluate(scenario.database()) == frozenset(
            {("c1",), ("c2",)})

    def test_q1_answers(self, scenario):
        q1 = scenario.q1_customers_supported_by("e0", "908")
        assert q1.evaluate(scenario.database()) == frozenset(
            {("c1",), ("c2",)})

    def test_q3_datalog_closure(self, scenario):
        q3 = scenario.q3_management_chain("e0")
        answers = q3.evaluate(scenario.database())
        assert answers == frozenset({("e2",), ("e3",)})

    def test_q3_cq_bounded_depth(self, scenario):
        q3cq = scenario.q3_management_chain_cq("e0", depth=2)
        assert q3cq.evaluate(scenario.database()) == frozenset({("e3",)})

    def test_q3_datalog_complete_when_closure_present(self, scenario):
        # Manage ⊇ Managem and Manage bounded by Managem: with Manage =
        # Managem the FP query answer cannot change.  (Exact RCDP refuses
        # FP; check via brute force.)
        from repro.core.bounded import brute_force_rcdp

        q3 = scenario.q3_management_chain("e0")
        result = brute_force_rcdp(
            q3, scenario.database(), scenario.master(),
            [scenario.manage_ind()], max_extra_facts=1,
            values=["e0", "e1", "e2", "e3", "e9"],
            relations=["Manage"])
        assert result.status is RCDPStatus.COMPLETE_UP_TO_BOUND

    def test_phi1_limits_support(self, scenario):
        phi1 = scenario.phi1_at_most_k(2)
        assert phi1.is_satisfied(scenario.database(), scenario.master())
        crowded = scenario.database().with_tuples(
            "Supt", [("e0", "sales", "c3")])
        assert not phi1.is_satisfied(crowded, scenario.master())


class TestAudit:
    def _audit(self, scenario, constraints=None):
        # supt⊆dcust only holds without international support tuples.
        scenario.support = {(e, d, c) for e, d, c in scenario.support
                            if not c.startswith("i")}
        return CompletenessAudit(
            master=scenario.master(),
            constraints=constraints or [scenario.supt_cid_ind()],
            schema=scenario.schema)

    def test_trustworthy_when_complete(self, scenario):
        # e0 supports every master customer → Q2 is complete.
        scenario.support |= {("e0", "sales", "c3")}
        audit = self._audit(scenario)
        report = audit.assess(scenario.q2_all_supported_by("e0"),
                              scenario.database())
        assert report.verdict is AuditVerdict.TRUSTWORTHY
        assert report.suggested_facts == ()

    def test_collect_data_with_suggestions(self, scenario):
        audit = self._audit(scenario)
        report = audit.assess(scenario.q2_all_supported_by("e0"),
                              scenario.database())
        assert report.verdict is AuditVerdict.COLLECT_DATA
        suggested_cids = {row[2] for name, row in report.suggested_facts
                          if name == "Supt"}
        assert "c3" in suggested_cids  # the unsupported master customer

    def test_expand_master_data(self, scenario):
        # Employees are unconstrained: asking for all employees supporting
        # anybody can never be complete — the master data must grow.
        from repro.queries.atoms import rel
        from repro.queries.cq import cq
        from repro.queries.terms import var

        audit = self._audit(scenario)
        q = cq([var("e")], [rel("Supt", var("e"), var("d"), var("c"))])
        report = audit.assess(q, scenario.database())
        assert report.verdict is AuditVerdict.EXPAND_MASTER_DATA

    def test_assessments_share_one_context(self):
        """``Dm`` and ``V`` stay fixed, so the second assessment's RCDP
        stage reuses the plans and answers the first one built."""
        bundle = load_bundle(Path(__file__).resolve().parent.parent
                             / "examples" / "bundles"
                             / "crm_q2_supported_ind.json")
        audit = CompletenessAudit(master=bundle["master"],
                                  constraints=bundle["constraints"],
                                  schema=bundle["schema"])
        context = audit.context
        reports = [audit.assess(bundle["query"], bundle["database"])
                   for _ in range(2)]
        assert audit.context is context
        assert [(report.rcdp.statistics.plans_compiled,
                 report.rcdp.statistics.full_evaluations)
                for report in reports] == [(2, 2), (0, 0)]

    def test_summary_readable(self, scenario):
        audit = self._audit(scenario)
        report = audit.assess(scenario.q2_all_supported_by("e0"),
                              scenario.database())
        text = report.summary()
        assert "verdict" in text
        assert "RCDP" in text


class TestGenerators:
    def test_reproducible(self):
        config = GeneratorConfig(num_domestic=5, num_employees=2)
        a = generate_scenario(config, random.Random(1))
        b = generate_scenario(config, random.Random(1))
        assert a.support == b.support
        assert [r.cid for r in a.domestic] == [r.cid for r in b.domestic]

    def test_counts(self):
        config = GeneratorConfig(num_domestic=7, num_international=2,
                                 num_employees=3)
        scenario = generate_scenario(config, random.Random(2))
        assert len(scenario.domestic) == 7
        assert len(scenario.international) == 2

    def test_generated_database_is_partially_closed(self):
        config = GeneratorConfig(num_domestic=6, num_employees=2)
        scenario = generate_scenario(config, random.Random(3))
        assert satisfies_all(scenario.database(), scenario.master(),
                             [scenario.supt_cid_ind(), scenario.phi0(),
                              scenario.manage_ind()])

    def test_missing_fraction_drops_tuples(self):
        base = GeneratorConfig(num_domestic=10, num_employees=3,
                               support_probability=0.9)
        lossy = GeneratorConfig(num_domestic=10, num_employees=3,
                                support_probability=0.9,
                                missing_support_fraction=0.5)
        full = generate_scenario(base, random.Random(4))
        partial = generate_scenario(lossy, random.Random(4))
        assert len(partial.support) < len(full.support)

    def test_management_hierarchy_depth(self):
        config = GeneratorConfig(management_depth=3)
        scenario = generate_scenario(config, random.Random(5))
        # complete binary tree with depth 3 has 2 + 4 + 8 = 14 edges
        assert len(scenario.manage_master) == 14
