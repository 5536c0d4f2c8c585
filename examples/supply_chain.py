"""Supply-chain completeness: the same theory, a different domain.

Section 2.3 mentions SCM alongside CRM; this example audits shipment data
against two master relations (approved suppliers and a part catalog) and
shows all three §2.3 outcomes on one schema, plus the completeness
*margin* (how many answers could still appear).

Run:  python examples/supply_chain.py
"""

from repro.analysis import analyze_boundedness
from repro.core import (decide_rcdp, enumerate_missing_answers,
                        make_complete)
from repro.core.results import RCDPStatus
from repro.mdm.scm import SCMScenario


def main() -> None:
    scenario = SCMScenario.example()
    master = scenario.master()
    constraints = scenario.default_constraints()
    database = scenario.database()

    print("master data:")
    print(master.pretty())
    print()
    print("shipments:")
    print(database.pretty())
    print()

    print("=" * 64)
    print("Which suppliers shipped bolts?  (bounded by ApprovedSup)")
    print("=" * 64)
    q_bolts = scenario.q_suppliers_of_category("bolts")
    verdict = decide_rcdp(q_bolts, database, master, constraints)
    print(f"RCDP: {verdict.status.value}")
    margin = enumerate_missing_answers(q_bolts, database, master,
                                       constraints)
    print(f"answers that could still appear: {sorted(margin)}")
    outcome = make_complete(q_bolts, database, master, constraints)
    print(f"to close the gap, collect: {list(outcome.added_facts)}")
    final = decide_rcdp(q_bolts, outcome.database, master, constraints)
    assert final.status is RCDPStatus.COMPLETE
    print("after collection: complete ✓")
    print()

    print("=" * 64)
    print("Which parts has acme shipped?  (bounded by the catalog)")
    print("=" * 64)
    q_parts = scenario.q_parts_from("acme")
    margin = enumerate_missing_answers(q_parts, database, master,
                                       constraints)
    print(f"missing parts: {sorted(margin)} — acme may yet ship them")
    print()

    print("=" * 64)
    print("Which shipment ids exist?  (ids are not mastered)")
    print("=" * 64)
    q_sids = scenario.q_shipment_ids()
    ind_only = [scenario.supplier_ind(), scenario.part_ind(),
                scenario.part_info_ind()]
    report = analyze_boundedness(q_sids, ind_only, scenario.schema)
    for suggestion in report.master_data_suggestions():
        print(f"→ {suggestion}")
    print("no master relation bounds shipment ids: this query can never")
    print("be relatively complete until shipment ids are mastered.")


if __name__ == "__main__":
    main()
