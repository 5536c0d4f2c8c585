"""Tests for the whole-scenario flow pass: interaction graphs, chase
classification, the static cost model, plan lints, and the guarantee
that none of it perturbs decider verdicts or statistics."""

import json
from pathlib import Path

import pytest

from repro.analysis import analyze, lint_path
from repro.analysis.cost import (Interval, estimate_decision,
                                 suggested_budget)
from repro.analysis.interaction import (ChaseClass, EdgeKind,
                                        build_interaction_graph,
                                        drop_inapplicable,
                                        forced_empty_relations,
                                        inapplicable_constraints)
from repro.analysis.planlint import lint_plan
from repro.cli import main
from repro.constraints.containment import (ContainmentConstraint,
                                           Projection)
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.search import HEAD_START
from repro.io.json_io import load_bundle
from repro.parallel import suggest_workers
from repro.queries.atoms import eq, rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.runtime import Budget, ExecutionGovernor

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "bundles"

# Shared relation name + arity between the two schemas: the only shape
# that can close interaction cycles.
SHARED = DatabaseSchema([RelationSchema("R", ["a", "b"])])


def _bundle(name):
    return load_bundle(str(EXAMPLES / f"{name}.json"))


class TestInteractionGraph:
    def test_shifted_projection_diverges(self):
        # R(y, x) ⊆ π₀(R) read as a TGD invents a fresh value at R.1
        # fed from R.1 itself — the classical non-terminating chase.
        phi = ContainmentConstraint(
            cq([var("x")], [rel("R", var("y"), var("x"))]),
            Projection.on("R", [0]), name="phi")
        graph = build_interaction_graph(
            [phi], schema=SHARED, master_schema=SHARED)
        assert graph.chase is ChaseClass.DIVERGENT
        assert any(edge.kind is EdgeKind.FRESH for edge in graph.cycle)
        assert "⇢" in graph.render_cycle()

    def test_full_projection_is_weakly_acyclic(self):
        # Identity projection: cycles, but no existential column.
        phi = ContainmentConstraint(
            cq([var("x"), var("y")], [rel("R", var("x"), var("y"))]),
            Projection.on("R", [0, 1]), name="phi")
        graph = build_interaction_graph(
            [phi], schema=SHARED, master_schema=SHARED)
        assert graph.chase is ChaseClass.WEAKLY_ACYCLIC
        assert graph.cycle  # a flow-only witness cycle is rendered
        assert all(edge.kind is EdgeKind.FLOW for edge in graph.cycle)

    def test_disjoint_relation_names_are_acyclic(self):
        schema = DatabaseSchema([RelationSchema("R", ["a"])])
        master = DatabaseSchema([RelationSchema("Mst", ["a", "b"])])
        phi = ContainmentConstraint(
            cq([var("x")], [rel("R", var("x"))]),
            Projection.on("Mst", [0]), name="phi")
        graph = build_interaction_graph(
            [phi], schema=schema, master_schema=master)
        assert graph.chase is ChaseClass.ACYCLIC
        assert graph.cycle == ()

    def test_arity_mismatch_does_not_merge_nodes(self):
        # Same name, different arity: distinct relations, no feedback.
        schema = DatabaseSchema([RelationSchema("R", ["a"])])
        master = DatabaseSchema([RelationSchema("R", ["a", "b", "c"])])
        phi = ContainmentConstraint(
            cq([var("x")], [rel("R", var("x"))]),
            Projection.on("R", [0]), name="phi")
        graph = build_interaction_graph(
            [phi], schema=schema, master_schema=master)
        assert graph.chase is ChaseClass.ACYCLIC

    def test_example_bundles_are_acyclic(self):
        for name in ("crm_q0_area_code", "crm_q1_supported",
                     "crm_q2_supported_ind"):
            bundle = _bundle(name)
            graph = build_interaction_graph(
                bundle["constraints"],
                schema=bundle["schema"],
                master_schema=bundle["master_schema"])
            assert graph.chase is ChaseClass.ACYCLIC, name

    def test_to_dict_is_json_serializable(self):
        phi = ContainmentConstraint(
            cq([var("x")], [rel("R", var("y"), var("x"))]),
            Projection.on("R", [0]), name="phi")
        graph = build_interaction_graph(
            [phi], schema=SHARED, master_schema=SHARED)
        payload = json.loads(json.dumps(graph.to_dict()))
        assert payload["chase"] == "divergent"
        assert payload["cycle"]


FORCED_SCHEMA = DatabaseSchema([RelationSchema("R", ["a"]),
                                RelationSchema("S", ["a"])])
FORCED_MASTER = DatabaseSchema([RelationSchema("M0", ["a"]),
                                RelationSchema("M1", ["a"])])


def _forced_scenario():
    master = Instance(FORCED_MASTER, {"M0": set(),
                                      "M1": {("a",), ("b",)}})
    keeper = ContainmentConstraint(
        cq([var("x")], [rel("R", var("x"))]),
        Projection.on("M0", [0]), name="keeper")
    dead = ContainmentConstraint(
        cq([var("x")], [rel("R", var("x")), rel("S", var("x"))]),
        Projection.on("M1", [0]), name="dead")
    return master, keeper, dead


class TestForcedEmpty:
    def test_empty_master_projection_forces_source(self):
        master, keeper, dead = _forced_scenario()
        assert forced_empty_relations([keeper, dead], master) == {
            "R": ["keeper"]}

    def test_empty_target_forces_source(self):
        denial = ContainmentConstraint(
            cq([var("x")], [rel("R", var("x"))]),
            Projection.empty(), name="denial")
        assert forced_empty_relations([denial], None) == {"R": ["denial"]}

    def test_keeper_is_never_inapplicable(self):
        master, keeper, dead = _forced_scenario()
        inapplicable = inapplicable_constraints([keeper, dead], master)
        assert set(inapplicable) == {"dead"}
        assert "keeper" in inapplicable["dead"]

    def test_drop_preserves_order_and_keeper(self):
        master, keeper, dead = _forced_scenario()
        inapplicable = inapplicable_constraints([keeper, dead], master)
        kept = drop_inapplicable([keeper, dead], inapplicable)
        assert [c.name for c in kept] == ["keeper"]

    def test_dropping_preserves_the_verdict(self):
        master, keeper, dead = _forced_scenario()
        database = Instance(FORCED_SCHEMA, {"R": set(), "S": {("a",)}})
        query = cq([var("x")], [rel("S", var("x"))])
        full = decide_rcdp(query, database, master, [keeper, dead])
        inapplicable = inapplicable_constraints([keeper, dead], master)
        dropped = decide_rcdp(
            query, database, master,
            drop_inapplicable([keeper, dead], inapplicable))
        assert full.status is dropped.status


class TestFlowRules:
    def test_rc301_reports_the_cycle(self):
        phi = ContainmentConstraint(
            cq([var("x")], [rel("R", var("y"), var("x"))]),
            Projection.on("R", [0]), name="phi")
        report = analyze(None, [phi], schema=SHARED,
                         master_schema=SHARED, flow=True)
        (diag,) = [d for d in report.diagnostics if d.code == "RC301"]
        assert "phi" in diag.message and "⇢" in diag.message
        assert report.facts.chase == "divergent"

    def test_rc302_names_the_forcer(self):
        master, keeper, dead = _forced_scenario()
        report = analyze(None, [keeper, dead], schema=FORCED_SCHEMA,
                         master_schema=FORCED_MASTER, master=master,
                         flow=True)
        (diag,) = [d for d in report.diagnostics if d.code == "RC302"]
        assert "'dead'" in diag.message
        assert report.facts.inapplicable_constraints == ("dead",)

    def test_rc303_flags_containment_in_a_denial(self):
        schema = DatabaseSchema([RelationSchema("S", ["a"]),
                                 RelationSchema("T", ["a"]),
                                 RelationSchema("U", ["a"])])
        master_schema = DatabaseSchema([RelationSchema("M0", ["a"])])
        denial = ContainmentConstraint(
            cq([var("x")], [rel("S", var("x")), rel("T", var("x"))]),
            Projection.empty(), name="denial")
        victim = ContainmentConstraint(
            cq([var("x")], [rel("S", var("x")), rel("T", var("x")),
                            rel("U", var("x"))]),
            Projection.on("M0", [0]), name="victim")
        assert not denial.is_ind()  # two atoms: RC302 cannot claim this
        report = analyze(
            None, [denial, victim], schema=schema,
            master_schema=master_schema,
            master=Instance(master_schema, {"M0": {("a",)}}), flow=True)
        (diag,) = [d for d in report.diagnostics if d.code == "RC303"]
        assert "'victim'" in diag.message and "'denial'" in diag.message
        assert "victim" in report.facts.inapplicable_constraints

    def test_flow_rules_never_run_in_the_decider_pass(self):
        phi = ContainmentConstraint(
            cq([var("x")], [rel("R", var("y"), var("x"))]),
            Projection.on("R", [0]), name="phi")
        report = analyze(None, [phi], schema=SHARED,
                         master_schema=SHARED, decider_only=True,
                         flow=True)
        assert not [d for d in report.diagnostics
                    if d.code.startswith(("RC3", "RC4"))]

    def test_facts_round_trip_through_report_json(self):
        bundle = _bundle("crm_q0_area_code")
        report = analyze(bundle["query"], bundle["constraints"],
                         schema=bundle["schema"],
                         master_schema=bundle["master_schema"],
                         database=bundle["database"],
                         master=bundle["master"], flow=True)
        payload = json.loads(json.dumps(report.to_dict()))
        facts = payload["facts"]
        assert facts["chase"] == "acyclic"
        estimate = facts["cost_estimate"]
        assert estimate["procedure"] == "rcdp"
        assert estimate["adom_size"] > 0


class TestPlanLint:
    def test_cross_product(self):
        query = cq([var("x"), var("y")],
                   [rel("R", var("x")), rel("S", var("y"))])
        kinds = {f.kind for f in lint_plan(query)}
        assert "cross-product" in kinds

    def test_post_filter_equality(self):
        query = cq([var("x"), var("y")],
                   [rel("Big", var("k"), var("x"), var("y"), var("z")),
                    eq(var("x"), var("y"))])
        kinds = {f.kind for f in lint_plan(query)}
        assert "post-filter-equality" in kinds

    def test_unkeyed_start_suggests_the_constant_atom(self):
        query = cq([var("x")],
                   [rel("R", var("x")),
                    rel("Big", "seed", var("x"), var("y"), var("z"))])
        (finding,) = [f for f in lint_plan(query)
                      if f.kind == "unkeyed-start"]
        assert "Big" in finding.suggestion

    def test_connected_keyed_plan_is_clean(self):
        query = cq([var("x")], [rel("R", "a", var("x"))])
        assert list(lint_plan(query)) == []


class TestCostModel:
    def test_interval_arithmetic(self):
        a = Interval(lo=2, hi=3)
        b = Interval(lo=0, hi=None)
        assert a + a == Interval(lo=4, hi=6)
        assert a * Interval.point(2) == Interval(lo=4, hi=6)
        assert (a * b).hi is None
        assert a.join(b) == Interval(lo=0, hi=None)
        assert "∞" in b.render()
        assert a.scaled(10) == Interval(lo=20, hi=30)

    def test_full_enumeration_prediction_is_within_4x(self):
        # The bench gates the whole corpus; in-tree we pin the six
        # bundles whose enumerations finish in seconds.
        for name in ("crm_q2_supported_ind", "crm_q0_area_code",
                     "gen_crm_golden", "gen_erp_golden",
                     "gen_hierarchy_golden", "gen_scm_golden"):
            bundle = _bundle(name)
            estimate = estimate_decision(
                "missing", bundle["query"], bundle["database"],
                bundle["master"], tuple(bundle["constraints"]))
            governor = ExecutionGovernor(budget=Budget())
            missing_answers_report(
                bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"], governor=governor)
            actual = governor.budget.spent_for("valuations")
            assert actual > 0, name
            ratio = estimate.total_predicted / actual
            assert 0.25 <= ratio <= 4.0, (name, estimate.total_predicted,
                                          actual)

    def test_ind_cap_beats_the_adom_power_bound(self):
        # crm_q2's IND caps the valuation space at 69 — far below
        # |Adom|^k — and the enumeration hits exactly that.
        bundle = _bundle("crm_q2_supported_ind")
        estimate = estimate_decision(
            "missing", bundle["query"], bundle["database"],
            bundle["master"], tuple(bundle["constraints"]))
        assert estimate.total_predicted == 69
        assert any(cost.caps for cost in estimate.disjuncts)

    def test_rcdp_lower_bound_is_zero(self):
        bundle = _bundle("crm_q0_area_code")
        estimate = estimate_decision(
            "rcdp", bundle["query"], bundle["database"],
            bundle["master"], tuple(bundle["constraints"]))
        assert estimate.procedure == "rcdp"
        interval = estimate.intervals["valuations"]
        assert interval.lo == 0  # may exit at the first certificate

    def test_rcqp_requires_a_schema(self):
        bundle = _bundle("crm_q2_supported_ind")
        with pytest.raises(ValueError):
            estimate_decision("rcqp", bundle["query"], None,
                              bundle["master"],
                              tuple(bundle["constraints"]))
        estimate = estimate_decision(
            "rcqp", bundle["query"], None, bundle["master"],
            tuple(bundle["constraints"]), schema=bundle["schema"])
        assert estimate.total_predicted > 0

    def test_suggested_budget_scales_by_safety(self):
        assert suggested_budget(100) == 400
        assert suggested_budget(100, safety=2) == 200
        assert suggested_budget(0) == 4  # degenerate estimates stay live

    def test_governor_adopts_a_suggestion_once(self):
        governor = ExecutionGovernor()
        assert governor.suggest_budget(100, adopt=True) == 400
        assert governor.budget.limit == 400
        # An existing budget is never overwritten.
        assert governor.suggest_budget(1, adopt=True) == 4
        assert governor.budget.limit == 400

    def test_suggest_workers_floors_small_estimates(self):
        assert suggest_workers(100, cpu_count=8) == 1
        # Every worker gets at least one pool round's worth of ticks.
        assert suggest_workers(2 * HEAD_START - 1, cpu_count=8) == 1
        assert suggest_workers(4 * HEAD_START, cpu_count=8) == 4
        assert suggest_workers(10_000_000, cpu_count=8) == 8
        assert suggest_workers(10_000_000, cpu_count=1) == 1


class TestDeciderInvariance:
    """The acceptance bar: verdicts, witnesses, and statistics are
    bit-identical with the flow pass enabled vs. disabled."""

    @pytest.mark.parametrize("backend", ["python", "columnar", "sqlite"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flow_pass_changes_nothing(self, backend, workers):
        bundle = _bundle("crm_q2_supported_ind")
        results = []
        for flow in (False, True):
            analysis = analyze(
                bundle["query"], bundle["constraints"],
                schema=bundle["schema"],
                master_schema=bundle["master_schema"],
                database=bundle["database"], master=bundle["master"],
                deep=False, decider_only=True, flow=flow)
            results.append(decide_rcdp(
                bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"], analysis=analysis,
                backend=backend, workers=workers))
        baseline, flowed = results
        assert baseline.status is flowed.status
        assert baseline.certificate == flowed.certificate
        assert baseline.statistics == flowed.statistics

    def test_missing_answers_identical_with_flow_analysis(self):
        bundle = _bundle("crm_q2_supported_ind")
        reports = []
        for flow in (False, True):
            analysis = analyze(
                bundle["query"], bundle["constraints"],
                schema=bundle["schema"],
                master_schema=bundle["master_schema"],
                database=bundle["database"], master=bundle["master"],
                deep=False, decider_only=True, flow=flow)
            reports.append(missing_answers_report(
                bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"], analysis=analysis))
        assert reports[0].answers == reports[1].answers
        assert reports[0].statistics == reports[1].statistics


class TestLintSurface:
    def test_example_bundles_flag_cost_not_errors(self):
        report = lint_path(str(EXAMPLES))
        codes = {d.code for d in report.diagnostics}
        assert "RC404" in codes  # crm_q0's 279841-tick enumeration
        assert not report.has_errors

    def test_directory_sources_are_filename_prefixed(self):
        report = lint_path(str(EXAMPLES))
        sources = {d.span.source for d in report.diagnostics
                   if d.span is not None}
        assert any(s.startswith("crm_q0_area_code.json:")
                   for s in sources)

    def test_cli_lint_directory_exits_zero(self, capsys):
        assert main(["lint", str(EXAMPLES)]) == 0
        out = capsys.readouterr().out
        assert "RC404" in out

    def test_cli_explain_cost_renders_the_estimate(self, capsys):
        path = str(EXAMPLES / "crm_q2_supported_ind.json")
        assert main(["lint", "--explain-cost", path]) == 0
        out = capsys.readouterr().out
        assert "cost estimate" in out
        assert "~69" in out

    def test_cli_preflight_advisory_on_small_budget(self, capsys):
        path = str(EXAMPLES / "crm_q2_supported_ind.json")
        code = main(["missing", path, "--budget", "10"])
        out = capsys.readouterr().out
        assert "preflight: predicted ~69" in out
        assert "suggested budget" in out
        assert code == 3  # the search still runs and exhausts as before

    def test_cli_no_advisory_when_budget_suffices(self, bundle_json,
                                                  capsys):
        code = main(["missing", bundle_json, "--budget", "100000"])
        assert code in (0, 1)
        assert "preflight" not in capsys.readouterr().out


@pytest.fixture
def bundle_json(tmp_path):
    from repro.io.json_io import dump_bundle
    schema = DatabaseSchema([RelationSchema("S", ["eid", "cid"])])
    master_schema = DatabaseSchema([RelationSchema("M", ["cid"])])
    database = Instance(schema, {"S": {("e0", "c1")}})
    master = Instance(master_schema, {"M": {("c1",), ("c2",)}})
    query = cq([var("c")], [rel("S", "e0", var("c"))])
    constraint = ContainmentConstraint(
        cq([var("c")], [rel("S", var("e"), var("c"))]),
        Projection.on("M", [0]), name="ind")
    path = tmp_path / "bundle.json"
    dump_bundle(str(path), schema=schema, master_schema=master_schema,
                database=database, master=master, query=query,
                constraints=[constraint])
    return str(path)
