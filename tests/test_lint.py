"""Tests for the static analyzer (:mod:`repro.analysis`) and ``repro lint``.

Covers the diagnostics vocabulary, the rule registry, the crafted
bad-bundle scenario from the issue (≥8 distinct codes, spans on every
diagnostic), the decider fast-fail identity (deciders reject with the
same codes lint reports), the RC003 short-circuit, the statistics
surfacing, the CLI, and three hypothesis properties:

* a query the analyzer flags provably empty evaluates to ∅ on random
  instances;
* the minimized query RC005 proposes is equivalent to the original
  under the naive evaluator;
* constraints the analyzer marks redundant (vacuous or subsumed) can be
  dropped without changing the ``decide_rcdp`` verdict.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis import (RULES, Report, Severity, Span, analyze,
                            lint_bundle, validate_for_decision)
from repro.analysis.diagnostics import Diagnostic, Fixit
from repro.constraints.containment import (ContainmentConstraint,
                                           Projection)
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.rcqp import decide_rcqp
from repro.core.results import RCDPStatus
from repro.core.witness import make_complete
from repro.cli import main
from repro.errors import AnalysisError, ParseError
from repro.queries.atoms import Eq, rel
from repro.queries.cq import ConjunctiveQuery, cq
from repro.queries.parser import parse_query
from repro.queries.terms import Const, Var, var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema
from tests.strategies import SCHEMA, conjunctive_queries, instances

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["a"])])

#: Master data covering every constant the strategies generate, so
#: random (D, Dm) pairs are partially closed under R[0] ⊆ M[0] CCs.
MASTER = Instance(MASTER_SCHEMA, {"M": {(0,), (1,), (2,)}})

_CONTRADICTION = Eq(Const(0), Const(1))


def _contradicted(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """*query* with a contradictory comparison appended to the body."""
    return ConjunctiveQuery(query.head,
                            tuple(query.body) + (_CONTRADICTION,),
                            name=query.name)


# The issue's crafted bad scenario: one bundle tripping ≥8 distinct
# rule codes (this one trips 12).
BAD_BUNDLE = {
    "schema": {"relations": [
        {"name": "R", "attributes": [{"name": "a"}, {"name": "b"}]},
        {"name": "S", "attributes": [{"name": "c"}]},
    ]},
    "master_schema": {"relations": [
        {"name": "M", "attributes": [{"name": "a"}]},
        {"name": "Empty", "attributes": [{"name": "a"}]},
    ]},
    "database": {"R": [["x", "x"]]},
    "master": {"M": [["m1"]]},
    "query": {"language": "UCQ", "text":
              "Q(x, y) :- R(x, y), x = 'a', x = 'b'\n"
              "Q(x, y) :- R(x, z), S(y), S(w)"},
    "constraints": [
        {"name": "violated", "query": {"language": "CQ",
         "text": "V(x) :- R(x, x)"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "badschema", "query": {"language": "CQ",
         "text": "V(x) :- W(x, y)"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "vacuous", "query": {"language": "CQ",
         "text": "V(x) :- R(x, y), x = 'a', x = 'b'"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "broken", "query": {"language": "CQ",
         "text": "V(x) :- ("},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "unsafe", "query": {"language": "CQ",
         "text": "V(x) :- x = 'a'"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "broad", "query": {"language": "CQ",
         "text": "V(x) :- R(x, y)"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "narrow", "query": {"language": "CQ",
         "text": "V(x) :- R(x, 'k')"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "recursive", "query": {"language": "FP",
         "text": "V(x) :- R(x, y)\nV(x) :- V(x)", "goal": "V"},
         "projection": {"relation": "M", "columns": [0]}},
        {"name": "denial", "query": {"language": "CQ",
         "text": "V(x) :- R(x, y)"},
         "projection": {"relation": "Empty", "columns": [0]}},
    ],
}


def _write_bad_bundle(tmp_path) -> str:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_BUNDLE))
    return str(path)


# ---------------------------------------------------------------------------
# Diagnostics vocabulary
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert str(Severity.ERROR) == "error"

    def _diag(self, severity, **kwargs):
        return Diagnostic(code="RC999", severity=severity,
                          message="m", **kwargs)

    def test_exit_codes(self):
        assert Report().exit_code == 0
        assert Report(diagnostics=(
            self._diag(Severity.INFO),)).exit_code == 0
        assert Report(diagnostics=(
            self._diag(Severity.WARNING),)).exit_code == 1
        assert Report(diagnostics=(
            self._diag(Severity.WARNING),
            self._diag(Severity.ERROR))).exit_code == 2

    def test_render_caret_under_offending_column(self):
        diag = self._diag(Severity.ERROR,
                          span=Span(source="query", line=1, column=9,
                                    offset=8, length=1))
        text = diag.render({"query": "V(x) :- ("})
        lines = text.splitlines()
        assert lines[1] == "    V(x) :- ("
        assert lines[2] == "    " + " " * 8 + "^"

    def test_render_includes_fixit(self):
        diag = self._diag(Severity.WARNING,
                          fixit=Fixit("drop it", "Q(x) :- R(x, y)"))
        text = diag.render()
        assert "fixit: drop it" in text
        assert "| Q(x) :- R(x, y)" in text

    def test_report_render_most_severe_first(self):
        report = Report(diagnostics=(
            self._diag(Severity.INFO), self._diag(Severity.ERROR)))
        rendered = report.render()
        assert rendered.index("error[") < rendered.index("info[")
        assert "1 error, 1 info" in rendered

    def test_report_to_dict_is_json_serializable(self):
        report = lint_bundle(BAD_BUNDLE)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["exit_code"] == 2
        assert payload["diagnostics"]


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_codes_are_stable_and_blocked(self):
        for code, rule in RULES.items():
            assert code == rule.code
            assert code.startswith("RC") and len(code) == 5
            assert rule.name and rule.description and rule.reference
            assert isinstance(rule.severity, Severity)
            assert rule.cost in ("cheap", "deep", "flow")

    def test_deep_rules_are_the_np_hard_ones(self):
        deep = {code for code, rule in RULES.items()
                if rule.cost == "deep"}
        assert deep == {"RC005", "RC103"}

    def test_partial_closedness_not_in_decider_pass(self):
        assert RULES["RC201"].decider is False

    def test_package_registry_has_the_flow_rules_in_a_fresh_process(self):
        """The flow module, which registers RC3xx/RC4xx, is imported
        lazily; reading ``RULES`` from the package must still see its
        rules, or ``repro lint`` would silently drop them."""
        import os
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"),
                          os.environ.get("PYTHONPATH")])))
        script = ("from repro.analysis import RULES\n"
                  "print(*sorted(code for code, rule in RULES.items()\n"
                  "              if rule.cost == 'flow'))\n")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        assert done.stdout.split() == ["RC301", "RC302", "RC303", "RC401",
                                       "RC402", "RC403", "RC404"]


# ---------------------------------------------------------------------------
# The crafted bad bundle
# ---------------------------------------------------------------------------


class TestBadBundle:
    def test_triggers_at_least_eight_distinct_codes(self):
        report = lint_bundle(BAD_BUNDLE)
        codes = set(report.codes())
        assert len(codes) >= 8
        assert codes == {"RC000", "RC001", "RC004", "RC005", "RC009",
                         "RC101", "RC102", "RC103", "RC104", "RC201",
                         "RC202", "RC203"}
        assert report.exit_code == 2

    def test_every_diagnostic_carries_a_span(self):
        report = lint_bundle(BAD_BUNDLE)
        for diag in report:
            entry = diag.to_dict()["span"]
            assert entry["source"]
            assert entry["line"] >= 1 and entry["column"] >= 1

    def test_spans_point_into_the_right_constraint_source(self):
        # 'broken' (constraints[3]) fails to parse; the later constraints
        # must still map to their own payload sources, not shifted ones.
        report = lint_bundle(BAD_BUNDLE)
        rc104 = report.by_code("RC104")
        assert [d.span.source for d in rc104] == ["constraints[7]"]
        sources = {d.span.source for d in report.by_code("RC201")}
        assert "constraints[3]" not in sources  # 'broken' never ran

    def test_parse_error_position_and_caret(self):
        report = lint_bundle(BAD_BUNDLE)
        (rc000,) = report.by_code("RC000")
        assert rc000.span.source == "constraints[3]"
        assert rc000.span.line == 1
        assert rc000.span.column == 9
        assert rc000.span.offset == 8
        rendered = rc000.render(report.sources)
        assert "    V(x) :- (" in rendered
        assert "    " + " " * 8 + "^" in rendered

    def test_empty_disjunct_fixit_drops_it(self):
        report = lint_bundle(BAD_BUNDLE)
        (rc004,) = report.by_code("RC004")
        assert rc004.fixit is not None
        assert "R(x, y)" not in rc004.fixit.replacement.splitlines()[0]

    def test_fast_pass_skips_deep_rules(self):
        report = lint_bundle(BAD_BUNDLE, deep=False)
        codes = set(report.codes())
        assert "RC005" not in codes and "RC103" not in codes
        assert "RC101" in codes  # cheap rules still run


# ---------------------------------------------------------------------------
# Decider fast-fail identity
# ---------------------------------------------------------------------------


def _object_level_bad_scenario():
    """The constructible part of BAD_BUNDLE as library objects (the
    unparseable/unsafe/FP constraints cannot exist as objects)."""
    from repro.io.json_io import instance_from_dict, schema_from_dict

    schema = schema_from_dict(BAD_BUNDLE["schema"])
    master_schema = schema_from_dict(BAD_BUNDLE["master_schema"])
    database = instance_from_dict(BAD_BUNDLE["database"], schema)
    master = instance_from_dict(BAD_BUNDLE["master"], master_schema)
    query = parse_query(BAD_BUNDLE["query"]["text"])
    constraints = []
    for entry in BAD_BUNDLE["constraints"]:
        if entry["name"] in ("broken", "unsafe", "recursive"):
            continue
        projection = Projection.on(entry["projection"]["relation"],
                                   entry["projection"]["columns"])
        constraints.append(ContainmentConstraint(
            parse_query(entry["query"]["text"]), projection,
            name=entry["name"]))
    return query, database, master, constraints, schema, master_schema


class TestDeciderIdentity:
    def test_decide_rcdp_rejects_with_lint_codes(self):
        query, database, master, constraints, *_ = (
            _object_level_bad_scenario())
        with pytest.raises(AnalysisError) as excinfo:
            decide_rcdp(query, database, master, constraints)
        report = excinfo.value.report
        assert report is not None
        decider_codes = {d.code for d in report.errors}
        assert decider_codes == {"RC101"}
        lint_codes = {d.code
                      for d in lint_bundle(BAD_BUNDLE).errors}
        assert decider_codes <= lint_codes

    def test_decide_rcqp_rejects_with_same_codes(self):
        query, _, master, constraints, schema, _ = (
            _object_level_bad_scenario())
        with pytest.raises(AnalysisError) as excinfo:
            decide_rcqp(query, master, constraints, schema)
        assert {d.code for d in excinfo.value.report.errors} == {"RC101"}

    def test_audit_rejects_before_any_search(self):
        from repro.mdm.audit import CompletenessAudit

        query, database, master, constraints, schema, _ = (
            _object_level_bad_scenario())
        audit = CompletenessAudit(master=master, constraints=constraints,
                                  schema=schema)
        with pytest.raises(AnalysisError):
            audit.assess(query, database)

    def test_validate_for_decision_passes_clean_scenarios(self):
        x, y = var("x"), var("y")
        query = cq([x], [rel("R", x, y)])
        report = validate_for_decision(query, [], schema=SCHEMA,
                                       master_schema=MASTER_SCHEMA)
        assert not report.has_errors


# ---------------------------------------------------------------------------
# RC003 short-circuit and statistics surfacing
# ---------------------------------------------------------------------------


def _empty_query_scenario():
    x, y = var("x"), var("y")
    query = _contradicted(cq([x], [rel("R", x, y)]))
    database = Instance(SCHEMA, {"R": {(0, 1)}})
    real = ContainmentConstraint(
        cq([x], [rel("R", x, y)], name="real_q"),
        Projection.on("M", [0]), name="real")
    return query, database, [real]


class TestShortCircuitAndStatistics:
    def test_provably_empty_query_short_circuits_to_complete(self):
        query, database, constraints = _empty_query_scenario()
        result = decide_rcdp(query, database, MASTER, constraints)
        assert result.status is RCDPStatus.COMPLETE
        assert "static analysis" in result.explanation
        assert result.statistics.valuations_examined == 0
        # RC003 is warning severity, so the verdict records it.
        assert result.statistics.analysis_warnings >= 1

    def test_missing_answers_short_circuit(self):
        query, database, constraints = _empty_query_scenario()
        report = missing_answers_report(query, database, MASTER,
                                        constraints)
        assert report.answers == frozenset()
        assert report.exhaustive
        assert report.statistics.analysis_warnings >= 1

    def test_make_complete_surfaces_analysis_warnings(self):
        query, database, constraints = _empty_query_scenario()
        outcome = make_complete(query, database, MASTER, constraints)
        assert outcome.complete
        assert outcome.statistics.analysis_warnings >= 1

    def test_warning_counted_once_not_per_round(self):
        # A vacuous constraint yields exactly one analysis warning in
        # the outcome's statistics even across completion rounds.
        x, y = var("x"), var("y")
        query = cq([x], [rel("R", x, y)])
        database = Instance(SCHEMA, {"R": {(0, 1)}})
        vacuous = ContainmentConstraint(
            _contradicted(cq([x], [rel("R", x, y)], name="vac_q")),
            Projection.on("M", [0]), name="vacuous")
        outcome = make_complete(query, database, MASTER, [vacuous])
        assert outcome.statistics.analysis_warnings == 1

    def test_audit_summary_mentions_analysis(self):
        from repro.mdm.audit import CompletenessAudit

        query, database, constraints = _empty_query_scenario()
        audit = CompletenessAudit(master=MASTER, constraints=constraints,
                                  schema=SCHEMA)
        report = audit.assess(query, database)
        assert report.analysis is not None
        assert "analysis:" in report.summary()


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(conjunctive_queries(), instances())
    def test_flagged_empty_query_evaluates_to_empty(self, query,
                                                    instance):
        contradicted = _contradicted(query)
        report = analyze(contradicted, [], schema=SCHEMA, deep=False)
        assert report.facts.query_provably_empty
        assert "RC003" in report.codes()
        assert contradicted.evaluate(instance) == frozenset()

    @settings(max_examples=50, deadline=None)
    @given(conjunctive_queries(allow_inequalities=False), instances())
    def test_minimized_query_is_equivalent(self, query, instance):
        # Pad the body with variable-renamed copies of every relation
        # atom: the copies fold back onto the originals, so the padded
        # query is equivalent to the original and the analyzer should
        # find a smaller core.
        renamed = {}
        copies = []
        head_vars = {t.name for t in query.head if isinstance(t, Var)}
        for atom in query.relation_atoms:
            terms = [Var(t.name + "_c")
                     if isinstance(t, Var) and t.name not in head_vars
                     else t for t in atom.terms]
            copies.append(rel(atom.relation, *terms))
        padded = ConjunctiveQuery(query.head,
                                  tuple(query.body) + tuple(copies),
                                  name=query.name)
        report = analyze(padded, [], schema=SCHEMA, deep=True)
        minimized = report.facts.minimized_query
        if minimized is None:
            # Nothing foldable (the copies were literal duplicates);
            # the padded query must still agree with the original.
            assert padded.evaluate_naive(instance) == (
                query.evaluate_naive(instance))
            return
        assert "RC005" in report.codes()
        assert minimized.evaluate_naive(instance) == (
            query.evaluate_naive(instance))
        # the fixit replacement parses back into an equivalent query
        (rc005, *_rest) = report.by_code("RC005")
        replacement = parse_query(rc005.fixit.replacement)
        assert replacement.evaluate_naive(instance) == (
            query.evaluate_naive(instance))

    @settings(max_examples=25, deadline=None)
    @given(conjunctive_queries(max_atoms=2, allow_inequalities=False),
           instances())
    def test_redundant_constraints_droppable(self, query, instance):
        x, y = var("x"), var("y")
        real = ContainmentConstraint(
            cq([x], [rel("R", x, y)], name="real_q"),
            Projection.on("M", [0]), name="real")
        vacuous = ContainmentConstraint(
            _contradicted(cq([x], [rel("R", x, y)], name="vac_q")),
            Projection.on("M", [0]), name="vacuous")
        narrow = ContainmentConstraint(
            cq([x], [rel("R", x, Const(0))], name="nar_q"),
            Projection.on("M", [0]), name="narrow")
        constraints = [real, vacuous, narrow]
        report = analyze(query, constraints, schema=SCHEMA,
                         master_schema=MASTER_SCHEMA, database=instance,
                         master=MASTER, deep=True)
        redundant = set(report.facts.redundant_constraints)
        assert {"vacuous", "narrow"} <= redundant
        pruned = [c for c in constraints if c.name not in redundant]
        full = decide_rcdp(query, instance, MASTER, constraints)
        slim = decide_rcdp(query, instance, MASTER, pruned)
        assert full.status is slim.status


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLintCLI:
    def test_shipped_example_bundles_are_clean(self, capsys):
        bundles = sorted(str(p)
                         for p in (EXAMPLES / "bundles").glob("*.json"))
        assert bundles, "examples/bundles/ should ship lint-clean bundles"
        assert main(["lint", *bundles]) == 0
        out = capsys.readouterr().out
        assert "error[" not in out and "warning[" not in out

    def test_bad_bundle_exits_two_with_caret(self, tmp_path, capsys):
        path = _write_bad_bundle(tmp_path)
        assert main(["lint", path]) == 2
        out = capsys.readouterr().out
        assert "error[RC101]" in out
        assert "^" in out

    def test_json_format_single_bundle(self, tmp_path, capsys):
        path = _write_bad_bundle(tmp_path)
        assert main(["lint", "--format", "json", path]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["bundle"] == path
        assert payload["exit_code"] == 2
        codes = {d["code"] for d in payload["diagnostics"]}
        assert len(codes) >= 8
        assert all(d["span"]["source"] for d in payload["diagnostics"])

    def test_json_format_multiple_bundles_is_a_list(self, tmp_path,
                                                    capsys):
        bad = _write_bad_bundle(tmp_path)
        clean = str(EXAMPLES / "bundles" / "crm_q0_area_code.json")
        assert main(["lint", "--format", "json", clean, bad]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2
        assert payload[0]["exit_code"] == 0
        assert payload[1]["exit_code"] == 2

    def test_fast_flag_skips_deep_rules(self, tmp_path, capsys):
        path = _write_bad_bundle(tmp_path)
        assert main(["lint", "--fast", path]) == 2
        out = capsys.readouterr().out
        assert "RC005" not in out and "RC103" not in out

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["lint", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rcdp_renders_analysis_report_on_rejection(self, tmp_path,
                                                       capsys):
        # The decider path prints the same diagnostics lint would.
        bundle = dict(BAD_BUNDLE)
        bundle["constraints"] = [
            entry for entry in BAD_BUNDLE["constraints"]
            if entry["name"] in ("badschema", "broad")]
        path = tmp_path / "reject.json"
        path.write_text(json.dumps(bundle))
        assert main(["rcdp", str(path)]) == 2
        err = capsys.readouterr().err
        assert "static analysis rejected" in err
        assert "RC101" in err


# ---------------------------------------------------------------------------
# Parser offsets (satellite 1)
# ---------------------------------------------------------------------------


class TestParserOffsets:
    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_query("Q(x) :- (")
        error = excinfo.value
        assert error.line == 1
        assert error.column == 9
        assert error.offset == 8

    def test_multiline_parse_error_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_query("Q(x) :- R(x, y)\nQ(x) :- R(x,")
        assert excinfo.value.line == 2
