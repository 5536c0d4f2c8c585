"""The analyzer driver: run the rule registry over one scenario.

Two entry points:

* :func:`analyze` — object-level analysis over already-constructed
  queries/constraints/instances.  This is what the deciders call
  (``deep=False, decider_only=True`` — cheap rules only) and what the
  :class:`~repro.mdm.audit.CompletenessAudit` and lint CLI call in full.
* :func:`lint_bundle` / :func:`lint_path` — text-level analysis over a
  JSON bundle (the :mod:`repro.io.json_io` wire format).  Query and
  constraint texts are parsed with span tracking so diagnostics carry
  exact source positions, and parse/construction failures become
  diagnostics (``RC000``/``RC001``) instead of exceptions.

:func:`validate_for_decision` wraps the decider pass: analysis *errors*
raise :class:`~repro.errors.AnalysisError` carrying the report; warnings
are left to the caller to fold into statistics.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.diagnostics import Diagnostic, Report, Severity, Span
from repro.analysis.rules import RULES, RuleContext, _diag
from repro.errors import (AnalysisError, ParseError, QueryError,
                          ReproError)
from repro.queries.parser import (parse_query_spanned, parse_rules_spanned)

__all__ = ["analyze", "validate_for_decision", "lint_bundle", "lint_path"]


def _run_rules(ctx: RuleContext, *, deep: bool,
               decider_only: bool, flow: bool = False) -> list[Diagnostic]:
    if flow:
        # Importing the flow module registers the RC3xx/RC4xx
        # whole-scenario rules (cost="flow"); the deciders' pass never
        # runs them, so it never imports the module.
        import repro.analysis.flow  # noqa: F401
    diagnostics: list[Diagnostic] = []
    for code in sorted(RULES):
        rule = RULES[code]
        if rule.cost == "deep" and not deep:
            continue
        if rule.cost == "flow" and not flow:
            continue
        if decider_only and not rule.decider:
            continue
        diagnostics.extend(rule.check(ctx))
    return diagnostics


def analyze(query: Any = None, constraints: Any = (), *,
            schema: Any = None, master_schema: Any = None,
            database: Any = None, master: Any = None,
            deep: bool = True, decider_only: bool = False,
            flow: bool = False,
            sources: Mapping[str, str] | None = None,
            spans: Mapping[str, list] | None = None,
            raw_rules: Mapping[str, list] | None = None,
            parse_failures: Mapping[str, ParseError] | None = None,
            constraint_sources: list[str] | None = None,
            ) -> Report:
    """Run the registered rules over one scenario and collect a
    :class:`~repro.analysis.diagnostics.Report`.

    ``deep=False`` skips the NP-hard minimization/containment rules
    (``RC005``, ``RC103``); ``flow=True`` adds the whole-scenario
    interaction/cost pass (``RC3xx``/``RC4xx``,
    :mod:`repro.analysis.flow`); ``decider_only=True`` additionally
    skips rules the deciders already enforce with dedicated exceptions
    (``RC201`` partial closedness) — flow rules all carry
    ``decider=False``, so the deciders' fast-fail pass never runs them
    and decider statistics are identical with the pass on or off.
    Schemas default to the instances' own schemas when instances are
    given.
    """
    if schema is None and database is not None:
        schema = database.schema
    if master_schema is None and master is not None:
        master_schema = master.schema
    ctx = RuleContext(query=query, constraints=tuple(constraints),
                      schema=schema, master_schema=master_schema,
                      database=database, master=master,
                      sources=dict(sources or {}),
                      spans=dict(spans or {}),
                      raw_rules=dict(raw_rules or {}),
                      parse_failures=dict(parse_failures or {}),
                      constraint_sources=list(constraint_sources or []),
                      deep=deep)
    diagnostics = _run_rules(ctx, deep=deep, decider_only=decider_only,
                             flow=flow)
    return Report(diagnostics=tuple(diagnostics), facts=ctx.facts(),
                  sources=dict(ctx.sources))


def validate_for_decision(query: Any, constraints: Any, *,
                          schema: Any = None, master_schema: Any = None,
                          database: Any = None, master: Any = None,
                          ) -> Report:
    """The deciders' fast-fail pass: cheap rules only, raise
    :class:`AnalysisError` when any *error*-severity rule fires.

    The raised error carries the full report on ``.report`` so callers
    (and tests) can inspect exactly which codes fired.
    """
    report = analyze(query, constraints, schema=schema,
                     master_schema=master_schema, database=database,
                     master=master, deep=False, decider_only=True)
    if report.has_errors:
        first = report.errors[0]
        raise AnalysisError(
            f"static analysis rejected the configuration with "
            f"{len(report.errors)} error(s); first: [{first.code}] "
            f"{first.message}", report=report)
    return report


# ---------------------------------------------------------------------------
# Text-level analysis (lint over JSON bundles)
# ---------------------------------------------------------------------------


def _parse_spanned(source: str, data: Mapping[str, Any],
                   state: dict) -> Any:
    """Parse one query payload with span tracking; record text, spans,
    raw rules, and failures under *source* in *state*.  Returns the
    constructed query or ``None`` (a diagnostic will explain why)."""
    text = data.get("text", "")
    language = data.get("language", "CQ")
    state["sources"][source] = text
    try:
        rules, rule_spans = parse_rules_spanned(text)
    except ParseError as exc:
        state["parse_failures"][source] = exc
        return None
    state["spans"][source] = rule_spans
    state["raw_rules"][source] = rules
    try:
        if language == "FP":
            from repro.queries.datalog import DatalogQuery, Rule

            return DatalogQuery([Rule(head, body) for head, body in rules],
                                goal=data["goal"])
        query, _ = parse_query_spanned(text)
        return query
    except ParseError as exc:
        state["parse_failures"][source] = exc
        return None
    except ReproError as exc:
        # Construction failed (unsafe rule, mixed arities, bad goal…).
        # RC001 re-derives unsafe variables with precise spans; anything
        # it cannot explain gets a fallback diagnostic below.
        state["construction_errors"][source] = exc
        return None


def lint_bundle(payload: Mapping[str, Any], *, deep: bool = True,
                flow: bool = True) -> Report:
    """Analyze a JSON bundle payload (the :func:`repro.io.json_io.
    dump_bundle` wire format) with source-span tracking.

    The whole-scenario flow pass (``RC3xx``/``RC4xx``) is on by default
    here — ``repro lint`` is the surface those rules were built for;
    pass ``flow=False`` to restrict to the per-object rules."""
    from repro.constraints.containment import (ContainmentConstraint,
                                               Projection)
    from repro.io.json_io import instance_from_dict, schema_from_dict

    state: dict[str, dict] = {"sources": {}, "spans": {},
                              "raw_rules": {}, "parse_failures": {},
                              "construction_errors": {}}
    schema = schema_from_dict(payload["schema"])
    master_schema = schema_from_dict(payload["master_schema"])
    database = (instance_from_dict(payload["database"], schema)
                if "database" in payload else None)
    master = (instance_from_dict(payload["master"], master_schema)
              if "master" in payload else None)
    query = (_parse_spanned("query", payload["query"], state)
             if "query" in payload else None)
    constraints = []
    constraint_sources = []
    for index, entry in enumerate(payload.get("constraints", ())):
        source = f"constraints[{index}]"
        constraint_query = _parse_spanned(source, entry["query"], state)
        if constraint_query is None:
            continue
        projection_data = entry["projection"]
        if projection_data["relation"] is None:
            projection = Projection.empty()
        else:
            projection = Projection.on(projection_data["relation"],
                                       projection_data["columns"])
        constraints.append(ContainmentConstraint(
            constraint_query, projection,
            name=entry.get("name", f"φ{index}")))
        constraint_sources.append(source)
    report = analyze(query, constraints, schema=schema,
                     master_schema=master_schema, database=database,
                     master=master, deep=deep, flow=flow,
                     sources=state["sources"], spans=state["spans"],
                     raw_rules=state["raw_rules"],
                     parse_failures=state["parse_failures"],
                     constraint_sources=constraint_sources)
    # Fallback: a construction failure RC001 could not explain still has
    # to surface as an error, or a broken bundle would lint clean.
    extra = []
    for source, error in sorted(state["construction_errors"].items()):
        if any(d.span.source == source
               and d.severity is Severity.ERROR for d in report):
            continue
        extra.append(_diag("RC001", str(error),
                           Span(source=source,
                                length=len(state["sources"][source]
                                           .splitlines()[0])
                                if state["sources"][source] else 0)))
    if extra:
        report = Report(diagnostics=report.diagnostics + tuple(extra),
                        facts=report.facts, sources=report.sources)
    return report


def _prefix_report(report: Report, prefix: str) -> Report:
    """Re-key a report's sources and spans under ``prefix:source``."""
    from dataclasses import replace

    diagnostics = tuple(
        replace(d, span=replace(d.span, source=f"{prefix}:{d.span.source}"))
        for d in report.diagnostics)
    sources = {f"{prefix}:{key}": text
               for key, text in report.sources.items()}
    return Report(diagnostics=diagnostics, facts=report.facts,
                  sources=sources)


def lint_path(path: str, *, deep: bool = True, flow: bool = True) -> Report:
    """Lint a bundle JSON file — or a directory of ``*.json`` bundles.

    A directory is linted file by file in sorted name order and merged
    into one report whose diagnostic sources are prefixed with the file
    name (``bundle.json:query``), so the aggregate exit code is the
    worst severity across the directory and deterministic for any
    listing order the OS returns.  Sidecar JSON files that are not
    bundles (no ``schema`` key — e.g. a corpus ``manifest.json`` or a
    saved run report) are skipped in directory mode; linting such a
    file directly still fails.  The merged report's facts are the
    default (facts are per-scenario; consumers that need them should
    lint files individually).
    """
    import json
    import os

    if os.path.isdir(path):
        merged: list[Diagnostic] = []
        sources: dict[str, str] = {}
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if not name.endswith(".json") or not os.path.isfile(full):
                continue
            try:
                with open(full, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                # Unreadable/corrupt files go through the file path
                # below so they still raise the usual QueryError.
                payload = {"schema": None}
            if not isinstance(payload, dict) or "schema" not in payload:
                continue
            report = _prefix_report(
                lint_path(full, deep=deep, flow=flow), name)
            merged.extend(report.diagnostics)
            sources.update(report.sources)
        return Report(diagnostics=tuple(merged), sources=sources)
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise QueryError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "schema" not in payload:
        raise QueryError(f"{path} is not a scenario bundle "
                         f"(no 'schema' block)")
    return lint_bundle(payload, deep=deep, flow=flow)
