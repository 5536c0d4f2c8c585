"""Static analysis over queries, constraints, and scenarios.

The analyzer (``repro lint``) runs a registry of rules with stable codes
over an RCDP/RCQP scenario and reports :class:`Diagnostic` findings with
source spans and fix-its, plus machine-consumable :class:`AnalysisFacts`
(provably-empty queries, minimized bodies, droppable constraints, chase
classification, cost estimates) that the deciders and the evaluation
engine act on.

* :mod:`repro.analysis.diagnostics` — Severity/Span/Fixit/Diagnostic/
  Report vocabulary;
* :mod:`repro.analysis.rules` — the rule registry (``RC0xx`` query,
  ``RC1xx`` constraint, ``RC2xx`` scenario rules);
* :mod:`repro.analysis.flow` — the whole-scenario flow pass (``RC3xx``
  interaction rules, ``RC4xx`` cost rules);
* :mod:`repro.analysis.interaction` — constraint-interaction graphs and
  chase-termination classification;
* :mod:`repro.analysis.cost` — the static cost model (interval domain
  over compiled plans, the ``|Adom|^k`` valuation-space formula);
* :mod:`repro.analysis.planlint` — plan-shape findings over compiled
  plans;
* :mod:`repro.analysis.driver` — :func:`analyze` /
  :func:`validate_for_decision` / :func:`lint_bundle` entry points;
* :mod:`repro.analysis.boundedness` — the E3/E4 boundedness analysis
  (also exposed as rule ``RC202``).
"""

from typing import TYPE_CHECKING, Any

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.boundedness import (BoundednessReport, VariableReport,
                                            VariableStatus,
                                            analyze_boundedness)
    from repro.analysis.cost import (CostEstimate, DisjunctCost, Interval,
                                     PlanEstimate, StepEstimate,
                                     estimate_decision, estimate_plan,
                                     suggested_budget)
    from repro.analysis.diagnostics import (AnalysisFacts, Diagnostic, Fixit,
                                            Report, Severity, Span)
    from repro.analysis.driver import (analyze, lint_bundle, lint_path,
                                       validate_for_decision)
    from repro.analysis.interaction import (ChaseClass, InteractionEdge,
                                            InteractionGraph,
                                            build_interaction_graph,
                                            drop_inapplicable,
                                            forced_empty_relations,
                                            inapplicable_constraints)
    from repro.analysis.planlint import PlanFinding, lint_plan
    from repro.analysis.rules import RULES, LintRule, RuleContext, lint_rule

__all__ = [
    "Severity", "Span", "Fixit", "Diagnostic", "AnalysisFacts", "Report",
    "LintRule", "RuleContext", "RULES", "lint_rule",
    "analyze", "validate_for_decision", "lint_bundle", "lint_path",
    "VariableStatus", "VariableReport", "BoundednessReport",
    "analyze_boundedness",
    "ChaseClass", "InteractionEdge", "InteractionGraph",
    "build_interaction_graph", "forced_empty_relations",
    "inapplicable_constraints", "drop_inapplicable",
    "Interval", "DisjunctCost", "StepEstimate", "PlanEstimate",
    "CostEstimate", "estimate_decision", "estimate_plan",
    "suggested_budget",
    "PlanFinding", "lint_plan",
]

_resolve, __dir__ = _lazy_exports(globals(), {
    "repro.analysis.boundedness": ("BoundednessReport", "VariableReport",
                                   "VariableStatus", "analyze_boundedness"),
    "repro.analysis.cost": ("CostEstimate", "DisjunctCost", "Interval",
                            "PlanEstimate", "StepEstimate",
                            "estimate_decision", "estimate_plan",
                            "suggested_budget"),
    "repro.analysis.diagnostics": ("AnalysisFacts", "Diagnostic", "Fixit",
                                   "Report", "Severity", "Span"),
    "repro.analysis.driver": ("analyze", "lint_bundle", "lint_path",
                              "validate_for_decision"),
    "repro.analysis.interaction": ("ChaseClass", "InteractionEdge",
                                   "InteractionGraph",
                                   "build_interaction_graph",
                                   "drop_inapplicable",
                                   "forced_empty_relations",
                                   "inapplicable_constraints"),
    "repro.analysis.planlint": ("PlanFinding", "lint_plan"),
    "repro.analysis.rules": ("RULES", "LintRule", "RuleContext", "lint_rule"),
})


def __getattr__(name: str) -> Any:
    if name == "RULES":
        # The registry holds the RC3xx/RC4xx rules only once the flow
        # module has registered them, which importing it does.
        import repro.analysis.flow  # noqa: F401
    return _resolve(name)
