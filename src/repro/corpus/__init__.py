"""Scenario corpus: seeded generation, differential runs, reporting.

The corpus is the repository's standing acceptance harness: a seeded,
deterministic sweep over domain families × language tiers × constraint
classes × sizes × target verdicts, every scenario oracle-verified at
generation time and re-decided across the full backend × worker matrix
by the runner.  See ``docs/CORPUS.md``.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.diversity import (DiversityReport, check_diversity,
                                        ensure_diverse)
    from repro.corpus.generate import (BuiltScenario, build_scenario,
                                       generate_corpus)
    from repro.corpus.report import build_report, check_report, render_report
    from repro.corpus.runner import (CellOutcome, CorpusRunResult,
                                     ScenarioOutcome, run_corpus)
    from repro.corpus.spec import (CONSTRAINT_CLASSES, FAMILIES,
                                   GENERATOR_VERSION, SIZES, TARGETS, TIERS,
                                   ScenarioSpec, scenario_rng, spec_for)

__all__ = [
    "BuiltScenario",
    "CONSTRAINT_CLASSES",
    "CellOutcome",
    "CorpusRunResult",
    "DiversityReport",
    "FAMILIES",
    "GENERATOR_VERSION",
    "SIZES",
    "ScenarioOutcome",
    "ScenarioSpec",
    "TARGETS",
    "TIERS",
    "build_report",
    "build_scenario",
    "check_diversity",
    "check_report",
    "ensure_diverse",
    "generate_corpus",
    "render_report",
    "run_corpus",
    "scenario_rng",
    "spec_for",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.corpus.diversity": ("DiversityReport", "check_diversity",
                               "ensure_diverse"),
    "repro.corpus.generate": ("BuiltScenario", "build_scenario",
                              "generate_corpus"),
    "repro.corpus.report": ("build_report", "check_report", "render_report"),
    "repro.corpus.runner": ("CellOutcome", "CorpusRunResult",
                            "ScenarioOutcome", "run_corpus"),
    "repro.corpus.spec": ("CONSTRAINT_CLASSES", "FAMILIES",
                          "GENERATOR_VERSION", "SIZES", "TARGETS", "TIERS",
                          "ScenarioSpec", "scenario_rng", "spec_for"),
})
