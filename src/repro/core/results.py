"""Result types of the RCDP / RCQP decision procedures.

Every verdict is explicit about its strength:

* :class:`RCDPStatus.COMPLETE` / :class:`RCQPStatus.NONEMPTY` etc. are exact
  answers from the characterization-based deciders;
* the ``*_UP_TO_BOUND`` statuses come from the bounded semi-decision
  procedures (the only ones available for FO/FP, where the problems are
  undecidable) and make no claim beyond the explored bound;
* the ``EXHAUSTED`` statuses come from the execution governor
  (:mod:`repro.runtime`): the search was interrupted by a budget,
  deadline, cancellation, or injected fault before reaching a verdict.
  Such results carry best-so-far statistics and a resumable
  :class:`~repro.runtime.checkpoint.SearchCheckpoint` — the paid-for
  Πᵖ₂/NEXPTIME work is never thrown away.

INCOMPLETE verdicts carry a *certificate*: a concrete set of facts whose
addition is consistent with the containment constraints yet changes the
query answer.  This doubles as the paper's Section 2.3 guidance for what
data to collect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.relational.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runtime.checkpoint import SearchCheckpoint

__all__ = [
    "RCDPStatus", "RCQPStatus", "IncompletenessCertificate", "RCDPResult",
    "RCQPResult", "SearchStatistics", "MissingAnswersReport",
]

Fact = tuple[str, tuple]


class RCDPStatus(enum.Enum):
    """Verdicts for the relatively complete database problem."""

    COMPLETE = "complete"
    INCOMPLETE = "incomplete"
    #: Bounded procedure found no counterexample within the bound.
    COMPLETE_UP_TO_BOUND = "complete-up-to-bound"
    #: The governed search was interrupted before reaching a verdict;
    #: the result carries statistics and a resumable checkpoint.
    EXHAUSTED = "exhausted"


class RCQPStatus(enum.Enum):
    """Verdicts for the relatively complete query problem."""

    NONEMPTY = "nonempty"
    EMPTY = "empty"
    #: Bounded search found no witness within the bound.
    EMPTY_UP_TO_BOUND = "empty-up-to-bound"
    #: The governed search was interrupted before reaching a verdict.
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class IncompletenessCertificate:
    """Evidence that ``D`` is not complete for ``Q`` relative to ``(Dm, V)``.

    Attributes
    ----------
    extension_facts:
        Facts ``Δ`` such that ``(D ∪ Δ, Dm) ⊨ V`` yet
        ``Q(D ∪ Δ) ≠ Q(D)``.
    new_answer:
        A tuple in ``Q(D ∪ Δ) \\ Q(D)``.
    disjunct_name:
        Which CQ disjunct of ``Q`` produced the witness.
    """

    extension_facts: tuple[Fact, ...]
    new_answer: tuple
    disjunct_name: str = ""

    def apply_to(self, database: Instance) -> Instance:
        """Return ``D ∪ Δ``."""
        return database.with_facts(self.extension_facts)

    def __repr__(self) -> str:
        facts = ", ".join(f"{name}{row!r}"
                          for name, row in self.extension_facts)
        return (f"Certificate[add {{{facts}}} ⇒ new answer "
                f"{self.new_answer!r}]")


@dataclass(frozen=True)
class SearchStatistics:
    """Counters the deciders expose for the benchmark harness.

    All counters default to 0, so procedures only populate the ones they
    track.  :meth:`merged` sums two snapshots — resumed searches use it
    to report cumulative totals across interruptions.
    """

    #: Valid valuations the valuation searches decided, whether one by
    #: one or in a block (a group of valuations whose summary the search
    #: already knew, :meth:`repro.core.search.SearchRun.decide`); each is
    #: one ``valuations`` governor tick.
    valuations_examined: int = 0
    constraint_checks: int = 0
    candidate_sets_examined: int = 0
    #: Partial valuations enumerated by the RCQP E2/E6 unit phase.
    units_examined: int = 0
    #: Search nodes explored by the auxiliary solvers (DPLL branches,
    #: tiling placements, 2-head DFA words, QBF expansions).
    nodes_examined: int = 0
    #: Evaluation-engine counters (:mod:`repro.engine`): query plans
    #: compiled, hash indexes built, answer/projection cache hits, and
    #: how many ``Q(D ∪ Δ)`` evaluations ran on the semi-naive delta
    #: path versus a full (re-)evaluation.
    plans_compiled: int = 0
    index_builds: int = 0
    engine_cache_hits: int = 0
    delta_evaluations: int = 0
    full_evaluations: int = 0
    #: Warning-severity diagnostics the static analyzer
    #: (:mod:`repro.analysis`) reported during the decider's fast-fail
    #: pass (error diagnostics raise instead of being counted).
    analysis_warnings: int = 0

    def merged(self, other: "SearchStatistics") -> "SearchStatistics":
        """Field-wise sum of two statistics snapshots."""
        return SearchStatistics(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})


@dataclass(frozen=True)
class RCDPResult:
    """Outcome of an RCDP decision."""

    status: RCDPStatus
    certificate: IncompletenessCertificate | None = None
    explanation: str = ""
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    #: For bounded procedures: the explored extension-size bound.
    bound: int | None = None
    #: For EXHAUSTED results: the resumable search frontier.
    checkpoint: "SearchCheckpoint | None" = None
    #: For EXHAUSTED results: what stopped the search
    #: (``"budget"``, ``"deadline"``, or ``"cancelled"``).
    interrupted: str | None = None

    @property
    def is_complete(self) -> bool:
        """True only for an exact COMPLETE verdict."""
        return self.status is RCDPStatus.COMPLETE

    @property
    def is_incomplete(self) -> bool:
        return self.status is RCDPStatus.INCOMPLETE

    @property
    def is_exhausted(self) -> bool:
        """True when the governed search was interrupted mid-decision."""
        return self.status is RCDPStatus.EXHAUSTED

    def __bool__(self) -> bool:
        # Deliberately undefined truthiness: force callers to test the
        # status explicitly rather than accidentally treating
        # COMPLETE_UP_TO_BOUND as COMPLETE.
        raise TypeError(
            "RCDPResult has no truth value; inspect .status instead")


@dataclass(frozen=True)
class RCQPResult:
    """Outcome of an RCQP decision."""

    status: RCQPStatus
    witness: Instance | None = None
    explanation: str = ""
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    bound: int | None = None
    #: For EXHAUSTED results: the resumable search frontier.
    checkpoint: "SearchCheckpoint | None" = None
    #: For EXHAUSTED results: what stopped the search.
    interrupted: str | None = None

    @property
    def is_nonempty(self) -> bool:
        return self.status is RCQPStatus.NONEMPTY

    @property
    def is_empty(self) -> bool:
        """True only for an exact EMPTY verdict."""
        return self.status is RCQPStatus.EMPTY

    @property
    def is_exhausted(self) -> bool:
        """True when the governed search was interrupted mid-decision."""
        return self.status is RCQPStatus.EXHAUSTED

    def __bool__(self) -> bool:
        raise TypeError(
            "RCQPResult has no truth value; inspect .status instead")


@dataclass(frozen=True)
class MissingAnswersReport:
    """Outcome of a governed missing-answer enumeration.

    ``answers`` is the full missing-answer set when ``exhaustive`` is
    True; otherwise (a ``limit`` was hit or the governor interrupted the
    search) it is a *lower bound* — every member is genuinely attainable,
    but more may exist.  Interrupted enumerations carry a resumable
    checkpoint whose payload preserves the answers found so far.
    """

    answers: frozenset[tuple]
    exhaustive: bool
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    checkpoint: "SearchCheckpoint | None" = None
    interrupted: str | None = None

    def __repr__(self) -> str:
        kind = "all" if self.exhaustive else "≥"
        return (f"MissingAnswers[{kind} {len(self.answers)} answer(s)"
                f"{', interrupted: ' + self.interrupted if self.interrupted else ''}]")
