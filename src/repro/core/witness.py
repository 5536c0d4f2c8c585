"""Witness construction and data-collection guidance (Section 2.3).

The characterizations are constructive: an INCOMPLETE verdict comes with a
certificate extension, and repeatedly *applying* certificates drives a
database toward relative completeness.  :func:`make_complete` implements
that loop — it is the executable form of the paper's paradigm (2), "guidance
for what data should be collected in a database".

The loop need not terminate in general (the query may not be relatively
complete at all — paradigm (3) then says the *master data* must grow), so it
is bounded by ``max_rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.diagnostics import Report
from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all)
from repro.core.rcdp import decide_rcdp, resolve_analysis, resolve_context
from repro.core.results import RCDPResult, RCDPStatus, SearchStatistics
from repro.engine import EvaluationContext
from repro.errors import ExecutionInterrupted, ReproError
from repro.obs import obs_of, obs_span, traced
from repro.relational.instance import Instance, extend_unvalidated
from repro.runtime import ExecutionGovernor, validate_exhaustion_mode

__all__ = ["CompletionOutcome", "make_complete", "minimize_witness"]


@dataclass(frozen=True)
class CompletionOutcome:
    """Result of :func:`make_complete`.

    Attributes
    ----------
    database:
        The final database (the input extended with all applied
        certificates).
    complete:
        True when the final database is relatively complete for the query.
    rounds:
        Number of certificates applied.
    added_facts:
        All facts added across rounds, in application order.
    """

    database: Instance
    complete: bool
    rounds: int
    added_facts: tuple[tuple[str, tuple], ...]
    #: Set when a governed run was interrupted mid-completion
    #: (``"budget"``, ``"deadline"``, or ``"cancelled"``); the partially
    #: completed database and the facts applied so far are preserved.
    interrupted: str | None = None
    #: Search counters accumulated across all completion rounds; in
    #: particular ``analysis_warnings`` carries the static analyzer's
    #: warning count for the scenario (the pass runs once up front).
    statistics: SearchStatistics = SearchStatistics()

    def __repr__(self) -> str:
        state = "complete" if self.complete else "still incomplete"
        if self.interrupted:
            state += f", interrupted: {self.interrupted}"
        return (f"CompletionOutcome[{state} after {self.rounds} round(s), "
                f"{len(self.added_facts)} fact(s) added]")


@traced("make_complete")
def make_complete(query: Any, database: Instance, master: Instance,
                  constraints: Sequence[ContainmentConstraint],
                  *, max_rounds: int = 32,
                  governor: ExecutionGovernor | None = None,
                  on_exhausted: str = "partial",
                  context: EvaluationContext | None = None,
                  backend: str | None = None,
                  analyze: bool = True,
                  analysis: Report | None = None,
                  workers: int | None = 1,
                  ) -> CompletionOutcome:
    """Repeatedly apply incompleteness certificates until the database is
    complete for *query* relative to ``(master, constraints)`` or
    *max_rounds* certificates have been applied.

    Each round asks the exact RCDP decider for a counterexample extension
    and merges it into the database.  Certificates built over the active
    domain may contain fresh placeholder values — in a real deployment these
    mark *which* records are missing (e.g. "a domestic customer with this
    id"); here they make the final database a genuine member of
    ``RCQ(Q, Dm, V)`` whenever the loop converges.

    A *governor* bounds the whole loop (all rounds charge the same
    budget).  When it trips, ``on_exhausted="partial"`` (default) returns
    the partially completed database with ``interrupted`` set — the facts
    already collected remain valid guidance — while ``"error"``
    propagates the governor's exception.

    The static analyzer's decider pass runs *once* up front (unless
    *analyze* is False or a precomputed *analysis* report is supplied)
    and is shared by every round's RCDP decision; its warning count is
    reported once in ``outcome.statistics.analysis_warnings``.
    """
    from dataclasses import replace

    validate_exhaustion_mode(on_exhausted)
    obs = obs_of(governor)
    context = resolve_context(context, backend)
    analysis = resolve_analysis(query, constraints, database, master,
                                analysis, analyze, obs)
    analysis_stats = SearchStatistics(
        analysis_warnings=len(analysis.warnings)
        if analysis is not None else 0)
    totals = SearchStatistics()

    def _merge(verdict_stats: SearchStatistics) -> None:
        # The shared report's warnings would be recounted every round;
        # they are added exactly once via analysis_stats instead.
        nonlocal totals
        totals = totals.merged(replace(verdict_stats,
                                       analysis_warnings=0))

    current = database
    added: list[tuple[str, tuple]] = []
    rounds_done = 0
    try:
        for round_index in range(max_rounds):
            rounds_done = round_index
            verdict: RCDPResult = decide_rcdp(
                query, current, master, constraints,
                check_partially_closed=(round_index == 0),
                governor=governor, context=context, analysis=analysis,
                analyze=False, workers=workers)
            _merge(verdict.statistics)
            if verdict.status is RCDPStatus.COMPLETE:
                return CompletionOutcome(
                    database=current, complete=True, rounds=round_index,
                    added_facts=tuple(added),
                    statistics=totals.merged(analysis_stats))
            certificate = verdict.certificate
            assert certificate is not None
            new_facts = [
                fact for fact in certificate.extension_facts
                if fact[1] not in current.relation(fact[0])]
            if not new_facts:  # pragma: no cover - certificate always adds
                break
            added.extend(new_facts)
            current = extend_unvalidated(current, new_facts)
        verdict = decide_rcdp(query, current, master, constraints,
                              check_partially_closed=False,
                              governor=governor, context=context,
                              analysis=analysis, analyze=False,
                              workers=workers)
        _merge(verdict.statistics)
    except ExecutionInterrupted as interrupt:
        if on_exhausted == "error":
            raise
        return CompletionOutcome(
            database=current, complete=False, rounds=rounds_done,
            added_facts=tuple(added), interrupted=interrupt.reason,
            statistics=totals.merged(analysis_stats))
    return CompletionOutcome(
        database=current,
        complete=verdict.status is RCDPStatus.COMPLETE,
        rounds=max_rounds,
        added_facts=tuple(added),
        statistics=totals.merged(analysis_stats))


def minimize_witness(query: Any, database: Instance, master: Instance,
                     constraints: Sequence[ContainmentConstraint],
                     *, context: EvaluationContext | None = None,
                     backend: str | None = None,
                     governor: ExecutionGovernor | None = None) -> Instance:
    """Shrink a relatively complete database while keeping it complete.

    RCQP witnesses (and completion results) can contain more facts than
    necessary; this greedily drops facts whose removal preserves both
    partial closure and relative completeness.  The result is *minimal*
    (no single fact can be removed) but not necessarily minimum.

    Raises :class:`~repro.errors.ReproError` if *database* is not
    relatively complete to begin with.
    """
    context = resolve_context(context, backend)
    obs = obs_of(governor)
    analysis = resolve_analysis(query, constraints, database, master,
                                None, True, obs)
    verdict = decide_rcdp(query, database, master, constraints,
                          context=context, analysis=analysis,
                          analyze=False, governor=governor)
    if verdict.status is not RCDPStatus.COMPLETE:
        raise ReproError(
            "minimize_witness requires a relatively complete database")
    current = database
    changed = True
    with obs_span(obs, "witness_minimize"):
        while changed:
            changed = False
            for name, row in sorted(current.facts(), key=repr):
                contents = {rel_name: set(rows)
                            for rel_name, rows in current}
                contents[name] = contents[name] - {row}
                candidate = Instance(current.schema, contents,
                                     validate=False)
                if not satisfies_all(candidate, master, constraints,
                                     context=context):
                    continue
                shrunk = decide_rcdp(query, candidate, master, constraints,
                                     check_partially_closed=False,
                                     context=context, analysis=analysis,
                                     analyze=False, governor=governor)
                if shrunk.status is RCDPStatus.COMPLETE:
                    current = candidate
                    changed = True
                    break
    return current
