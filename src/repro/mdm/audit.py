"""The Section 2.3 audit paradigms, as a workflow object.

Given master data, containment constraints, a database, and a query, an
:class:`CompletenessAudit` runs the three analyses the paper describes:

1. **Assess the data** (RCDP): can the query answer be trusted?
2. **Guide data collection** (RCQP + certificates): if not, can the
   database be expanded into a complete one, and with what records?
3. **Guide master-data expansion**: if no complete database exists, the
   master data itself must grow — the audit names the unbounded output
   attributes as the expansion targets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.boundedness import (BoundednessReport,
                                        analyze_boundedness)
from repro.analysis.diagnostics import Report
from repro.constraints.containment import ContainmentConstraint
from repro.core.rcdp import decide_rcdp, resolve_analysis
from repro.core.rcqp import decide_rcqp
from repro.core.results import (RCDPResult, RCDPStatus, RCQPResult,
                                RCQPStatus)
from repro.core.witness import CompletionOutcome, make_complete
from repro.engine import EvaluationContext
from repro.obs import obs_of, obs_span
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema
from repro.runtime import ExecutionGovernor, validate_exhaustion_mode

__all__ = ["AuditVerdict", "AuditReport", "CompletenessAudit"]


class AuditVerdict(enum.Enum):
    """Top-level outcome of an audit, following §2.3."""

    #: The answer in the current database is complete — trust it.
    TRUSTWORTHY = "trustworthy"
    #: Incomplete, but a complete database exists: collect more data.
    COLLECT_DATA = "collect-data"
    #: No complete database exists: the master data must be expanded.
    EXPAND_MASTER_DATA = "expand-master-data"
    #: Incomplete; the bounded RCQP search found no witness, so the
    #: recommendation is heuristic.
    COLLECT_DATA_OR_EXPAND = "collect-data-or-expand"
    #: A governed analysis ran out of budget/deadline before reaching a
    #: verdict; the report carries the partial results and checkpoints.
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AuditReport:
    """Everything the three analyses produced."""

    verdict: AuditVerdict
    rcdp: RCDPResult
    rcqp: RCQPResult | None = None
    completion: CompletionOutcome | None = None
    boundedness: BoundednessReport | None = None
    #: The static analyzer's report for the audited scenario (run once
    #: up front and shared by every stage).
    analysis: Report | None = None

    @property
    def suggested_facts(self) -> tuple[tuple[str, tuple], ...]:
        """Records whose collection would make the database complete
        (paradigm 2), when the completion loop converged."""
        if self.completion is not None and self.completion.complete:
            return self.completion.added_facts
        if self.rcdp.certificate is not None:
            return self.rcdp.certificate.extension_facts
        return ()

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [f"verdict: {self.verdict.value}"]
        if self.analysis is not None and len(self.analysis):
            lines.append(f"analysis: {self.analysis.summary()}")
        lines.append(f"RCDP: {self.rcdp.status.value}")
        if self.rcdp.interrupted:
            lines.append(f"RCDP interrupted by: {self.rcdp.interrupted}")
        if self.rcqp is not None:
            lines.append(f"RCQP: {self.rcqp.status.value}")
            if self.rcqp.interrupted:
                lines.append(
                    f"RCQP interrupted by: {self.rcqp.interrupted}")
        if self.suggested_facts:
            facts = ", ".join(
                f"{name}{row!r}" for name, row in self.suggested_facts[:5])
            more = (" …" if len(self.suggested_facts) > 5 else "")
            lines.append(f"collect: {facts}{more}")
        if self.boundedness is not None:
            for suggestion in self.boundedness.master_data_suggestions():
                lines.append(f"expand master data: {suggestion}")
        return "\n".join(lines)


@dataclass
class CompletenessAudit:
    """Reusable audit context: fixed ``(Dm, V)``, varying databases and
    queries — the deployment shape §2.3 describes."""

    master: Instance
    constraints: Sequence[ContainmentConstraint]
    schema: DatabaseSchema
    max_completion_rounds: int = 32
    rcqp_valuation_set_size: int = 1
    #: Storage backend for the audit's context (``"python"``,
    #: ``"columnar"``, ``"sqlite"``; None resolves via $REPRO_BACKEND).
    backend: str | None = None
    #: Shard every stage's search across this many worker processes
    #: (1 = serial, 0 = all cores); verdicts are worker-count invariant.
    workers: int = 1
    #: One evaluation context for the audit's whole lifetime: ``Dm`` and
    #: ``V`` are fixed across :meth:`assess` calls, so compiled plans,
    #: master projections, and constraint-query answers carry over from
    #: one assessment to the next.
    _context: EvaluationContext | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def context(self) -> EvaluationContext:
        """The audit's persistent evaluation context, created on first
        use."""
        if self._context is None:
            self._context = EvaluationContext(backend=self.backend)
        return self._context

    def assess(self, query: Any, database: Instance,
               *, governor: ExecutionGovernor | None = None,
               on_exhausted: str = "partial") -> AuditReport:
        """Run the full §2.3 cascade for *query* on *database*.

        A *governor* bounds the whole cascade under one budget/deadline.
        Under ``on_exhausted="partial"`` (default) an interrupted stage
        yields an ``INCONCLUSIVE`` report carrying the partial results
        and their checkpoints; ``"error"`` propagates the governor's
        exception instead.
        """
        validate_exhaustion_mode(on_exhausted)
        obs = obs_of(governor)
        context = self.context
        # One analysis pass for the whole cascade; error findings raise
        # AnalysisError here, before any search runs.
        analysis = resolve_analysis(query, list(self.constraints),
                                    database, self.master, None, True, obs)
        with obs_span(obs, "audit_rcdp"):
            rcdp = decide_rcdp(query, database, self.master,
                               list(self.constraints), governor=governor,
                               on_exhausted=on_exhausted,
                               context=context, analysis=analysis,
                               analyze=False, workers=self.workers)
        if rcdp.is_exhausted:
            return AuditReport(verdict=AuditVerdict.INCONCLUSIVE,
                               rcdp=rcdp, analysis=analysis)
        if rcdp.status is RCDPStatus.COMPLETE:
            return AuditReport(verdict=AuditVerdict.TRUSTWORTHY,
                               rcdp=rcdp, analysis=analysis)

        with obs_span(obs, "audit_rcqp"):
            rcqp = decide_rcqp(
                query, self.master, list(self.constraints), self.schema,
                max_valuation_set_size=self.rcqp_valuation_set_size,
                governor=governor, on_exhausted=on_exhausted,
                context=context, analysis=analysis, analyze=False,
                workers=self.workers)
        if rcqp.is_exhausted:
            return AuditReport(verdict=AuditVerdict.INCONCLUSIVE,
                               rcdp=rcdp, rcqp=rcqp, analysis=analysis)
        if rcqp.status is RCQPStatus.NONEMPTY:
            with obs_span(obs, "audit_completion"):
                completion = make_complete(
                    query, database, self.master, list(self.constraints),
                    max_rounds=self.max_completion_rounds,
                    governor=governor, on_exhausted=on_exhausted,
                    context=context, analysis=analysis, analyze=False,
                    workers=self.workers)
            return AuditReport(verdict=AuditVerdict.COLLECT_DATA,
                               rcdp=rcdp, rcqp=rcqp, completion=completion,
                               analysis=analysis)
        with obs_span(obs, "audit_boundedness"):
            boundedness = analyze_boundedness(query, list(self.constraints),
                                              self.schema)
        if rcqp.status is RCQPStatus.EMPTY:
            return AuditReport(verdict=AuditVerdict.EXPAND_MASTER_DATA,
                               rcdp=rcdp, rcqp=rcqp,
                               boundedness=boundedness, analysis=analysis)
        return AuditReport(verdict=AuditVerdict.COLLECT_DATA_OR_EXPAND,
                           rcdp=rcdp, rcqp=rcqp, boundedness=boundedness,
                           analysis=analysis)
