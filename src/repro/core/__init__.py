"""Core deciders for relative information completeness (Sections 3 and 4)."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analysis import (BoundednessReport, VariableReport,
                                     VariableStatus, analyze_boundedness)
    from repro.core.bounded import (brute_force_rcdp, brute_force_rcqp,
                                    candidate_fact_pool, default_value_pool)
    from repro.core.rcdp import (assert_decidable_configuration, decide_rcdp,
                                 ensure_partially_closed,
                                 enumerate_missing_answers,
                                 missing_answers_report,
                                 split_ind_constraints)
    from repro.core.rcqp import decide_rcqp, decide_rcqp_with_inds
    from repro.core.results import (IncompletenessCertificate,
                                    MissingAnswersReport, RCDPResult,
                                    RCDPStatus, RCQPResult, RCQPStatus,
                                    SearchStatistics)
    from repro.core.valuations import ActiveDomain, iter_valid_valuations
    from repro.core.witness import (CompletionOutcome, make_complete,
                                    minimize_witness)

__all__ = [
    "ActiveDomain",
    "BoundednessReport",
    "CompletionOutcome",
    "IncompletenessCertificate",
    "MissingAnswersReport",
    "RCDPResult",
    "RCDPStatus",
    "RCQPResult",
    "RCQPStatus",
    "SearchStatistics",
    "VariableReport",
    "VariableStatus",
    "analyze_boundedness",
    "assert_decidable_configuration",
    "brute_force_rcdp",
    "brute_force_rcqp",
    "candidate_fact_pool",
    "decide_rcdp",
    "decide_rcqp",
    "decide_rcqp_with_inds",
    "default_value_pool",
    "ensure_partially_closed",
    "enumerate_missing_answers",
    "iter_valid_valuations",
    "make_complete",
    "minimize_witness",
    "missing_answers_report",
    "split_ind_constraints",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.core.analysis": ("BoundednessReport", "VariableReport",
                            "VariableStatus", "analyze_boundedness"),
    "repro.core.bounded": ("brute_force_rcdp", "brute_force_rcqp",
                           "candidate_fact_pool", "default_value_pool"),
    "repro.core.rcdp": ("assert_decidable_configuration", "decide_rcdp",
                        "ensure_partially_closed",
                        "enumerate_missing_answers", "missing_answers_report",
                        "split_ind_constraints"),
    "repro.core.rcqp": ("decide_rcqp", "decide_rcqp_with_inds"),
    "repro.core.results": ("IncompletenessCertificate",
                           "MissingAnswersReport", "RCDPResult", "RCDPStatus",
                           "RCQPResult", "RCQPStatus", "SearchStatistics"),
    "repro.core.valuations": ("ActiveDomain", "iter_valid_valuations"),
    "repro.core.witness": ("CompletionOutcome", "make_complete",
                           "minimize_witness"),
})
