"""Missing values: v-tables, c-tables, and possible-world completeness.

Implements the Section 5 extension the paper defers to representation
systems (and the companion PODS 2010 paper develops), in honest
enumerative form: possible worlds over an explicit null domain, certain
and possible answers, and relative completeness across worlds.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.incomplete.completeness import (IncompleteRCDPReport,
                                               WorldVerdict,
                                               decide_rcdp_with_missing_values)
    from repro.incomplete.conditions import (Condition, EqCondition,
                                             NeqCondition, TRUE_CONDITION,
                                             conjunction)
    from repro.incomplete.counting import (CountReport, count_missing_answers,
                                           count_completing_extensions)
    from repro.incomplete.nulls import MarkedNull, is_null, nulls_in_row
    from repro.incomplete.tables import ConditionalRow, IncompleteDatabase

__all__ = [
    "Condition",
    "ConditionalRow",
    "CountReport",
    "EqCondition",
    "IncompleteDatabase",
    "IncompleteRCDPReport",
    "MarkedNull",
    "NeqCondition",
    "TRUE_CONDITION",
    "WorldVerdict",
    "conjunction",
    "count_completing_extensions",
    "count_missing_answers",
    "decide_rcdp_with_missing_values",
    "is_null",
    "nulls_in_row",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.incomplete.completeness": ("IncompleteRCDPReport", "WorldVerdict",
                                      "decide_rcdp_with_missing_values"),
    "repro.incomplete.conditions": ("Condition", "EqCondition",
                                    "NeqCondition", "TRUE_CONDITION",
                                    "conjunction"),
    "repro.incomplete.counting": ("CountReport", "count_missing_answers",
                                  "count_completing_extensions"),
    "repro.incomplete.nulls": ("MarkedNull", "is_null", "nulls_in_row"),
    "repro.incomplete.tables": ("ConditionalRow", "IncompleteDatabase"),
})
