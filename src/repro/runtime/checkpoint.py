"""Resumable search checkpoints.

When a governed search is interrupted it does not discard its work: it
returns (or attaches to the raised error) a :class:`SearchCheckpoint`
recording exactly where the deterministic enumeration stopped.  Passing
the checkpoint back via the decider's ``resume_from`` parameter fast-
forwards the enumeration — skipped positions are *not* charged against
the new budget, since the original run already examined and rejected
them — and the search continues as if it had never stopped.

Each procedure has one cursor layout (documented on its decider) for
every worker count: the cursor starts with the worker count, and the
payload starts with each shard's resume point, a serial run being
shard 0 of 1 (:mod:`repro.core.search`).  Checkpoints are in-memory
objects, valid for the *same* inputs and worker count within the same
process, not a serialization format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.results import SearchStatistics

__all__ = ["SearchCheckpoint"]


@dataclass(frozen=True)
class SearchCheckpoint:
    """Frontier of an interrupted search.

    Attributes
    ----------
    procedure:
        Which search produced it (``"rcdp"``, ``"missing"``, ``"rcqp"``,
        ``"rcqp-inds"``, ``"brute-rcdp"``, ``"brute-rcqp"``); deciders
        refuse checkpoints from a different procedure.
    cursor:
        Enumeration position: the worker count, then any procedure-
        specific phase/position entries.
    statistics:
        :class:`~repro.core.results.SearchStatistics` accumulated up to
        the interruption; resumed runs report cumulative totals.
    payload:
        The per-shard resume points (consumed count, done flag, partial
        answers such as the missing answers found so far), then any
        procedure-specific data.
    """

    procedure: str
    cursor: tuple[int, ...]
    statistics: "SearchStatistics | None" = None
    payload: tuple = field(default_factory=tuple)

    def require(self, procedure: str) -> "SearchCheckpoint":
        """Return self after asserting it came from *procedure*."""
        if self.procedure != procedure:
            raise ReproError(
                f"checkpoint from {self.procedure!r} cannot resume a "
                f"{procedure!r} search")
        return self

    def base_statistics(self) -> Any:
        """The accumulated statistics, or fresh zeros when absent."""
        if self.statistics is not None:
            return self.statistics
        from repro.core.results import SearchStatistics

        return SearchStatistics()

    def __repr__(self) -> str:
        return (f"Checkpoint[{self.procedure} @ {self.cursor}"
                f"{', +payload' if self.payload else ''}]")
