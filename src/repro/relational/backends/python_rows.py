"""The reference backend: frozensets of tuples + hash-index probing.

This storage wraps the tuple-at-a-time machinery that predates the
backend seam — :class:`~repro.engine.indexes.InstanceIndexes` plus the
backtracking executor of :mod:`repro.engine.executor` — behind the
:class:`~repro.relational.backends.StorageBackend` contract.  It is the
semantics the columnar and SQLite backends are differentially tested
against.  A python evaluation context probes its own hash indexes
(:meth:`~repro.engine.context.EvaluationContext.indexes_for`) and never
reads this storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.executor import IndexedSource, iter_rows
from repro.engine.indexes import InstanceIndexes
from repro.relational.backends import OnBuild, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["PythonRowStorage"]


class PythonRowStorage(StorageBackend):
    """Hash-indexed row sets probed tuple-at-a-time."""

    kind = "python"

    def __init__(self, instance: "Instance") -> None:
        super().__init__(instance)
        self._indexes = InstanceIndexes(instance)

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        # on_build is per-call state (each context charges its own
        # governor) while the indexes are per-instance; swap it in for
        # the duration of the probe.
        self._indexes.on_build = on_build
        try:
            source = IndexedSource(self._indexes)
            return frozenset(
                iter_rows(plan, (source,) * len(plan.steps)))
        finally:
            self._indexes.on_build = None
