"""Pluggable storage backends for :class:`~repro.relational.instance.
Instance`.

The decision procedures evaluate compiled CQ plans over ``D`` and over
candidate extensions ``D ∪ Δ``.  A :class:`StorageBackend` is the
execution structure that evaluates a whole plan over one (immutable)
instance: ``Q(D)``, the queries' answers on the base.  Candidate
extensions are a handful of facts (Proposition 3.3), so their checks
run the engine's semi-naive delta plans over the base's hash indexes on
every backend (:mod:`repro.engine.checks`).  Three implementations
ship:

``python``
    The reference backend: the instance's frozensets of tuples, probed
    through lazily built hash indexes by the tuple-at-a-time
    backtracking executor (:mod:`repro.engine.executor`).  This is the
    semantics oracle — the other backends must agree with it bit for
    bit on answers.
``columnar``
    Per-relation column arrays of *interned* constants (every distinct
    value becomes a small integer code) with set-at-a-time
    selection/join primitives: each plan step expands a whole batch of
    partial bindings at once instead of recursing row by row
    (:mod:`repro.relational.backends.columnar`).
``sqlite``
    Whole plans lowered to a single SQL statement (pushdown) over an
    in-memory SQLite database bulk-loaded with the interned codes
    (:mod:`repro.relational.backends.sqlite`).

Interning is sound because plan comparisons are ``=`` / ``≠`` only
(:mod:`repro.engine.plan` admits no order comparisons) and the interner
is a plain dict keyed by the values themselves — two values receive the
same code exactly when Python considers them equal, which is the same
equivalence the frozenset contents already collapsed under.

Backends attach to an instance via :meth:`Instance.storage` and are
transient: never pickled, rebuilt on demand in worker processes.  See
``docs/BACKENDS.md`` for the contract and the pushdown lowering rules.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["BACKEND_NAMES", "BACKEND_ENV_VAR", "DEFAULT_BACKEND",
           "StorageBackend", "resolve_backend_name", "create_storage"]

#: The selectable backend kinds, in documentation order.
BACKEND_NAMES = ("python", "columnar", "sqlite")

#: Environment variable consulted when no backend is named explicitly —
#: the CI backend matrix runs the whole suite under each value.
BACKEND_ENV_VAR = "REPRO_BACKEND"

DEFAULT_BACKEND = "python"

#: Callback invoked with ``(relation, positions)`` for every index /
#: acceleration structure a plan *requires* (built or already present):
#: storages are shared across evaluation contexts, so the context — not
#: the storage — deduplicates the charge (governor ticks and the
#: ``index_builds`` counter) once per instance, keeping counters
#: identical whether or not the storage was pre-warmed.
OnBuild = Callable[[str, tuple[int, ...]], None]


def resolve_backend_name(name: str | None = None) -> str:
    """Normalize a backend choice: explicit name > ``$REPRO_BACKEND`` >
    ``"python"``.  Unknown names raise :class:`~repro.errors.ReproError`
    (typos must not silently fall back to a different engine)."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name not in BACKEND_NAMES:
        raise ReproError(
            f"unknown storage backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}")
    return name


class StorageBackend:
    """The contract every instance storage implements.

    A storage belongs to exactly one immutable instance.  All methods
    are *pure* with respect to the instance's logical contents; the only
    mutable state is lazily built acceleration structure (hash indexes,
    SQL indexes), reported through the per-call *on_build* callback.

    ``plan_rows`` returns exactly the rows the reference evaluator
    returns — set semantics, decoded to the original Python values.
    """

    #: Set by each implementation to its :data:`BACKEND_NAMES` entry.
    kind: str = "abstract"

    def __init__(self, instance: "Instance") -> None:
        self.instance = instance

    # -- evaluation ----------------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        """All head rows of *plan* over the instance (set semantics)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}[{self.kind}, "
                f"{self.instance.total_tuples} tuple(s)]")


def create_storage(kind: str, instance: "Instance") -> StorageBackend:
    """Build a fresh storage of *kind* for *instance*.

    Implementations import lazily: they depend on :mod:`repro.engine`
    modules that in turn import this registry, and deferring the import
    to first use keeps the package import-cycle free.
    """
    kind = resolve_backend_name(kind)
    if kind == "python":
        from repro.relational.backends.python_rows import PythonRowStorage

        return PythonRowStorage(instance)
    if kind == "columnar":
        from repro.relational.backends.columnar import ColumnarStorage

        return ColumnarStorage(instance)
    from repro.relational.backends.sqlite import SQLiteStorage

    return SQLiteStorage(instance)
