"""Database instances under set semantics.

An instance ``D = (I1, ..., In)`` of a schema ``R`` maps each relation name
to a frozen set of tuples.  Instances are immutable; all operations
(:meth:`Instance.union`, :meth:`Instance.with_tuples`, ...) return new
instances.  Containment ``D ⊆ D'`` (relation-wise) is the paper's notion of
*extension* (Section 2.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.relational.schema import DatabaseSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.backends import StorageBackend

__all__ = ["Instance", "extend_unvalidated"]

Row = tuple


class Instance:
    """An immutable database instance of a :class:`DatabaseSchema`.

    Relations not mentioned in *contents* are empty.  Every tuple is
    validated against its relation schema (arity and domains) on
    construction, so downstream algorithms can assume well-formed data.

    The frozenset-of-tuples contents are the ground truth: equality,
    hashing, ``repr`` (and therefore the engine's content-based memo
    keys) depend only on them.  Execution-oriented *storage backends*
    (:mod:`repro.relational.backends`) attach lazily via :meth:`storage`
    and are pure acceleration structures — transient, excluded from
    pickling, and rebuilt on demand wherever the instance travels.
    """

    __slots__ = ("schema", "_relations", "_adom", "_storages")

    def __init__(self, schema: DatabaseSchema,
                 contents: Mapping[str, Iterable[Row]] | None = None,
                 *, validate: bool = True) -> None:
        if not isinstance(schema, DatabaseSchema):
            raise SchemaError(
                f"expected DatabaseSchema, got {type(schema).__name__}")
        self.schema = schema
        relations: dict[str, frozenset[Row]] = {
            name: frozenset() for name in schema.relation_names}
        if contents:
            for name, rows in contents.items():
                rel = schema.relation(name)
                frozen = frozenset(tuple(row) for row in rows)
                if validate:
                    for row in frozen:
                        rel.validate_tuple(row)
                relations[name] = frozen
        self._relations = relations
        self._adom: frozenset[Any] | None = None
        self._storages: dict[str, "StorageBackend"] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "Instance":
        """The empty instance of *schema*."""
        return cls(schema)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def relation(self, name: str) -> frozenset[Row]:
        """Return the set of tuples of relation *name*."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"instance schema has no relation {name!r}") from None

    def __getitem__(self, name: str) -> frozenset[Row]:
        return self.relation(name)

    def __iter__(self) -> Iterator[tuple[str, frozenset[Row]]]:
        return iter(self._relations.items())

    @property
    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rows) for rows in self._relations.values())

    def is_empty(self) -> bool:
        """True when every relation is empty."""
        return all(not rows for rows in self._relations.values())

    def active_domain(self) -> frozenset[Any]:
        """All constants appearing in any tuple of the instance.

        Computed lazily once per instance: immutability makes the result
        permanent, and the decider hot loops (:mod:`repro.core.bounded`,
        :mod:`repro.core.valuations`) ask repeatedly.
        """
        if self._adom is None:
            values: set[Any] = set()
            for rows in self._relations.values():
                for row in rows:
                    values.update(row)
            self._adom = frozenset(values)
        return self._adom

    # ------------------------------------------------------------------
    # Storage backends
    # ------------------------------------------------------------------

    def storage(self, kind: str | None = None) -> "StorageBackend":
        """The instance's storage backend of *kind*, built on first use.

        *kind* is one of :data:`~repro.relational.backends.BACKEND_NAMES`
        (``None`` resolves via the ``REPRO_BACKEND`` environment
        variable, defaulting to ``"python"``).  Storages are cached per
        kind for the instance's lifetime — immutability makes them safe
        to share — but never pickled; a worker process re-attaches its
        own on first use.
        """
        from repro.relational.backends import (create_storage,
                                               resolve_backend_name)

        kind = resolve_backend_name(kind)
        stored = self._storages.get(kind)
        if stored is None:
            stored = create_storage(kind, self)
            self._storages[kind] = stored
        return stored

    # ------------------------------------------------------------------
    # Pickling: storages (which may hold unpicklable state, e.g. an
    # sqlite connection) and caches are transient.
    # ------------------------------------------------------------------

    def __getstate__(self) -> tuple:
        return (self.schema, self._relations)

    def __setstate__(self, state: tuple) -> None:
        self.schema, self._relations = state
        self._adom = None
        self._storages = {}

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def contains(self, other: "Instance") -> bool:
        """True when ``other ⊆ self`` relation-wise.

        Both instances must share relation names (schemas need not be
        identical objects, only compatible).
        """
        for name, rows in other._relations.items():
            if rows and not rows <= self._relations.get(name, frozenset()):
                return False
        return True

    def is_extension_of(self, other: "Instance") -> bool:
        """True when ``self ⊇ other``; the paper's *extension* relation."""
        return self.contains(other)

    def union(self, other: "Instance") -> "Instance":
        """Relation-wise union; schemas are merged."""
        schema = self.schema.merged_with(other.schema)
        merged: dict[str, set[Row]] = {
            name: set(rows) for name, rows in self._relations.items()}
        for name, rows in other._relations.items():
            merged.setdefault(name, set()).update(rows)
        return Instance(schema, merged, validate=False)

    def with_tuples(self, name: str, rows: Iterable[Row]) -> "Instance":
        """Return a new instance with *rows* added to relation *name*."""
        rel = self.schema.relation(name)
        new_rows = set(self._relations[name])
        for row in rows:
            row = tuple(row)
            rel.validate_tuple(row)
            new_rows.add(row)
        contents = dict(self._relations)
        contents[name] = frozenset(new_rows)
        return Instance(self.schema, contents, validate=False)

    def with_facts(self, facts: Iterable[tuple[str, Row]]) -> "Instance":
        """Return a new instance extended with ``(relation, row)`` facts."""
        grouped: dict[str, set[Row]] = {}
        for name, row in facts:
            grouped.setdefault(name, set()).add(tuple(row))
        result = self
        for name, rows in grouped.items():
            result = result.with_tuples(name, rows)
        return result

    def restricted_to(self, names: Iterable[str]) -> "Instance":
        """Project the instance onto a subset of its relations."""
        names = set(names)
        schema = DatabaseSchema(
            rel for rel in self.schema if rel.name in names)
        contents = {name: rows for name, rows in self._relations.items()
                    if name in names}
        return Instance(schema, contents, validate=False)

    def facts(self) -> Iterator[tuple[str, Row]]:
        """Iterate over all ``(relation name, tuple)`` facts."""
        for name, rows in self._relations.items():
            for row in rows:
                yield name, row

    def difference_facts(self, other: "Instance") -> list[tuple[str, Row]]:
        """Facts of *self* missing from *other* (used in counterexamples)."""
        missing = []
        for name, rows in self._relations.items():
            other_rows = other._relations.get(name, frozenset())
            for row in rows - other_rows:
                missing.append((name, row))
        return missing

    # ------------------------------------------------------------------
    # Equality / hashing / printing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        if set(self._relations) != set(other._relations):
            return False
        return all(self._relations[name] == other._relations[name]
                   for name in self._relations)

    def __hash__(self) -> int:
        return hash(frozenset(
            (name, rows) for name, rows in self._relations.items()))

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._relations):
            rows = self._relations[name]
            if rows:
                body = ", ".join(
                    repr(row) for row in sorted(rows, key=repr))
                parts.append(f"{name}={{{body}}}")
        inner = "; ".join(parts) if parts else "∅"
        return f"Instance[{inner}]"

    def pretty(self) -> str:
        """Multi-line rendering, one relation per block."""
        lines = []
        for rel in self.schema:
            rows = self._relations[rel.name]
            header = ", ".join(rel.attribute_names)
            lines.append(f"{rel.name}({header}): {len(rows)} tuple(s)")
            for row in sorted(rows, key=repr):
                lines.append("  " + ", ".join(repr(v) for v in row))
        return "\n".join(lines)


def extend_unvalidated(instance: Instance,
                       facts: Iterable[tuple[str, Row]]) -> Instance:
    """``instance ∪ facts`` without re-validating domains.

    The candidate-extension loops of the deciders build millions of
    ``D ∪ Δ`` instances whose facts were already drawn from validated
    pools, so the per-tuple domain checks of :meth:`Instance.with_facts`
    are pure overhead there.  Facts are ``(relation name, row)`` pairs;
    an unknown relation name still raises ``SchemaError``.
    """
    grouped: dict[str, set[Row]] = {}
    for name, row in facts:
        grouped.setdefault(name, set()).add(tuple(row))
    if not grouped:
        return instance
    contents: dict[str, frozenset[Row]] = dict(instance._relations)
    for name, rows in grouped.items():
        contents[name] = instance.relation(name) | rows
    return Instance(instance.schema, contents, validate=False)
