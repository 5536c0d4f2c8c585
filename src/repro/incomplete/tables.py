"""v-tables, c-tables, and incomplete databases with possible worlds.

* a **v-table** is a relation whose fields may hold marked nulls;
* a **c-table** additionally attaches a local condition to each row;
* an :class:`IncompleteDatabase` maps relation names to c-tables (a
  v-table is a c-table whose conditions are all ⊤).

The semantics is the set of *possible worlds*: one complete instance per
valuation of the nulls over a value domain (here an explicit finite set —
honest enumeration rather than symbolic manipulation; the symbolic
algorithms belong to the companion paper, see the subpackage docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import ReproError, SchemaError
from repro.incomplete.conditions import Condition, TRUE_CONDITION
from repro.incomplete.nulls import MarkedNull, is_null, nulls_in_row
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema

__all__ = ["ConditionalRow", "IncompleteDatabase"]

Valuation = Mapping[MarkedNull, Any]


@dataclass(frozen=True)
class ConditionalRow:
    """One c-table row: a tuple (possibly with nulls) plus a condition."""

    row: tuple
    condition: Condition = TRUE_CONDITION

    def nulls(self) -> set[MarkedNull]:
        return nulls_in_row(self.row) | self.condition.nulls()

    def instantiate(self, valuation: Valuation) -> tuple | None:
        """The concrete tuple in the world given by *valuation*, or None
        when the condition fails."""
        if not self.condition.holds(valuation):
            return None
        return tuple(
            valuation[value] if is_null(value) else value
            for value in self.row)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.row)
        if self.condition.is_trivially_true:
            return f"({inner})"
        return f"({inner}) if {self.condition!r}"


class IncompleteDatabase:
    """A database whose relations are c-tables.

    Construct with a mapping ``relation name → iterable of rows``; each
    row may be a plain tuple (condition ⊤) or a :class:`ConditionalRow`.
    """

    __slots__ = ("schema", "_tables")

    def __init__(self, schema: DatabaseSchema,
                 contents: Mapping[str, Iterable[Any]] | None = None,
                 ) -> None:
        self.schema = schema
        tables: dict[str, tuple[ConditionalRow, ...]] = {
            name: () for name in schema.relation_names}
        for name, rows in (contents or {}).items():
            relation = schema.relation(name)
            frozen = []
            for row in rows:
                if not isinstance(row, ConditionalRow):
                    row = ConditionalRow(tuple(row))
                if len(row.row) != relation.arity:
                    raise SchemaError(
                        f"row {row!r} has arity {len(row.row)}, relation "
                        f"{name!r} has arity {relation.arity}")
                frozen.append(row)
            tables[name] = tuple(frozen)
        self._tables = tables

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def rows(self, name: str) -> tuple[ConditionalRow, ...]:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no relation {name!r}") from None

    def nulls(self) -> set[MarkedNull]:
        """All marked nulls occurring anywhere."""
        result: set[MarkedNull] = set()
        for rows in self._tables.values():
            for row in rows:
                result |= row.nulls()
        return result

    def is_complete(self) -> bool:
        """True when no nulls occur (a single possible world)."""
        return not self.nulls()

    # ------------------------------------------------------------------
    # Possible worlds
    # ------------------------------------------------------------------

    def world(self, valuation: Valuation) -> Instance:
        """The complete instance under *valuation* of the nulls."""
        contents: dict[str, set[tuple]] = {}
        for name, rows in self._tables.items():
            concrete = set()
            for row in rows:
                instantiated = row.instantiate(valuation)
                if instantiated is not None:
                    concrete.add(instantiated)
            contents[name] = concrete
        return Instance(self.schema, contents, validate=False)

    def possible_worlds(self, domain: Sequence[Any],
                        limit: int | None = None) -> Iterator[Instance]:
        """Enumerate the worlds over valuations of the nulls into
        *domain*.

        The number of worlds is ``|domain| ^ #nulls``; *limit* caps the
        enumeration (raising :class:`ReproError` if exceeded) to protect
        callers from accidental blow-ups.
        """
        nulls = sorted(self.nulls(), key=lambda n: n.name)
        if not domain and nulls:
            raise ReproError("empty domain but the database has nulls")
        count = 0
        for values in itertools.product(domain, repeat=len(nulls)):
            count += 1
            if limit is not None and count > limit:
                raise ReproError(
                    f"possible-world enumeration exceeded limit {limit}")
            yield self.world(dict(zip(nulls, values)))

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------

    def certain_answers(self, query: Any, domain: Sequence[Any],
                        limit: int | None = None) -> frozenset[tuple]:
        """Tuples in ``Q(world)`` for *every* possible world."""
        answers: frozenset[tuple] | None = None
        for world in self.possible_worlds(domain, limit=limit):
            world_answers = query.evaluate(world)
            answers = (world_answers if answers is None
                       else answers & world_answers)
            if not answers:
                return frozenset()
        return answers if answers is not None else frozenset()

    def possible_answers(self, query: Any, domain: Sequence[Any],
                         limit: int | None = None) -> frozenset[tuple]:
        """Tuples in ``Q(world)`` for *some* possible world."""
        answers: set[tuple] = set()
        for world in self.possible_worlds(domain, limit=limit):
            answers |= query.evaluate(world)
        return frozenset(answers)

    def __repr__(self) -> str:
        parts = []
        for name, rows in self._tables.items():
            if rows:
                inner = ", ".join(repr(r) for r in rows)
                parts.append(f"{name}={{{inner}}}")
        return f"IncompleteDatabase[{'; '.join(parts) or '∅'}]"
