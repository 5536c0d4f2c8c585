"""SQLite storage: whole-plan pushdown over an in-memory database.

The instance's relations are bulk-loaded (``executemany``) into one
in-memory SQLite database as *interned* integer codes — table ``t{i}``
for the ``i``-th relation of the schema, columns ``c0 … c{arity-1}``,
nullary relations as a single dummy column holding one row when the
fact is present.  Compiled plans lower to single ``SELECT`` statements
(:mod:`repro.engine.sql`), so a join that the Python executor walks
row by row runs entirely inside SQLite's bytecode VM.  The database
holds the instance only: checks of candidate extensions ``D ∪ Δ`` run
the engine's delta plans, never SQL.

SQL indexes are created lazily per ``(relation, key positions)`` pair
actually probed, reported through *on_build* exactly like the hash
indexes of the reference backend.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Any

from repro.engine.sql import LoweredPlan, lower_plan
from repro.relational.backends import OnBuild, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["SQLiteStorage"]


class SQLiteStorage(StorageBackend):
    """Interned relations in an in-memory SQLite database; plans run as
    single pushed-down SQL statements."""

    kind = "sqlite"

    def __init__(self, instance: "Instance") -> None:
        super().__init__(instance)
        self._codes: dict[Any, int] = {}
        self._values: list[Any] = []
        self._lowered_plans: dict[int, tuple["CompiledPlan",
                                             LoweredPlan]] = {}
        self._sql_indexes: set[tuple[str, tuple[int, ...]]] = set()
        self._table_of: dict[str, str] = {}
        self._connection = sqlite3.connect(
            ":memory:", check_same_thread=False)
        self._load(instance)

    # -- interning -----------------------------------------------------

    def _intern(self, value: Any) -> int:
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    # -- schema + bulk load --------------------------------------------

    def _load(self, instance: "Instance") -> None:
        cursor = self._connection.cursor()
        for i, name in enumerate(instance.schema.relation_names):
            table = f"t{i}"
            self._table_of[name] = table
            width = max(instance.schema.relation(name).arity, 1)
            columns = ", ".join(f"c{j} INTEGER" for j in range(width))
            cursor.execute(f"CREATE TABLE {table} ({columns})")
            rows = instance.relation(name)
            if not rows:
                continue
            placeholders = ", ".join("?" * width)
            cursor.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})",
                [self._encode_row(row) for row in rows])
        self._connection.commit()

    def _encode_row(self, row: tuple) -> tuple[int, ...]:
        if not row:  # nullary fact: one dummy-column row
            return (0,)
        return tuple(self._intern(value) for value in row)

    # -- plan cache + lazy SQL indexes ---------------------------------

    def _lowered(self, plan: "CompiledPlan") -> LoweredPlan:
        cached = self._lowered_plans.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        lowered = lower_plan(plan, self._table_of)
        self._lowered_plans[id(plan)] = (plan, lowered)
        return lowered

    def _ensure_indexes(self, plan: "CompiledPlan",
                        on_build: OnBuild | None) -> None:
        for step in plan.steps:
            if not step.key_positions:
                continue
            # Charged per *requirement* (the context dedupes per
            # instance): the storage outlives evaluation contexts, so a
            # consumer's counters must not depend on who warmed it.
            if on_build is not None:
                on_build(step.relation, step.key_positions)
            key = (step.relation, step.key_positions)
            if key in self._sql_indexes:
                continue
            table = self._table_of[step.relation]
            name = "ix_" + table + "_" + "_".join(
                str(p) for p in step.key_positions)
            columns = ", ".join(f"c{p}" for p in step.key_positions)
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {name} ON {table} "
                f"({columns})")
            self._sql_indexes.add(key)

    # -- execution helpers ---------------------------------------------

    def _encode_params(self, params: tuple[Any, ...]) -> list[int]:
        return [self._intern(value) for value in params]

    def _decode(self, lowered: LoweredPlan,
                fetched: list[tuple]) -> frozenset[tuple]:
        values = self._values
        pattern = lowered.head_pattern
        return frozenset(
            tuple(value if tag == "const" else values[row[value]]
                  for tag, value in pattern)
            for row in fetched)

    def _const_head(self, lowered: LoweredPlan) -> tuple:
        return tuple(value for _, value in lowered.head_pattern)

    # -- StorageBackend API --------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        if not plan.satisfiable:
            return frozenset()
        if not plan.steps:
            return frozenset({plan_head_constants(plan)})
        lowered = self._lowered(plan)
        self._ensure_indexes(plan, on_build)
        params = self._encode_params(lowered.params)
        cursor = self._connection.execute(lowered.sql_rows(), params)
        if not lowered.select_cols:
            # Existence probe: the head is all-constant (or empty).
            if cursor.fetchone() is None:
                return frozenset()
            return frozenset({self._const_head(lowered)})
        return self._decode(lowered, cursor.fetchall())


def plan_head_constants(plan: "CompiledPlan") -> tuple:
    """The single answer row of an atom-less (hence all-constant) plan."""
    return tuple(term.value for term in plan.head)
