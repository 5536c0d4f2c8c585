"""SQLite storage: whole-plan pushdown over an in-memory database.

The instance's relations are bulk-loaded (``executemany``) into one
in-memory SQLite database as *interned* integer codes — table ``t{i}``
for the ``i``-th relation of the schema, columns ``c0 … c{arity-1}``,
nullary relations as a single dummy column holding one row when the
fact is present.  Compiled plans lower to single ``SELECT`` statements
(:mod:`repro.engine.sql`), so a join that the Python executor walks
row by row runs entirely inside SQLite's bytecode VM.

Candidate extensions ``D ∪ Δ`` never copy the database: Δ-rows are
inserted under a ``SAVEPOINT`` and rolled back after the query.  The
containment-check fast path :meth:`SQLiteStorage.plan_violates` is
where the pushdown pays off most — an at-most-``k`` constraint (empty
target) becomes ``SELECT 1 … LIMIT 1``, and a general target pushes the
allowed answers into a ``NOT IN (VALUES …)`` filter, so the engine
stops at the first violating answer instead of materializing the full
answer set.

SQL indexes are created lazily per ``(relation, key positions)`` pair
actually probed, reported through *on_build* exactly like the hash
indexes of the reference backend.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Any

from repro.engine.sql import LoweredPlan, lower_plan
from repro.relational.backends import DeltaRows, OnBuild, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["SQLiteStorage"]

#: The most host parameters a violation probe binds: the plan's own
#: plus one per selected column of each allowed row in the
#: ``NOT IN (VALUES …)`` filter.  Above it the filter is abandoned for a
#: full evaluation + subset test in Python.  999 is SQLite's default
#: ``SQLITE_MAX_VARIABLE_NUMBER`` before 3.32.0, the smallest default a
#: Python build may link.
_PARAMETER_CAP = 999


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

    def _rows_now(self, plan: "CompiledPlan",
                  on_build: OnBuild | None) -> frozenset[tuple]:
        """Evaluate *plan* against the database's current contents."""
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

    def _insert_delta(self, delta: DeltaRows) -> None:
        for name, rows in delta.items():
            table = self._table_of[name]
            coded = [self._encode_row(tuple(row)) for row in rows]
            if not coded:
                continue
            placeholders = ", ".join("?" * len(coded[0]))
            self._connection.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})", coded)

    # -- StorageBackend API --------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        return self._rows_now(plan, on_build)

    def plan_rows_extended(self, plan: "CompiledPlan", delta: DeltaRows, *,
                           on_build: OnBuild | None = None,
                           ) -> frozenset[tuple]:
        if not delta:
            return self._rows_now(plan, on_build)
        connection = self._connection
        connection.execute("SAVEPOINT delta")
        try:
            self._insert_delta(delta)
            return self._rows_now(plan, on_build)
        finally:
            connection.execute("ROLLBACK TO delta")
            connection.execute("RELEASE delta")

    def plan_violates(self, plan: "CompiledPlan", delta: DeltaRows,
                      allowed: frozenset[tuple] | None, *,
                      on_build: OnBuild | None = None) -> bool:
        if not plan.satisfiable:
            return False
        if not plan.steps:
            head = plan_head_constants(plan)
            return allowed is None or head not in allowed
        lowered = self._lowered(plan)
        if allowed is None:
            extra, extra_params = "", []
        else:
            # len(allowed) bounds the projected rows the filter binds.
            if (len(lowered.params) + len(lowered.select_cols) * len(allowed)
                    > _PARAMETER_CAP):
                rows = self.plan_rows_extended(plan, delta,
                                               on_build=on_build)
                return not rows <= allowed
            projected = self._project_allowed(lowered, allowed)
            if projected is None:
                # All-constant head covered by *allowed*: the answer
                # set is ⊆ {head} ⊆ allowed, no violation possible.
                return False
            if not lowered.select_cols:
                extra, extra_params = "", []
            else:
                extra, extra_params = _not_in_filter(
                    lowered.select_cols, projected)
        self._ensure_indexes(plan, on_build)
        params = self._encode_params(lowered.params) + extra_params
        sql = lowered.sql_exists(extra)
        connection = self._connection
        if not delta:
            return connection.execute(sql, params).fetchone() is not None
        connection.execute("SAVEPOINT delta")
        try:
            self._insert_delta(delta)
            return connection.execute(sql, params).fetchone() is not None
        finally:
            connection.execute("ROLLBACK TO delta")
            connection.execute("RELEASE delta")

    def _project_allowed(self, lowered: LoweredPlan,
                         allowed: frozenset[tuple],
                         ) -> list[tuple[int, ...]] | None:
        """Project *allowed* rows onto the selected head columns.

        Rows inconsistent with the head's constants or repeated
        variables can never be produced and are dropped.  Returns
        ``None`` when the head selects no columns but some allowed row
        matches the constant head — i.e. no violation is possible.
        """
        pattern = lowered.head_pattern
        width = len(lowered.select_cols)
        projected: set[tuple[int, ...]] = set()
        matched_constant_head = False
        for row in allowed:
            if len(row) != len(pattern):
                continue
            cells: list[int | None] = [None] * width
            ok = True
            for (tag, value), cell in zip(pattern, row):
                if tag == "const":
                    if cell != value:
                        ok = False
                        break
                else:
                    code = self._intern(cell)
                    if cells[value] is None:
                        cells[value] = code
                    elif cells[value] != code:
                        ok = False
                        break
            if not ok:
                continue
            if width == 0:
                matched_constant_head = True
                break
            projected.add(tuple(cells))  # type: ignore[arg-type]
        if width == 0 and matched_constant_head:
            return None
        return sorted(projected)


def _not_in_filter(select_cols: tuple[str, ...],
                   projected: list[tuple[int, ...]],
                   ) -> tuple[str, list[int]]:
    """Render ``(cols) NOT IN (VALUES …)`` with its parameters; an
    empty *projected* set means every answer violates (no filter)."""
    if not projected:
        return "", []
    params = [code for row in projected for code in row]
    if len(select_cols) == 1:
        placeholders = ", ".join("?" * len(projected))
        return f"{select_cols[0]} NOT IN ({placeholders})", params
    row_ph = "(" + ", ".join("?" * len(select_cols)) + ")"
    values = ", ".join(row_ph for _ in projected)
    cols = "(" + ", ".join(select_cols) + ")"
    return f"{cols} NOT IN (VALUES {values})", params


def plan_head_constants(plan: "CompiledPlan") -> tuple:
    """The single answer row of an atom-less (hence all-constant) plan."""
    return tuple(term.value for term in plan.head)
