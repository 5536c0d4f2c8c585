"""Lowering compiled CQ plans to single SQL statements (pushdown).

A :class:`~repro.engine.plan.CompiledPlan` is one conjunctive-query
disjunct with a fixed join order.  :func:`lower_plan` turns it into one
``SELECT`` over the per-relation tables of the SQLite backend — the
whole join, all equality/disequality conditions, and the head
projection run inside the database engine, so a candidate-extension
check costs one prepared-statement execution instead of a Python-level
backtracking search.

Lowering rules (see ``docs/BACKENDS.md``):

* every plan step ``i`` contributes ``<table> AS s{i}`` to the ``FROM``
  clause, joined by ``CROSS JOIN``, which SQLite never reorders: the
  statement runs the plan's own (greedy, index-aware) join order
  instead of one SQLite's planner picks for a wide join on its own;
* a step's bound key positions become ``WHERE`` conjuncts — against a
  ``?`` parameter for constants, against the *defining column* of the
  variable (the ``s{j}.c{p}`` of its first occurrence) otherwise;
* intra-atom repeats and decidable ``Eq``/``Neq`` comparisons lower to
  ``=`` / ``<>`` conjuncts at the step where the executor would have
  checked them;
* head variables become ``SELECT DISTINCT`` columns (each variable
  once, however often it repeats in the head); a boolean or all-constant
  head selects nothing and callers probe with ``EXISTS``-style
  ``SELECT 1 … LIMIT 1``.

Constants stay *raw* in :attr:`LoweredPlan.params`: tables hold interned
codes, and only the storage owns the interner, so it encodes the
parameters at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.engine.plan import CompiledPlan
from repro.queries.atoms import Eq
from repro.queries.terms import Const, Var

__all__ = ["LoweredPlan", "lower_plan"]


@dataclass(frozen=True)
class LoweredPlan:
    """One plan lowered to SQL fragments.

    ``select_cols`` are the column references of the head's distinct
    variables, in first-occurrence order; ``head_pattern`` rebuilds a
    head row from a fetched result: ``("const", value)`` entries are
    emitted verbatim, ``("col", i)`` entries read the ``i``-th selected
    column (a code, to be decoded by the storage).  ``params`` are the
    raw constant values matching the ``?`` placeholders in ``where``.
    """

    from_clause: str
    where: tuple[str, ...]
    params: tuple[Any, ...]
    select_cols: tuple[str, ...]
    head_pattern: tuple[tuple[str, Any], ...]

    def sql_rows(self) -> str:
        """``SELECT DISTINCT`` of the head columns (or a bare existence
        probe when the head binds no variables)."""
        if not self.select_cols:
            return self.sql_exists()
        return (f"SELECT DISTINCT {', '.join(self.select_cols)} "
                f"{self._tail()}")

    def sql_exists(self, extra: str = "") -> str:
        """``SELECT 1 … LIMIT 1`` existence probe, optionally with an
        *extra* conjunct (the violation check's ``NOT IN`` filter)."""
        conjuncts = self.where + ((extra,) if extra else ())
        clause = self.from_clause
        if conjuncts:
            clause += " WHERE " + " AND ".join(conjuncts)
        return f"SELECT 1 {clause} LIMIT 1"

    def _tail(self) -> str:
        if self.where:
            return self.from_clause + " WHERE " + " AND ".join(self.where)
        return self.from_clause


def lower_plan(plan: CompiledPlan,
               table_of: Mapping[str, str]) -> LoweredPlan:
    """Lower *plan* to SQL over the tables named by *table_of*.

    The caller guarantees ``plan.satisfiable`` and at least one step
    (ground-false plans and atom-less queries never reach SQL).
    """
    tables = []
    where: list[str] = []
    params: list[Any] = []
    defining: dict[Var, str] = {}
    for i, step in enumerate(plan.steps):
        tables.append(f"{table_of[step.relation]} AS s{i}")
        for position, term in zip(step.key_positions, step.key_terms):
            column = f"s{i}.c{position}"
            if isinstance(term, Const):
                where.append(f"{column} = ?")
                params.append(term.value)
            else:
                where.append(f"{column} = {defining[term]}")
        for position, variable in step.outputs:
            defining[variable] = f"s{i}.c{position}"
        for position, variable in step.intra_checks:
            where.append(f"s{i}.c{position} = {defining[variable]}")
        for comparison in step.comparisons:
            op = "=" if isinstance(comparison, Eq) else "<>"
            left = _operand(comparison.left, defining, params)
            right = _operand(comparison.right, defining, params)
            where.append(f"{left} {op} {right}")

    select_cols: list[str] = []
    col_of_var: dict[Var, int] = {}
    head_pattern: list[tuple[str, Any]] = []
    for term in plan.head:
        if isinstance(term, Const):
            head_pattern.append(("const", term.value))
            continue
        index = col_of_var.get(term)
        if index is None:
            index = len(select_cols)
            col_of_var[term] = index
            select_cols.append(defining[term])
        head_pattern.append(("col", index))

    return LoweredPlan(
        from_clause="FROM " + " CROSS JOIN ".join(tables),
        where=tuple(where),
        params=tuple(params),
        select_cols=tuple(select_cols),
        head_pattern=tuple(head_pattern))


def _operand(term: Any, defining: Mapping[Var, str],
             params: list[Any]) -> str:
    if isinstance(term, Const):
        params.append(term.value)
        return "?"
    return defining[term]
