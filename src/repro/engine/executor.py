"""Plan execution: indexed backtracking join over pluggable row sources.

The executor runs a plan's :class:`~repro.engine.plan.SlotProgram` over
one list of values per call, indexed by slot (constants pre-filled).
For each step it reads the key from its slots, asks the step's row
source for the matching rows, writes the step's outputs into their
slots, verifies intra-atom repeats and any comparison that just became
decidable, and recurses.  Slots are overwritten, never cleared: a step
reads only slots that the constants or earlier steps have filled.

Row sources are what make the same executor serve both evaluation modes:

* **full evaluation** gives every step an :class:`IndexedSource` over
  the instance's hash indexes;
* **semi-naive delta evaluation** pins one atom ``j`` to the Δ-facts
  (:class:`DeltaSource`), steps whose original body position is below
  ``j`` to the base instance only, and the rest to base ∪ Δ
  (:class:`ChainSource`) — exactly the partition that makes each new
  answer of ``Q(D ∪ Δ)`` counted once (see ``docs/ENGINE.md``).

Answers stream out one at a time, so a caller that needs only the first
(a violation check) stops the search there.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.engine.indexes import InstanceIndexes
from repro.engine.plan import CompiledPlan, PlanStep, SlotStep

__all__ = ["IndexedSource", "DeltaSource", "ChainSource", "delta_sources",
           "group_delta", "iter_rows", "evaluate_plan", "plan_holds"]


class IndexedSource:
    """Rows from one instance, via its hash indexes."""

    __slots__ = ("indexes",)

    def __init__(self, indexes: InstanceIndexes) -> None:
        self.indexes = indexes

    def rows(self, step: PlanStep, key: tuple) -> list[tuple]:
        return self.indexes.lookup(step.relation, step.key_positions, key)


class DeltaSource:
    """Rows from a small literal Δ-set; probed by linear scan.

    Δ is tiny by design (typically a handful of candidate facts), so
    building hash indexes over it would cost more than scanning it.
    """

    __slots__ = ("rows_by_relation",)

    def __init__(self, rows_by_relation: dict[str, list[tuple]]) -> None:
        self.rows_by_relation = rows_by_relation

    def rows(self, step: PlanStep, key: tuple) -> list[tuple]:
        candidates = self.rows_by_relation.get(step.relation)
        if not candidates:
            return []
        positions = step.key_positions
        if not positions:
            return candidates
        return [row for row in candidates
                if tuple([row[p] for p in positions]) == key]


class ChainSource:
    """Union of two sources (base ∪ Δ); sources are disjoint by
    construction because Δ is pre-filtered against the base."""

    __slots__ = ("first", "second")

    def __init__(self, first: Any, second: Any) -> None:
        self.first = first
        self.second = second

    def rows(self, step: PlanStep, key: tuple) -> list[tuple]:
        base = self.first.rows(step, key)
        extra = self.second.rows(step, key)
        if not extra:
            return base
        return base + extra


def delta_sources(plan: CompiledPlan, atom: int, base: Any, delta: Any,
                  chained: Any) -> tuple[Any, ...]:
    """The row sources of *plan* as the delta plan of atom *atom*: that
    atom reads *delta* (``Δ \\ D``), atoms at earlier body positions read
    *base* and later ones *chained* (``D ∪ Δ``)."""
    return tuple([delta if step.atom_index == atom
                  else base if step.atom_index < atom
                  else chained
                  for step in plan.steps])


def group_delta(base: Any, delta_facts: Iterable[tuple[str, tuple]],
                ) -> dict[str, list[tuple]]:
    """Δ-facts grouped by relation, minus rows already in *base* (each
    row once, in order of first occurrence): the rows a
    :class:`DeltaSource` serves."""
    distinct: dict[tuple[str, tuple], None] = {}
    for name, row in delta_facts:
        distinct[name, tuple(row)] = None
    new_rows: dict[str, list[tuple]] = {}
    for name, row in distinct:
        if row not in base.relation(name):
            rows = new_rows.get(name)
            if rows is None:
                new_rows[name] = [row]
            else:
                rows.append(row)
    return new_rows


def iter_rows(plan: CompiledPlan,
              sources: tuple[Any, ...]) -> Iterator[tuple]:
    """Yield the head row of every satisfying binding (with duplicates;
    callers build sets).  *sources* supplies rows per step, parallel to
    ``plan.steps``."""
    if not plan.satisfiable:
        return iter(())
    program = plan.program
    if not program.steps:  # no relation atom: the one (empty) binding
        return iter([tuple([program.initial[s] for s in program.head])])
    return _search(program.steps, sources, 0, list(program.initial),
                   program.head)


def _search(steps: tuple[SlotStep, ...], sources: tuple[Any, ...],
            depth: int, values: list[Any],
            head: tuple[int, ...]) -> Iterator[tuple]:
    step, key, outputs, repeats, equal, unequal = steps[depth]
    last = depth + 1 == len(steps)
    for row in sources[depth].rows(step, tuple([values[s] for s in key])):
        for position, slot in outputs:
            values[slot] = row[position]
        for position, slot in repeats:
            if row[position] != values[slot]:
                break
        else:
            for left, right in equal:
                if values[left] != values[right]:
                    break
            else:
                for left, right in unequal:
                    if values[left] == values[right]:
                        break
                else:
                    if last:
                        yield tuple([values[s] for s in head])
                    else:
                        yield from _search(steps, sources, depth + 1,
                                           values, head)


def evaluate_plan(plan: CompiledPlan,
                  sources: tuple[Any, ...]) -> frozenset[tuple]:
    """All head rows of *plan* over *sources* (set semantics)."""
    return frozenset(iter_rows(plan, sources))


def plan_holds(plan: CompiledPlan, sources: tuple[Any, ...]) -> bool:
    """True when the plan has at least one satisfying binding."""
    for _ in iter_rows(plan, sources):
        return True
    return False
