"""Columnar storage: interned constants, set-at-a-time join execution.

Every distinct constant of the instance is *interned* — assigned a small
integer code by a plain dict lookup, so two values share a code exactly
when Python considers them equal (the same equivalence the frozenset
contents collapse under).  Relations become lists of coded rows, and the
lazily built hash indexes group coded rows by coded keys.

Execution is breadth-first instead of the executor's depth-first
backtracking: a *batch* of partial binding environments (tuples of
codes, one slot per bound variable) flows through the plan, and each
step expands the whole batch against its index in one pass, deduping
between steps.  All comparisons in plans are ``=`` / ``≠``
(:mod:`repro.engine.plan`), so they run directly on the codes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.queries.atoms import Eq
from repro.queries.terms import Const, Var
from repro.relational.backends import OnBuild, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan, PlanStep
    from repro.relational.instance import Instance

__all__ = ["ColumnarStorage"]

#: A value source inside a batch program: ``(True, slot)`` reads the
#: environment slot, ``(False, value)`` is an interned constant code.
_FROM_ENV = True
_CONST = False


class _BatchStep:
    """One plan step compiled against the interner: everything resolved
    to environment slots and constant codes."""

    __slots__ = ("relation", "key_positions", "key_sources",
                 "out_positions", "intra", "comparisons", "width")

    def __init__(self, relation: str, key_positions: tuple[int, ...],
                 key_sources: tuple, out_positions: tuple[int, ...],
                 intra: tuple, comparisons: tuple, width: int) -> None:
        self.relation = relation
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.out_positions = out_positions
        self.intra = intra
        self.comparisons = comparisons
        self.width = width


class ColumnarStorage(StorageBackend):
    """Per-relation coded row lists with batch (set-at-a-time) joins."""

    kind = "columnar"

    def __init__(self, instance: "Instance") -> None:
        super().__init__(instance)
        self._codes: dict[Any, int] = {}
        self._values: list[Any] = []
        self._rows: dict[str, list[tuple[int, ...]]] = {
            name: [self._encode_row(row) for row in rows]
            for name, rows in instance}
        self._indexes: dict[tuple[str, tuple[int, ...]],
                            dict[tuple, list[tuple[int, ...]]]] = {}
        self._programs: dict[int, tuple["CompiledPlan",
                                        list[_BatchStep]]] = {}

    # -- interning -----------------------------------------------------

    def _intern(self, value: Any) -> int:
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def _encode_row(self, row: tuple) -> tuple[int, ...]:
        return tuple(self._intern(value) for value in row)

    # -- indexes -------------------------------------------------------

    def _index_for(self, relation: str, positions: tuple[int, ...],
                   on_build: OnBuild | None,
                   ) -> dict[tuple, list[tuple[int, ...]]]:
        # Charged on every *requirement*, not only on materialization:
        # storages outlive evaluation contexts (they are cached on the
        # instance), and a consumer's counters must not depend on who
        # warmed the storage first.  The context dedupes per instance.
        if on_build is not None:
            on_build(relation, positions)
        index = self._indexes.get((relation, positions))
        if index is None:
            index = {}
            for row in self._rows.get(relation, ()):
                key = tuple(row[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            self._indexes[(relation, positions)] = index
        return index

    # -- batch program compilation ------------------------------------

    def _program(self, plan: "CompiledPlan") -> list[_BatchStep]:
        cached = self._programs.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        slots: dict[Var, int] = {}
        steps: list[_BatchStep] = []
        for step in plan.steps:
            steps.append(self._compile_step(step, slots))
        self._programs[id(plan)] = (plan, steps)
        return steps

    def _compile_step(self, step: "PlanStep",
                      slots: dict[Var, int]) -> _BatchStep:
        key_sources = tuple(
            (_CONST, self._intern(term.value)) if isinstance(term, Const)
            else (_FROM_ENV, slots[term])
            for term in step.key_terms)
        out_positions = tuple(position for position, _ in step.outputs)
        for _, variable in step.outputs:
            slots[variable] = len(slots)
        intra = tuple((position, slots[variable])
                      for position, variable in step.intra_checks)
        comparisons = tuple(
            (isinstance(comparison, Eq),
             self._operand(comparison.left, slots),
             self._operand(comparison.right, slots))
            for comparison in step.comparisons)
        return _BatchStep(step.relation, step.key_positions, key_sources,
                          out_positions, intra, comparisons, len(slots))

    def _operand(self, term: Any, slots: dict[Var, int]) -> tuple:
        if isinstance(term, Const):
            return (_CONST, self._intern(term.value))
        return (_FROM_ENV, slots[term])

    # -- execution -----------------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        if not plan.satisfiable:
            return frozenset()
        envs: list[tuple[int, ...]] = [()]
        for bstep in self._program(plan):
            index = self._index_for(bstep.relation, bstep.key_positions,
                                    on_build)
            next_envs: set[tuple[int, ...]] = set()
            for env in envs:
                key = tuple(code if tag is _CONST else env[code]
                            for tag, code in bstep.key_sources)
                for row in index.get(key, _NO_ROWS):
                    ext = env + tuple(row[p] for p in bstep.out_positions)
                    if any(row[p] != ext[s] for p, s in bstep.intra):
                        continue
                    if not self._comparisons_hold(bstep, ext):
                        continue
                    next_envs.add(ext)
            if not next_envs:
                return frozenset()
            envs = list(next_envs)
        head = plan.head
        if not head:
            return _TRUE
        values = self._values
        return frozenset(
            tuple(term.value if isinstance(term, Const)
                  else values[env[slot]]
                  for term, slot in zip(head, self._head_slots(plan)))
            for env in envs)

    def _head_slots(self, plan: "CompiledPlan") -> tuple[int, ...]:
        # Recompute the slot of each head variable from the program's
        # binding order (constants get a dummy slot, never read).
        slots: dict[Var, int] = {}
        for step in plan.steps:
            for _, variable in step.outputs:
                slots[variable] = len(slots)
        return tuple(slots[term] if isinstance(term, Var) else 0
                     for term in plan.head)

    @staticmethod
    def _comparisons_hold(bstep: _BatchStep,
                          env: tuple[int, ...]) -> bool:
        for is_eq, left, right in bstep.comparisons:
            lcode = left[1] if left[0] is _CONST else env[left[1]]
            rcode = right[1] if right[0] is _CONST else env[right[1]]
            if (lcode == rcode) is not is_eq:
                return False
        return True



_NO_ROWS: list[tuple[int, ...]] = []
_TRUE = frozenset({()})
