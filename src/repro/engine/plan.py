"""Compiled evaluation plans for conjunctive-query bodies.

A :class:`CompiledPlan` fixes, once per query, everything the backtracking
join of :meth:`~repro.queries.cq.ConjunctiveQuery.evaluate` used to redo on
every call: the greedy join order, which positions of each atom are *bound*
when the atom is reached (constants, or variables bound by earlier steps)
and which are *free*, and at which step each comparison becomes decidable.

The bound positions of a step are exactly the key of the hash index the
executor probes (:mod:`repro.engine.indexes`), turning the naive
full-relation rescan into a dictionary lookup.

Each plan also carries its :class:`SlotProgram`: the same steps with
every variable and constant replaced by a position in one flat list of
values, which is all the executor reads.  The term-level
:class:`PlanStep` fields stay for the readers that reason about terms
(SQL lowering, the columnar backend, the plan linter, the cost model).

Plans come in two flavors:

* the *full* plan (``first_atom=None``) orders atoms greedily by shared
  variables — the same heuristic the naive evaluator used;
* a *delta* plan (``first_atom=j``) forces atom ``j`` to be the first
  step, so that semi-naive evaluation can drive the join from the tiny
  set of Δ-facts matching that atom (:mod:`repro.engine.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.queries.atoms import Eq, Neq
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Const, Term, Var

__all__ = ["PlanStep", "SlotStep", "SlotProgram", "CompiledPlan",
           "compile_plan"]


@dataclass(frozen=True)
class PlanStep:
    """One atom of the join, annotated with its binding structure.

    Attributes
    ----------
    atom_index:
        Index of the atom in ``query.relation_atoms`` (the *original*
        body position — delta evaluation classifies steps by it).
    relation:
        Relation the step scans or probes.
    key_positions, key_terms:
        Positions whose value is known when the step runs (a constant,
        or a variable bound by an earlier step), and the terms supplying
        those values.  They form the hash-index key.
    outputs:
        ``(position, variable)`` pairs bound by this step — the first
        occurrence of each new variable.
    intra_checks:
        ``(position, variable)`` pairs where a variable introduced by
        this very step repeats; the row value must equal the binding.
    comparisons:
        ``Eq``/``Neq`` atoms whose variables are all bound once this
        step has run; checked eagerly to prune the search.
    """

    atom_index: int
    relation: str
    key_positions: tuple[int, ...]
    key_terms: tuple[Term, ...]
    outputs: tuple[tuple[int, Var], ...]
    intra_checks: tuple[tuple[int, Var], ...]
    comparisons: tuple[Any, ...]

    @property
    def is_scan(self) -> bool:
        """True when the step probes no index: every row is examined."""
        return not self.key_positions


class SlotStep(NamedTuple):
    """One plan step in positional form: every entry is a slot index.

    ``key`` is parallel to ``step.key_positions``; ``outputs`` and
    ``repeats`` are ``(row position, slot)`` pairs (a repeat's slot is
    bound by an output of the same step); ``equal`` and ``unequal`` are
    the step's comparisons as ``(left slot, right slot)`` pairs.
    """

    step: PlanStep
    key: tuple[int, ...]
    outputs: tuple[tuple[int, int], ...]
    repeats: tuple[tuple[int, int], ...]
    equal: tuple[tuple[int, int], ...]
    unequal: tuple[tuple[int, int], ...]


class SlotProgram(NamedTuple):
    """A plan over one flat list of values.

    Each variable owns the slot its first output writes.  Each constant
    occurrence owns a slot of its own, filled in ``initial`` (the list a
    search starts from), so keys, comparisons and the head read
    constants and variables alike by index.
    """

    initial: tuple[Any, ...]
    steps: tuple[SlotStep, ...]
    head: tuple[int, ...]


@dataclass(frozen=True)
class CompiledPlan:
    """An ordered join plan for one CQ body.

    ``satisfiable`` is False when a ground comparison fails at compile
    time (``1 ≠ 1``); such plans evaluate to the empty set without
    touching the instance.  ``program`` is the slot form the executor
    runs.
    """

    query: ConjunctiveQuery
    steps: tuple[PlanStep, ...]
    head: tuple[Term, ...]
    satisfiable: bool
    program: SlotProgram

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def join_components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the body's join graph (atom indices).

        Two atoms are connected when they share a variable; more than one
        component means some cross product is inherent in the body, not
        an artifact of the join order."""
        atoms = self.query.relation_atoms
        parent = list(range(len(atoms)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        by_variable: dict[Var, int] = {}
        for index, atom in enumerate(atoms):
            for variable in atom.variables():
                if variable in by_variable:
                    parent[find(index)] = find(by_variable[variable])
                else:
                    by_variable[variable] = index
        groups: dict[int, set[int]] = {}
        for index in range(len(atoms)):
            groups.setdefault(find(index), set()).add(index)
        return tuple(frozenset(g) for g in
                     sorted(groups.values(), key=min))


def _greedy_order(query: ConjunctiveQuery,
                  first_atom: int | None) -> list[int]:
    """Join order over atom indices: the atom sharing the most variables
    with those already bound goes next (ties: fewest total variables) —
    the heuristic previously buried in ``ConjunctiveQuery._ordered_atoms``,
    optionally seeded with a forced first atom."""
    variables = [atom.variables() for atom in query.relation_atoms]
    remaining = list(range(len(variables)))
    ordered: list[int] = []
    bound: set[Var] = set()
    if first_atom is not None:
        remaining.remove(first_atom)
        ordered.append(first_atom)
        bound |= variables[first_atom]
    while remaining:
        best = max(remaining,
                   key=lambda i, bound=bound: (
                       len(variables[i] & bound), -len(variables[i])))
        ordered.append(best)
        remaining.remove(best)
        bound |= variables[best]
    return ordered


def compile_plan(query: ConjunctiveQuery,
                 first_atom: int | None = None) -> CompiledPlan:
    """Compile *query*'s body into an ordered, index-aware plan.

    *first_atom*, when given, pins that atom (by its position in
    ``query.relation_atoms``) as the first step — the hook semi-naive
    delta evaluation uses to drive the join from Δ.

    The slot program is built in the same pass: each variable's slot is
    allocated at its first output, each constant occurrence gets a
    pre-filled slot of its own.  Variables are tracked by name, which
    is what identifies a :class:`Var`.
    """
    satisfiable = True
    pending: list[tuple[Eq | Neq, frozenset[str]]] = []
    for comparison in query.comparisons:
        names = frozenset(v.name for v in comparison.variables())
        if names:
            pending.append((comparison, names))
        else:  # ground: decide now
            if not comparison.holds(comparison.left.value,
                                    comparison.right.value):
                satisfiable = False

    atoms = query.relation_atoms
    steps: list[PlanStep] = []
    slot_steps: list[SlotStep] = []
    #: variable name -> slot, for every variable bound so far.
    slots: dict[str, int] = {}
    initial: list[Any] = []

    def slot(term: Term) -> int:
        if isinstance(term, Var):
            return slots[term.name]
        initial.append(term.value)
        return len(initial) - 1

    for atom_index in _greedy_order(query, first_atom):
        atom = atoms[atom_index]
        key_positions: list[int] = []
        key_terms: list[Term] = []
        outputs: list[tuple[int, Var]] = []
        intra_checks: list[tuple[int, Var]] = []
        new_here: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const) or term.name in slots:
                key_positions.append(position)
                key_terms.append(term)
            elif term.name in new_here:
                intra_checks.append((position, term))
            else:
                outputs.append((position, term))
                new_here[term.name] = len(initial)
                initial.append(None)
        slots.update(new_here)
        bound = slots.keys()
        decidable = [c for c, names in pending if names <= bound]
        pending = [(c, names) for c, names in pending
                   if not names <= bound]
        step = PlanStep(
            atom_index=atom_index,
            relation=atom.relation,
            key_positions=tuple(key_positions),
            key_terms=tuple(key_terms),
            outputs=tuple(outputs),
            intra_checks=tuple(intra_checks),
            comparisons=tuple(decidable))
        steps.append(step)
        slot_steps.append(SlotStep(
            step, tuple([slot(term) for term in key_terms]),
            tuple([(p, slots[v.name]) for p, v in outputs]),
            tuple([(p, slots[v.name]) for p, v in intra_checks]),
            tuple([(slot(c.left), slot(c.right))
                   for c in decidable if isinstance(c, Eq)]),
            tuple([(slot(c.left), slot(c.right))
                   for c in decidable if isinstance(c, Neq)])))
    # Safety guarantees every comparison variable occurs in some relation
    # atom, so nothing can remain pending after the last step.
    assert not pending, "unsafe query slipped past ConjunctiveQuery"
    head = tuple([slot(term) for term in query.head])
    return CompiledPlan(query=query, steps=tuple(steps),
                        head=query.head, satisfiable=satisfiable,
                        program=SlotProgram(tuple(initial),
                                            tuple(slot_steps), head))
