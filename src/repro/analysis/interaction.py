"""Constraint-interaction graphs and chase-termination classification.

The deciders treat the containment constraints ``V`` one at a time, but the
expensive failure modes are *interactions* between them.  Viewed as
tuple-generating dependencies, a containment constraint

    ``q(x̄) ⊆ p``  with  ``p = π_cols(M)``

says: whenever ``q``'s body is satisfiable over the database schema with
head values ``x̄``, the master relation ``M`` must hold a tuple carrying
``x̄`` at the projected columns — and *some* values at the remaining
columns.  Chasing such dependencies invents fresh values exactly at those
unprojected (existential) columns.  The classical weak-acyclicity test
(Fagin, Kolaitis, Miller, Popa: "Data exchange: semantics and query
answering") builds a graph over *predicate positions* and checks whether a
cycle passes through an existential edge; if none does, every chase
sequence terminates.

This module builds that graph for a whole scenario:

* **Nodes** are predicate positions ``(schema, relation, column)``.  When a
  relation name is shared between the database schema and the master
  schema (with equal arity), the two positions are merged into one node —
  that sharing is the only way master-side facts can feed back into
  constraint bodies, so it is exactly what closes cycles.
* **Flow edges** go from every body position of a head variable to the
  master column that variable is projected onto.
* **Fresh edges** go from those same body positions to every *unprojected*
  master column — the positions where a chase step invents fresh values.

`classify` reports ``ACYCLIC`` (no cycles at all), ``WEAKLY_ACYCLIC``
(cycles, but none through a fresh edge — the chase still terminates), or
``DIVERGENT`` (a cycle through a fresh edge: the chase may run forever and
the RCQP unit enumeration has no small model guarantee).

The same scenario-level view yields two more interaction facts:

* `forced_empty_relations` — denial INDs (empty or empty-on-``Dm``
  targets) force their source relations empty in every legal extension.
* `inapplicable_constraints` — constraints whose every disjunct ranges
  over a forced-empty relation can never fire; `drop_inapplicable` removes
  them without changing any verdict (witnesses may differ, because the
  dropped constraints no longer contribute constants to the active
  domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.queries.terms import Var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema

__all__ = [
    "Position",
    "EdgeKind",
    "ChaseClass",
    "InteractionEdge",
    "InteractionGraph",
    "build_interaction_graph",
    "forced_empty_relations",
    "inapplicable_constraints",
    "drop_inapplicable",
]


# A predicate position: (schema tag, relation name, column index).  The
# schema tag is "db" for database-schema positions and "dm" for
# master-schema positions; master positions whose relation name + arity
# also exist in the database schema are *merged* onto the "db" node.
Position = tuple[str, str, int]


class EdgeKind(Enum):
    FLOW = "flow"
    FRESH = "fresh"


class ChaseClass(Enum):
    """Chase-termination classification of a constraint set."""

    ACYCLIC = "acyclic"
    WEAKLY_ACYCLIC = "weakly-acyclic"
    DIVERGENT = "divergent"


@dataclass(frozen=True, slots=True)
class InteractionEdge:
    """One dependency edge, labelled with the constraint that induces it."""

    source: Position
    target: Position
    kind: EdgeKind
    constraint: str

    def render(self) -> str:
        arrow = "⇢" if self.kind is EdgeKind.FRESH else "→"
        return (f"{render_position(self.source)} {arrow} "
                f"{render_position(self.target)} [{self.constraint}]")


def render_position(position: Position) -> str:
    tag, relation, column = position
    prefix = "Dm." if tag == "dm" else ""
    return f"{prefix}{relation}.{column}"


@dataclass(frozen=True)
class InteractionGraph:
    """The position graph of a scenario, with its classification."""

    nodes: frozenset[Position]
    edges: tuple[InteractionEdge, ...]
    chase: ChaseClass
    # A concrete cycle witnessing DIVERGENT (passes through a fresh
    # edge), or witnessing WEAKLY_ACYCLIC (flow-only); empty for ACYCLIC.
    cycle: tuple[InteractionEdge, ...] = field(default=())

    def render_cycle(self) -> str:
        if not self.cycle:
            return ""
        parts = [render_position(self.cycle[0].source)]
        for edge in self.cycle:
            arrow = "⇢" if edge.kind is EdgeKind.FRESH else "→"
            parts.append(f" {arrow}[{edge.constraint}] ")
            parts.append(render_position(edge.target))
        return "".join(parts)

    def to_dict(self) -> dict[str, object]:
        return {
            "chase": self.chase.value,
            "nodes": sorted(render_position(n) for n in self.nodes),
            "edges": [e.render() for e in self.edges],
            "cycle": self.render_cycle() or None,
        }


def _position(schema: DatabaseSchema, master_schema: DatabaseSchema,
              tag: str, relation: str, column: int) -> Position:
    """Canonical node for a position, merging shared relation names."""
    if tag == "dm":
        if relation in schema.relations:
            db_rel = schema.relation(relation)
            dm_rel = master_schema.relation(relation)
            if db_rel.arity == dm_rel.arity:
                return ("db", relation, column)
    return (tag, relation, column)


def build_interaction_graph(
        constraints: Sequence[ContainmentConstraint], *,
        schema: DatabaseSchema,
        master_schema: DatabaseSchema) -> InteractionGraph:
    """Build the position graph of *constraints* and classify the chase."""
    nodes: set[Position] = set()
    edges: list[InteractionEdge] = []
    seen: set[tuple[Position, Position, EdgeKind, str]] = set()

    def canon(tag: str, relation: str, column: int) -> Position:
        node = _position(schema, master_schema, tag, relation, column)
        nodes.add(node)
        return node

    for constraint in constraints:
        target = constraint.projection
        for disjunct in constraint.query.to_cq_disjuncts():
            # Body positions of every variable of the disjunct.
            occurrences: dict[Var, list[Position]] = {}
            for atom in disjunct.relation_atoms:
                for column, term in enumerate(atom.terms):
                    if isinstance(term, Var):
                        occurrences.setdefault(term, []).append(
                            canon("db", atom.relation, column))
            if target.relation is None:
                # Denial target: the chase never fires a tuple-generating
                # step for it, so it contributes no edges (only nodes).
                continue
            try:
                master_rel = master_schema.relation(target.relation)
            except Exception:  # schema errors are RC101's business
                continue
            projected = set(target.columns)
            fresh_columns = [c for c in range(master_rel.arity)
                             if c not in projected]
            head_terms = disjunct.head
            for k, head_term in enumerate(head_terms):
                if not isinstance(head_term, Var):
                    continue
                if k >= len(target.columns):
                    continue  # arity mismatch: RC101's business
                sources = occurrences.get(head_term, ())
                flow_target = canon("dm", target.relation,
                                    target.columns[k])
                for source in sources:
                    key = (source, flow_target, EdgeKind.FLOW,
                           constraint.name)
                    if key not in seen:
                        seen.add(key)
                        edges.append(InteractionEdge(
                            source, flow_target, EdgeKind.FLOW,
                            constraint.name))
                    for column in fresh_columns:
                        fresh_target = canon("dm", target.relation, column)
                        fkey = (source, fresh_target, EdgeKind.FRESH,
                                constraint.name)
                        if fkey not in seen:
                            seen.add(fkey)
                            edges.append(InteractionEdge(
                                source, fresh_target, EdgeKind.FRESH,
                                constraint.name))

    chase, cycle = _classify(nodes, edges)
    return InteractionGraph(nodes=frozenset(nodes), edges=tuple(edges),
                            chase=chase, cycle=cycle)


def _strongly_connected_components(
        nodes: Iterable[Position],
        adjacency: Mapping[Position, Sequence[InteractionEdge]],
        ) -> list[set[Position]]:
    """Iterative Tarjan SCC (the graphs are tiny, but recursion-free)."""
    index: dict[Position, int] = {}
    lowlink: dict[Position, int] = {}
    on_stack: set[Position] = set()
    stack: list[Position] = []
    components: list[set[Position]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work: list[tuple[Position, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = adjacency.get(node, ())
            while edge_index < len(successors):
                successor = successors[edge_index].target
                edge_index += 1
                if successor not in index:
                    work[-1] = (node, edge_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: set[Position] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _cycle_through(edge: InteractionEdge, component: set[Position],
                   adjacency: Mapping[Position, Sequence[InteractionEdge]],
                   ) -> tuple[InteractionEdge, ...]:
    """A concrete cycle using *edge*, staying inside its SCC (BFS back)."""
    if edge.target == edge.source:
        return (edge,)
    # Shortest path edge.target → edge.source within the component.
    frontier: list[Position] = [edge.target]
    parents: dict[Position, InteractionEdge] = {}
    seen = {edge.target}
    while frontier:
        node = frontier.pop(0)
        if node == edge.source:
            break
        for out in adjacency.get(node, ()):
            if out.target in component and out.target not in seen:
                seen.add(out.target)
                parents[out.target] = out
                frontier.append(out.target)
    path: list[InteractionEdge] = []
    node = edge.source
    while node != edge.target:
        step = parents.get(node)
        if step is None:  # pragma: no cover - SCC guarantees a path
            return (edge,)
        path.append(step)
        node = step.source
    path.reverse()
    return (edge, *path)


def _classify(nodes: set[Position], edges: list[InteractionEdge],
              ) -> tuple[ChaseClass, tuple[InteractionEdge, ...]]:
    adjacency: dict[Position, list[InteractionEdge]] = {}
    for edge in edges:
        adjacency.setdefault(edge.source, []).append(edge)
    components = _strongly_connected_components(nodes, adjacency)
    membership: dict[Position, int] = {}
    for i, component in enumerate(components):
        for node in component:
            membership[node] = i
    cyclic: set[int] = {
        i for i, component in enumerate(components) if len(component) > 1}
    for edge in edges:  # self-loops
        if edge.source == edge.target:
            cyclic.add(membership[edge.source])
    if not cyclic:
        return ChaseClass.ACYCLIC, ()
    # Divergent iff some fresh edge lies inside a cyclic SCC.
    for edge in edges:
        if edge.kind is not EdgeKind.FRESH:
            continue
        if (membership[edge.source] == membership[edge.target]
                and membership[edge.source] in cyclic):
            component = components[membership[edge.source]]
            return ChaseClass.DIVERGENT, _cycle_through(
                edge, component, adjacency)
    # Weakly acyclic: render one flow-only cycle as the witness.
    for edge in edges:
        if (membership[edge.source] == membership[edge.target]
                and membership[edge.source] in cyclic):
            component = components[membership[edge.source]]
            return ChaseClass.WEAKLY_ACYCLIC, _cycle_through(
                edge, component, adjacency)
    return ChaseClass.WEAKLY_ACYCLIC, ()  # pragma: no cover


def forced_empty_relations(
        constraints: Sequence[ContainmentConstraint],
        master: Instance | None) -> dict[str, list[str]]:
    """Database relations forced empty by denial-acting INDs.

    An IND ``R[cols] ⊆ p`` whose target is the empty relation — or whose
    projection evaluates to no rows on the given master instance — admits
    no ``R``-tuple in any legal extension: every legal ``(D, Dm)`` and
    every completing ``Δ`` must keep ``R`` empty.  Returns a mapping from
    each forced relation to the (ordered) names of the constraints forcing
    it; the first name is the designated *keeper* that `drop_inapplicable`
    must retain to preserve the forcing.
    """
    forced: dict[str, list[str]] = {}
    for constraint in constraints:
        if not constraint.is_ind():
            continue
        target = constraint.projection
        if target.is_empty_target:
            empty = True
        elif master is not None:
            try:
                empty = not target.evaluate(master)
            except Exception:
                continue  # schema mismatch: RC101's business
        else:
            empty = False
        if empty:
            relation, _ = constraint.ind_source()
            forced.setdefault(relation, []).append(constraint.name)
    return forced


def inapplicable_constraints(
        constraints: Sequence[ContainmentConstraint],
        master: Instance | None) -> dict[str, str]:
    """Constraints that can never fire against the given master data.

    A constraint is *inapplicable* when every disjunct of its query
    contains an atom over a relation forced empty (see
    `forced_empty_relations`) — its query evaluates to ∅ on every legal
    extension, so the containment holds vacuously.  The designated keeper
    of each forced relation is never reported (dropping it would remove
    the forcing itself).  Returns ``{constraint name: reason}``.
    """
    forced = forced_empty_relations(constraints, master)
    if not forced:
        return {}
    keepers = {names[0] for names in forced.values()}
    result: dict[str, str] = {}
    for constraint in constraints:
        if constraint.name in keepers:
            continue
        reasons: list[str] = []
        for disjunct in constraint.query.to_cq_disjuncts():
            hit = next(
                (atom.relation for atom in disjunct.relation_atoms
                 if atom.relation in forced), None)
            if hit is None:
                break
            reasons.append(hit)
        else:
            if reasons:
                relations = sorted(set(reasons))
                forcers = sorted({forced[r][0] for r in relations})
                result[constraint.name] = (
                    f"every disjunct ranges over "
                    f"{', '.join(repr(r) for r in relations)}, forced "
                    f"empty by {', '.join(repr(f) for f in forcers)}")
    return result


def drop_inapplicable(
        constraints: Sequence[ContainmentConstraint],
        inapplicable: Iterable[str]) -> tuple[ContainmentConstraint, ...]:
    """Remove constraints named in *inapplicable*, preserving order.

    Sound for verdicts: an inapplicable constraint is satisfied by every
    legal extension (its query is empty on all of them), so the set of
    valid valuations — and hence every verdict — is unchanged.  Witnesses
    may differ, because dropped constraints no longer contribute constants
    to the active domain.
    """
    names = set(inapplicable)
    return tuple(c for c in constraints if c.name not in names)
