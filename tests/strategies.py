"""Hypothesis strategies for random queries and instances.

Shared by the deep property-test modules: generates small random
conjunctive queries (safe by construction) and instances over a fixed
two-relation schema.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.queries.atoms import Eq, Neq, RelAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Const, Var
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema([
    RelationSchema("R", ["a", "b"]),
    RelationSchema("T", ["x", "y", "z"]),
])

_VAR_NAMES = ["v0", "v1", "v2", "v3"]
_CONSTANTS = [0, 1, 2]


@st.composite
def terms(draw) -> object:
    """A variable (likely) or a constant."""
    if draw(st.booleans()) or draw(st.booleans()):
        return Var(draw(st.sampled_from(_VAR_NAMES)))
    return Const(draw(st.sampled_from(_CONSTANTS)))


@st.composite
def relation_atoms(draw) -> RelAtom:
    name = draw(st.sampled_from(["R", "T"]))
    arity = SCHEMA.relation(name).arity
    return RelAtom(name, [draw(terms()) for _ in range(arity)])


@st.composite
def conjunctive_queries(draw, max_atoms: int = 3,
                        allow_inequalities: bool = True,
                        max_comparisons: int = 1,
                        ) -> ConjunctiveQuery:
    """A safe random CQ: head variables drawn from the body atoms.

    Up to *max_comparisons* comparisons, each between a variable and a
    variable or constant; above the default of 1 the sides may be
    swapped, so a constant can sit on either side.
    """
    atoms = [draw(relation_atoms())
             for _ in range(draw(st.integers(1, max_atoms)))]
    body_vars = sorted(
        {v for atom in atoms for v in atom.variables()},
        key=lambda v: v.name)
    comparisons = []
    for _ in range(max_comparisons):
        if not (body_vars and draw(st.booleans())):
            break
        left = draw(st.sampled_from(body_vars))
        right = draw(st.one_of(
            st.sampled_from(body_vars),
            st.sampled_from(_CONSTANTS).map(Const)))
        if max_comparisons > 1 and draw(st.booleans()):
            left, right = right, left
        kind = Neq if (allow_inequalities and draw(st.booleans())) else Eq
        if not (kind is Neq and left == right):
            comparisons.append(kind(left, right))
    head_size = draw(st.integers(0, min(2, len(body_vars))))
    head = draw(st.permutations(body_vars))[:head_size] if body_vars \
        else []
    return ConjunctiveQuery(head, atoms + comparisons, name="Qrand")


@st.composite
def union_queries(draw, max_disjuncts: int = 2,
                  allow_inequalities: bool = True,
                  max_comparisons: int = 1,
                  ) -> UnionOfConjunctiveQueries:
    """A random UCQ whose disjuncts share one arity."""
    first = draw(conjunctive_queries(
        allow_inequalities=allow_inequalities,
        max_comparisons=max_comparisons))
    disjuncts = [first]
    for _ in range(draw(st.integers(0, max_disjuncts - 1))):
        candidate = draw(conjunctive_queries(
            allow_inequalities=allow_inequalities,
            max_comparisons=max_comparisons))
        if candidate.arity == first.arity:
            disjuncts.append(candidate)
    return UnionOfConjunctiveQueries(disjuncts, name="Urand")


_r_rows = st.frozensets(
    st.tuples(st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS)),
    max_size=5)
_t_rows = st.frozensets(
    st.tuples(st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS),
              st.sampled_from(_CONSTANTS)),
    max_size=4)


@st.composite
def instances(draw) -> Instance:
    """A small random instance of the shared schema."""
    return Instance(SCHEMA, {"R": draw(_r_rows), "T": draw(_t_rows)})


_r_fact = st.tuples(
    st.just("R"),
    st.tuples(st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS)))
_t_fact = st.tuples(
    st.just("T"),
    st.tuples(st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS),
              st.sampled_from(_CONSTANTS)))


@st.composite
def extension_facts(draw, max_facts: int = 4) -> list[tuple[str, tuple]]:
    """A small random Δ over the shared schema, as ``(relation, row)``
    facts.  Deliberately *may* overlap an instance drawn from
    :func:`instances` — the delta-evaluation path must filter Δ ∩ D
    itself, so the tests feed it unfiltered extensions."""
    return draw(st.lists(st.one_of(_r_fact, _t_fact), max_size=max_facts))
