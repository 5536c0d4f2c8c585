"""Containment constraints (CCs): ``q(D) ⊆ p(Dm)``.

A CC pairs a query ``q`` over the database schema with a *projection* ``p``
over the master schema: ``p`` is a query of the form ``∃x̄ Rm_i(x̄, ȳ)``,
i.e. the projection of one master relation onto some of its columns
(Section 2.1).  The paper's shorthand ``q ⊆ ∅`` (projection on an empty
master relation) is modelled by :meth:`Projection.empty`.

Satisfaction: ``(D, Dm) ⊨ q ⊆ p`` iff ``q(D) ⊆ p(Dm)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import ConstraintError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema

__all__ = ["Projection", "ContainmentConstraint", "satisfies_all",
           "satisfies_all_extension", "violated_constraints"]

#: Query languages whose queries the exact deciders can handle in CCs.
_DECIDABLE_LANGUAGES = frozenset({"CQ", "UCQ", "EFO"})


@dataclass(frozen=True)
class Projection:
    """The right-hand side ``p`` of a CC.

    Either a projection ``π_columns(relation)`` of a master relation, or the
    empty target ``∅`` (``relation is None``), which evaluates to the empty
    set on every master instance.
    """

    relation: str | None
    columns: tuple[int, ...] = ()

    @classmethod
    def empty(cls) -> "Projection":
        """The target ``∅``."""
        return cls(relation=None, columns=())

    @classmethod
    def on(cls, relation: str, columns: Iterable[int]) -> "Projection":
        """Projection of *relation* on 0-based column indices *columns*."""
        return cls(relation=relation, columns=tuple(columns))

    @classmethod
    def full(cls, relation: str, arity: int) -> "Projection":
        """Identity projection of an *arity*-ary relation."""
        return cls(relation=relation, columns=tuple(range(arity)))

    @property
    def is_empty_target(self) -> bool:
        return self.relation is None

    @property
    def arity(self) -> int:
        return len(self.columns)

    def validate(self, master_schema: DatabaseSchema) -> None:
        if self.relation is None:
            return
        relation = master_schema.relation(self.relation)
        for column in self.columns:
            if not 0 <= column < relation.arity:
                raise ConstraintError(
                    f"projection column {column} out of range for master "
                    f"relation {self.relation!r} of arity {relation.arity}")

    def evaluate(self, master: Instance, *,
                 context: Any = None) -> frozenset[tuple]:
        """Compute ``p(Dm)``.

        With an :class:`~repro.engine.context.EvaluationContext` the
        result is memoized per (projection, master) pair — ``Dm`` is
        fixed for an entire decision, so each projection is computed at
        most once instead of on every constraint check.
        """
        if context is not None:
            return context.projection_rows(self, master)
        if self.relation is None:
            return frozenset()
        rows = master.relation(self.relation)
        return frozenset(
            tuple(row[c] for c in self.columns) for row in rows)

    def __repr__(self) -> str:
        if self.relation is None:
            return "∅"
        cols = ",".join(str(c) for c in self.columns)
        return f"π[{cols}]({self.relation})"


class ContainmentConstraint:
    """A containment constraint ``q ⊆ p``.

    *query* may be any of the library's query objects (CQ, UCQ, ∃FO⁺, FO,
    FP); its ``language`` attribute drives decidability checks in the core
    deciders.  The query arity must match the projection arity unless the
    target is ``∅`` (which contains nothing of any arity).
    """

    __slots__ = ("name", "query", "projection")

    def __init__(self, query: Any, projection: Projection,
                 name: str = "φ") -> None:
        if not hasattr(query, "evaluate") or not hasattr(query, "language"):
            raise ConstraintError(
                f"CC left-hand side must be a query object, got "
                f"{type(query).__name__}")
        if not isinstance(projection, Projection):
            raise ConstraintError(
                f"CC right-hand side must be a Projection, got "
                f"{type(projection).__name__}")
        arity = getattr(query, "arity", None)
        if (not projection.is_empty_target and arity is not None
                and arity != projection.arity):
            raise ConstraintError(
                f"CC {name!r}: query arity {arity} does not match "
                f"projection arity {projection.arity}")
        self.name = name
        self.query = query
        self.projection = projection

    @property
    def language(self) -> str:
        return self.query.language

    @property
    def is_decidable_language(self) -> bool:
        """True when the CC's query language keeps RCDP/RCQP decidable."""
        return self.language in _DECIDABLE_LANGUAGES

    def is_ind(self) -> bool:
        """True when this CC is an inclusion dependency: ``q`` itself is a
        projection query (single relation atom, distinct variables, head a
        subset of those variables, no comparisons)."""
        query = self.query
        if not isinstance(query, ConjunctiveQuery):
            return False
        if query.comparisons or len(query.relation_atoms) != 1:
            return False
        atom = query.relation_atoms[0]
        terms = atom.terms
        if len(set(terms)) != len(terms):
            return False
        from repro.queries.terms import Var

        if not all(isinstance(t, Var) for t in terms):
            return False
        return all(t in terms for t in query.head)

    def ind_source(self) -> tuple[str, tuple[int, ...]]:
        """For an IND, return ``(relation, projected column indices)``."""
        if not self.is_ind():
            raise ConstraintError(f"CC {self.name!r} is not an IND")
        query: ConjunctiveQuery = self.query
        atom = query.relation_atoms[0]
        positions = {term: pos for pos, term in enumerate(atom.terms)}
        return atom.relation, tuple(positions[t] for t in query.head)

    def validate(self, schema: DatabaseSchema,
                 master_schema: DatabaseSchema) -> None:
        self.query.validate(schema)
        self.projection.validate(master_schema)

    def is_satisfied(self, database: Instance, master: Instance, *,
                     context: Any = None) -> bool:
        """``(D, Dm) ⊨ q ⊆ p``."""
        answers = (context.evaluate(self.query, database)
                   if context is not None
                   else self.query.evaluate(database))
        if not answers:
            return True
        if self.projection.is_empty_target:
            return False
        return answers <= self.projection.evaluate(master, context=context)

    def is_satisfied_extension(self, base: Instance,
                               delta_facts: Iterable[tuple[str, tuple]],
                               master: Instance, *,
                               context: Any = None) -> bool:
        """``(base ∪ Δ, Dm) ⊨ q ⊆ p`` without materializing the union.

        With a context, the check is delegated to
        :meth:`~repro.engine.context.EvaluationContext
        .extension_satisfies` — the semi-naive delta rule over the
        cached ``q(base)``, on every backend; without one the union is
        materialized.  Same verdict both ways.
        """
        if context is None:
            from repro.relational.instance import extend_unvalidated

            return self.is_satisfied(extend_unvalidated(base, delta_facts),
                                     master)
        return context.extension_satisfies(self.query, base, delta_facts,
                                           self.projection, master)

    def violating_answers(self, database: Instance,
                          master: Instance, *,
                          context: Any = None) -> frozenset[tuple]:
        """The answers of ``q(D)`` missing from ``p(Dm)`` (evidence)."""
        answers = (context.evaluate(self.query, database)
                   if context is not None
                   else self.query.evaluate(database))
        return frozenset(
            answers - self.projection.evaluate(master, context=context))

    def __repr__(self) -> str:
        return f"{self.name}: {self.query!r} ⊆ {self.projection!r}"


def satisfies_all(database: Instance, master: Instance,
                  constraints: Sequence[ContainmentConstraint], *,
                  context: Any = None) -> bool:
    """``(D, Dm) ⊨ V``."""
    return all(c.is_satisfied(database, master, context=context)
               for c in constraints)


def satisfies_all_extension(base: Instance,
                            delta_facts: Iterable[tuple[str, tuple]],
                            master: Instance,
                            constraints: Sequence[ContainmentConstraint], *,
                            context: Any = None) -> bool:
    """``(base ∪ Δ, Dm) ⊨ V`` — the candidate-extension check of the
    searches without tableau templates, on the delta path when a context
    is supplied, on the union materialized once without one."""
    delta_facts = list(delta_facts)
    if context is None:
        from repro.relational.instance import extend_unvalidated

        return satisfies_all(extend_unvalidated(base, delta_facts), master,
                             constraints)
    return all(c.is_satisfied_extension(base, delta_facts, master,
                                        context=context)
               for c in constraints)


def violated_constraints(database: Instance, master: Instance,
                         constraints: Sequence[ContainmentConstraint], *,
                         context: Any = None) -> list[ContainmentConstraint]:
    """The subset of *constraints* violated by ``(D, Dm)``."""
    return [c for c in constraints
            if not c.is_satisfied(database, master, context=context)]
