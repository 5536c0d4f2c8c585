"""Tableau representation ``(T_Q, u_Q)`` of conjunctive queries.

Section 3.2 of the paper represents a CQ ``Q`` as a tableau query
``(T_Q, u_Q)``: equality atoms are folded in — every variable of an equality
class ``eq(x)`` is replaced by one canonical variable, and classes pinned to
a constant are substituted by that constant — while inequality atoms are kept
as side conditions on valuations.  A query whose equalities are contradictory
(``x = 'a' ∧ x = 'b'``, or ``c ≠ c``) is *unsatisfiable* and is skipped by
the deciders.

A tableau also knows, for each of its variables, the *effective domain*: the
intersection of the finite attribute domains of the columns the variable
occurs in (or the infinite domain when it only occurs in infinite columns).
This drives the per-variable active domains ``adom(y)`` of the deciders.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import QueryError
from repro.queries.atoms import Eq, Neq
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Const, Term, Var
from repro.relational.domain import Domain, FiniteDomain
from repro.relational.schema import DatabaseSchema

__all__ = ["Tableau", "TableauRow"]

Valuation = Mapping[Var, Any]


class TableauRow:
    """One tuple template of the tableau: a relation name plus terms."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: tuple[Term, ...]) -> None:
        self.relation = relation
        self.terms = terms

    def variables(self) -> set[Var]:
        return {t for t in self.terms if isinstance(t, Var)}

    def is_ground(self) -> bool:
        """True when the row contains no variables (a constant tuple)."""
        return all(isinstance(t, Const) for t in self.terms)

    def instantiate(self, valuation: Valuation) -> tuple:
        """Apply *valuation*, producing a concrete database tuple."""
        return tuple(
            t.value if isinstance(t, Const) else valuation[t]
            for t in self.terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TableauRow)
                and self.relation == other.relation
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.relation, self.terms))

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}[{inner}]"


class _UnionFind:
    """Union-find over variables, with an optional constant pin per class."""

    def __init__(self) -> None:
        self._parent: dict[Var, Var] = {}
        self._pin: dict[Var, Any] = {}

    def _ensure(self, v: Var) -> None:
        if v not in self._parent:
            self._parent[v] = v

    def find(self, v: Var) -> Var:
        self._ensure(v)
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, a: Var, b: Var) -> bool:
        """Merge classes; return False on pin conflict (unsatisfiable)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        pin_a = self._pin.get(ra, _NO_PIN)
        pin_b = self._pin.get(rb, _NO_PIN)
        if pin_a is not _NO_PIN and pin_b is not _NO_PIN and pin_a != pin_b:
            return False
        self._parent[rb] = ra
        if pin_b is not _NO_PIN:
            self._pin[ra] = pin_b
        return True

    def pin(self, v: Var, value: Any) -> bool:
        """Pin the class of *v* to *value*; False on conflict."""
        root = self.find(v)
        existing = self._pin.get(root, _NO_PIN)
        if existing is not _NO_PIN:
            return existing == value
        self._pin[root] = value
        return True

    def resolve(self, v: Var) -> Term:
        """Canonical term of *v*: its pin constant, or class representative."""
        root = self.find(v)
        pin = self._pin.get(root, _NO_PIN)
        if pin is not _NO_PIN:
            return Const(pin)
        return root


class _NoPin:
    __slots__ = ()


_NO_PIN = _NoPin()


class Tableau:
    """The tableau ``(T_Q, u_Q)`` of a satisfiable-or-not CQ.

    Attributes
    ----------
    rows:
        Tuple templates, one per relation atom of the query (after equality
        folding).
    summary:
        The output template ``u_Q`` (head after folding).
    inequalities:
        Residual ``≠`` side conditions as ``(term, term)`` pairs; pairs of
        distinct constants (trivially true) are dropped during construction.
    satisfiable:
        False when equality folding or a ground inequality produced a
        contradiction — ``Q(D)`` is then empty on every ``D``.
    """

    __slots__ = ("query", "rows", "summary", "inequalities", "satisfiable",
                 "_domains", "_finite")

    def __init__(self, query: ConjunctiveQuery,
                 schema: DatabaseSchema) -> None:
        query.validate(schema)
        self.query = query
        uf = _UnionFind()
        consistent = True
        for comparison in query.comparisons:
            if not isinstance(comparison, Eq):
                continue
            left, right = comparison.left, comparison.right
            if isinstance(left, Var) and isinstance(right, Var):
                consistent &= uf.union(left, right)
            elif isinstance(left, Var):
                consistent &= uf.pin(left, right.value)
            elif isinstance(right, Var):
                consistent &= uf.pin(right, left.value)
            else:
                consistent &= (left.value == right.value)

        def canon(term: Term) -> Term:
            if isinstance(term, Var):
                return uf.resolve(term)
            return term

        self.rows = tuple(
            TableauRow(atom.relation,
                       tuple(canon(t) for t in atom.terms))
            for atom in query.relation_atoms)
        self.summary = tuple(canon(t) for t in query.head)

        inequalities: list[tuple[Term, Term]] = []
        for comparison in query.comparisons:
            if not isinstance(comparison, Neq):
                continue
            left, right = canon(comparison.left), canon(comparison.right)
            if isinstance(left, Const) and isinstance(right, Const):
                if left.value == right.value:
                    consistent = False
                # distinct constants: trivially true, drop
            elif left == right:
                consistent = False  # x ≠ x after folding
            else:
                inequalities.append((left, right))
        self.inequalities = tuple(inequalities)
        self.satisfiable = consistent
        self._column_domains(schema)

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------

    def _column_domains(self, schema: DatabaseSchema) -> None:
        """Record each variable's effective domain and, when it occurs in
        finite-domain columns, the values all of those domains share."""
        domains: dict[Var, Domain] = {}
        finite: dict[Var, frozenset] = {}
        for row in self.rows:
            relation = schema.relation(row.relation)
            for pos, term in enumerate(row.terms):
                if not isinstance(term, Var):
                    continue
                domain = relation.domain_at(pos)
                if not domain.is_infinite:
                    values = domain.values  # type: ignore[attr-defined]
                    finite[term] = finite.get(term, values) & values
                current = domains.get(term)
                if current is None or current.is_infinite:
                    domains[term] = domain
                elif not domain.is_infinite:
                    shared = finite[term]
                    if len(shared) >= 2:
                        domains[term] = FiniteDomain(
                            shared, name=f"{current!r}∩{domain!r}")
                    else:
                        # A FiniteDomain holds at least two values, so a
                        # smaller intersection keeps the smaller column
                        # domain here; the candidate lists read the exact
                        # intersection from finite_values().
                        domains[term] = min(current, domain,
                                            key=len)  # type: ignore[arg-type]
        self._domains, self._finite = domains, finite

    def domain_of(self, variable: Var) -> Domain:
        """Effective domain of *variable* (see module docstring)."""
        try:
            return self._domains[variable]
        except KeyError:
            raise QueryError(
                f"{variable!r} is not a variable of this tableau") from None

    def finite_values(self, variable: Var) -> frozenset | None:
        """The values *variable* can take when it occurs in finite-domain
        columns: those all of their domains share, which may be fewer
        than two or none.  None when it occurs only in infinite-domain
        columns."""
        if self.domain_of(variable).is_infinite:
            return None
        return self._finite[variable]

    def has_finite_domain(self, variable: Var) -> bool:
        """True when *variable* occurs in a finite-domain column."""
        return not self.domain_of(variable).is_infinite

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def variables(self) -> set[Var]:
        """Variables occurring in the tableau rows."""
        result: set[Var] = set()
        for row in self.rows:
            result |= row.variables()
        return result

    def ordered_variables(self) -> tuple[Var, ...]:
        """Deterministic variable order (for reproducible enumeration)."""
        return tuple(sorted(self.variables(), key=lambda v: v.name))

    def summary_variables(self) -> set[Var]:
        return {t for t in self.summary if isinstance(t, Var)}

    def constants(self) -> set[Any]:
        """All constants in rows, summary, and inequalities."""
        values: set[Any] = set()
        for row in self.rows:
            values |= {t.value for t in row.terms if isinstance(t, Const)}
        values |= {t.value for t in self.summary if isinstance(t, Const)}
        for left, right in self.inequalities:
            for term in (left, right):
                if isinstance(term, Const):
                    values.add(term.value)
        return values

    def ground_rows(self) -> list[TableauRow]:
        """Rows with no variables (the 'constant tuples' of Prop. 4.2)."""
        return [row for row in self.rows if row.is_ground()]

    def columns_of(self, variable: Var) -> Iterator[tuple[str, int]]:
        """Yield ``(relation, position)`` pairs where *variable* occurs."""
        for row in self.rows:
            for pos, term in enumerate(row.terms):
                if term == variable:
                    yield row.relation, pos

    # ------------------------------------------------------------------
    # Valuations
    # ------------------------------------------------------------------

    def respects_inequalities(self, valuation: Valuation) -> bool:
        """True when all residual ``≠`` conditions hold under *valuation*.

        Together with per-variable domain membership, this is exactly the
        paper's *valid valuation* condition: ``Q(μ(T_Q))`` is nonempty iff μ
        observes the inequalities.
        """

        def value(term: Term) -> Any:
            return term.value if isinstance(term, Const) else valuation[term]

        return all(value(left) != value(right)
                   for left, right in self.inequalities)

    def instantiate(self, valuation: Valuation) -> list[tuple[str, tuple]]:
        """Return the facts ``μ(T_Q)`` as ``(relation, tuple)`` pairs."""
        return [(row.relation, row.instantiate(valuation))
                for row in self.rows]

    def summary_under(self, valuation: Valuation) -> tuple:
        """Return ``μ(u_Q)``."""
        return tuple(
            t.value if isinstance(t, Const) else valuation[t]
            for t in self.summary)

    def __repr__(self) -> str:
        rows = ", ".join(repr(r) for r in self.rows)
        summary = ", ".join(repr(t) for t in self.summary)
        neqs = ""
        if self.inequalities:
            neqs = " | " + ", ".join(
                f"{l!r}≠{r!r}" for l, r in self.inequalities)
        sat = "" if self.satisfiable else " (unsatisfiable)"
        return f"Tableau[{rows} ⊢ ({summary}){neqs}]{sat}"
