"""Active domains and valid-valuation enumeration (Section 3.2).

The paper's small-model property says it suffices to consider extensions
built from values in ``Adom``: all constants appearing in ``D``, ``Dm``,
``Q``, ``V``, plus a set ``New`` of distinct values not appearing anywhere,
one per tableau variable.  For a tableau variable ``y``:

* if ``y`` occurs in a finite-domain column, its candidates ``adom(y)`` are
  that finite domain's values;
* otherwise its candidates are the shared constants plus fresh value(s).

**Dedicated-fresh optimization.**  Enumerating every variable over the whole
``New`` pool is wasteful: if an incompleteness witness maps two variables to
the *same* fresh value, splitting them onto distinct fresh values yields
another witness.  (Sketch: collapsing distinct fresh values is a
homomorphism fixing ``D``, ``Dm``, and all constants; monotone CC queries
are preserved under homomorphisms, and a CC answer containing a fresh value
can never be inside ``p(Dm)``, so constraint satisfaction transfers, while a
summary containing a fresh value is never in ``Q(D)``.)  The RCDP
enumeration therefore gives each variable only *its own* fresh value
(``fresh="own"``); the RCQP valuation-set search, where fresh values of the
query tableau must be reachable by constraint-tableau valuations, uses the
full pool (``fresh="all"``).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import ConstraintError
from repro.queries.tableau import Tableau
from repro.queries.terms import Var
from repro.relational.domain import FreshValue, FreshValueSupply
from repro.relational.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.search import ShardSpec

__all__ = ["ActiveDomain", "iter_valid_valuations"]

Valuation = dict[Var, Any]


class ActiveDomain:
    """The active domain ``Adom`` of an RCDP/RCQP instance.

    Built once per decision from the database, master data, query, and
    constraints; hands out per-variable candidate lists.
    """

    __slots__ = ("constants", "_fresh_by_name", "_supply")

    def __init__(self, constants: Iterable[Any]) -> None:
        self.constants: frozenset[Any] = frozenset(constants)
        self._fresh_by_name: dict[str, FreshValue] = {}
        self._supply = FreshValueSupply(prefix="adom")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, instances: Iterable[Instance],
              queries: Iterable[Any],
              tableaux: Iterable[Tableau] = ()) -> "ActiveDomain":
        """Collect constants from *instances* and *queries*, and register a
        dedicated fresh value for every variable of *tableaux*."""
        constants: set[Any] = set()
        for instance in instances:
            constants |= instance.active_domain()
        for query in queries:
            constants |= set(query.constants())
        adom = cls(constants)
        for tableau in tableaux:
            adom.register_tableau(tableau)
        return adom

    def register_tableau(self, tableau: Tableau) -> None:
        """Ensure every variable of *tableau* has a dedicated fresh value."""
        for variable in tableau.ordered_variables():
            self.fresh_for(variable)

    def fresh_for(self, variable: Var) -> FreshValue:
        """The dedicated fresh value of *variable* (created on demand).

        Keyed by variable name: distinct tableaux that happen to reuse a
        name share the fresh value, which is harmless because valuations of
        different tableaux are enumerated independently.
        """
        existing = self._fresh_by_name.get(variable.name)
        if existing is not None:
            return existing
        fresh = self._supply.take(variable.name)
        self._fresh_by_name[variable.name] = fresh
        return fresh

    @property
    def fresh_pool(self) -> tuple[FreshValue, ...]:
        """All fresh values registered so far, in registration order."""
        return tuple(self._fresh_by_name.values())

    @property
    def all_values(self) -> frozenset[Any]:
        """Constants plus the whole fresh pool."""
        return self.constants | frozenset(self._fresh_by_name.values())

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------

    def candidates_for(self, tableau: Tableau, variable: Var,
                       fresh: str = "own",
                       extra: Iterable[Any] = ()) -> list[Any]:
        """Candidate values ``adom(y)`` for *variable* of *tableau*.

        *fresh* selects the fresh-value policy for infinite-domain
        variables: ``"own"`` (dedicated value only — the RCDP default),
        ``"all"`` (whole pool), or ``"none"`` (constants only).  *extra*
        adds further values (e.g. fresh values already pinned down by a
        candidate valuation set in the RCQP search); duplicates are
        removed.
        """
        domain = tableau.domain_of(variable)
        if not domain.is_infinite:
            return sorted(domain.values, key=repr)  # type: ignore[attr-defined]
        values = sorted(self.constants, key=repr)
        if fresh == "own":
            values.append(self.fresh_for(variable))
        elif fresh == "all":
            values.extend(self.fresh_pool)
        elif fresh != "none":
            raise ConstraintError(f"unknown fresh policy {fresh!r}")
        for value in extra:
            if value not in values:
                values.append(value)
        return values


#: Prefix-space oversubscription of a sharded enumeration: the prefix
#: depth is grown until the raw prefix space holds at least this many
#: prefixes per shard, so round-robin ownership stays balanced even when
#: the top-level candidate lists are tiny (e.g. BOOLEAN columns).
_OVERSUBSCRIBE = 4


def iter_valid_valuations(tableau: Tableau, adom: ActiveDomain,
                          fresh: str = "own",
                          extra: Iterable[Any] = (),
                          row_filter=None,
                          shard: "ShardSpec | None" = None,
                          ) -> Iterator[Any]:
    """Enumerate the *valid* valuations of *tableau* over *adom*.

    A valuation is valid when every variable takes a value from its
    candidate list and all residual ``≠`` side conditions hold
    (equivalently: ``Q(μ(T_Q))`` is nonempty).  The valuations come in
    depth-first order over :meth:`Tableau.ordered_variables`, each
    variable's candidates in list order; inequalities are checked as soon
    as both endpoints are bound, pruning the search tree.

    *row_filter*, when given, is a predicate ``(relation, row) → bool``
    applied to each tableau row as soon as all its variables are bound;
    branches producing a rejected row are pruned.  The RCDP decider uses
    this for IND constraints, whose violation is tuple-local: any single
    instantiated row whose projection falls outside the master projection
    can never be part of a constraint-satisfying extension.

    With a *shard* (a :class:`~repro.core.search.ShardSpec`), only that
    shard's slice is enumerated, as ``(prefix_index, position,
    valuation)`` triples.  The valuation tree is split at a *prefix
    depth* ``k``: the raw combinations of the first ``k`` variables'
    candidates are numbered ``prefix_index = 0, 1, 2, ...`` in
    lexicographic order (a prefix failing a pruning check keeps its
    number but yields nothing), shard ``i`` of ``n`` owns the prefixes
    with ``prefix_index % n == i``, and *position* numbers the valid
    valuations below one prefix.  Hence:

    * the union of all shards' valuations is the unsharded stream, for
      every shard count, since ownership is a function of the prefix
      number alone;
    * sorting the union by ``(prefix_index, position)`` reproduces the
      unsharded order exactly, so the minimum rank across shards is the
      valuation the unsharded enumeration meets first;
    * each shard's own stream is rank-increasing.

    ``k`` is the smallest depth whose raw prefix space reaches
    ``n × _OVERSUBSCRIBE`` combinations (capped at the variable count;
    ``0`` for a single shard): sharding only the top variable would cap
    the useful parallelism at its candidate-list size, which is 2 for
    boolean columns.

    Unsatisfiable tableaux yield nothing; a ground tableau yields the
    empty valuation (from shard 0).
    """
    if not tableau.satisfiable:
        return
    variables = tableau.ordered_variables()
    candidates = {
        v: adom.candidates_for(tableau, v, fresh=fresh, extra=extra)
        for v in variables}
    order_index = {v: i for i, v in enumerate(variables)}

    # Pre-compile inequality checks: for each variable, the checks that
    # become decidable once it is bound (both endpoints bound or constant).
    checks_at: dict[Var, list[tuple[Any, Any]]] = {v: [] for v in variables}
    for left, right in tableau.inequalities:
        endpoints = [t for t in (left, right) if isinstance(t, Var)]
        if not endpoints:
            continue  # ground inequalities handled by Tableau construction
        latest = max(endpoints, key=lambda v: order_index[v])
        checks_at[latest].append((left, right))

    # Pre-compile row-completion points: each tableau row is checked at the
    # moment its last (per order) variable is bound.
    rows_at: dict[Var, list] = {v: [] for v in variables}
    if row_filter is not None:
        for row in tableau.rows:
            row_vars = row.variables()
            if not row_vars:
                if not row_filter(row.relation, row.instantiate({})):
                    return
            else:
                latest = max(row_vars, key=lambda v: order_index[v])
                rows_at[latest].append(row)

    valuation: Valuation = {}

    def value_of(term: Any) -> Any:
        if isinstance(term, Var):
            return valuation[term]
        return term.value

    def descend(index: int, stop: int) -> Iterator[Valuation]:
        """The depth-first search: bind ``variables[index:stop]`` through
        the pruning checks, yielding the live *valuation* at each
        complete binding."""
        if index == stop:
            yield valuation
            return
        variable = variables[index]
        checks, rows = checks_at[variable], rows_at[variable]
        for candidate in candidates[variable]:
            valuation[variable] = candidate
            if checks and not all(value_of(left) != value_of(right)
                                  for left, right in checks):
                continue
            if rows and not all(
                    row_filter(row.relation, row.instantiate(valuation))
                    for row in rows):
                continue
            yield from descend(index + 1, stop)
        del valuation[variable]

    if shard is None:
        yield from map(dict, descend(0, len(variables)))
        return

    depth, space = 0, 1
    target = shard.count * _OVERSUBSCRIBE if shard.count > 1 else 1
    while depth < len(variables) and space < target:
        space *= len(candidates[variables[depth]])
        depth += 1
    # A prefix's number in the raw product: mixed radix, one digit per
    # prefix variable (its candidate's list position).
    digits = [{value: i for i, value in enumerate(candidates[v])}
              for v in variables[:depth]]
    for _ in descend(0, depth):
        prefix = 0
        for variable, digit in zip(variables, digits):
            prefix = prefix * len(digit) + digit[valuation[variable]]
        if not shard.owns(prefix):
            continue
        # (prefix, position, valuation) triples, built without a Python
        # frame per valuation.
        yield from zip(itertools.repeat(prefix), itertools.count(),
                       map(dict, descend(depth, len(variables))))
