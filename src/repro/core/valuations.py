"""Active domains and valid-valuation enumeration (Section 3.2).

The paper's small-model property says it suffices to consider extensions
built from values in ``Adom``: all constants appearing in ``D``, ``Dm``,
``Q``, ``V``, plus a set ``New`` of distinct values not appearing anywhere,
one per tableau variable.  For a tableau variable ``y``:

* if ``y`` occurs in finite-domain columns, its candidates ``adom(y)`` are
  the values common to all of those finite domains (possibly none, and
  then the tableau has no valid valuation);
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
(``fresh="own"``), and so does the RCQP valuation-set search: its units
draw each constraint-tableau variable from ``"own"``, and its bounding
test enumerates the query tableau under ``"own"`` plus, through *extra*,
the fresh values the candidate set's units pinned down.  The whole pool
(``fresh="all"``) is kept for the fresh-policy ablation.

**Positional valuations.**  The deciders' guess-and-check visits every
valid valuation, so its cost per valuation is the whole constant of the
search.  A valuation is therefore a *value tuple*: ``values[i]`` is the
value of the ``i``-th variable of :meth:`Tableau.ordered_variables`.
:class:`TableauTemplates` compiles the summary and every row into index
templates over that tuple (``operator.itemgetter``, constants folded in),
so ``μ(u_Q)`` and ``μ(T_Q)`` need no ``Var``-keyed lookups.  The
enumerator attaches each ``≠`` atom and each row-filter test to the
variable that completes it (its *pruning point*) and runs
``itertools.product`` over each run of variables between pruning points,
so binding a variable runs no Python code: per valuation, the Python-level
work is the checks that fall due and the generator handing it out.  The
IND filter (:class:`ProjectionFilter`) compiles to set membership on its
projected columns and is attached only to rows of the relations it
constrains.  A projection reading k ≥ 2 distinct variables is tested
at every prefix of them in slot order, not only once the last is bound:
the j-th prefix must lie in the allowed set projected onto its j
variables, or the partial valuation has no valid completion, so the
plan drops it before binding the rest (Corollary 3.4 applied to partial
valuations).  A prefix test that every combination of its variables'
candidates passes is left out of the plan.  Any other ``(relation, row)
→ bool`` predicate is tested on every row once the row is bound,
instantiated through its template.

**Summary groups.**  The searches' first test of a valuation, whether
its summary ``μ(u_Q)`` is in ``Q(D)`` (or, for the missing-answer and
E4 scans, found already), reads only the summary variables, so it falls
due once the last of them is bound: its pruning point, like a ``≠``
atom's or an IND test's.  A *grouped* enumeration hands out the
valuations below each binding of the variables up to there (or up to
the prefix depth, if deeper) as one :class:`ValuationGroup`, and a
kernel that already knows the group's summary decides all of it at
once, by its size, instead of walking it.  The size is the product of
the remaining candidate lists when no pruning point lies below the
group, and is counted through the plan otherwise, but only when a
kernel reads it: a group walked to an early witness is never counted.
A tableau whose
summary point is its last variable is not grouped: each group would be
one valuation.
"""

from __future__ import annotations

import collections
import itertools
import math
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ConstraintError
from repro.queries.tableau import Tableau, TableauRow
from repro.queries.terms import Const, Term, Var
from repro.relational.domain import FreshValue, FreshValueSupply
from repro.relational.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.search import HeadStart, ShardSpec

__all__ = ["ActiveDomain", "ProjectionFilter", "TableauTemplates",
           "ValuationGroup", "iter_valid_valuations"]

#: A compiled check on a (partial) value tuple.
Check = Callable[[tuple], bool]


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

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------

    def candidates_for(self, tableau: Tableau, variable: Var,
                       fresh: str = "own",
                       extra: Iterable[Any] = ()) -> list[Any]:
        """Candidate values ``adom(y)`` for *variable* of *tableau*.

        A variable in finite-domain columns ranges over the values all of
        those domains share (:meth:`Tableau.finite_values`), which may be
        one value or none.  *fresh* selects the fresh-value policy for
        infinite-domain variables: ``"own"`` (dedicated value only — the
        RCDP default), ``"all"`` (whole pool), or ``"none"`` (constants
        only).  *extra* adds further values (e.g. fresh values already
        pinned down by a candidate valuation set in the RCQP search);
        duplicates are removed.
        """
        finite = tableau.finite_values(variable)
        if finite is not None:
            return sorted(finite, key=repr)
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


# ---------------------------------------------------------------------------
# Positional plans
# ---------------------------------------------------------------------------


class ProjectionFilter:
    """The IND row filter: ``(relation, row) → bool``, true when each
    projection ``row[columns]`` of the row's relation lies in its allowed
    set.

    *projections* maps a relation to its ``(columns, allowed)`` pairs.
    Built by :func:`repro.core.rcdp.split_ind_constraints`; the
    enumerator reads *projections* to compile the filter into set
    membership on the rows it constrains.
    """

    __slots__ = ("projections",)

    def __init__(self, projections: dict[
            str, list[tuple[tuple[int, ...], frozenset]]]) -> None:
        self.projections = projections

    def __call__(self, relation: str, row: tuple) -> bool:
        for columns, allowed in self.projections.get(relation, ()):
            if tuple(row[c] for c in columns) not in allowed:
                return False
        return True


def _template(terms: Sequence[Term], position: dict[Var, int],
              width: int) -> Callable[[tuple], tuple]:
    """``values → μ(terms)`` for value tuples of length *width*: an
    ``itemgetter`` whose constant slots index past the values, into the
    template's constants appended to them."""
    constants = tuple(t.value for t in terms if isinstance(t, Const))
    if len(constants) == len(terms):
        return lambda values: constants
    constant_slots = itertools.count(width)
    slots = [position[t] if isinstance(t, Var) else next(constant_slots)
             for t in terms]
    if len(slots) == 1:
        slot = slots[0]
        return lambda values: (values[slot],)
    get = itemgetter(*slots)
    if not constants:
        return get
    return lambda values: get(values + constants)


class TableauTemplates:
    """A tableau read positionally: ``values[i]`` is the value of
    ``variables[i]`` (the :meth:`Tableau.ordered_variables` order), and
    the summary and every row are index templates over ``values``.

    The search kernels compile one per tableau and decision and read each
    valuation the enumerator yields through it: ``summary(values)`` is
    :meth:`Tableau.summary_under` and ``facts(values)`` is
    :meth:`Tableau.instantiate` on that valuation.  The check program
    (:mod:`repro.engine.checks`) generates its tests on the instantiated
    rows from :attr:`tableau` and :attr:`position`.

    *grouped* says whether the summary is bound before the last
    variable, so that a grouped enumeration hands the tableau's
    valuations over in :class:`ValuationGroup` items rather than one by
    one.
    """

    __slots__ = ("tableau", "variables", "position", "summary", "rows",
                 "grouped")

    def __init__(self, tableau: Tableau) -> None:
        self.tableau = tableau
        self.variables = tableau.ordered_variables()
        self.position = {v: i for i, v in enumerate(self.variables)}
        width = len(self.variables)
        self.summary = _template(tableau.summary, self.position, width)
        self.rows = tuple(
            (row.relation, _template(row.terms, self.position, width))
            for row in tableau.rows)
        self.grouped = _summary_depth(tableau, self.position) < width

    def facts(self, values: tuple) -> list[tuple[str, tuple]]:
        """``μ(T_Q)`` as ``(relation, tuple)`` pairs."""
        return [(relation, row(values)) for relation, row in self.rows]


def _inequality_check(left: Term, right: Term,
                      position: dict[Var, int]) -> Check:
    """``μ(left) ≠ μ(right)`` on a value tuple binding both sides."""
    if isinstance(left, Var) and isinstance(right, Var):
        i, j = position[left], position[right]
        return lambda values: values[i] != values[j]
    if isinstance(left, Var):
        i, constant = position[left], right.value
        return lambda values: values[i] != constant
    j, constant = position[right], left.value
    return lambda values: constant != values[j]


def _reads(slots: Sequence[int], allowed: frozenset) -> Check:
    """``values[slots] ∈ allowed``: a scalar test for one slot, else a
    tuple test."""
    if len(slots) == 1:
        slot = slots[0]
        return lambda values: values[slot] in allowed
    get = itemgetter(*slots)
    return lambda values: get(values) in allowed


def _membership_checks(terms: Sequence[Term], allowed: frozenset,
                       position: dict[Var, int],
                       candidates: Sequence[tuple] | None = None,
                       ) -> list[tuple[int, Check]]:
    """``μ(terms) ∈ allowed`` as ``(pruning point, check)`` pairs, for
    *terms* holding at least one variable: one per prefix of the
    distinct variables in slot order, the last one being the test
    itself.

    Unless *terms* are two or more distinct variables, *allowed* is
    rebuilt up front: it keeps the tuples that agree with the constants
    and repeated variables, projected onto the distinct variables, so the
    check reads only those (one variable: a scalar membership test).
    Given the plan's *candidates*, each proper prefix of k ≥ 2 variables
    adds a necessary condition at its last slot, *allowed* projected
    onto the prefix: a partial valuation failing it has no valid
    completion.  A prefix test that every combination of its slots'
    candidates passes is left out; without *candidates*, only the test
    itself is returned."""
    distinct = list(dict.fromkeys(t for t in terms if isinstance(t, Var)))
    if len(distinct) == 1 or len(distinct) < len(terms):
        first = {v: terms.index(v) for v in distinct}
        pinned = [(k, t.value) for k, t in enumerate(terms)
                  if isinstance(t, Const)]
        repeated = [(k, first[t]) for k, t in enumerate(terms)
                    if isinstance(t, Var) and first[t] != k]
        keep = itemgetter(*first.values())
        allowed = frozenset(
            keep(row) for row in allowed
            if all(row[k] == value for k, value in pinned)
            and all(row[k] == row[m] for k, m in repeated))
    slots = [position[v] for v in distinct]
    checks = [(max(slots), _reads(slots, allowed))]
    if candidates is not None:
        # When every combination of a prefix's candidates passes, so does
        # every combination of a shorter prefix's (an empty candidate
        # list leaves the plan nothing to yield either way): longest
        # first, the first such prefix ends the scan.
        order = sorted(range(len(slots)), key=slots.__getitem__)
        for size in range(len(slots) - 1, 0, -1):
            prefix = [slots[k] for k in order[:size]]
            projected = frozenset(map(itemgetter(*order[:size]), allowed))
            lists = [candidates[slot] for slot in prefix]
            if (math.prod(map(len, lists)) <= len(projected)
                    and projected.issuperset(
                        lists[0] if size == 1 else itertools.product(*lists))):
                break
            checks.append((prefix[-1], _reads(prefix, projected)))
    return checks[::-1]


def _row_checks(row: TableauRow, position: dict[Var, int],
                row_filter: Callable[[str, tuple], bool],
                candidates: Sequence[tuple],
                ) -> list[tuple[int, Check]] | None:
    """*row_filter* on *row* as ``(pruning point, check)`` pairs, or None
    when the row can never pass it.

    A :class:`ProjectionFilter` becomes, per projection of the row's
    relation (none for other relations), a membership test at the last
    slot of the variables it reads and, when it reads several, the
    necessary conditions of their prefixes that some combination of
    *candidates* fails (:func:`_membership_checks`); any other predicate
    is called on the row instantiated through its template once the
    row's last variable is bound."""
    variables = [t for t in row.terms if isinstance(t, Var)]
    if not variables:
        ground = tuple(t.value for t in row.terms)
        return [] if row_filter(row.relation, ground) else None
    if isinstance(row_filter, ProjectionFilter):
        checks = []
        for columns, allowed in row_filter.projections.get(row.relation,
                                                            ()):
            terms = [row.terms[c] for c in columns]
            if any(isinstance(t, Var) for t in terms):
                checks += _membership_checks(terms, allowed, position,
                                             candidates)
            elif tuple(t.value for t in terms) not in allowed:
                return None
        return checks
    point = max(position[v] for v in variables)
    relation = row.relation
    template = _template(row.terms, position, point + 1)
    return [(point, lambda values: row_filter(relation, template(values)))]


def _pruning_checks(tableau: Tableau, position: dict[Var, int],
                    row_filter: Callable[[str, tuple], bool] | None,
                    candidates: Sequence[tuple],
                    ) -> list[list[Check]] | None:
    """Per variable position, the checks that become decidable once it
    is bound: its ``≠`` atoms, then its row tests in row order (an IND
    test's prefix conditions at their own slots, read against the
    variables' *candidates*).  None when some row can never pass
    *row_filter*."""
    checks: list[list[Check]] = [[] for _ in position]
    for left, right in tableau.inequalities:
        point = max(position[t] for t in (left, right) if isinstance(t, Var))
        checks[point].append(_inequality_check(left, right, position))
    if row_filter is not None:
        for row in tableau.rows:
            row_checks = _row_checks(row, position, row_filter, candidates)
            if row_checks is None:
                return None
            for point, check in row_checks:
                checks[point].append(check)
    return checks


def _summary_depth(tableau: Tableau, position: dict[Var, int]) -> int:
    """How many leading slots bind every summary variable: one past the
    summary point, 0 when the summary holds no variable."""
    return max((position[t] + 1 for t in tableau.summary
                if isinstance(t, Var)), default=0)


def _extend(lists: Sequence[tuple], checks: Sequence[Check],
            prefix: tuple) -> Iterator[tuple]:
    """*prefix* extended by every combination of *lists*, kept when each
    of *checks* holds (applied in order, so each sees only the tuples the
    ones before it kept)."""
    stream: Iterator[tuple] = itertools.product(*lists)
    if prefix:
        stream = map(prefix.__add__, stream)
    for check in checks:
        stream = filter(check, stream)
    return stream


def _metered(extend: Callable[[tuple], Iterator[tuple]],
             meter: "HeadStart") -> Callable[[tuple], Iterator[tuple]]:
    """*extend*, counting each partial valuation it extends into
    *meter*."""
    def counted(prefix: tuple) -> Iterator[tuple]:
        meter.extensions += 1
        return extend(prefix)
    return counted


def _runs(candidates: Sequence[tuple], checks: Sequence[list[Check]],
          start: int, stop: int, meter: "HeadStart | None" = None,
          ) -> list[Callable[[tuple], Iterator[tuple]]]:
    """The plan from the variables ``< start`` to those ``< stop``: one
    product per run of variables ending at a pruning point (or at
    *stop*), each extending a partial valuation by its run.  A *meter*
    counts every partial valuation a run extends."""
    runs = []
    begin = start
    for index in range(start, stop):
        if not checks[index] and index < stop - 1:
            continue
        extend = partial(_extend, candidates[begin:index + 1], checks[index])
        runs.append(extend if meter is None else _metered(extend, meter))
        begin = index + 1
    return runs


def _chain(runs: Sequence[Callable[[tuple], Iterator[tuple]]],
           prefix: tuple = ()) -> Iterator[tuple]:
    """Valid extensions of *prefix* through *runs*, in lexicographic
    order."""
    stream: Iterator[tuple] | None = None
    for extend in runs:
        stream = (extend(prefix) if stream is None
                  else itertools.chain.from_iterable(map(extend, stream)))
    return iter((prefix,)) if stream is None else stream


def _completions(candidates: Sequence[tuple], checks: Sequence[list[Check]],
                 start: int, stop: int, prefix: tuple = (),
                 meter: "HeadStart | None" = None) -> Iterator[tuple]:
    """Valid extensions of *prefix* (binding variables ``< start``) to
    the variables ``< stop``, in lexicographic order."""
    return _chain(_runs(candidates, checks, start, stop, meter), prefix)


def _length(stream: Iterator[Any]) -> int:
    """How many items *stream* has left (consuming them)."""
    counter = itertools.count()
    collections.deque(zip(stream, counter), maxlen=0)
    return next(counter)


class _GroupPlan:
    """The summary groups of one grouped enumeration: below each shard
    prefix, the valid partial valuations of the variables from the
    prefix depth *depth* to slot *start* (exclusive) that have a valid
    completion, one per group (:meth:`groups`), and the plan extending
    one to the group's valuations (:meth:`walk`).

    With no pruning point at or below *start* (or an empty candidate
    list below the last one), every group has the same :attr:`size`,
    the product of the remaining candidate lists.  Otherwise the plan
    runs down to the last pruning point, and its partial valuations
    there are grouped by their first *start* values: they are a group's
    *members*, and its size is their number times the product of the
    lists below (:meth:`count`), counted only when a kernel reads it.
    Both go through the metered plan, so a head's meter counts the
    partial valuations they extend."""

    __slots__ = ("runs", "size", "bounds", "bound_of", "tail")

    def __init__(self, candidates: Sequence[tuple],
                 checks: Sequence[list[Check]], depth: int, start: int,
                 width: int, meter: "HeadStart | None") -> None:
        self.runs = _runs(candidates, checks, start, width, meter)
        last = max((index for index in range(start, width)
                    if checks[index]), default=start - 1)
        self.tail = math.prod(map(len, candidates[last + 1:width]))
        self.bounds = _runs(candidates, checks, depth, max(start, last + 1),
                            meter)
        self.size = self.tail if last < start or not self.tail else None
        self.bound_of = itemgetter(slice(0, start))

    def groups(self, prefix: tuple,
               ) -> Iterator[tuple[tuple, Iterator[tuple] | None]]:
        """``(bound, members)`` for the nonempty groups below the shard
        prefix *prefix*, in stream order; *members* is None when the
        groups' size is known.  A group's members are valid only until
        the next group is drawn."""
        if self.size is not None:
            if not self.size:
                return iter(())
            return zip(_chain(self.bounds, prefix), itertools.repeat(None))
        return itertools.groupby(_chain(self.bounds, prefix), self.bound_of)

    def count(self, members: Iterator[tuple]) -> int:
        """The size of the group whose *members* these are (consuming
        them)."""
        return _length(members) * self.tail

    def walk(self, prefix: tuple) -> Iterator[tuple]:
        return _chain(self.runs, prefix)


class ValuationGroup:
    """The valid valuations below one summary prefix: one item of a
    grouped enumeration (``iter_valid_valuations(..., groups=True)``).

    *bound* holds the values of the variables up to the group's depth,
    every summary variable among them, so all of the group's
    :attr:`size` valuations extend it and share one :attr:`summary`;
    they lie below the shard prefix numbered *number*, from
    :attr:`position` on.  A kernel that already knows the summary
    decides the whole group by its size; otherwise it walks the
    valuations (:meth:`walk`), and may stop at any of them.  A size the
    product of candidate lists does not give is counted through the plan
    when first read, so a walk stopped early costs no count.
    """

    __slots__ = ("summary", "position", "bound", "_number", "_plan",
                 "_size", "_members")

    def __init__(self, summary: tuple, number: int, position: int,
                 bound: tuple, plan: _GroupPlan,
                 members: Iterator[tuple] | None) -> None:
        self.summary = summary
        self.position = position
        self.bound = bound
        self._number = number
        self._plan = plan
        self._size = plan.size
        self._members = members

    @property
    def size(self) -> int:
        """How many valid valuations the group holds."""
        if self._size is None:
            self._size = self._plan.count(self._members)
        return self._size

    def walk(self, skip: int = 0) -> Iterator[tuple[int, int, tuple]]:
        """The group's valuations from its *skip*-th on, as the items of
        the plain stream: ``(prefix_index, position, values)``."""
        stream = self._plan.walk(self.bound)
        if skip:
            next(itertools.islice(stream, skip - 1, None), None)
        return zip(itertools.repeat(self._number),
                   itertools.count(self.position + skip), stream)


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
                          outer: tuple[int, ...] = (),
                          meter: "HeadStart | None" = None,
                          groups: bool = False,
                          ) -> Iterator[Any]:
    """Enumerate the *valid* valuations of *tableau* over *adom*.

    A valuation is valid when every variable takes a value from its
    candidate list and all residual ``≠`` side conditions hold
    (equivalently: ``Q(μ(T_Q))`` is nonempty).  The valuations come in
    lexicographic order over :meth:`Tableau.ordered_variables`, each
    variable's candidates in list order.  Each ``≠`` atom is checked as
    soon as both endpoints are bound, and between those pruning points
    the variables run as one ``itertools.product`` (see the module
    docstring).

    *row_filter*, when given, is a predicate ``(relation, row) → bool``
    on the instantiated tableau rows; valuations producing a rejected
    row are pruned as soon as the test is decidable.  The RCDP decider
    uses this for IND constraints, whose violation is tuple-local: any
    single instantiated row whose projection falls outside the master
    projection can never be part of a constraint-satisfying extension.
    A :class:`ProjectionFilter` is tested by set membership on the rows
    of the relations it constrains, as soon as their projected columns
    are bound, and at each earlier bound prefix of those columns'
    variables against the allowed set projected onto it; any other
    predicate on every row, once the row is bound.  Prefix tests prune
    only partial valuations without a valid completion, so the stream,
    its order and its prefix numbers are those of the full tests alone.

    Without a *shard*, each valuation is a dict from variable to value.
    With a *shard* (a :class:`~repro.core.search.ShardSpec`), only that
    shard's slice is enumerated, as ``(prefix_index, position, values)``
    triples, *values* being the value tuple a :class:`TableauTemplates`
    of *tableau* reads.  The stream is split at a *prefix depth* ``k``:
    the raw combinations of the first ``k`` variables' candidates are
    numbered ``prefix_index = 0, 1, 2, ...`` in lexicographic order (a
    prefix failing a pruning check keeps its number but yields nothing),
    shard ``i`` of ``n`` owns the prefixes with ``prefix_index % n ==
    i``, and *position* numbers the valid valuations below one prefix.
    Hence:

    * the union of all shards' valuations is the unsharded stream, for
      every shard count, since ownership is a function of the prefix
      number alone;
    * sorting the union by ``(prefix_index, position)`` reproduces the
      unsharded order exactly, so the minimum rank across shards is the
      valuation the unsharded enumeration meets first;
    * each shard's own stream is rank-increasing.

    ``k`` is the smallest depth whose raw prefix space reaches
    ``n × _OVERSUBSCRIBE`` combinations (capped at the variable count;
    ``0`` for a single shard), ``n`` being the shard's layout count
    (:attr:`~repro.core.search.ShardSpec.layout`): sharding only the top
    variable would cap the useful parallelism at its candidate-list
    size, which is 2 for boolean columns.  A head (shard 0 of 1 in the
    layout of ``n`` shards) numbers its valuations exactly as the shards
    it hands over to.

    The shard's slice starts at :meth:`~repro.core.search.ShardSpec.
    first` of *outer*, the rank components before the prefix number (a
    tableau index): prefixes below it belong to a head.  A *meter* (a
    head's :class:`~repro.core.search.HeadStart`) counts the partial
    valuations the plan extends, and the enumerator hands over at the
    next owned prefix once the meter is due.

    With *groups* (and a *shard*), a tableau whose summary is bound
    before its last variable (:attr:`TableauTemplates.grouped`) yields
    its valuations in groups: one ``(prefix_index, position, group)``
    item per valid partial valuation of its first ``g`` variables that
    has a valid completion, ``g`` being the larger of the prefix depth
    and one past the summary point, *group* a :class:`ValuationGroup` of
    the valuations below it and *position* that of its first one.  So
    each group lies inside one prefix, and expanded, the groups are the
    plain stream.  A group's size is the product of the remaining
    candidate lists when no pruning point lies at or below slot ``g``;
    otherwise it is counted through the plan when the kernel (or the
    enumerator, moving on to the next group) reads it, so a kernel that
    walks an open group and stops early pays for no count.  Other
    tableaux yield value tuples as without *groups*.

    Unsatisfiable tableaux yield nothing; a ground tableau yields the
    empty valuation (from shard 0).
    """
    if not tableau.satisfiable:
        return
    variables = tableau.ordered_variables()
    candidates = [tuple(adom.candidates_for(tableau, v, fresh=fresh,
                                            extra=extra))
                  for v in variables]
    position = {v: i for i, v in enumerate(variables)}
    checks = _pruning_checks(tableau, position, row_filter, candidates)
    if checks is None:
        return
    width = len(variables)

    if shard is None:
        yield from map(dict, map(zip, itertools.repeat(variables),
                                 _completions(candidates, checks, 0, width)))
        return

    first = shard.first(*outer)
    if first is None:
        return
    layout = shard.layout or shard.count
    depth, space = 0, 1
    target = layout * _OVERSUBSCRIBE if layout > 1 else 1
    while depth < width and space < target:
        space *= len(candidates[depth])
        depth += 1
    plan = None
    point = _summary_depth(tableau, position)
    if groups and point < width:
        point = max(point, depth)
        plan = _GroupPlan(candidates, checks, depth, point, width, meter)
        summary = _template(tableau.summary, position, point)
    # A prefix's number in the raw product: mixed radix, one digit per
    # prefix variable (its candidate's list position).
    digits = [{value: i for i, value in enumerate(values)}
              for values in candidates[:depth]]
    for prefix in _completions(candidates, checks, 0, depth, meter=meter):
        number = 0
        for value, digit in zip(prefix, digits):
            number = number * len(digit) + digit[value]
        if number < first or not shard.owns(number):
            continue
        if meter is not None and meter.due:
            meter.stop((*outer, number))
        if plan is None:
            yield from zip(itertools.repeat(number), itertools.count(),
                           _completions(candidates, checks, depth, width,
                                        prefix, meter))
            continue
        at = 0
        for bound, members in plan.groups(prefix):
            group = ValuationGroup(summary(bound), number, at, bound, plan,
                                   members)
            yield number, at, group
            at += group.size
