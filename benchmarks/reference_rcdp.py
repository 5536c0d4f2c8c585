"""Materializing references: the decider's search, checked naively.

:func:`reference_rcdp` walks the candidates :func:`repro.core.rcdp.
decide_rcdp` walks — the same tableaux and ``Adom``, the same IND row
filter (:func:`~repro.core.rcdp.split_ind_constraints`) and the same
valuation order (:func:`~repro.core.valuations.iter_valid_valuations`)
— but decides each one without an evaluation context: ``Q(D)`` by
``query.evaluate``, and ``(D ∪ Δ, Dm) ⊨ V`` by materializing ``D ∪ Δ``
(:func:`~repro.relational.instance.extend_unvalidated`) and running
:func:`~repro.constraints.containment.satisfies_all` on it.
:func:`reference_missing` collects
:func:`~repro.core.rcdp.missing_answers_report`'s new answers over the
same candidates, and :func:`reference_count` counts
:func:`~repro.incomplete.counting.count_completing_extensions`'s
distinct completing extensions, the same way.  Each visits the valid
valuations one by one, in the plain (ungrouped) stream, so each also
reports how many it visited: the ``valuations_examined`` the searches
report, whether they visited a valuation or decided it in a block.

It is test and benchmark code, not part of the library: the tests hold
the decider's status, certificate, ``constraint_checks`` and
``valuations_examined``, the missing answers in first-occurrence order
with the same two counters, and the count's count with the same two
counters, to it; ``bench_engine.py`` times it as its naive and indexed
baselines.  It expects a decidable configuration; the decider's
validation and static analysis are not repeated here.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.constraints.containment import ContainmentConstraint, satisfies_all
from repro.core.rcdp import split_ind_constraints
from repro.core.results import RCDPStatus
from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.queries.tableau import Tableau
from repro.relational.instance import Instance, extend_unvalidated


def _candidates(query: Any, database: Instance, master: Instance,
                constraints: Sequence[ContainmentConstraint],
                ) -> tuple[Iterator[tuple[list, tuple] | None],
                           list[ContainmentConstraint]]:
    """The decider's valid valuations in its order, and the constraints
    the IND row filter leaves to check.  A valuation whose ``μ(u)`` is
    in ``Q(D)`` comes as None, any other as ``(μ(T), μ(u))``."""
    tableaux = [Tableau(d, database.schema)
                for d in query.to_cq_disjuncts()]
    adom = ActiveDomain.build(
        instances=(database, master),
        queries=[query] + [c.query for c in constraints],
        tableaux=[t for t in tableaux if t.satisfiable])
    answers = query.evaluate(database)
    row_filter, others = split_ind_constraints(constraints, master)

    def candidates() -> Iterator[tuple[list, tuple] | None]:
        for tableau in tableaux:
            for valuation in iter_valid_valuations(
                    tableau, adom, fresh="own", row_filter=row_filter):
                summary = tableau.summary_under(valuation)
                yield (None if summary in answers
                       else (tableau.instantiate(valuation), summary))

    return candidates(), others


def reference_rcdp(query: Any, database: Instance, master: Instance,
                   constraints: Sequence[ContainmentConstraint],
                   ) -> tuple[RCDPStatus, tuple | None, int, int]:
    """``(status, (facts, new answer) or None, constraint checks,
    valuations examined)``.

    Steps 1–5 of the decider: the first valid valuation ``μ`` whose
    ``μ(u)`` is not in ``Q(D)`` and whose ``D ∪ μ(T)`` satisfies the
    non-IND constraints is the certificate; every valuation that gets
    past the ``Q(D)`` test counts one constraint check, and every valid
    valuation up to the certificate counts as examined.  The input is
    expected partially closed.
    """
    candidates, others = _candidates(query, database, master, constraints)
    checks = examined = 0
    for candidate in candidates:
        examined += 1
        if candidate is None:
            continue
        facts, summary = candidate
        checks += 1
        if satisfies_all(extend_unvalidated(database, facts), master,
                         others):
            return (RCDPStatus.INCOMPLETE, (tuple(facts), summary), checks,
                    examined)
    return RCDPStatus.COMPLETE, None, checks, examined


def reference_missing(query: Any, database: Instance, master: Instance,
                      constraints: Sequence[ContainmentConstraint], *,
                      limit: int | None = None,
                      ) -> tuple[list[tuple], int, int]:
    """``(new answers in first-occurrence order, valuations examined,
    constraint checks)``.

    Over every valid valuation: a ``μ(u)`` in ``Q(D)`` or found already
    is passed over; any other costs one constraint check when some
    constraint is left to check, and is a new answer when ``D ∪ μ(T)``
    satisfies them.  The walk stops once *limit* answers are found (at
    the first one when *limit* is 0), as the report's does.
    """
    candidates, others = _candidates(query, database, master, constraints)
    found: dict[tuple, None] = {}
    checks = examined = 0
    for candidate in candidates:
        examined += 1
        if candidate is None or candidate[1] in found:
            continue
        facts, summary = candidate
        if others:
            checks += 1
            if not satisfies_all(extend_unvalidated(database, facts),
                                 master, others):
                continue
        found[summary] = None
        if limit is not None and len(found) >= limit:
            break
    return list(found), examined, checks


def reference_count(query: Any, database: Instance, master: Instance,
                    constraints: Sequence[ContainmentConstraint], *,
                    max_extensions: int | None = None,
                    ) -> tuple[int, int, int]:
    """``(count, constraint checks, valuations examined)`` of the
    distinct completing extensions: over the decider's candidates, the
    fresh-fact sets ``Δ = μ(T) \\ D`` whose ``D ∪ Δ`` satisfies the
    non-IND constraints, deduplicated by ``frozenset``.  A candidate
    whose Δ is already counted is not checked; every other one counts
    one constraint check when some constraint is left to check.  The
    walk stops once *max_extensions* are counted, as the count's does."""
    candidates, others = _candidates(query, database, master, constraints)
    counted: set[frozenset] = set()
    checks = examined = 0
    for candidate in candidates:
        examined += 1
        if candidate is None:
            continue
        facts, _ = candidate
        fresh = frozenset((relation, row) for relation, row in facts
                          if row not in database.relation(relation))
        if fresh in counted:
            continue
        if others:
            checks += 1
            if not satisfies_all(extend_unvalidated(database, facts),
                                 master, others):
                continue
        counted.add(fresh)
        if max_extensions is not None and len(counted) >= max_extensions:
            break
    return len(counted), checks, examined
