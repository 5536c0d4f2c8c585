"""A materializing RCDP reference: the decider's search, checked naively.

:func:`reference_rcdp` walks the candidates :func:`repro.core.rcdp.
decide_rcdp` walks — the same tableaux and ``Adom``, the same IND row
filter (:func:`~repro.core.rcdp.split_ind_constraints`) and the same
valuation order (:func:`~repro.core.valuations.iter_valid_valuations`)
— but decides each one without an evaluation context: ``Q(D)`` by
``query.evaluate``, and ``(D ∪ Δ, Dm) ⊨ V`` by materializing ``D ∪ Δ``
(:func:`~repro.relational.instance.extend_unvalidated`) and running
:func:`~repro.constraints.containment.satisfies_all` on it.

It is test and benchmark code, not part of the library: the tests hold
the decider's status, certificate and ``constraint_checks`` to it, and
``bench_engine.py`` times it as its naive and indexed baselines.  It
expects a partially closed input in a decidable configuration; the
decider's validation and static analysis are not repeated here.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.constraints.containment import ContainmentConstraint, satisfies_all
from repro.core.rcdp import split_ind_constraints
from repro.core.results import RCDPStatus
from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.queries.tableau import Tableau
from repro.relational.instance import Instance, extend_unvalidated


def reference_rcdp(query: Any, database: Instance, master: Instance,
                   constraints: Sequence[ContainmentConstraint],
                   ) -> tuple[RCDPStatus, tuple | None, int]:
    """``(status, (facts, new answer) or None, constraint checks)``.

    Steps 1–5 of the decider: the first valid valuation ``μ`` whose
    ``μ(u)`` is not in ``Q(D)`` and whose ``D ∪ μ(T)`` satisfies the
    non-IND constraints is the certificate; every valuation that gets
    past the ``Q(D)`` test counts one constraint check.
    """
    tableaux = [Tableau(d, database.schema)
                for d in query.to_cq_disjuncts()]
    adom = ActiveDomain.build(
        instances=(database, master),
        queries=[query] + [c.query for c in constraints],
        tableaux=[t for t in tableaux if t.satisfiable])
    answers = query.evaluate(database)
    row_filter, others = split_ind_constraints(constraints, master)
    checks = 0
    for tableau in tableaux:
        for valuation in iter_valid_valuations(tableau, adom, fresh="own",
                                               row_filter=row_filter):
            summary = tableau.summary_under(valuation)
            if summary in answers:
                continue
            checks += 1
            facts = tableau.instantiate(valuation)
            if satisfies_all(extend_unvalidated(database, facts), master,
                             others):
                return RCDPStatus.INCOMPLETE, (tuple(facts), summary), checks
    return RCDPStatus.COMPLETE, None, checks
