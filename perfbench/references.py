"""References the benchmark checks each operation against.

None of these is the code under test: they are constructions whose
answer is known, the repository's independent solvers
(:mod:`repro.solvers` decides the formulas the reductions encode), the
``expected`` blocks of the shipped golden bundles, or values pinned in
this file.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

#: Missing answers of ``missing_answers_report`` on CRM q0
#: (``examples/bundles/crm_q0_area_code.json``): every constant of the
#: active domain except the two present 908-area customers, plus one
#: fresh value (the customer not yet in any table).
DENSE_CONSTANT_ANSWERS = frozenset({
    "+44-20", "01", "212", "44", "555-0001", "555-0002", "555-0003",
    "555-1001", "908", "ann", "bob", "c3", "cecilia", "e0", "e1", "e2",
    "e3", "i1", "ines", "sales"})
DENSE_FRESH_ANSWERS = 1
#: 23 candidates (22 constants + the variable's own fresh value) for
#: each of q0's four free tableau variables: 23**4.
DENSE_VALUATIONS = 279_841

#: Completing extensions of the ``general`` op.  Its CRM data is drawn
#: by the seed but always has the same shape (see
#: ``workloads.general_inputs``), so the count is seed-independent;
#: :func:`count_q0_extensions` re-derives it from the data.
GENERAL_EXTENSIONS = 24_336


def dense_answers_ok(answers: Iterable[tuple], is_fresh) -> bool:
    """Whether a q0 missing-answer set is the pinned one."""
    constants = {row[0] for row in answers if not is_fresh(row[0])}
    fresh = [row for row in answers if is_fresh(row[0])]
    return (constants == DENSE_CONSTANT_ANSWERS
            and len(fresh) == DENSE_FRESH_ANSWERS)


def count_q0_extensions(cust: set[tuple], dcust: set[tuple],
                        constants: Iterable[Any], area_code: str,
                        domestic: str) -> int:
    """Brute-force count of the completing extensions of q0 under the
    CRM default constraints, written from the constraints' definitions.

    q0 asks for the customers ``c`` with ``Cust(c, n, cc, area_code,
    p)``.  A candidate extension adds one ``Cust`` row over the active
    domain, each free variable also taking its own fresh value.  It
    completes ``D`` when ``c`` is not an answer yet and the row keeps
    the constraints: a domestic row (``cc == domestic``) must be a
    master ``DCust`` record (cust01, which also implies φ0's cid
    bound); other rows are unconstrained, and the management IND does
    not mention ``Cust``.  Every candidate adds a distinct row, so each
    one is its own extension.
    """
    answers = {row[0] for row in cust if row[3] == area_code}
    values = sorted(set(constants), key=repr)
    fresh = {name: object() for name in ("c", "n", "cc", "p")}
    count = 0
    for c, n, cc, p in itertools.product(
            values + [fresh["c"]], values + [fresh["n"]],
            values + [fresh["cc"]], values + [fresh["p"]]):
        if c in answers:
            continue
        if cc == domestic and (c, n, area_code, p) not in dcust:
            continue
        count += 1
    return count
