"""Query languages of the paper: CQ, UCQ, ∃FO⁺, FO, and datalog (FP)."""

from typing import TYPE_CHECKING

from repro import _lazy_exports
# ``cq`` and ``ucq`` stay eager: they share their names with the
# submodules ``queries/cq.py`` and ``queries/ucq.py``, and importing a
# submodule binds it on the package under its own name, so a lazily
# resolved function would be shadowed by the first import of its module.
from repro.queries.cq import ConjunctiveQuery, cq
from repro.queries.ucq import UnionOfConjunctiveQueries, ucq

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.atoms import Eq, Neq, RelAtom, eq, neq, rel
    from repro.queries.datalog import DatalogQuery, Rule, rule
    from repro.queries.efo import (And, AtomF, EFOQuery, Exists, Or, and_,
                                   atom_f, exists, or_)
    from repro.queries.fo import (FOAnd, FOAtom, FOExists, FOForall,
                                  FOImplies, FONot, FOOr, FOQuery, fo_and,
                                  fo_atom, fo_exists, fo_forall, fo_implies,
                                  fo_not, fo_or)
    from repro.queries.tableau import Tableau, TableauRow
    from repro.queries.terms import Const, Var, as_term, const, var

__all__ = [
    "And", "AtomF", "ConjunctiveQuery", "Const", "DatalogQuery", "EFOQuery",
    "Eq", "Exists", "FOAnd", "FOAtom", "FOExists", "FOForall", "FOImplies",
    "FONot", "FOOr", "FOQuery", "Neq", "Or", "RelAtom", "Rule", "Tableau",
    "TableauRow", "UnionOfConjunctiveQueries", "Var",
    "and_", "as_term", "atom_f", "const", "cq", "eq", "exists", "fo_and",
    "fo_atom", "fo_exists", "fo_forall", "fo_implies", "fo_not", "fo_or",
    "neq", "or_", "rel", "rule", "ucq", "var",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.queries.atoms": ("Eq", "Neq", "RelAtom", "eq", "neq", "rel"),
    "repro.queries.datalog": ("DatalogQuery", "Rule", "rule"),
    "repro.queries.efo": ("And", "AtomF", "EFOQuery", "Exists", "Or", "and_",
                          "atom_f", "exists", "or_"),
    "repro.queries.fo": ("FOAnd", "FOAtom", "FOExists", "FOForall",
                         "FOImplies", "FONot", "FOOr", "FOQuery", "fo_and",
                         "fo_atom", "fo_exists", "fo_forall", "fo_implies",
                         "fo_not", "fo_or"),
    "repro.queries.tableau": ("Tableau", "TableauRow"),
    "repro.queries.terms": ("Const", "Var", "as_term", "const", "var"),
})
