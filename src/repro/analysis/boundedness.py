"""Static boundedness analysis: *why* is a query (not) relatively
complete, and what master data would fix it?

Section 2.3's third paradigm says that when no relatively complete
database exists, the master data must be expanded — but expanded *how*?
The syntactic characterization of Proposition 4.3 (conditions E3/E4)
pinpoints the culprit: an output variable over an infinite domain that no
IND covers.  This module turns that into a per-variable report naming the
database columns where the unbounded variable lives — exactly the
attributes a new master relation would need to bound.

The analysis is syntactic (sound for IND constraint sets, heuristic
guidance beyond), deliberately cheap, and used by the audit workflow to
narrate EXPAND_MASTER_DATA verdicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.queries.tableau import Tableau
from repro.queries.terms import Var
from repro.relational.schema import DatabaseSchema

__all__ = ["VariableStatus", "VariableReport", "BoundednessReport",
           "analyze_boundedness", "covering_ind"]


class VariableStatus(enum.Enum):
    """How an output variable is bounded (or not)."""

    FINITE_DOMAIN = "finite-domain"      # condition E3
    IND_COVERED = "ind-covered"          # condition E4
    CONSTRAINED = "constrained"          # touched by a non-IND CC (may
    #                                      still be bounded — needs the
    #                                      full E2 search to know)
    UNBOUNDED = "unbounded"              # nothing constrains it


@dataclass(frozen=True)
class VariableReport:
    """Analysis of one output variable of one disjunct."""

    disjunct: str
    variable: Var
    status: VariableStatus
    #: database columns (relation, attribute) where the variable occurs —
    #: the candidates for new master-data coverage when unbounded.
    columns: tuple[tuple[str, str], ...]
    #: name of the covering IND (when IND_COVERED) or the touching CCs.
    constraints: tuple[str, ...] = ()

    def __repr__(self) -> str:
        where = ", ".join(f"{r}.{a}" for r, a in self.columns)
        return (f"{self.variable!r}@{self.disjunct}: {self.status.value} "
                f"[{where}]")


@dataclass(frozen=True)
class BoundednessReport:
    """All output variables of all disjuncts, analyzed."""

    variables: tuple[VariableReport, ...]

    @property
    def unbounded(self) -> tuple[VariableReport, ...]:
        return tuple(v for v in self.variables
                     if v.status is VariableStatus.UNBOUNDED)

    @property
    def syntactically_bounded(self) -> bool:
        """True when every output variable satisfies E3 or E4 — for IND
        constraint sets this means the query is relatively complete
        (Proposition 4.3, modulo the no-valid-valuation case)."""
        return all(v.status in (VariableStatus.FINITE_DOMAIN,
                                VariableStatus.IND_COVERED)
                   for v in self.variables)

    def master_data_suggestions(self) -> list[str]:
        """Human-readable expansion advice for the unbounded variables."""
        suggestions = []
        for report in self.unbounded:
            columns = ", ".join(f"{r}.{a}" for r, a in report.columns)
            suggestions.append(
                f"master the values of {columns} (output variable "
                f"{report.variable.name!r} of {report.disjunct} is "
                f"unbounded)")
        return suggestions

    def __repr__(self) -> str:
        return "\n".join(repr(v) for v in self.variables) or \
            "BoundednessReport[no output variables]"


def _column_names(tableau: Tableau, variable: Var,
                  schema: DatabaseSchema) -> tuple[tuple[str, str], ...]:
    columns = []
    for relation_name, position in tableau.columns_of(variable):
        relation = schema.relation(relation_name)
        columns.append((relation_name,
                        relation.attribute_names[position]))
    return tuple(dict.fromkeys(columns))


def covering_ind(tableau: Tableau, variable: Var,
                 constraints: Sequence[ContainmentConstraint],
                 ) -> ContainmentConstraint | None:
    """Condition E4: the first IND of *constraints* that projects a
    column where *variable* occurs in *tableau*, or None."""
    for constraint in constraints:
        if not constraint.is_ind():
            continue
        relation, positions = constraint.ind_source()
        position_set = set(positions)
        for row in tableau.rows:
            if row.relation != relation:
                continue
            for position, term in enumerate(row.terms):
                if term == variable and position in position_set:
                    return constraint
    return None


def _touching_constraints(tableau: Tableau, variable: Var,
                          constraints: Sequence[ContainmentConstraint],
                          ) -> tuple[str, ...]:
    """Non-IND CCs whose queries mention a relation+column where the
    variable occurs (a cheap over-approximation of 'may bound it')."""
    occupied = set()
    for relation, position in tableau.columns_of(variable):
        occupied.add((relation, position))
    names = []
    for constraint in constraints:
        if constraint.is_ind():
            continue
        for disjunct in getattr(constraint.query, "to_cq_disjuncts",
                                lambda: [])():
            for atom in disjunct.relation_atoms:
                for position in range(atom.arity):
                    if (atom.relation, position) in occupied:
                        names.append(constraint.name)
                        break
    return tuple(dict.fromkeys(names))


def analyze_boundedness(query: Any,
                        constraints: Sequence[ContainmentConstraint],
                        schema: DatabaseSchema) -> BoundednessReport:
    """Classify every output variable of every satisfiable disjunct.

    For IND-only constraint sets the report decides Proposition 4.3's
    syntactic conditions exactly; CQ and richer constraints are reported
    as CONSTRAINED (their boundedness needs the semantic E2 search in
    :func:`repro.core.rcqp.decide_rcqp`).
    """
    reports: list[VariableReport] = []
    for disjunct in query.to_cq_disjuncts():
        tableau = Tableau(disjunct, schema)
        if not tableau.satisfiable:
            continue
        for variable in sorted(tableau.summary_variables(),
                               key=lambda v: v.name):
            columns = _column_names(tableau, variable, schema)
            if tableau.has_finite_domain(variable):
                reports.append(VariableReport(
                    disjunct=disjunct.name, variable=variable,
                    status=VariableStatus.FINITE_DOMAIN, columns=columns))
                continue
            ind = covering_ind(tableau, variable, constraints)
            if ind is not None:
                reports.append(VariableReport(
                    disjunct=disjunct.name, variable=variable,
                    status=VariableStatus.IND_COVERED, columns=columns,
                    constraints=(ind.name,)))
                continue
            touching = _touching_constraints(tableau, variable,
                                             constraints)
            status = (VariableStatus.CONSTRAINED if touching
                      else VariableStatus.UNBOUNDED)
            reports.append(VariableReport(
                disjunct=disjunct.name, variable=variable, status=status,
                columns=columns, constraints=touching))
    return BoundednessReport(variables=tuple(reports))
