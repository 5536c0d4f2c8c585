"""Static cost model: predicted governor ticks before a tick is spent.

The decider search spaces are knowable up front.  RCDP (Theorem 4.2's
small-model argument, made operational in :mod:`repro.core.valuations`)
enumerates the valid valuations of every query tableau over

    ``adom(y) = Adom ∪ {fresh(y)}``          (infinite-domain ``y``)
    ``adom(y) = dom(y)``                     (finite-domain ``y``),

so the raw search space of a tableau is ``Π_y |adom(y)|`` — the
``|Adom|^k`` valuation-space formula.  Two refinements make the estimate
tight enough to gate on (within 4× on every shipped bundle; exact on the
CRM corpus):

* **IND caps.**  `split_ind_constraints` compiles IND constraints into a
  row filter that prunes the enumeration at the first tableau row leaving
  the master projection.  For a tableau row over ``R`` covered by an IND
  ``R[cols] ⊆ p``, the variables at ``cols`` jointly range over at most
  the rows of ``p(Dm)`` that agree with the row's constants — a *joint*
  cap replacing the product of the per-variable counts.  Caps over
  disjoint variable groups are applied greedily (smallest first).
* **Inequality discount.**  Each ``x ≠ t`` check removes roughly one of
  ``m`` candidates, scaling the *point* estimate by ``(m − 1)/m``; the
  upper bound is left untouched.

Estimates are intervals (`Interval`), folded into a `CostEstimate` whose
``predicted_ticks`` mirror the governor's per-kind ledger.  Consumers:
``repro lint --explain-cost``, the CLI preflight advisory,
`ExecutionGovernor.suggest_budget`, and `repro.parallel.suggest_workers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Collection, Mapping, NamedTuple, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.queries.terms import Const, Var
from repro.relational.instance import Instance

__all__ = [
    "Interval",
    "DisjunctCost",
    "StepEstimate",
    "PlanEstimate",
    "CostEstimate",
    "estimate_plan",
    "estimate_decision",
    "suggested_budget",
]

# Beyond this many candidate combinations the RCQP unit enumeration is
# summarised, not expanded (the bound stays sound; the note says so).
_MAX_UNIT_SUBSETS = 4096


@dataclass(frozen=True, slots=True)
class Interval:
    """An integer interval ``[lo, hi]``; ``hi=None`` means unbounded."""

    lo: int
    hi: int | None

    @classmethod
    def point(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def zero(cls) -> "Interval":
        return cls(0, 0)

    def __add__(self, other: "Interval") -> "Interval":
        hi = (None if self.hi is None or other.hi is None
              else self.hi + other.hi)
        return Interval(self.lo + other.lo, hi)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.hi is None or other.hi is None:
            hi = None if (self.hi != 0 and other.hi != 0) else 0
        else:
            hi = self.hi * other.hi
        return Interval(self.lo * other.lo, hi)

    def scaled(self, factor: int) -> "Interval":
        return Interval(self.lo * factor,
                        None if self.hi is None else self.hi * factor)

    def join(self, other: "Interval") -> "Interval":
        hi = (None if self.hi is None or other.hi is None
              else max(self.hi, other.hi))
        return Interval(min(self.lo, other.lo), hi)

    def render(self) -> str:
        if self.hi is None:
            return f"[{self.lo}, ∞)"
        if self.lo == self.hi:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"

    def to_dict(self) -> dict[str, int | None]:
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True, slots=True)
class DisjunctCost:
    """Valuation-space estimate for one query disjunct's tableau."""

    disjunct: str
    variables: tuple[tuple[str, int], ...]  # (name, |adom(y)|) per variable
    raw_product: int
    predicted: int
    bound: Interval
    caps: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "disjunct": self.disjunct,
            "variables": [list(v) for v in self.variables],
            "raw_product": self.raw_product,
            "predicted": self.predicted,
            "bound": self.bound.to_dict(),
            "caps": list(self.caps),
        }


@dataclass(frozen=True, slots=True)
class StepEstimate:
    """Interval estimate for one `CompiledPlan` step."""

    relation: str
    rows: int
    keyed: bool
    bindings: Interval  # bindings alive *after* this step
    probes: Interval    # candidate rows examined at this step

    def to_dict(self) -> dict[str, Any]:
        return {"relation": self.relation, "rows": self.rows,
                "keyed": self.keyed, "bindings": self.bindings.to_dict(),
                "probes": self.probes.to_dict()}


@dataclass(frozen=True, slots=True)
class PlanEstimate:
    """Interval estimate for a whole compiled plan."""

    query: str
    steps: tuple[StepEstimate, ...]
    result: Interval
    work: Interval

    def to_dict(self) -> dict[str, Any]:
        return {"query": self.query, "result": self.result.to_dict(),
                "work": self.work.to_dict(),
                "steps": [s.to_dict() for s in self.steps]}


@dataclass(frozen=True)
class CostEstimate:
    """Per-decision predicted governor ticks with provenance.

    ``predicted_ticks`` maps tick kinds (the governor ledger's keys —
    ``"valuations"``, ``"units"``, ``"candidate_sets"``) to point
    estimates; ``intervals`` carries the matching sound bounds.  The
    point estimates are exact for full-enumeration RCDP decisions on
    IND/CC scenarios (the bench_cost gate); early-exiting decisions
    (INCOMPLETE certificates, E2/E6 bounding sets) stop earlier, which
    the bounds' ``lo = 0`` reflects.
    """

    procedure: str
    predicted_ticks: Mapping[str, int]
    intervals: Mapping[str, Interval]
    adom_size: int
    disjuncts: tuple[DisjunctCost, ...] = ()
    plans: tuple[PlanEstimate, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def total_predicted(self) -> int:
        return sum(self.predicted_ticks.values())

    @property
    def dominant_phase(self) -> str:
        if not self.predicted_ticks:
            return "none"
        kind = max(sorted(self.predicted_ticks),
                   key=lambda k: self.predicted_ticks[k])
        return {
            "valuations": "enumerate_valuations",
            "units": "enumerate_units",
            "candidate_sets": "enumerate_candidate_sets",
        }.get(kind, kind)

    def to_dict(self) -> dict[str, Any]:
        return {
            "procedure": self.procedure,
            "predicted_ticks": dict(self.predicted_ticks),
            "intervals": {k: v.to_dict()
                          for k, v in self.intervals.items()},
            "total_predicted": self.total_predicted,
            "dominant_phase": self.dominant_phase,
            "adom_size": self.adom_size,
            "disjuncts": [d.to_dict() for d in self.disjuncts],
            "plans": [p.to_dict() for p in self.plans],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"cost estimate ({self.procedure}): "
                 f"~{self.total_predicted} ticks, dominant phase "
                 f"{self.dominant_phase}, |Adom| = {self.adom_size}"]
        for kind in sorted(self.predicted_ticks):
            interval = self.intervals.get(kind, Interval.point(
                self.predicted_ticks[kind]))
            lines.append(f"  {kind}: ~{self.predicted_ticks[kind]} "
                         f"in {interval.render()}")
        for disjunct in self.disjuncts:
            terms = " × ".join(f"|adom({name})|={count}"
                               for name, count in disjunct.variables)
            lines.append(f"  {disjunct.disjunct}: {terms or '1'} "
                         f"= {disjunct.raw_product}"
                         + (f", capped to {disjunct.predicted}"
                            if disjunct.predicted != disjunct.raw_product
                            else ""))
            for cap in disjunct.caps:
                lines.append(f"    cap: {cap}")
        for plan in self.plans:
            lines.append(f"  plan {plan.query}: result "
                         f"{plan.result.render()}, work "
                         f"{plan.work.render()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def suggested_budget(estimate: "CostEstimate | int", *,
                     safety: int = 4) -> int:
    """A governor budget that admits the full predicted enumeration.

    *estimate* is a `CostEstimate` or a plain predicted tick count.
    ``safety`` multiplies the point estimate so decisions whose actuals
    land within the bench-gated 4× envelope still finish.
    """
    predicted = int(getattr(estimate, "total_predicted", estimate))
    return max(1, predicted) * max(1, safety)


# --------------------------------------------------------------------------
# Plan-level interval estimation
# --------------------------------------------------------------------------

def estimate_plan(plan: Any, database: Instance) -> PlanEstimate:
    """Interval estimate over a `CompiledPlan`'s steps.

    Bindings start at ``[1, 1]`` (the empty binding).  A keyed step with
    residual outputs can match anywhere between 0 and every row; a fully
    bound step (no outputs) is a membership probe matching at most once; an
    unkeyed step is a scan multiplying bindings by the relation size.
    ``work`` accumulates candidate-row examinations — the quantity the
    engine's ``plan_rows`` loops actually spend.
    """
    bindings = Interval.point(1)
    work = Interval.zero()
    steps: list[StepEstimate] = []
    if not getattr(plan, "satisfiable", True):
        return PlanEstimate(query=plan.query.name, steps=(),
                            result=Interval.zero(), work=Interval.zero())
    for step in plan.steps:
        rows = len(database.relation(step.relation)) \
            if step.relation in database.schema.relations else 0
        keyed = bool(step.key_positions)
        if not keyed:
            fanout = Interval(0, rows)
        elif not step.outputs:
            fanout = Interval(0, min(1, rows))
        else:
            fanout = Interval(0, rows)
        probes = bindings * Interval.point(rows) if not keyed \
            else bindings * Interval(0, rows)
        bindings = bindings * fanout
        work = work + probes
        steps.append(StepEstimate(relation=step.relation, rows=rows,
                                  keyed=keyed, bindings=bindings,
                                  probes=probes))
    return PlanEstimate(query=plan.query.name, steps=tuple(steps),
                        result=bindings, work=work)


# --------------------------------------------------------------------------
# Valuation-space estimation (the |Adom|^k formula with IND caps)
# --------------------------------------------------------------------------

def _variable_counts(tableau: Any, adom: Any) -> dict[Var, int]:
    """``|adom(y)|`` per tableau variable under the RCDP ``fresh="own"``
    policy: the finite domain's size, else the shared constants plus the
    variable's dedicated fresh value."""
    counts: dict[Var, int] = {}
    shared = len(adom.constants)
    for variable in tableau.ordered_variables():
        if tableau.has_finite_domain(variable):
            counts[variable] = len(
                adom.candidates_for(tableau, variable, fresh="own"))
        else:
            counts[variable] = shared + 1
    return counts


class _Cap(NamedTuple):
    """An IND row filter's joint cap on one tableau row: *variables*
    (in row order) take the values of one of *rows*, the matching
    master-projection rows."""

    variables: tuple[Var, ...]
    rows: frozenset[tuple]
    joint: int
    description: str


def _ind_caps(tableau: Any, counts: Mapping[Var, int],
              constraints: Sequence[ContainmentConstraint],
              master: Instance,
              ) -> tuple[list[_Cap], bool]:
    """Joint caps induced by IND row filters on this tableau.

    Returns ``(caps, viable)``; *viable* is False when a fully ground row
    can never pass its filter (zero valid valuations).
    """
    caps: list[_Cap] = []
    viable = True
    for constraint in constraints:
        if not constraint.is_ind():
            continue
        relation, columns = constraint.ind_source()
        try:
            allowed = constraint.projection.evaluate(master)
        except Exception:
            continue  # schema mismatch: RC101's business
        for row in tableau.rows:
            if row.relation != relation:
                continue
            selected = [row.terms[c] for c in columns]
            group_vars: list[Var] = []
            positions: dict[Var, list[int]] = {}
            for j, term in enumerate(selected):
                if isinstance(term, Var):
                    if term not in positions:
                        group_vars.append(term)
                    positions.setdefault(term, []).append(j)
            matching: set[tuple] = set()
            for candidate in allowed:
                ok = True
                for j, term in enumerate(selected):
                    if isinstance(term, Const) and \
                            candidate[j] != term.value:
                        ok = False
                        break
                if not ok:
                    continue
                for var, places in positions.items():
                    first = candidate[places[0]]
                    if any(candidate[p] != first for p in places[1:]):
                        ok = False
                        break
                if ok:
                    matching.add(tuple(
                        candidate[positions[v][0]] for v in group_vars))
            if not group_vars:
                if not matching:
                    viable = False
                continue
            raw = math.prod(counts.get(v, 1) for v in group_vars)
            joint = min(len(matching), raw)
            names = ", ".join(v.name for v in group_vars)
            caps.append(_Cap(tuple(group_vars), frozenset(matching), joint,
                             f"{constraint.name}: ({names}) jointly range "
                             f"over ≤ {joint} rows of the master "
                             f"projection (raw {raw})"))
    return caps, viable


def _fan_out(cap: _Cap, admitted: dict[Var, set[Any]],
             counts: Mapping[Var, int]) -> int:
    """The factor *cap* multiplies the valuation count by, after the
    caps in *admitted* (variable -> the values they leave it; updated
    here to include *cap*).

    A cap sharing no variable with earlier ones contributes its joint
    count.  Otherwise it contributes its fan-out: the most rows that
    agree with one assignment of the shared variables, counting only
    rows whose values the earlier caps admit and never more than the
    product of the new variables' counts.  Either way the product stays
    an upper bound on the valuations that pass every filter.
    """
    shared = [i for i, v in enumerate(cap.variables) if v in admitted]
    rows: Collection[tuple] = cap.rows
    if not shared:
        factor = cap.joint
    else:
        rows = [row for row in rows
                if all(row[i] in admitted[cap.variables[i]]
                       for i in shared)]
        fresh = [i for i in range(len(cap.variables)) if i not in shared]
        agreeing: dict[tuple, set[tuple]] = {}
        for row in rows:
            agreeing.setdefault(tuple(row[i] for i in shared), set()).add(
                tuple(row[i] for i in fresh))
        factor = min(max(map(len, agreeing.values()), default=0),
                     math.prod(counts[cap.variables[i]] for i in fresh))
    for i, variable in enumerate(cap.variables):
        admitted[variable] = {row[i] for row in rows}
    return factor


def _disjunct_cost(tableau: Any, adom: Any,
                   constraints: Sequence[ContainmentConstraint],
                   master: Instance | None) -> DisjunctCost:
    counts = _variable_counts(tableau, adom)
    ordered = list(tableau.ordered_variables())
    raw = math.prod(counts[v] for v in ordered) if ordered else 1
    caps: list[tuple[frozenset, int, str]] = []
    viable = True
    if master is not None:
        caps, viable = _ind_caps(tableau, counts, constraints, master)
    if not viable:
        return DisjunctCost(
            disjunct=tableau.query.name,
            variables=tuple((v.name, counts[v]) for v in ordered),
            raw_product=raw, predicted=0, bound=Interval.zero(),
            caps=("a ground tableau row leaves the master projection; "
                  "no valuation survives the IND filter",))
    admitted: dict[Var, set[Any]] = {}
    capped = 1
    applied: list[str] = []
    for cap in sorted(caps, key=lambda c: (
            c.joint, sorted(v.name for v in c.variables))):
        chained = not admitted.keys().isdisjoint(cap.variables)
        factor = _fan_out(cap, admitted, counts)
        capped *= factor
        applied.append(f"{cap.description}; chained on earlier caps: "
                       f"×{factor}" if chained else cap.description)
    for variable in ordered:
        if variable not in admitted:
            capped *= counts[variable]
    predicted = capped
    for left, right in tableau.inequalities:
        m = min((counts[t] for t in (left, right)
                 if isinstance(t, Var) and t in counts), default=0)
        if m > 1:
            predicted = predicted * (m - 1) // m
    pruned = bool(applied) or bool(tableau.inequalities)
    bound = Interval(0 if pruned else capped, capped)
    return DisjunctCost(
        disjunct=tableau.query.name,
        variables=tuple((v.name, counts[v]) for v in ordered),
        raw_product=raw, predicted=predicted, bound=bound,
        caps=tuple(applied))


def _search_space(query: Any, database: Instance, master: Instance,
                  constraints: Sequence[ContainmentConstraint],
                  ) -> tuple[list[DisjunctCost], int]:
    """Per-disjunct costs plus ``|Adom|``, mirroring ``_prepare_search``."""
    from repro.core.valuations import ActiveDomain
    from repro.queries.tableau import Tableau

    disjuncts = query.to_cq_disjuncts()
    tableaux = [Tableau(d, database.schema) for d in disjuncts]
    satisfiable = [t for t in tableaux if t.satisfiable]
    adom = ActiveDomain.build(
        instances=(database, master),
        queries=[query] + [c.query for c in constraints],
        tableaux=satisfiable)
    costs = [_disjunct_cost(t, adom, constraints, master)
             for t in satisfiable]
    return costs, len(adom.constants)


def _rcqp_space(query: Any, master: Instance,
                constraints: Sequence[ContainmentConstraint],
                schema: Any, *, max_rows_per_unit: int,
                max_valuation_set_size: int,
                ) -> tuple[dict[str, Interval], dict[str, int],
                           list[DisjunctCost], int, list[str]]:
    """Upper-bound the three RCQP tick kinds.

    ``units`` follows ``_enumerate_units`` exactly (one tick per candidate
    partial valuation); the bounding-set search exits at the first
    bounding candidate, so ``candidate_sets`` and the per-candidate
    ``valuations`` re-enumeration are genuine worst cases with ``lo = 0``.
    """
    from itertools import combinations

    from repro.core.valuations import ActiveDomain
    from repro.queries.tableau import Tableau

    notes: list[str] = []
    q_tableaux = [t for t in (Tableau(d, schema)
                              for d in query.to_cq_disjuncts())
                  if t.satisfiable]
    cc_tableaux = [t for c in constraints
                   for t in (Tableau(d, schema)
                             for d in c.query.to_cq_disjuncts())
                   if t.satisfiable]
    adom = ActiveDomain.build(
        instances=(master,),
        queries=[query] + [c.query for c in constraints],
        tableaux=q_tableaux + cc_tableaux)
    # Phase E3: one pass over the query valuation space per disjunct.
    disjunct_costs = [_disjunct_cost(t, adom, (), None)
                      for t in q_tableaux]
    e3 = sum(d.predicted for d in disjunct_costs)
    units = 0
    truncated = False
    for tableau in cc_tableaux:
        counts = _variable_counts(tableau, adom)
        rows = tableau.rows
        max_rows = min(max_rows_per_unit, len(rows))
        subsets = 0
        for size in range(1, max_rows + 1):
            for subset in combinations(range(len(rows)), size):
                subsets += 1
                if subsets > _MAX_UNIT_SUBSETS:
                    truncated = True
                    break
                variables = {v for i in subset
                             for v in rows[i].variables()}
                units += math.prod(counts[v] for v in variables) \
                    if variables else 1
            if truncated:
                break
        if truncated:
            units *= 2  # sound-ish headroom; flagged in the notes
            notes.append(
                f"unit enumeration truncated after {_MAX_UNIT_SUBSETS} "
                f"row subsets; the units bound is doubled instead")
            break
    max_size = min(max_valuation_set_size, units)
    sets_hi = sum(math.comb(units, size)
                  for size in range(0, max_size + 1))
    per_set_valuations = sum(
        math.prod(counts[v] for v in t.ordered_variables())
        for t in q_tableaux
        for counts in (_variable_counts(t, adom),))
    intervals = {
        "valuations": Interval(0, e3 + sets_hi * per_set_valuations),
        "units": Interval(0, units),
        "candidate_sets": Interval(0, sets_hi),
    }
    predicted = {
        "valuations": e3 + per_set_valuations,
        "units": units,
        "candidate_sets": min(sets_hi, units + 1),
    }
    notes.append(
        "the E2/E6 search exits at the first bounding candidate set; "
        "points assume an early (size ≤ 1) exit, the bounds the full "
        "sweep")
    return intervals, predicted, disjunct_costs, len(adom.constants), notes


def estimate_decision(procedure: str, query: Any,
                      database: Instance | None,
                      master: Instance,
                      constraints: Sequence[ContainmentConstraint] = (), *,
                      schema: Any = None,
                      with_plans: bool = True,
                      max_rows_per_unit: int = 1,
                      max_valuation_set_size: int = 2) -> CostEstimate:
    """Predict the governor ticks of one decision.

    *procedure* is ``"rcdp"`` (may exit at the first INCOMPLETE
    certificate), ``"missing"`` (full enumeration — the bench-gated
    case), or ``"rcqp"`` (no database; *schema* required).
    """
    notes: list[str] = []
    if procedure == "rcqp":
        if schema is None:
            raise ValueError("estimate_decision('rcqp', ...) needs schema=")
        intervals, predicted, costs, adom_size, extra = _rcqp_space(
            query, master, constraints, schema,
            max_rows_per_unit=max_rows_per_unit,
            max_valuation_set_size=max_valuation_set_size)
        notes.extend(extra)
        return CostEstimate(procedure=procedure,
                            predicted_ticks=predicted,
                            intervals=intervals, adom_size=adom_size,
                            disjuncts=tuple(costs), notes=tuple(notes))
    if database is None:
        raise ValueError(
            f"estimate_decision({procedure!r}, ...) needs a database")
    costs, adom_size = _search_space(query, database, master, constraints)
    total = sum(c.predicted for c in costs)
    bound = Interval.zero()
    for cost in costs:
        bound = bound + cost.bound
    if procedure == "rcdp":
        bound = Interval(0, bound.hi)
        notes.append(
            "decide_rcdp exits at the first INCOMPLETE certificate; the "
            "point predicts the full (COMPLETE-verdict) enumeration")
    plans: list[PlanEstimate] = []
    if with_plans:
        from repro.engine.plan import compile_plan
        for disjunct in query.to_cq_disjuncts():
            try:
                plans.append(estimate_plan(
                    compile_plan(disjunct), database))
            except Exception:
                continue  # unplannable disjuncts are RC002's business
    return CostEstimate(procedure=procedure,
                        predicted_ticks={"valuations": total},
                        intervals={"valuations": bound},
                        adom_size=adom_size, disjuncts=tuple(costs),
                        plans=tuple(plans), notes=tuple(notes))
