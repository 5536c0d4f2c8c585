"""Check programs: ``(D ∪ Δ, Dm) ⊨ V`` compiled once per tableau.

The template kernels (``rcdp``, ``missing``, ``inds-scan``,
``inds-build``) and ``count_completing_extensions`` test one candidate
extension per valuation, and every candidate is ``Δ = μ(T)`` for one
tableau ``T``, read from the valuation's value tuple through
:class:`~repro.core.valuations.TableauTemplates` (Proposition 3.3 needs
nothing else of it).  Which constraints Δ can reach, and through which
delta plans, is therefore fixed before the first valuation.
:meth:`EvaluationContext.check_program` builds a :class:`CheckProgram`
at a kernel's first check of a tableau, and the kernel calls it on
every later value tuple of that tableau:

* ``Δ \\ D`` is compiled too (:attr:`CheckProgram.delta`), as a flat
  list of new facts ``(relation, row)``: each tableau row's template,
  kept when the row is not in the base's row set of its relation, each
  fact once, in tableau-row order.  The program lists it once per check
  when some constraint reads it, and the counting loop lists it for its
  fresh-fact dedup and passes the same list to the check.  The list is
  grouped into ``{relation: rows}`` (:func:`_group`, which gives
  :func:`~repro.engine.executor.group_delta`'s dict) only for a delta
  plan whose gate fires;
* ``q(D)`` and ``p(Dm)`` are read once per constraint, and
  ``q(D) ⊆ p(Dm)`` is decided once;
* a constraint whose every disjunct is one relation atom — a selection
  plus a projection, the CIND form of Proposition 2.1 — is decided on
  the templated rows: each tableau row the atom can match gets a
  slot-compiled selection, and a selected row's projection must lie in
  ``p(Dm)``;
* every other constraint runs its delta plans *gated*.  A Δ row can
  take part in a new answer of a plan only if it matches the plan's
  first atom, the one that reads Δ: the atom's constants and repeated
  variables, and the ``=``/``≠`` atoms over the atom's own variables.
  Those tests are compiled per tableau row, as the selections are, and
  the plan runs only when some new row passes its gate, or, when every
  row of the atom's relation passes unconditionally, when Δ has a new
  row of it.  φ0 of Example 2.1 fires only for a new ``Cust`` row whose
  country code is ``'01'``.

Once a constraint has read ``q(D)``, decided ``q(D) ⊆ p(Dm)`` and
compiled the plans of every relation Δ can hold, a check does only the
work that depends on the value tuple — the counter increment, the
selection conditions and the gates — behind two tests of state
(``answers is None``, ``pending``) and the memoized ``q(D) ⊆ p(Dm)``.

The program is the same on every backend: a storage backend evaluates
``q(D)`` (a whole plan over the base), and the delta plans probe the
base's hash indexes (:meth:`EvaluationContext.indexes_for`).

The constraints are checked in order, with the short-circuit of
:func:`~repro.constraints.containment.satisfies_all_extension`, and the
program makes the context calls the per-constraint
:meth:`EvaluationContext.extension_satisfies` makes, when it makes
them, minus the repeated cache lookups.  A gate only skips a plan whose
first step would find no row, before any index is probed, and a
constraint whose Δ has new rows counts its delta evaluation whether or
not a gate lets a plan run.  So ``plans_compiled``,
``delta_evaluations``, ``full_evaluations``, ``index_builds`` and its
governor ticks are unchanged, and ``engine_cache_hits`` falls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.engine.executor import (ChainSource, DeltaSource, IndexedSource,
                                   delta_sources, iter_rows)
from repro.queries.atoms import Eq
from repro.queries.terms import Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.containment import ContainmentConstraint
    from repro.core.valuations import TableauTemplates
    from repro.engine.context import EvaluationContext
    from repro.relational.instance import Instance

__all__ = ["CheckProgram"]

#: ``Δ \ D`` as a flat list of ``(relation, row)`` facts.
Facts = list[tuple[str, tuple]]


class CheckProgram:
    """``values ↦ (D ∪ μ(T), Dm) ⊨ V`` for the tableau ``T`` *templates*
    reads, base ``D``, master ``Dm`` and constraints ``V``.

    :attr:`delta` is ``values ↦ Δ \\ D`` for ``Δ = μ(T)``, compiled to a
    flat list of new facts (:func:`_delta_program`).  The program pins
    the base and master it reads in the context's LRU, so their ids
    cannot be recycled while it lives.
    """

    __slots__ = ("delta", "_lists", "_checks")

    def __init__(self, context: "EvaluationContext",
                 templates: "TableauTemplates", base: "Instance",
                 master: "Instance",
                 constraints: "Sequence[ContainmentConstraint]") -> None:
        context._pin_instance(base)
        context._pin_instance(master)
        rows = [(relation, template, base.relation(relation))
                for (relation, template), row in zip(templates.rows,
                                                     templates.tableau.rows)
                if not (row.is_ground()
                        and template(()) in base.relation(relation))]
        self.delta = _delta_program(rows)
        relations = frozenset(relation for relation, _, _ in rows)
        self._checks = tuple(_Check(context, constraint, templates, base,
                                    master, relations)
                             for constraint in constraints)
        #: Whether Δ is listed on every check.  It is not when the checks
        #: can take it as every row left: there is one, the base holds no
        #: row of Δ's relations (so each row is new whatever the
        #: valuation), and no check reads the rows themselves.
        self._lists = (not relations
                       or any(base.relation(name) for name in relations)
                       or any(check.selections is None
                              for check in self._checks))

    def __call__(self, values: tuple, facts: Facts | None = None) -> bool:
        """Whether ``(D ∪ μ(T), Dm) ⊨ V`` for the valuation *values*;
        *facts* is ``self.delta(values)`` when the caller has it.  The
        checks get None for Δ when the program does not list it: then
        every row of ``μ(T)`` is new."""
        if facts is None and self._lists:
            facts = self.delta(values)
        for check in self._checks:
            if check.violated(values, facts):
                return False
        return True


def _delta_program(rows: list[tuple]) -> Callable[[tuple], Facts]:
    """``values ↦ Δ \\ D`` for ``Δ = μ(T)``, from one ``(relation, row
    template, base rows)`` per tableau row: each instantiated row not in
    the base rows, as a ``(relation, row)`` fact, each fact once, in
    tableau-row order, so that ``_group(facts)`` is
    ``group_delta(base, templates.facts(values))``.  Ground rows already
    in the base are left out of *rows*."""
    def new_facts(values: tuple) -> Facts:
        facts: Facts = []
        for relation, template, present in rows:
            row = template(values)
            if row not in present:
                fact = (relation, row)
                if fact not in facts:
                    facts.append(fact)
        return facts

    return new_facts


class _Check:
    """One constraint of a program: the cached ``q(D)``, then the
    semi-naive new answers.  ``q(D)`` and ``p(Dm)`` are read on first
    need, through the context's caches (so the first read counts as it
    would per call), and ``q(D) ⊆ p(Dm)`` is decided once.  *relations*
    are the relations Δ can hold.

    ``selections`` is set when every disjunct is one relation atom: per
    disjunct, the tableau rows its atom can match, each as
    ``[conditions, head terms, membership]`` (the membership test is
    compiled once ``p(Dm)`` is read).  Such a constraint compiles its
    plans but reads its selections.

    ``searches`` holds ``[relation, disjunct, atom, plan, sources,
    gates]`` per delta plan, the plan compiled the first time Δ has new
    rows of the atom's relation, as the per-call check compiles it, and
    its gates (:func:`_plan_gates`, from the comparisons of the plan's
    first step; ``[]`` until then, and for a plan no row can fire) with
    it; ``runs`` holds ``(relation, plan, sources, gates)`` for the
    compiled plans some row can fire, in ``searches`` order; ``pending``
    holds the relations Δ can hold whose plans are not compiled yet.
    """

    __slots__ = ("context", "statistics", "templates", "base", "master",
                 "relations", "query", "projection", "empty", "boolean",
                 "answers", "allowed", "base_ok", "selections", "searches",
                 "runs", "pending", "source")

    def __init__(self, context: "EvaluationContext",
                 constraint: "ContainmentConstraint",
                 templates: "TableauTemplates", base: "Instance",
                 master: "Instance", relations: frozenset[str]) -> None:
        self.context = context
        self.statistics = context.statistics
        self.templates = templates
        self.base = base
        self.master = master
        self.relations = relations
        self.query = constraint.query
        self.projection = constraint.projection
        self.empty = constraint.projection.is_empty_target
        self.boolean = getattr(self.query, "arity", None) == 0
        disjuncts = self.query.to_cq_disjuncts()
        self.answers: frozenset | None = None
        self.allowed: frozenset | None = None
        self.base_ok: bool | None = None
        self.selections = (
            [_selections(templates, disjunct) for disjunct in disjuncts]
            if all(len(d.relation_atoms) == 1 for d in disjuncts)
            else None)
        self.searches = [[atom.relation, disjunct, j, None, None, []]
                         for disjunct in disjuncts
                         for j, atom in enumerate(disjunct.relation_atoms)]
        self.runs: list[tuple] = []
        self.pending = {search[0] for search in self.searches} \
            & relations
        self.source = DeltaSource({})

    def read_answers(self) -> frozenset:
        if self.answers is None:
            self.answers = self.context.evaluate(self.query, self.base)
        return self.answers

    def read_allowed(self) -> frozenset:
        if self.allowed is None:
            self.allowed = self.context.projection_rows(self.projection,
                                                        self.master)
        return self.allowed

    def base_holds(self) -> bool:
        """``q(D) ⊆ p(Dm)``, once ``q(D)`` has been read."""
        if self.base_ok is None:
            answers = self.answers
            self.base_ok = (not answers if self.empty
                            else not answers or answers <= self.read_allowed())
        return self.base_ok

    def rows_violate(self, values: tuple, rows: list[list]) -> bool:
        """Whether one of the templated *rows* a disjunct selects has an
        answer outside ``p(Dm)`` (any answer, for the target ``∅``)."""
        for row in rows:
            for condition in row[0]:
                if not condition(values):
                    break
            else:
                if self.empty:
                    return True
                if row[2] is None:
                    allowed = self.read_allowed()
                    for selections in self.selections:
                        for each in selections:
                            each[2] = self.templates.membership(each[1],
                                                                allowed)
                if not row[2](values):
                    return True
        return False

    def violated(self, values: tuple, facts: Facts | None) -> bool:
        answers = self.answers
        if answers is None:
            answers = self.read_answers()
        derives = ((facts is None or bool(facts))
                   and not (self.boolean and answers))
        if derives:
            self.statistics.delta_evaluations += 1
            if self.pending:
                new = (self.relations if facts is None
                       else {relation for relation, _ in facts})
                if not self.pending.isdisjoint(new):
                    self._compile(new)
        if not self.base_holds():
            return True
        if not derives:
            return False
        if self.selections is not None:
            for rows in self.selections:
                if self.rows_violate(values, rows):
                    return True
            return False
        grouped = None
        allowed = self.allowed
        for relation, plan, sources, gates in self.runs:
            if gates is not None and not _fires(gates, values):
                continue
            if grouped is None:
                grouped = self.source.rows_by_relation = _group(facts)
            if relation not in grouped:
                continue
            for answer in iter_rows(plan, sources):
                if self.empty:
                    return True
                if allowed is None:
                    allowed = self.read_allowed()
                if answer not in allowed:
                    return True
        return False

    def _compile(self, new: Any) -> None:
        base = IndexedSource(self.context.indexes_for(self.base))
        chained = ChainSource(base, self.source)
        for search in self.searches:
            relation, disjunct, j, plan, _, _ = search
            if plan is None and relation in new:
                plan = self.context.plan_for(disjunct, first_atom=j)
                search[3] = plan
                search[4] = delta_sources(plan, j, base, self.source, chained)
                if self.selections is None and plan.satisfiable:
                    search[5] = _plan_gates(self.templates, self.base,
                                            disjunct.relation_atoms[j],
                                            plan.steps[0].comparisons)
        self.pending -= new
        self.runs = [(relation, plan, sources, gates)
                     for relation, _, _, plan, sources, gates in self.searches
                     if plan is not None and (gates is None or gates)]


def _selections(templates: "TableauTemplates", disjunct: Any) -> list[list]:
    """The rows of the tableau that *disjunct*'s one atom can match, as
    ``[conditions, head terms, None]``: instantiated by a valuation
    under which every condition holds, the row is selected and gives
    the answer the head terms instantiate to.  Rows no valuation can
    select are left out."""
    atom = disjunct.relation_atoms[0]
    selections = []
    for row in templates.tableau.rows:
        if row.relation == atom.relation:
            selection = _selection(templates, atom.terms,
                                   disjunct.comparisons, row.terms)
            if selection is not None:
                conditions, bound = selection
                selections.append([conditions, tuple(
                    _resolve(term, bound) for term in disjunct.head), None])
    return selections


def _plan_gates(templates: "TableauTemplates", base: "Instance", atom: Any,
                comparisons: Sequence[Any]) -> list[tuple] | None:
    """The gates of a delta plan whose first step reads the relation atom
    *atom*, one per tableau row it can match, as ``(conditions, row
    template, base rows)``: a valuation's instance of the row can take
    part in a binding of the atom when every condition holds and the row
    is not in the base.  The conditions are the atom's constants and
    repeated variables and *comparisons*, the disjunct's ``=``/``≠``
    atoms that read only the atom's variables (the plan's first-step
    comparisons).  Rows no valuation lets through are left out.  None
    when every tableau row of the atom's relation passes
    unconditionally: then the plan runs whenever Δ has a new row of that
    relation, which the grouped Δ already tells."""
    present = base.relation(atom.relation)
    gates = []
    rows = 0
    for (relation, template), row in zip(templates.rows,
                                         templates.tableau.rows):
        if relation == atom.relation:
            rows += 1
            selection = _selection(templates, atom.terms, comparisons,
                                   row.terms)
            if selection is not None:
                gates.append((selection[0], template, present))
    if len(gates) == rows and not any(gate[0] for gate in gates):
        return None
    return gates


def _group(facts: Facts) -> dict[str, list[tuple]]:
    """*facts* by relation, each relation's rows in list order.  The
    program's Δ is new and duplicate-free, so this is ``group_delta(base,
    facts)`` without its dedup and base tests."""
    grouped: dict[str, list[tuple]] = {}
    for relation, row in facts:
        rows = grouped.get(relation)
        if rows is None:
            grouped[relation] = [row]
        else:
            rows.append(row)
    return grouped


def _fires(gates: list[tuple], values: tuple) -> bool:
    """Whether some new row of the valuation *values* passes its gate."""
    for conditions, template, present in gates:
        for condition in conditions:
            if not condition(values):
                break
        else:
            if template(values) not in present:
                return True
    return False


def _selection(templates: "TableauTemplates", pattern: Sequence[Any],
               comparisons: Sequence[Any], terms: Sequence[Any],
               ) -> tuple[tuple, dict[Var, Any]] | None:
    """One tableau row (*terms*) against the atom *pattern*: the
    conditions that still depend on the valuation — the atom's constants,
    its repeated variables and *comparisons*, which read only the atom's
    variables — and the atom's variables bound to row terms, or None when
    no valuation lets the row through."""
    bound: dict[Var, Any] = {}
    tests: list[Any] = []
    for term, target in zip(pattern, terms):
        if not isinstance(term, Var):
            tests.append(templates.condition(target, term, True))
        elif term in bound:
            tests.append(templates.condition(target, bound[term], True))
        else:
            bound[term] = target
    for comparison in comparisons:
        tests.append(templates.condition(
            _resolve(comparison.left, bound),
            _resolve(comparison.right, bound),
            isinstance(comparison, Eq)))
    if any(test is False for test in tests):
        return None
    return tuple(test for test in tests if test is not True), bound


def _resolve(term: Any, bound: dict[Var, Any]) -> Any:
    return bound[term] if isinstance(term, Var) else term
