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

* ``Δ \\ D`` is compiled too (:attr:`CheckProgram.delta`): each tableau
  row's template, tested against the base's row set of its relation,
  grouped and de-duplicated as :func:`~repro.engine.executor.group_delta`
  would.  The program computes it once per check, when some constraint
  reads it, and hands it to every constraint; the counting loop computes
  it for its fresh-fact dedup and passes the same Δ to the check;
* ``q(D)`` and ``p(Dm)`` are read once per constraint, and
  ``q(D) ⊆ p(Dm)`` is decided once;
* a constraint whose every disjunct is one relation atom — a selection
  plus a projection, the CIND form of Proposition 2.1 — is decided on
  the templated rows, on every backend: each tableau row the atom can
  match gets a slot-compiled selection, and a selected row's projection
  must lie in ``p(Dm)``;
* every other constraint runs the semi-naive delta plans (python) or the
  storage's ``plan_violates`` (columnar, sqlite) over that Δ, stopping
  at the first violating answer.  On python each delta plan is *gated*:
  its first step reads the Δ atom, so a Δ row can start a binding only
  if it matches the atom's constants and repeated variables and passes
  the ``=``/``≠`` atoms over the atom's own variables (the comparisons of
  the plan's first step).  Those tests are compiled per tableau row, as
  the selections are, and the plan runs
  only when some new row passes its gate (φ0 of Example 2.1 fires only
  for a new ``Cust`` row whose country code is ``'01'``).

The constraints are checked in order, with the short-circuit of
:func:`~repro.constraints.containment.satisfies_all_extension`, and the
program makes the context calls the per-constraint
:meth:`EvaluationContext.extension_satisfies` makes, when it makes
them, minus the repeated cache lookups.  A gate only skips a plan whose
first step would find no row, before any index is probed; a constraint
whose Δ has new rows counts its delta evaluation whether or not a gate
lets a plan run.  So ``plans_compiled``, ``delta_evaluations`` and
``full_evaluations`` are unchanged, and so are ``index_builds`` and its
governor ticks on the python backend; on columnar and sqlite
``index_builds`` can only fall (a single-atom constraint no longer
probes the storage on every check), and ``engine_cache_hits`` falls.
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
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["CheckProgram"]


class CheckProgram:
    """``values ↦ (D ∪ μ(T), Dm) ⊨ V`` for the tableau ``T`` *templates*
    reads, base ``D``, master ``Dm`` and constraints ``V``.

    :attr:`delta` is ``values ↦ Δ \\ D`` for ``Δ = μ(T)``, compiled
    (:func:`_delta_program`).  The program pins the base and master it
    reads in the context's LRU, so their ids cannot be recycled while it
    lives.
    """

    __slots__ = ("delta", "_new", "_group", "_checks")

    def __init__(self, context: "EvaluationContext",
                 templates: "TableauTemplates", base: "Instance",
                 master: "Instance",
                 constraints: "Sequence[ContainmentConstraint]") -> None:
        context._pin_instance(base)
        context._pin_instance(master)
        self.delta = _delta_program(templates, base)
        relations = {relation for relation, _ in templates.rows}
        #: The relations of ``Δ \ D`` when the base holds no row of the
        #: tableau's relations (every Δ row is new); otherwise None, and
        #: Δ is computed on every check.
        self._new = (None if any(base.relation(name) for name in relations)
                     else frozenset(relations))
        kind = _PythonCheck if context.backend == "python" else _StorageCheck
        self._checks = tuple(kind(context, constraint, templates, base,
                                  master)
                             for constraint in constraints)
        self._group = self._new is None or any(
            check.selections is None for check in self._checks)

    def __call__(self, values: tuple,
                 new_rows: dict[str, list[tuple]] | None = None) -> bool:
        """Whether ``(D ∪ μ(T), Dm) ⊨ V`` for the valuation *values*;
        *new_rows* is ``self.delta(values)`` when the caller has it."""
        new: Any = self._new
        if self._group:
            if new_rows is None:
                new_rows = self.delta(values)
            if new is None:
                new = new_rows
        for check in self._checks:
            if check.violated(values, new, new_rows):
                return False
        return True


def _delta_program(templates: "TableauTemplates", base: "Instance",
                   ) -> Callable[[tuple], dict[str, list[tuple]]]:
    """``values ↦ Δ \\ D`` for ``Δ = μ(T)``: every tableau row's
    template, kept when the row is not in the base's rows of its
    relation, grouped by relation with each row once, in order of first
    occurrence — ``group_delta(base, templates.facts(values))``.  Ground
    rows already in the base are left out."""
    rows = [(relation, template, base.relation(relation))
            for (relation, template), row in zip(templates.rows,
                                                 templates.tableau.rows)
            if not (row.is_ground()
                    and template(()) in base.relation(relation))]
    def grouped(values: tuple) -> dict[str, list[tuple]]:
        new_rows: dict[str, list[tuple]] = {}
        for relation, template, present in rows:
            row = template(values)
            if row not in present:
                group = new_rows.get(relation)
                if group is None:
                    new_rows[relation] = [row]
                elif row not in group:
                    group.append(row)
        return new_rows

    return grouped


class _Check:
    """One constraint of a program.  ``q(D)`` and ``p(Dm)`` are read on
    first need, through the context's caches (so the first read counts
    as it would per call), and ``q(D) ⊆ p(Dm)`` is decided once.

    ``selections`` is set when every disjunct is one relation atom: per
    disjunct, the tableau rows its atom can match, each as
    ``[conditions, head terms, membership]`` (the membership test is
    compiled once ``p(Dm)`` is read).
    """

    __slots__ = ("context", "statistics", "templates", "base", "master",
                 "query", "projection", "empty", "boolean", "disjuncts",
                 "answers", "allowed", "base_ok", "selections")

    def __init__(self, context: "EvaluationContext",
                 constraint: "ContainmentConstraint",
                 templates: "TableauTemplates", base: "Instance",
                 master: "Instance") -> None:
        self.context = context
        self.statistics = context.statistics
        self.templates = templates
        self.base = base
        self.master = master
        self.query = constraint.query
        self.projection = constraint.projection
        self.empty = constraint.projection.is_empty_target
        self.boolean = getattr(self.query, "arity", None) == 0
        self.disjuncts = self.query.to_cq_disjuncts()
        self.answers: frozenset | None = None
        self.allowed: frozenset | None = None
        self.base_ok: bool | None = None
        self.selections = (
            [_selections(templates, disjunct) for disjunct in self.disjuncts]
            if all(len(d.relation_atoms) == 1 for d in self.disjuncts)
            else None)

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


class _PythonCheck(_Check):
    """The python backend: the cached ``q(D)``, then the semi-naive new
    answers.  ``searches`` holds ``[relation, disjunct, atom, plan,
    sources, gates]`` per delta plan, the plan compiled the first time
    Δ has new rows of the atom's relation, as the per-call check
    compiles it, and its gates (:func:`_gates`) with it; a single-atom
    constraint compiles its plans but reads its selections."""

    __slots__ = ("searches", "compiled", "delta")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.searches = [[atom.relation, disjunct, j, None, None, None]
                         for disjunct in self.disjuncts
                         for j, atom in enumerate(disjunct.relation_atoms)]
        self.compiled: set[str] = set()
        self.delta = DeltaSource({})

    def violated(self, values: tuple, new: Any,
                 new_rows: dict[str, list[tuple]] | None) -> bool:
        answers = self.answers
        if answers is None:
            answers = self.read_answers()
        derives = new and not (self.boolean and answers)
        if derives:
            self.statistics.delta_evaluations += 1
            if not self.compiled.issuperset(new):
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
        self.delta.rows_by_relation = new_rows
        allowed = self.allowed
        for relation, _, _, plan, sources, gates in self.searches:
            if relation not in new_rows or (
                    gates is not None and not _fires(gates, values)):
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
        chained = ChainSource(base, self.delta)
        for search in self.searches:
            relation, disjunct, j, plan, _, _ = search
            if plan is None and relation in new:
                plan = self.context.plan_for(disjunct, first_atom=j)
                search[3] = plan
                search[4] = delta_sources(plan, j, base, self.delta, chained)
                if self.selections is None:
                    search[5] = _gates(self.templates, self.base,
                                       disjunct.relation_atoms[j], plan)
        self.compiled.update(new)


class _StorageCheck(_Check):
    """The columnar and sqlite backends: with new rows, each disjunct's
    full plan decides violation in the storage (``plan_violates``), or,
    for a single-atom constraint, ``q_i(D) ⊆ p(Dm)`` once per disjunct
    (in the storage) and then its selections; with none, the cached
    ``q(D)``."""

    __slots__ = ("storage", "on_build", "plans", "base_violations")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.storage = self.context.storage_for(self.base)
        self.on_build: Callable = self.context._storage_on_build(self.base)
        self.plans: list = [None] * len(self.disjuncts)
        self.base_violations: list[bool | None] = [None] * len(self.plans)

    def violated(self, values: tuple, new: Any,
                 new_rows: dict[str, list[tuple]] | None) -> bool:
        if not new:
            self.read_answers()
            return not self.base_holds()
        self.statistics.delta_evaluations += 1
        allowed = None if self.empty else self.read_allowed()
        for index, disjunct in enumerate(self.disjuncts):
            plan = self.plans[index]
            if plan is None:
                plan = self.plans[index] = self.context.plan_for(disjunct)
            if self.selections is None:
                if self.storage.plan_violates(plan, new_rows, allowed,
                                              on_build=self.on_build):
                    return True
                continue
            base_violated = self.base_violations[index]
            if base_violated is None:
                base_violated = self.base_violations[index] = \
                    self.storage.plan_violates(plan, {}, allowed,
                                               on_build=self.on_build)
            if base_violated or self.rows_violate(values,
                                                  self.selections[index]):
                return True
        return False


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


def _gates(templates: "TableauTemplates", base: "Instance", atom: Any,
           plan: "CompiledPlan") -> list[tuple] | None:
    """The gates of the delta *plan* whose first step reads the Δ atom
    *atom*, one per tableau row the atom can match, as ``(conditions, row
    template, base rows)``: a valuation's instance of the row can start
    a binding of the plan when every condition (the first step's key,
    repeats and comparisons) holds and the row is not in the base.  Rows
    no valuation lets through are left out; None when every row of the
    atom's relation passes unconditionally, so that any new row of it
    does."""
    if not plan.satisfiable:
        return []
    present = base.relation(atom.relation)
    rows = [(template, row.terms)
            for (relation, template), row in zip(templates.rows,
                                                 templates.tableau.rows)
            if relation == atom.relation]
    gates = []
    for template, terms in rows:
        selection = _selection(templates, atom.terms,
                               plan.steps[0].comparisons, terms)
        if selection is not None:
            gates.append((selection[0], template, present))
    if len(gates) == len(rows) and not any(gate[0] for gate in gates):
        return None
    return gates


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
