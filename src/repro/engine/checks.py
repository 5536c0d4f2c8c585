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

* ``q(D)`` and ``p(Dm)`` are read once per constraint, and
  ``q(D) ⊆ p(Dm)`` is decided once;
* a constraint whose every disjunct is one relation atom — a selection
  plus a projection, the CIND form of Proposition 2.1 — is decided on
  the templated rows, on every backend: each tableau row the atom can
  match gets a slot-compiled selection, and a selected row's projection
  must lie in ``p(Dm)``;
* every other constraint groups ``Δ \\ D`` once per check and runs the
  semi-naive delta plans (python) or the storage's ``plan_violates``
  (columnar, sqlite), stopping at the first violating answer.

The constraints are checked in order, with the short-circuit of
:func:`~repro.constraints.containment.satisfies_all_extension`, and the
program makes the context calls the per-constraint
:meth:`EvaluationContext.extension_satisfies` makes, when it makes
them, minus the repeated cache lookups.  So ``plans_compiled``,
``delta_evaluations`` and ``full_evaluations`` are unchanged, and so
are ``index_builds`` and its governor ticks on the python backend; on
columnar and sqlite ``index_builds`` can only fall (a single-atom
constraint no longer probes the storage on every check), and
``engine_cache_hits`` falls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.engine.executor import (ChainSource, DeltaSource, IndexedSource,
                                   delta_sources, group_delta, iter_rows)
from repro.queries.atoms import Eq
from repro.queries.terms import Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.containment import ContainmentConstraint
    from repro.core.valuations import TableauTemplates
    from repro.engine.context import EvaluationContext
    from repro.relational.instance import Instance

__all__ = ["CheckProgram"]


class CheckProgram:
    """``values ↦ (D ∪ μ(T), Dm) ⊨ V`` for the tableau ``T`` *templates*
    reads, base ``D``, master ``Dm`` and constraints ``V``.

    The program holds the base and master it reads, and pins them in
    the context's LRU, so their ids cannot be recycled while it lives.
    """

    __slots__ = ("base", "_facts", "_new", "_group", "_checks")

    def __init__(self, context: "EvaluationContext",
                 templates: "TableauTemplates", base: "Instance",
                 master: "Instance",
                 constraints: "Sequence[ContainmentConstraint]") -> None:
        context._pin_instance(base)
        context._pin_instance(master)
        self.base = base
        self._facts = templates.facts
        relations = {relation for relation, _ in templates.rows}
        #: The relations of ``Δ \ D`` when the base holds no row of the
        #: tableau's relations (every Δ row is new); otherwise None, and
        #: Δ is grouped on every check.
        self._new = (None if any(base.relation(name) for name in relations)
                     else frozenset(relations))
        kind = _PythonCheck if context.backend == "python" else _StorageCheck
        self._checks = tuple(kind(context, constraint, templates, base,
                                  master)
                             for constraint in constraints)
        self._group = self._new is None or any(
            check.selections is None for check in self._checks)

    def __call__(self, values: tuple) -> bool:
        new_rows = None
        new: Any = self._new
        if self._group:
            new_rows = group_delta(self.base, self._facts(values))
            if new is None:
                new = new_rows
        for check in self._checks:
            if check.violated(values, new, new_rows):
                return False
        return True


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
    sources]`` per delta plan, the plan compiled the first time Δ has
    new rows of the atom's relation, as the per-call check compiles it;
    a single-atom constraint compiles its plans but reads its
    selections."""

    __slots__ = ("searches", "compiled", "delta")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.searches = [[atom.relation, disjunct, j, None, None]
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
        for relation, _, _, plan, sources in self.searches:
            if relation not in new_rows:
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
            relation, disjunct, j, plan, _ = search
            if plan is None and relation in new:
                plan = self.context.plan_for(disjunct, first_atom=j)
                search[3] = plan
                search[4] = delta_sources(plan, j, base, self.delta, chained)
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
            selection = _selection(templates, disjunct, atom.terms, row.terms)
            if selection is not None:
                selections.append(selection)
    return selections


def _selection(templates: "TableauTemplates", disjunct: Any,
               pattern: Sequence[Any], terms: Sequence[Any],
               ) -> list | None:
    """One tableau row (*terms*) against the atom *pattern* of
    *disjunct*: the conditions that still depend on the valuation and
    the head terms, or None when no valuation selects the row."""
    bound: dict[Var, Any] = {}
    tests: list[Any] = []
    for term, target in zip(pattern, terms):
        if not isinstance(term, Var):
            tests.append(templates.condition(target, term, True))
        elif term in bound:
            tests.append(templates.condition(target, bound[term], True))
        else:
            bound[term] = target
    for comparison in disjunct.comparisons:
        tests.append(templates.condition(
            _resolve(comparison.left, bound), _resolve(comparison.right, bound),
            isinstance(comparison, Eq)))
    if any(test is False for test in tests):
        return None
    return [tuple(test for test in tests if test is not True),
            tuple(_resolve(term, bound) for term in disjunct.head), None]


def _resolve(term: Any, bound: dict[Var, Any]) -> Any:
    return bound[term] if isinstance(term, Var) else term
