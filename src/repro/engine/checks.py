"""Check programs: ``(D ∪ Δ, Dm) ⊨ V`` generated once per tableau.

The template kernels (``rcdp``, ``missing``, ``inds-scan``,
``inds-build``) and ``count_completing_extensions`` test one candidate
extension per valuation, and every candidate is ``Δ = μ(T)`` for one
tableau ``T``, read from the valuation's value tuple through
:class:`~repro.core.valuations.TableauTemplates` (Proposition 3.3 needs
nothing else of it).  Which constraints Δ can reach, and through which
delta plans, is therefore fixed before the first valuation.
:meth:`EvaluationContext.check_program` builds a :class:`CheckProgram`
at a kernel's first check of a tableau, and the kernel calls its two
generated functions on every later value tuple of that tableau:

* :attr:`CheckProgram.delta` is ``Δ \\ D``, a flat list of new facts
  ``(relation, row)``: each tableau row as a tuple display over the
  value tuple's slots, kept when the row is not in the base's row set
  of its relation and differs from every earlier new row of its
  relation, in tableau-row order.  The list is grouped into
  ``{relation: rows}`` (:func:`_group`, which gives
  :func:`~repro.engine.executor.group_delta`'s dict) only for a delta
  plan whose gate fires;
* :attr:`CheckProgram.check` decides the constraints in order, with the
  short-circuit of
  :func:`~repro.constraints.containment.satisfies_all_extension`.  Per
  constraint it counts the delta evaluation, decides ``q(D) ⊆ p(Dm)``
  once, and then either
  - tests the templated rows, for a constraint whose every disjunct is
    one relation atom (a selection plus a projection, the CIND form of
    Proposition 2.1): each tableau row the atom can match is selected
    by the atom's constants, repeated variables and ``=``/``≠`` atoms,
    and a selected row's projection must lie in ``p(Dm)``; or
  - runs its delta plans *gated*: a Δ row can take part in a new
    answer of a plan only if it matches the plan's first atom, the one
    that reads Δ (its constants and repeated variables, and the
    ``=``/``≠`` atoms over its own variables), so a plan runs only when
    some new row passes that gate, or, when every row of the atom's
    relation passes unconditionally, when Δ has a new row of it.  φ0 of
    Example 2.1 fires only for a new ``Cust`` row whose country code is
    ``'01'``.

Both functions are generated as Python source and compiled through a
bounded code cache keyed by the source (:data:`CODE_CACHE_SIZE`).  Every
constant, relation name, row set and callback enters as an argument of
the source's factory under a name the generator makes, so no bundle
text enters the source, and two programs of one shape share one code
object.  The stateful steps stay in :class:`_Check` and are called back
when they fall due: the first read of ``q(D)`` (with the verdict of
``q(D) ⊆ p(Dm)``) and of ``p(Dm)``, a plan's compile when Δ first holds
its relation, and a gated delta plan's run through this module's
:func:`~repro.engine.executor.iter_rows`.  A compile that adds a plan
some row can fire regenerates the check with that plan's gate, and the
check in progress finishes in the new one; so callers read
:attr:`CheckProgram.check` at every call.

The program is the same on every backend: a storage backend evaluates
``q(D)`` (a whole plan over the base), and the delta plans probe the
base's hash indexes (:meth:`EvaluationContext.indexes_for`).

The program makes the context calls the per-constraint
:meth:`EvaluationContext.extension_satisfies` makes, when it makes
them, minus the repeated cache lookups.  A gate only skips a plan whose
first step would find no row, before any index is probed, and a
constraint whose Δ has new rows counts its delta evaluation whether or
not a gate lets a plan run.  So ``plans_compiled``,
``delta_evaluations``, ``full_evaluations``, ``index_builds`` and its
governor ticks are unchanged, and ``engine_cache_hits`` falls.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.engine.executor import (ChainSource, DeltaSource, IndexedSource,
                                   delta_sources, iter_rows)
from repro.queries.atoms import Eq
from repro.queries.terms import Const, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.containment import ContainmentConstraint
    from repro.core.valuations import TableauTemplates
    from repro.engine.context import EvaluationContext
    from repro.queries.tableau import Tableau
    from repro.relational.instance import Instance

__all__ = ["CheckProgram", "CODE_CACHE_SIZE"]

#: ``Δ \ D`` as a flat list of ``(relation, row)`` facts.
Facts = list[tuple[str, tuple]]

#: How many generated sources the code cache keeps compiled; past it,
#: the least recently used one is dropped.
CODE_CACHE_SIZE = 512
#: The file name generated code is compiled under, which tracebacks and
#: profiles show.
FILENAME = "<check program>"

#: The code cache: generated source -> its compiled factory, in
#: least-recently-used order.
_code: dict[str, Callable] = {}


class CheckProgram:
    """``values ↦ (D ∪ μ(T), Dm) ⊨ V`` for the tableau ``T`` *templates*
    reads, base ``D``, master ``Dm`` and constraints ``V``.

    :attr:`delta` is ``values ↦ Δ \\ D`` for ``Δ = μ(T)`` as a flat list
    of new facts, and :attr:`check` is ``(values, facts=None) ↦ bool``,
    *facts* being ``delta(values)`` when the caller has it: both are
    generated functions (see the module docstring), so a candidate costs
    two calls.  :attr:`check` is regenerated when a plan compile adds a
    gated plan, so read it at each call; it calls back into the program,
    which must stay alive while it is used.  The program pins the base
    and master it reads in the context's LRU, so their ids cannot be
    recycled while it lives.
    """

    __slots__ = ("delta", "check", "_checks", "_lists", "_position",
                 "_statistics", "_relations", "__weakref__")

    def __init__(self, context: "EvaluationContext",
                 templates: "TableauTemplates", base: "Instance",
                 master: "Instance",
                 constraints: "Sequence[ContainmentConstraint]") -> None:
        context._pin_instance(base)
        context._pin_instance(master)
        rows = [(row.relation, row.terms, base.relation(row.relation))
                for row in templates.tableau.rows
                if not (row.is_ground()
                        and tuple(t.value for t in row.terms)
                        in base.relation(row.relation))]
        relations = frozenset(relation for relation, _, _ in rows)
        self._position = templates.position
        self._statistics = context.statistics
        self._relations = relations
        self._checks = tuple(_Check(context, constraint, templates.tableau,
                                    base, master, relations)
                             for constraint in constraints)
        #: Whether Δ is listed on every check.  It is not when the checks
        #: can take it as every row left: there is one, the base holds no
        #: row of Δ's relations (so each row is new whatever the
        #: valuation), and no check reads the rows themselves.
        self._lists = (not relations
                       or any(base.relation(name) for name in relations)
                       or any(check.selections is None
                              for check in self._checks))
        self.delta = _delta_function(rows, templates.position)
        self.check = self._start

    def __call__(self, values: tuple, facts: Facts | None = None) -> bool:
        """``self.check(values, facts)``."""
        return self.check(values, facts)

    def _start(self, values: tuple, facts: Facts | None = None) -> bool:
        """The first check.  Every check starts with the first
        constraint's read of ``q(D)`` and its verdict of ``q(D) ⊆
        p(Dm)``, so they are made here; the check is then generated with
        them known and run."""
        if self._checks:
            self._checks[0].read_answers()
            self._checks[0].base_holds()
        self._generate()
        return self.check(values, facts)

    def _compiled(self, index: int, new: Any) -> Callable | None:
        """Compile constraint *index*'s plans of the relations *new*.
        When that adds a plan some row can fire, regenerate the check
        and return the new one's continuation of the constraint after
        its compile step, ``(values, facts) ↦ bool``; else None."""
        check = self._checks[index]
        before = len(check.runs)
        check.compile(new)
        if len(check.runs) == before:
            return None
        return self._generate(resume=index)

    def _generate(self, resume: int | None = None) -> Callable | None:
        """Generate :attr:`check` from the checks' state, and with
        *resume*, the continuation :meth:`_compiled` returns."""
        source = _Source(self._position)
        names = (source.arg("s", self._statistics),
                 source.arg("r", self._relations),
                 source.arg("w", weakref.ref(self)),
                 source.arg("u", _group))
        sections = [check.emit(source, index, self._lists, names)
                    for index, check in enumerate(self._checks)]
        state = [name for section in sections for name in section.state]
        preamble = [f"nonlocal {', '.join(state)}"] if state else []
        grouped = ["g = None"] if any(section.groups
                                      for section in sections) else []
        body = [(0, "def check(v, facts=None):")]
        body += [(1, line) for line in preamble]
        if self._lists:
            body += [(1, "if facts is None:"),
                     (2, f"facts = {source.arg('d', self.delta)}(v)")]
        body += [(1, line) for line in grouped]
        for section in sections:
            body += section.lines(1)
        body.append((1, "return True"))
        if resume is None:
            body.append((0, "return check, None"))
        else:
            body += [(0, "def resume(v, facts):")]
            body += [(1, line) for line in preamble + grouped]
            body += [(1 + depth, line)
                     for depth, line in sections[resume].post]
            for section in sections[resume + 1:]:
                body += section.lines(1)
            body += [(1, "return True"), (0, "return check, resume")]
        self.check, resumed = source.build(body)
        return resumed


class _Source:
    """Generated lines and the values their factory is called with.
    Every value — a constant, a relation name, a row set, a callback —
    enters as a factory argument under a name made here (a prefix and
    the argument's index), so the source holds no value of the inputs,
    only these names and integer indices."""

    __slots__ = ("position", "params", "args", "relations")

    def __init__(self, position: dict[Var, int]) -> None:
        self.position = position
        self.params: list[str] = []
        self.args: list[Any] = []
        self.relations: dict[str, tuple[str, str]] = {}

    def arg(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{len(self.params)}"
        self.params.append(name)
        self.args.append(value)
        return name

    def relation(self, relation: str, rows: Any) -> tuple[str, str]:
        """The argument names of *relation* and of its base *rows*."""
        names = self.relations.get(relation)
        if names is None:
            names = self.relations[relation] = (self.arg("n", relation),
                                                self.arg("b", rows))
        return names

    def term(self, term: Any) -> str:
        if isinstance(term, Var):
            return f"v[{self.position[term]}]"
        return self.arg("c", term.value)

    def row(self, terms: Sequence[Any]) -> str:
        """``μ(terms)`` as a tuple display (one argument if ground)."""
        if all(isinstance(t, Const) for t in terms):
            return self.arg("c", tuple(t.value for t in terms))
        parts = [self.term(t) for t in terms]
        return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"

    def condition(self, condition: tuple) -> str:
        left, right, equal = condition
        if not equal:
            return f"{self.term(left)} != {self.term(right)}"
        if isinstance(left, Const):
            left, right = right, left
        return f"{self.term(left)} == {self.term(right)}"

    def build(self, body: list[tuple[int, str]]) -> Any:
        """Compile ``make(<arguments>)`` around *body* (through the code
        cache) and call it with the arguments."""
        source = "\n".join([f"def make({', '.join(self.params)}):",
                            *("    " * (depth + 1) + line
                              for depth, line in body)])
        factory = _code.pop(source, None)
        if factory is None:
            namespace: dict[str, Any] = {}
            exec(compile(source, FILENAME, "exec"), namespace)
            factory = namespace["make"]
            while len(_code) >= CODE_CACHE_SIZE:
                _code.pop(next(iter(_code)), None)
        _code[source] = factory
        return factory(*self.args)


def _delta_function(rows: list[tuple], position: dict[Var, int],
                    ) -> Callable[[tuple], Facts]:
    """``values ↦ Δ \\ D`` for ``Δ = μ(T)``, from one ``(relation,
    terms, base rows)`` per tableau row: each instantiated row not in
    the base rows, as a ``(relation, row)`` fact, each fact once, in
    tableau-row order, so that ``_group(facts)`` is
    ``group_delta(base, templates.facts(values))``.  Ground rows already
    in the base are left out of *rows*.  A row equal to an earlier row
    of its relation is new exactly when that one is and was kept, so it
    is tested against those rows only, and not at all against one it
    differs from in a constant."""
    source = _Source(position)
    lines: list[tuple[int, str]] = []
    kept: list[tuple[int, str, tuple]] = []
    for index, (relation, terms, present) in enumerate(rows):
        name, base = source.relation(relation, present)
        earlier = [(k, other) for k, rel, other in kept if rel == relation]
        if any(other == terms for _, other in earlier):
            continue
        tests = [] if all(isinstance(t, Const) for t in terms) else [
            f"r{index} not in {base}"]
        tests += [f"r{index} != r{k}" for k, other in earlier
                  if not any(isinstance(a, Const) and isinstance(b, Const)
                             and a.value != b.value
                             for a, b in zip(terms, other))]
        lines.append((1, f"r{index} = {source.row(terms)}"))
        fact = f"({name}, r{index})"
        if tests:
            lines += [(1, f"if {' and '.join(tests)}:"),
                      (2, f"f.append({fact})")]
        else:
            lines.append((1, f"f.append({fact})"))
        kept.append((index, relation, terms))
    body = [(0, "def delta(v):"), (1, "f = []"), *lines, (1, "return f"),
            (0, "return delta")]
    return source.build(body)


class _Section:
    """The generated lines of one constraint: ``pre`` reads its state
    and opens the branch where Δ derives, ``post`` (relative to that
    branch) tests the base verdict and the rows or plans, ``tail`` ends
    the branch.  ``state`` names the variables it assigns; ``groups``
    says whether it groups Δ."""

    __slots__ = ("pre", "post", "tail", "inner", "state", "groups")

    def __init__(self) -> None:
        self.pre: list[tuple[int, str]] = []
        self.post: list[tuple[int, str]] = []
        self.tail: list[tuple[int, str]] = []
        self.inner = 0
        self.state: list[str] = []
        self.groups = False

    def lines(self, depth: int) -> list[tuple[int, str]]:
        return ([(depth + d, line) for d, line in self.pre]
                + [(depth + self.inner + d, line) for d, line in self.post]
                + [(depth + d, line) for d, line in self.tail])


class _Check:
    """One constraint of a program: the cached ``q(D)``, then the
    semi-naive new answers.  ``q(D)`` and ``p(Dm)`` are read on first
    need, through the context's caches (so the first read counts as it
    would per call), and ``q(D) ⊆ p(Dm)`` is decided once.  *relations*
    are the relations Δ can hold.

    ``selections`` is set when every disjunct is one relation atom: per
    disjunct, the tableau rows its atom can match, each as ``(conditions,
    head terms)`` (:func:`_selections`).  Such a constraint compiles its
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

    __slots__ = ("context", "tableau", "base", "master", "relations",
                 "query", "projection", "empty", "boolean", "answers",
                 "allowed", "base_ok", "selections", "searches", "runs",
                 "pending", "source")

    def __init__(self, context: "EvaluationContext",
                 constraint: "ContainmentConstraint", tableau: "Tableau",
                 base: "Instance", master: "Instance",
                 relations: frozenset[str]) -> None:
        self.context = context
        self.tableau = tableau
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
            [_selections(tableau, disjunct) for disjunct in disjuncts]
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

    def run(self, index: int, grouped: dict[str, list[tuple]]) -> bool:
        """Whether the delta plan ``runs[index]`` derives, from Δ grouped
        as *grouped*, an answer outside ``p(Dm)`` (any answer, for the
        target ``∅``)."""
        _, plan, sources, _ = self.runs[index]
        self.source.rows_by_relation = grouped
        for answer in iter_rows(plan, sources):
            if self.empty:
                return True
            allowed = self.allowed
            if allowed is None:
                allowed = self.read_allowed()
            if answer not in allowed:
                return True
        return False

    def compile(self, new: Any) -> None:
        base = IndexedSource(self.context.indexes_for(self.base))
        chained = ChainSource(base, self.source)
        for search in self.searches:
            relation, disjunct, j, plan, _, _ = search
            if plan is None and relation in new:
                plan = self.context.plan_for(disjunct, first_atom=j)
                search[3] = plan
                search[4] = delta_sources(plan, j, base, self.source, chained)
                if self.selections is None and plan.satisfiable:
                    search[5] = _plan_gates(self.tableau, self.base,
                                            disjunct.relation_atoms[j],
                                            plan.steps[0].comparisons)
        self.pending -= new
        self.runs = [(relation, plan, sources, gates)
                     for relation, _, _, plan, sources, gates in self.searches
                     if plan is not None and (gates is None or gates)]

    def emit(self, source: _Source, index: int, lists: bool,
             names: tuple[str, str, str, str]) -> _Section:
        """This constraint's lines of the check, from its state now:
        what it has read and decided is folded in, what it has not is
        read through its callbacks when the check first needs it."""
        statistics, relations, program, group = names
        section = _Section()
        pre, post = section.pre, section.post
        known = self.base_ok
        answers = None
        if known is None:
            ok = source.arg("o", None)
            section.state.append(ok)
            pre.append((0, f"if {ok} is None:"))
            read = f"{source.arg('q', self.read_answers)}()"
            if self.boolean:
                answers = source.arg("a", None)
                section.state.append(answers)
                read = f"{answers} = {read}"
            pre += [(1, read),
                    (1, f"{ok} = {source.arg('h', self.base_holds)}()")]
        # Δ derives new answers when it has new rows and the query is not
        # a Boolean query already true on the base.
        derives = ["facts"] if lists else []
        if self.boolean:
            if known is None:
                derives.append(f"not {answers}")
            elif self.answers:
                derives = None
        if known is None:
            fails = [(0, f"if not {ok}:"), (1, "return False")]
        else:
            fails = [] if known else [(0, "return False")]
        if derives is None:
            pre += fails
            return section
        if derives:
            pre.append((0, f"if {' and '.join(derives)}:"))
            section.inner = 1
        inner = section.inner
        pre.append((inner, f"{statistics}.delta_evaluations += 1"))
        if self.pending:
            pending = source.arg("p", self.pending)
            new = "new" if lists else relations
            test = (f"not {pending}.isdisjoint(new := "
                    "{fact[0] for fact in facts})" if lists
                    else f"not {pending}.isdisjoint({relations})")
            pre.append((inner, f"if {pending} and {test}:"))
            call = f"{program}()._compiled({index}, {new})"
            if self.selections is None:
                pre += [(inner + 1, f"r = {call}"),
                        (inner + 1, "if r is not None:"),
                        (inner + 2, "return r(v, facts)")]
            else:
                pre.append((inner + 1, call))
        post += fails
        if self.selections is not None:
            self._emit_selections(source, section)
        else:
            self._emit_runs(source, section, group)
        if derives and fails:
            if known is None:
                section.tail += [(0, f"elif not {ok}:"), (1, "return False")]
            else:
                section.tail += [(0, "else:"), (1, "return False")]
        return section

    def _emit_selections(self, source: _Source, section: _Section) -> None:
        """Per selected row: its conditions, then its projection's
        membership in ``p(Dm)`` (or, for the target ``∅``, failure)."""
        allowed = None
        for rows in self.selections:
            for conditions, head in rows:
                depth = 0
                if conditions:
                    section.post.append((0, "if " + " and ".join(
                        map(source.condition, conditions)) + ":"))
                    depth = 1
                if self.empty:
                    section.post.append((depth, "return False"))
                    continue
                if self.allowed is not None:
                    if allowed is None:
                        allowed = source.arg("m", self.allowed)
                else:
                    if allowed is None:
                        allowed = source.arg("m", None)
                        reader = source.arg("k", self.read_allowed)
                        section.state.append(allowed)
                    section.post += [(depth, f"if {allowed} is None:"),
                                     (depth + 1, f"{allowed} = {reader}()")]
                section.post += [
                    (depth, f"if {source.row(head)} not in {allowed}:"),
                    (depth + 1, "return False")]

    def _emit_runs(self, source: _Source, section: _Section,
                   group: str) -> None:
        """Per compiled plan some row can fire: its gate, then (Δ grouped
        on first need) the plan's run through :meth:`run`."""
        run = None
        for index, (relation, _, _, gates) in enumerate(self.runs):
            if gates is None:
                name, _ = source.relation(relation,
                                          self.base.relation(relation))
                gate = [(0, "if g is None:"), (1, f"g = {group}(facts)"),
                        (0, f"if {name} in g:")]
            else:
                tests = []
                for conditions, terms, present in gates:
                    parts = list(map(source.condition, conditions))
                    if not all(isinstance(t, Const) for t in terms):
                        _, rows = source.relation(relation, present)
                        parts.append(f"{source.row(terms)} not in {rows}")
                    elif tuple(t.value for t in terms) in present:
                        continue
                    tests.append(" and ".join(parts) or "True")
                if not tests:
                    continue
                gate = [(0, "if " + " or ".join(
                    f"({test})" if len(tests) > 1 else test
                    for test in tests) + ":"),
                    (1, "if g is None:"), (2, f"g = {group}(facts)")]
            if run is None:
                run = source.arg("x", self.run)
            section.groups = True
            section.post += gate + [(1, f"if {run}({index}, g):"),
                                    (2, "return False")]


def _selections(tableau: "Tableau", disjunct: Any) -> list[tuple]:
    """The rows of the tableau that *disjunct*'s one atom can match, as
    ``(conditions, head terms)``: instantiated by a valuation under
    which every condition holds, the row is selected and gives the
    answer the head terms instantiate to.  Rows no valuation can select
    are left out."""
    atom = disjunct.relation_atoms[0]
    selections = []
    for row in tableau.rows:
        if row.relation == atom.relation:
            selection = _selection(atom.terms, disjunct.comparisons,
                                   row.terms)
            if selection is not None:
                conditions, bound = selection
                selections.append((conditions, tuple(
                    _resolve(term, bound) for term in disjunct.head)))
    return selections


def _plan_gates(tableau: "Tableau", base: "Instance", atom: Any,
                comparisons: Sequence[Any]) -> list[tuple] | None:
    """The gates of a delta plan whose first step reads the relation atom
    *atom*, one per tableau row it can match, as ``(conditions, row
    terms, base rows)``: a valuation's instance of the row can take part
    in a binding of the atom when every condition holds and the row is
    not in the base.  The conditions are the atom's constants and
    repeated variables and *comparisons*, the disjunct's ``=``/``≠``
    atoms that read only the atom's variables (the plan's first-step
    comparisons).  Rows no valuation lets through are left out.  None
    when every tableau row of the atom's relation passes
    unconditionally: then the plan runs whenever Δ has a new row of that
    relation, which the grouped Δ already tells."""
    present = base.relation(atom.relation)
    gates = []
    rows = 0
    for row in tableau.rows:
        if row.relation == atom.relation:
            rows += 1
            selection = _selection(atom.terms, comparisons, row.terms)
            if selection is not None:
                gates.append((selection[0], row.terms, present))
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


def _selection(pattern: Sequence[Any], comparisons: Sequence[Any],
               terms: Sequence[Any],
               ) -> tuple[tuple, dict[Var, Any]] | None:
    """One tableau row (*terms*) against the atom *pattern*: the
    conditions that still depend on the valuation — the atom's constants,
    its repeated variables and *comparisons*, which read only the atom's
    variables — as ``(left, right, equal)`` over tableau terms, and the
    atom's variables bound to row terms; None when no valuation lets the
    row through."""
    bound: dict[Var, Any] = {}
    tests: list[Any] = []
    for term, target in zip(pattern, terms):
        if not isinstance(term, Var):
            tests.append(_condition(target, term, True))
        elif term in bound:
            tests.append(_condition(target, bound[term], True))
        else:
            bound[term] = target
    for comparison in comparisons:
        tests.append(_condition(_resolve(comparison.left, bound),
                                _resolve(comparison.right, bound),
                                isinstance(comparison, Eq)))
    if any(test is False for test in tests):
        return None
    return tuple(test for test in tests if test is not True), bound


def _condition(left: Any, right: Any, equal: bool) -> bool | tuple:
    """``μ(left) = μ(right)`` (``≠`` unless *equal*) for terms of a
    tableau: a bool when it holds or fails for every valuation, else
    ``(left, right, equal)``."""
    if left == right:
        return equal
    if isinstance(left, Const) and isinstance(right, Const):
        return (left.value == right.value) == equal
    return left, right, equal


def _resolve(term: Any, bound: dict[Var, Any]) -> Any:
    return bound[term] if isinstance(term, Var) else term
