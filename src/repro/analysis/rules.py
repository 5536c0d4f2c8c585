"""The analyzer's rule registry: stable codes, one checker per rule.

Code blocks
-----------

* ``RC0xx`` — query rules (syntax, safety, schema, satisfiability,
  redundancy, language);
* ``RC1xx`` — constraint rules (schema, vacuity, subsumption, language);
* ``RC2xx`` — scenario rules (partial closedness, boundedness, master
  coverage);
* ``RC3xx`` — cross-constraint interaction rules (chase termination,
  unreachable and contradictory constraints; :mod:`repro.analysis.flow`);
* ``RC4xx`` — cost rules (plan shapes and the valuation-space estimate;
  :mod:`repro.analysis.flow`).

Each rule declares a *cost* (``"cheap"`` rules run everywhere, ``"deep"``
rules — the Chandra–Merlin containment/minimization ones — only in full
``repro lint`` runs, ``"flow"`` rules — the whole-scenario interaction
and cost pass — only when the flow pass is enabled) and whether it
participates in the deciders' fast-fail pass (``decider=False`` for
checks the deciders already perform with dedicated exceptions, like
partial closedness).

Rules are generators over a :class:`RuleContext`; they *yield*
:class:`~repro.analysis.diagnostics.Diagnostic` objects and record
machine-consumable conclusions on the context's fact slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.analysis.diagnostics import (AnalysisFacts, Diagnostic, Fixit,
                                        Severity, Span)
from repro.errors import ParseError, ReproError
from repro.queries.atoms import Eq, Neq, RelAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import RuleSpans
from repro.queries.tableau import Tableau
from repro.queries.terms import Var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema

__all__ = ["LintRule", "RuleContext", "RULES", "lint_rule",
           "DECIDABLE_LANGUAGES"]

#: The monotone languages the exact deciders accept (Theorems 3.1/4.1).
DECIDABLE_LANGUAGES = frozenset({"CQ", "UCQ", "EFO"})


@dataclass(frozen=True)
class LintRule:
    """Registry entry: metadata plus the checker callable."""

    code: str
    name: str
    severity: Severity
    description: str
    #: Where in the paper (or classic literature) the rule comes from.
    reference: str
    #: ``"cheap"`` rules run in every pass; ``"deep"`` ones (containment
    #: and minimization — NP-hard per check) only under ``deep=True``;
    #: ``"flow"`` ones (the whole-scenario interaction/cost pass of
    #: :mod:`repro.analysis.flow`) only under ``flow=True``.
    cost: str = "cheap"
    #: Whether the rule runs in the deciders' fast-fail pass.
    decider: bool = True
    check: Callable[["RuleContext"], Iterable[Diagnostic]] | None = None


RULES: dict[str, LintRule] = {}


def lint_rule(code: str, name: str, severity: Severity, description: str,
              reference: str, *, cost: str = "cheap",
              decider: bool = True) -> "Callable[[Callable], Callable]":
    """Register a checker under a stable code."""

    def decorate(check: Callable) -> Callable:
        if code in RULES:
            raise ValueError(f"duplicate lint rule code {code}")
        RULES[code] = LintRule(code=code, name=name, severity=severity,
                               description=description,
                               reference=reference, cost=cost,
                               decider=decider, check=check)
        return check

    return decorate


def _diag(code: str, message: str, span: Span | None = None,
          fixit: Fixit | None = None) -> Diagnostic:
    rule = RULES[code]
    return Diagnostic(code=code, severity=rule.severity, message=message,
                      span=span or Span(), rule=rule.name, fixit=fixit)


@dataclass
class RuleContext:
    """Everything one analysis run knows, plus mutable fact slots."""

    query: Any = None
    constraints: tuple = ()
    schema: DatabaseSchema | None = None
    master_schema: DatabaseSchema | None = None
    database: Instance | None = None
    master: Instance | None = None
    #: Source texts by key (``"query"``, ``"constraints[0]"``, …).
    sources: dict[str, str] = field(default_factory=dict)
    #: Per-source parsed rule spans, aligned with rule/disjunct index.
    spans: dict[str, list[RuleSpans]] = field(default_factory=dict)
    #: Per-source raw ``(head, body)`` rule pairs (text path only).
    raw_rules: dict[str, list[tuple]] = field(default_factory=dict)
    #: Sources whose text failed to parse (text path only).
    parse_failures: dict[str, ParseError] = field(default_factory=dict)
    #: Source key per *constructed* constraint, aligned with
    #: ``constraints``.  Needed on the text path: a constraint whose text
    #: failed to parse is absent from ``constraints``, so list indices
    #: drift from the payload's ``constraints[N]`` keys.
    constraint_sources: list[str] = field(default_factory=list)
    deep: bool = True

    # -- mutable conclusions rules fill in ------------------------------
    query_provably_empty: bool = False
    empty_disjuncts: list[str] = field(default_factory=list)
    minimized_query: Any = None
    redundant_constraints: list[str] = field(default_factory=list)
    monotone: bool = True
    #: Indices of constraints that failed validation (later rules skip
    #: them to avoid cascading crashes on the same root cause).
    invalid_constraints: set[int] = field(default_factory=set)
    #: True when RC002 fired — satisfiability/minimization rules skip
    #: the query rather than crash on the schema mismatch again.
    query_schema_ok: bool = True
    #: Chase class set by RC301 ("acyclic"/"weakly-acyclic"/"divergent").
    chase_class: str | None = None
    #: Names of constraints RC302/RC303 proved unable to ever fire.
    inapplicable_constraints: list[str] = field(default_factory=list)
    #: The `repro.analysis.cost.CostEstimate` RC404 computed, if any.
    cost_estimate: Any = None

    # -- span helpers ---------------------------------------------------

    def constraint_source(self, index: int) -> str:
        """Source key of the *index*-th constructed constraint."""
        if index < len(self.constraint_sources):
            return self.constraint_sources[index]
        return f"constraints[{index}]"

    def source_span(self, source: str) -> Span:
        """Whole-source span (line 1 caret when text is known)."""
        text = self.sources.get(source, "")
        first_line = text.splitlines()[0] if text else ""
        return Span(source=source, length=len(first_line))

    def span(self, source: str, rule_index: int | None = None, *,
             literal: int | None = None, variable: str | None = None,
             head: bool = False) -> Span:
        per_rule = self.spans.get(source)
        if (per_rule is None or rule_index is None
                or rule_index >= len(per_rule)):
            return self.source_span(source)
        spans = per_rule[rule_index]
        if variable is not None and variable in spans.variables:
            where = spans.variables[variable]
        elif literal is not None and literal < len(spans.literals):
            where = spans.literals[literal]
        elif head:
            where = spans.head
        else:
            where = spans.rule
        return Span(source=source, line=where.line, column=where.column,
                    offset=where.offset, length=where.length)

    # -- structure helpers ----------------------------------------------

    def cq_disjuncts(self) -> list[ConjunctiveQuery] | None:
        """The query's CQ disjuncts, or ``None`` for FO/FP/absent."""
        unfold = getattr(self.query, "to_cq_disjuncts", None)
        if unfold is None:
            return None
        return list(unfold())

    def constraint_disjuncts(self, constraint) -> list[ConjunctiveQuery]:
        unfold = getattr(constraint.query, "to_cq_disjuncts", None)
        return list(unfold()) if unfold is not None else []

    def valid_constraints(self) -> list[tuple[int, Any]]:
        return [(i, c) for i, c in enumerate(self.constraints)
                if i not in self.invalid_constraints]

    def facts(self) -> AnalysisFacts:
        return AnalysisFacts(
            query_provably_empty=self.query_provably_empty,
            empty_disjuncts=tuple(self.empty_disjuncts),
            minimized_query=self.minimized_query,
            redundant_constraints=tuple(self.redundant_constraints),
            monotone=self.monotone,
            chase=self.chase_class,
            inapplicable_constraints=tuple(self.inapplicable_constraints),
            cost_estimate=self.cost_estimate)


def _spans_align(ctx: RuleContext, source: str) -> bool:
    """True when per-disjunct spans of *source* align with the query's
    disjunct indices (text path, CQ/UCQ only)."""
    return source in ctx.spans


def _tableau_or_none(disjunct: ConjunctiveQuery,
                     schema: DatabaseSchema) -> Tableau | None:
    try:
        return Tableau(disjunct, schema)
    except ReproError:
        return None  # schema mismatch — RC002/RC101 already flagged it


def _render_query(disjuncts: list[ConjunctiveQuery]) -> str:
    from repro.io.json_io import _render_cq

    return "\n".join(_render_cq(d) for d in disjuncts)


# ---------------------------------------------------------------------------
# RC0xx — query rules
# ---------------------------------------------------------------------------


@lint_rule("RC000", "syntax-error", Severity.ERROR,
           "the source text could not be parsed",
           "§2.1 (query syntax)")
def _check_syntax(ctx: RuleContext) -> Iterator[Diagnostic]:
    for source, error in sorted(ctx.parse_failures.items()):
        span = Span(source=source, line=error.line or 1,
                    column=error.column or 1, offset=error.offset or 0,
                    length=getattr(error, "length", 1) or 1)
        yield _diag("RC000", str(error), span)


def _rule_unsafe_variables(head: RelAtom,
                           body: list[Any]) -> list[str]:
    bound = {term.name for atom in body if isinstance(atom, RelAtom)
             for term in atom.terms if isinstance(term, Var)}
    unsafe = []
    for term in head.terms:
        if isinstance(term, Var) and term.name not in bound:
            unsafe.append(term.name)
    for atom in body:
        if isinstance(atom, (Eq, Neq)):
            for term in (atom.left, atom.right):
                if isinstance(term, Var) and term.name not in bound:
                    unsafe.append(term.name)
    return list(dict.fromkeys(unsafe))


@lint_rule("RC001", "unsafe-rule", Severity.ERROR,
           "a head or comparison variable is not range-restricted by any "
           "relation atom",
           "§2.1 (safe-range queries); Thm 3.6 needs range restriction "
           "for the tableau construction")
def _check_safety(ctx: RuleContext) -> Iterator[Diagnostic]:
    for source, rules in sorted(ctx.raw_rules.items()):
        for index, (head, body) in enumerate(rules):
            for name in _rule_unsafe_variables(head, body):
                yield _diag(
                    "RC001",
                    f"variable {name!r} of rule {index} is unsafe: it "
                    f"occurs in the head or a comparison but in no "
                    f"relation atom",
                    ctx.span(source, index, variable=name))


@lint_rule("RC002", "query-schema-mismatch", Severity.ERROR,
           "a query atom does not match the database schema",
           "§2.1 (queries over schema R)")
def _check_query_schema(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.query is None or ctx.schema is None:
        return
    found = False
    disjuncts = ctx.cq_disjuncts()
    if disjuncts is not None:
        for index, disjunct in enumerate(disjuncts):
            rule_index = index if _spans_align(ctx, "query") else None
            for literal_index, atom in enumerate(disjunct.body):
                if not isinstance(atom, RelAtom):
                    continue
                try:
                    atom.validate(ctx.schema)
                except ReproError as exc:
                    found = True
                    yield _diag("RC002", str(exc),
                                ctx.span("query", rule_index,
                                         literal=literal_index))
    elif getattr(ctx.query, "language", None) == "FP":
        idb = set(ctx.query.idb_predicates)
        for index, rule in enumerate(ctx.query.rules):
            rule_index = index if _spans_align(ctx, "query") else None
            for literal_index, atom in enumerate(rule.body):
                if (not isinstance(atom, RelAtom)
                        or atom.relation in idb):
                    continue
                try:
                    atom.validate(ctx.schema)
                except ReproError as exc:
                    found = True
                    yield _diag("RC002", str(exc),
                                ctx.span("query", rule_index,
                                         literal=literal_index))
    else:
        try:
            ctx.query.validate(ctx.schema)
        except ReproError as exc:
            found = True
            yield _diag("RC002", str(exc), ctx.source_span("query"))
    if found:
        ctx.query_schema_ok = False


@lint_rule("RC003", "query-provably-empty", Severity.WARNING,
           "every disjunct's =/≠ graph is contradictory — the query is "
           "empty on all instances and trivially relatively complete",
           "§3 (tableau (T_Q, u_Q)); union-find equality folding")
def _check_query_empty(ctx: RuleContext) -> Iterator[Diagnostic]:
    if (ctx.query is None or ctx.schema is None
            or not ctx.query_schema_ok):
        return
    disjuncts = ctx.cq_disjuncts()
    if not disjuncts:
        return
    verdicts: list[tuple[int, ConjunctiveQuery, bool]] = []
    for index, disjunct in enumerate(disjuncts):
        tableau = _tableau_or_none(disjunct, ctx.schema)
        if tableau is None:
            return
        verdicts.append((index, disjunct, tableau.satisfiable))
    if all(not satisfiable for _, _, satisfiable in verdicts):
        ctx.query_provably_empty = True
        ctx.empty_disjuncts.extend(d.name for _, d, _ in verdicts)
        yield _diag(
            "RC003",
            f"query {getattr(ctx.query, 'name', '?')!r} is provably "
            f"empty: the equality/inequality atoms of every disjunct "
            f"are contradictory, so Q(D) = ∅ on every database and D "
            f"is trivially relatively complete",
            ctx.source_span("query"))


@lint_rule("RC004", "disjunct-empty", Severity.WARNING,
           "a disjunct's =/≠ graph is contradictory — it contributes no "
           "answers and can be dropped",
           "§3 (tableau (T_Q, u_Q)); union-find equality folding")
def _check_disjunct_empty(ctx: RuleContext) -> Iterator[Diagnostic]:
    if (ctx.query is None or ctx.schema is None
            or not ctx.query_schema_ok or ctx.query_provably_empty):
        return
    disjuncts = ctx.cq_disjuncts()
    if not disjuncts or len(disjuncts) < 2:
        return
    live = []
    dead = []
    for index, disjunct in enumerate(disjuncts):
        tableau = _tableau_or_none(disjunct, ctx.schema)
        if tableau is None:
            return
        (live if tableau.satisfiable else dead).append((index, disjunct))
    if not dead:
        return
    ctx.empty_disjuncts.extend(d.name for _, d in dead)
    replacement = _render_query([d for _, d in live]) if live else None
    for index, disjunct in dead:
        rule_index = index if _spans_align(ctx, "query") else None
        yield _diag(
            "RC004",
            f"disjunct {disjunct.name!r} is unsatisfiable (contradictory "
            f"=/≠ atoms) and contributes no answers",
            ctx.span("query", rule_index),
            Fixit("drop the unsatisfiable disjunct", replacement))


@lint_rule("RC005", "redundant-atom", Severity.WARNING,
           "a disjunct has homomorphically redundant atoms; the "
           "minimized core is equivalent and cheaper to evaluate",
           "Chandra–Merlin 1977 (cores); §3.2 cites CM for answer "
           "testing", cost="deep")
def _check_redundant_atoms(ctx: RuleContext) -> Iterator[Diagnostic]:
    from repro.queries.containment import minimize

    if (ctx.query is None or ctx.schema is None
            or not ctx.query_schema_ok or ctx.query_provably_empty):
        return
    disjuncts = ctx.cq_disjuncts()
    if not disjuncts:
        return
    minimized: list[ConjunctiveQuery] = []
    shrunk_any = False
    for index, disjunct in enumerate(disjuncts):
        tableau = _tableau_or_none(disjunct, ctx.schema)
        if tableau is None or not tableau.satisfiable:
            minimized.append(disjunct)
            continue
        try:
            core = minimize(disjunct, ctx.schema, on_inequality="skip")
        except ReproError:
            minimized.append(disjunct)
            continue
        minimized.append(core)
        dropped = (len(disjunct.relation_atoms)
                   - len(core.relation_atoms))
        if dropped <= 0:
            continue
        shrunk_any = True
        rule_index = index if _spans_align(ctx, "query") else None
        yield _diag(
            "RC005",
            f"disjunct {disjunct.name!r} has {dropped} redundant "
            f"atom(s): the Chandra–Merlin core with "
            f"{len(core.relation_atoms)} atom(s) is equivalent",
            ctx.span("query", rule_index),
            Fixit("replace the query with its minimized core",
                  _render_query(minimized if len(minimized) > 1
                                else [core])))
    if shrunk_any:
        if len(minimized) == 1:
            ctx.minimized_query = minimized[0]
        else:
            from repro.queries.ucq import UnionOfConjunctiveQueries

            ctx.minimized_query = UnionOfConjunctiveQueries(
                minimized, name=getattr(ctx.query, "name", "Q"))


@lint_rule("RC006", "nonmonotone-query", Severity.WARNING,
           "the query language is outside the decidable monotone "
           "fragment; exact deciders refuse it and the engine's delta "
           "path is gated off",
           "Theorems 3.1 / 4.1 (undecidability beyond ∃FO⁺)")
def _check_query_language(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.query is None:
        return
    language = getattr(ctx.query, "language", None)
    if language in DECIDABLE_LANGUAGES or language is None:
        return
    ctx.monotone = False
    yield _diag(
        "RC006",
        f"query language {language} is undecidable for RCDP/RCQP "
        f"(Theorems 3.1/4.1): exact deciders will refuse it, only the "
        f"bounded semi-decision applies, and delta evaluation falls "
        f"back to full re-evaluation",
        ctx.source_span("query"))


@lint_rule("RC007", "nonrecursive-datalog", Severity.WARNING,
           "the datalog program has no recursive cycle — it is "
           "expressible as a UCQ, which would regain decidability",
           "Theorem 3.1 (FP undecidable) vs Theorem 3.6 (UCQ decidable)")
def _check_nonrecursive(ctx: RuleContext) -> Iterator[Diagnostic]:
    if getattr(ctx.query, "language", None) != "FP":
        return
    idb = set(ctx.query.idb_predicates)
    edges: dict[str, set[str]] = {p: set() for p in idb}
    for rule in ctx.query.rules:
        for atom in rule.body:
            if isinstance(atom, RelAtom) and atom.relation in idb:
                edges[rule.head.relation].add(atom.relation)
    # cycle detection over the IDB dependency graph
    state: dict[str, int] = {}

    def cyclic(node: str) -> bool:
        if state.get(node) == 1:
            return True
        if state.get(node) == 2:
            return False
        state[node] = 1
        if any(cyclic(successor) for successor in edges[node]):
            return True
        state[node] = 2
        return False

    if any(cyclic(p) for p in sorted(idb)):
        return
    yield _diag(
        "RC007",
        f"datalog program {getattr(ctx.query, 'name', '?')!r} is "
        f"non-recursive: unfolding it into a UCQ would move it into "
        f"the decidable fragment (Theorem 3.6) instead of requiring "
        f"the bounded semi-decision",
        ctx.source_span("query"))


@lint_rule("RC008", "unreachable-rule", Severity.WARNING,
           "a datalog rule cannot contribute to the goal predicate",
           "§2.1 (FP queries with designated goal)")
def _check_unreachable_rules(ctx: RuleContext) -> Iterator[Diagnostic]:
    if getattr(ctx.query, "language", None) != "FP":
        return
    idb = set(ctx.query.idb_predicates)
    edges: dict[str, set[str]] = {p: set() for p in idb}
    for rule in ctx.query.rules:
        for atom in rule.body:
            if isinstance(atom, RelAtom) and atom.relation in idb:
                edges[rule.head.relation].add(atom.relation)
    goal = ctx.query.goal
    reachable = set()
    frontier = [goal] if goal in idb else []
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(edges.get(node, ()))
    for index, rule in enumerate(ctx.query.rules):
        if rule.head.relation in reachable:
            continue
        rule_index = index if _spans_align(ctx, "query") else None
        yield _diag(
            "RC008",
            f"rule {index} defines {rule.head.relation!r}, which the "
            f"goal {goal!r} never depends on; the rule is dead",
            ctx.span("query", rule_index, head=True),
            Fixit("drop the unreachable rule"))


def _single_use_variables(head_terms, body) -> list[str]:
    counts: dict[str, int] = {}
    in_head: set[str] = set()
    for term in head_terms:
        if isinstance(term, Var):
            counts[term.name] = counts.get(term.name, 0) + 1
            in_head.add(term.name)
    for atom in body:
        terms = (atom.terms if isinstance(atom, RelAtom)
                 else (atom.left, atom.right))
        for term in terms:
            if isinstance(term, Var):
                counts[term.name] = counts.get(term.name, 0) + 1
    return [name for name, count in sorted(counts.items())
            if count == 1 and name not in in_head
            and not name.startswith("_")]


@lint_rule("RC009", "single-use-variable", Severity.INFO,
           "a body variable occurs exactly once (a don't-care); prefix "
           "it with '_' to document the projection",
           "§2.1 (∃-projection in CQ bodies)")
def _check_single_use(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.query is None:
        return
    if getattr(ctx.query, "language", None) == "FP":
        rules = [(r.head.terms, r.body) for r in ctx.query.rules]
    else:
        disjuncts = ctx.cq_disjuncts()
        if disjuncts is None:
            return
        rules = [(d.head, d.body) for d in disjuncts]
    for index, (head_terms, body) in enumerate(rules):
        rule_index = index if _spans_align(ctx, "query") else None
        for name in _single_use_variables(head_terms, body):
            yield _diag(
                "RC009",
                f"variable {name!r} occurs only once in rule {index}; "
                f"it is an existential don't-care",
                ctx.span("query", rule_index, variable=name))


# ---------------------------------------------------------------------------
# RC1xx — constraint rules
# ---------------------------------------------------------------------------


@lint_rule("RC101", "constraint-schema-mismatch", Severity.ERROR,
           "a containment constraint does not validate against the "
           "database/master schemas",
           "§2.1 (CCs q(D) ⊆ p(Dm) over schemas (R, Rm))")
def _check_constraint_schema(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.schema is None or ctx.master_schema is None:
        return
    for index, constraint in enumerate(ctx.constraints):
        try:
            constraint.validate(ctx.schema, ctx.master_schema)
        except ReproError as exc:
            ctx.invalid_constraints.add(index)
            yield _diag(
                "RC101",
                f"constraint {constraint.name!r}: {exc}",
                ctx.source_span(ctx.constraint_source(index)))


@lint_rule("RC102", "vacuous-constraint", Severity.WARNING,
           "the constraint's query is unsatisfiable, so the CC holds on "
           "every (D, Dm) and constrains nothing",
           "§2.1; union-find equality folding on the CC's tableau")
def _check_vacuous_constraints(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.schema is None:
        return
    for index, constraint in ctx.valid_constraints():
        disjuncts = ctx.constraint_disjuncts(constraint)
        if not disjuncts:
            continue
        tableaux = [_tableau_or_none(d, ctx.schema) for d in disjuncts]
        if any(t is None for t in tableaux):
            continue
        if any(t.satisfiable for t in tableaux):
            continue
        ctx.redundant_constraints.append(constraint.name)
        yield _diag(
            "RC102",
            f"constraint {constraint.name!r} is vacuous: its query is "
            f"unsatisfiable, so q(D) = ∅ ⊆ p(Dm) holds on every pair "
            f"(D, Dm)",
            ctx.source_span(ctx.constraint_source(index)),
            Fixit("drop the vacuous constraint"))


@lint_rule("RC103", "subsumed-constraint", Severity.WARNING,
           "the constraint is implied by another CC with the same "
           "projection whose query contains it",
           "Chandra–Merlin / Sagiv–Yannakakis containment; §2.1",
           cost="deep")
def _check_subsumed_constraints(ctx: RuleContext) -> Iterator[Diagnostic]:
    from repro.queries.containment import is_ucq_contained_in

    if ctx.schema is None:
        return
    candidates = [(i, c) for i, c in ctx.valid_constraints()
                  if c.name not in ctx.redundant_constraints
                  and ctx.constraint_disjuncts(c)]
    flagged: set[int] = set()
    for position, (i, first) in enumerate(candidates):
        for j, second in candidates[position + 1:]:
            if i in flagged and j in flagged:
                continue
            if first.projection != second.projection:
                continue
            if getattr(first.query, "arity", None) != getattr(
                    second.query, "arity", None):
                continue
            try:
                forward = is_ucq_contained_in(
                    first.query, second.query, ctx.schema,
                    on_inequality="unknown")
                backward = is_ucq_contained_in(
                    second.query, first.query, ctx.schema,
                    on_inequality="unknown")
            except ReproError:
                continue
            # q_i ⊆ q_j with equal projections means φ_j implies φ_i:
            # q_i(D) ⊆ q_j(D) ⊆ p(Dm) whenever φ_j holds.
            if forward and backward and j not in flagged:
                flagged.add(j)
                ctx.redundant_constraints.append(second.name)
                yield _diag(
                    "RC103",
                    f"constraint {second.name!r} duplicates "
                    f"{first.name!r}: equivalent queries, identical "
                    f"projection",
                    ctx.source_span(ctx.constraint_source(j)),
                    Fixit(f"drop {second.name!r}; {first.name!r} "
                          f"already enforces it"))
            elif forward and not backward and i not in flagged:
                flagged.add(i)
                ctx.redundant_constraints.append(first.name)
                yield _diag(
                    "RC103",
                    f"constraint {first.name!r} is subsumed by "
                    f"{second.name!r}: q[{first.name}] ⊆ "
                    f"q[{second.name}] and both project into the same "
                    f"master target",
                    ctx.source_span(ctx.constraint_source(i)),
                    Fixit(f"drop {first.name!r}; {second.name!r} "
                          f"already enforces it"))
            elif backward and not forward and j not in flagged:
                flagged.add(j)
                ctx.redundant_constraints.append(second.name)
                yield _diag(
                    "RC103",
                    f"constraint {second.name!r} is subsumed by "
                    f"{first.name!r}: q[{second.name}] ⊆ "
                    f"q[{first.name}] and both project into the same "
                    f"master target",
                    ctx.source_span(ctx.constraint_source(j)),
                    Fixit(f"drop {second.name!r}; {first.name!r} "
                          f"already enforces it"))


@lint_rule("RC104", "nonmonotone-constraint", Severity.WARNING,
           "a constraint's query language is outside the decidable "
           "fragment; exact deciders refuse the configuration",
           "Theorems 3.1 / 4.1 (undecidability beyond ∃FO⁺)")
def _check_constraint_language(ctx: RuleContext) -> Iterator[Diagnostic]:
    for index, constraint in enumerate(ctx.constraints):
        language = getattr(constraint.query, "language", None)
        if language in DECIDABLE_LANGUAGES or language is None:
            continue
        yield _diag(
            "RC104",
            f"constraint {constraint.name!r} uses {language}: "
            f"RCDP/RCQP are undecidable for this configuration "
            f"(Theorems 3.1/4.1); exact deciders will refuse it",
            ctx.source_span(ctx.constraint_source(index)))


# ---------------------------------------------------------------------------
# RC2xx — scenario rules
# ---------------------------------------------------------------------------


@lint_rule("RC201", "not-partially-closed", Severity.ERROR,
           "the database violates a containment constraint — (D, Dm) is "
           "not partially closed, so RCDP is undefined on it",
           "§2.1 (partially closed databases); RCDP precondition",
           decider=False)
def _check_partially_closed(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.database is None or ctx.master is None:
        return
    for index, constraint in ctx.valid_constraints():
        try:
            violations = constraint.violating_answers(ctx.database,
                                                      ctx.master)
        except ReproError:
            continue
        if not violations:
            continue
        shown = sorted(violations, key=repr)[:3]
        listed = ", ".join(repr(v) for v in shown)
        more = " …" if len(violations) > len(shown) else ""
        yield _diag(
            "RC201",
            f"(D, Dm) violates {constraint.name!r}: "
            f"{len(violations)} answer(s) of q(D) leave p(Dm), e.g. "
            f"{listed}{more}",
            ctx.source_span(ctx.constraint_source(index)))


@lint_rule("RC202", "unbounded-output-variable", Severity.WARNING,
           "an output variable ranges over an infinite domain no IND "
           "covers — no relatively complete database can exist without "
           "expanding the master data",
           "Proposition 4.3, conditions E3/E4; §2.3 paradigm 3")
def _check_boundedness(ctx: RuleContext) -> Iterator[Diagnostic]:
    from repro.analysis.boundedness import (VariableStatus,
                                            analyze_boundedness)

    if (ctx.query is None or ctx.schema is None
            or not ctx.query_schema_ok):
        return
    disjuncts = ctx.cq_disjuncts()
    if not disjuncts:
        return
    constraints = [c for _, c in ctx.valid_constraints()]
    try:
        report = analyze_boundedness(ctx.query, constraints, ctx.schema)
    except ReproError:
        return
    index_by_name = {d.name: i for i, d in enumerate(disjuncts)}
    for variable_report in report.variables:
        if variable_report.status is not VariableStatus.UNBOUNDED:
            continue
        columns = ", ".join(f"{r}.{a}"
                            for r, a in variable_report.columns)
        rule_index = index_by_name.get(variable_report.disjunct)
        if not _spans_align(ctx, "query"):
            rule_index = None
        yield _diag(
            "RC202",
            f"output variable {variable_report.variable.name!r} of "
            f"disjunct {variable_report.disjunct!r} is unbounded "
            f"(fails E3 and E4): no finite domain or covering IND "
            f"bounds it; master the values of {columns} to bound it",
            ctx.span("query", rule_index,
                     variable=variable_report.variable.name))


@lint_rule("RC203", "empty-master-target", Severity.INFO,
           "a constraint's master-side projection is empty, pinning its "
           "query to ∅ — a denial constraint in CC form",
           "Proposition 2.1 (denial constraints as CCs q ⊆ ∅)")
def _check_empty_master_target(ctx: RuleContext) -> Iterator[Diagnostic]:
    if ctx.master is None:
        return
    for index, constraint in ctx.valid_constraints():
        if constraint.name in ctx.redundant_constraints:
            continue
        try:
            rows = constraint.projection.evaluate(ctx.master)
        except ReproError:
            continue
        if rows:
            continue
        target = ("∅" if constraint.projection.is_empty_target
                  else f"{constraint.projection!r} (currently empty on "
                       f"Dm)")
        yield _diag(
            "RC203",
            f"constraint {constraint.name!r} projects into {target}: "
            f"it forces q(D) = ∅, i.e. it acts as a denial constraint",
            ctx.source_span(ctx.constraint_source(index)))
