"""The :class:`EvaluationContext`: shared caches for one decision.

Every decision procedure in this library evaluates the same handful of
queries and constraints against the same master data and a stream of
candidate extensions.  The context is the object that makes that cheap:

* **compiled plans** per query body (and per pinned first atom, for
  delta plans) — compiled once, reused for every instance;
* **hash indexes** per instance, built lazily per ``(relation, bound
  positions)`` pair and charged to the attached governor;
* **answer memoization** ``Q(D)`` per ``(query, instance)`` pair;
* **master projections** ``p(Dm)`` per ``(projection, master)`` pair —
  previously recomputed on every single constraint check;
* **delta evaluation** ``Q(D ∪ Δ)`` from cached ``Q(D)`` via the
  semi-naive rule (at least one atom must match a new Δ-fact);
* **violation checks** ``Q(D ∪ Δ) ⊆ p(Dm)`` that stop at the first
  answer outside ``p(Dm)``;
* **check programs** deciding ``(D ∪ Δ, Dm) ⊨ V`` for every instance Δ
  of one tableau, compiled once (:mod:`repro.engine.checks`).

Instances cannot be weak-referenced (``__slots__`` without
``__weakref__``), so caches are keyed by ``id()`` with the instance
pinned in an LRU table; eviction purges every dependent cache entry, so
a recycled ``id()`` can never alias stale answers.

Every decider runs on a context: the caller's shared one, or a private
one it creates (:func:`repro.core.rcdp.resolve_context`).  The
query-level APIs (``query.evaluate``, :mod:`repro.constraints.
containment`) take one optionally and keep no cross-call state without
it.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    Sequence)

from repro.engine.checks import CheckProgram
from repro.engine.executor import (ChainSource, DeltaSource, IndexedSource,
                                   delta_sources, group_delta, iter_rows)
from repro.engine.indexes import InstanceIndexes
from repro.engine.plan import CompiledPlan, compile_plan
from repro.relational.backends import resolve_backend_name
from repro.relational.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.containment import ContainmentConstraint
    from repro.core.results import SearchStatistics
    from repro.core.valuations import TableauTemplates
    from repro.relational.backends import StorageBackend
    from repro.runtime.governor import ExecutionGovernor

__all__ = ["EngineStatistics", "EvaluationContext", "ENGINE_LANGUAGES"]

#: Query languages the compiled/indexed/delta paths understand.  They are
#: exactly the monotone languages of the paper's decidable fragment —
#: monotonicity is what makes the semi-naive delta rule sound.  FO and FP
#: queries fall back to their own evaluators (still answer-cached).
ENGINE_LANGUAGES = frozenset({"CQ", "UCQ", "EFO"})

#: Facts are ``(relation name, row)`` pairs throughout the library.
Fact = tuple[str, tuple]

#: How many instances a context pins (see :meth:`EvaluationContext.
#: _pin_instance`); the least recently used is evicted past it.
MAX_CACHED_INSTANCES = 256


class EngineStatistics:
    """Mutable engine counters; snapshot with :meth:`copy`, diff with
    :meth:`since` to fold a decision's share into its result stats."""

    __slots__ = ("plans_compiled", "index_builds", "cache_hits",
                 "cache_misses", "delta_evaluations", "full_evaluations")

    def __init__(self) -> None:
        self.plans_compiled = 0
        self.index_builds = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.delta_evaluations = 0
        self.full_evaluations = 0

    def copy(self) -> "EngineStatistics":
        snapshot = EngineStatistics()
        for field in self.__slots__:
            setattr(snapshot, field, getattr(self, field))
        return snapshot

    def since(self, earlier: "EngineStatistics") -> "SearchStatistics":
        """The work done between *earlier* and now, as the immutable
        :class:`~repro.core.results.SearchStatistics` deciders report."""
        from repro.core.results import SearchStatistics

        return SearchStatistics(
            plans_compiled=self.plans_compiled - earlier.plans_compiled,
            index_builds=self.index_builds - earlier.index_builds,
            engine_cache_hits=self.cache_hits - earlier.cache_hits,
            delta_evaluations=(self.delta_evaluations
                               - earlier.delta_evaluations),
            full_evaluations=(self.full_evaluations
                              - earlier.full_evaluations))

    def __repr__(self) -> str:
        parts = ", ".join(f"{field}={getattr(self, field)}"
                          for field in self.__slots__)
        return f"EngineStatistics({parts})"


class EvaluationContext:
    """Shared evaluation state for one decision (or one audit session).

    ``governor`` is deliberately a plain mutable attribute: deciders
    attach their governor only around the search loop (via
    :meth:`governed`), so engine work during setup — baseline answers,
    master projections — is never charged, keeping the governor's tick
    accounting identical to the pre-engine code.

    ``backend`` selects the storage backend that evaluates whole plans
    over an instance, ``Q(D)`` (:mod:`repro.relational.backends`):
    ``"python"`` runs the tuple-at-a-time slot executor; ``"columnar"``
    and ``"sqlite"`` run set-at-a-time / pushed-down SQL plans with
    identical answers.  ``None`` resolves via the ``REPRO_BACKEND``
    environment variable.  Delta evaluation and constraint checks run
    the semi-naive delta plans over the base's hash indexes on every
    backend.
    """

    __slots__ = ("governor", "statistics", "backend", "_instances",
                 "_indexes", "_answers", "_projections", "_queries",
                 "_plans", "_memo", "_pinned", "_charged_indexes")

    def __init__(self, *, governor: "ExecutionGovernor | None" = None,
                 backend: str | None = None) -> None:
        self.governor = governor
        self.backend = resolve_backend_name(backend)
        self.statistics = EngineStatistics()
        #: LRU of pinned instances: id -> Instance (insertion-ordered).
        self._instances: dict[int, Instance] = {}
        self._indexes: dict[int, InstanceIndexes] = {}
        #: per-instance answer cache: instance id -> {query id: answers}.
        self._answers: dict[int, dict[int, frozenset[tuple]]] = {}
        #: per-instance projection cache: instance id -> {p: p(Dm)}.
        self._projections: dict[int, dict[Any, frozenset[tuple]]] = {}
        #: queries pinned forever (there are few of them).
        self._queries: dict[int, Any] = {}
        self._plans: dict[tuple[int, int | None], CompiledPlan] = {}
        self._memo: dict[Any, Any] = {}
        self._pinned: dict[int, Any] = {}
        #: indexes already charged to this context, per instance id
        #: (:meth:`_on_build_for`).
        self._charged_indexes: dict[int, set[tuple[str, tuple]]] = {}

    # ------------------------------------------------------------------
    # Pinning and eviction
    # ------------------------------------------------------------------

    def _pin_instance(self, instance: Instance) -> int:
        """Pin *instance* in the LRU; return its ``id()`` cache key."""
        key = id(instance)
        if key in self._instances:
            # refresh LRU position
            self._instances[key] = self._instances.pop(key)
            return key
        self._instances[key] = instance
        if len(self._instances) > MAX_CACHED_INSTANCES:
            oldest = next(iter(self._instances))
            self._evict_instance(oldest)
        return key

    def _evict_instance(self, key: int) -> None:
        """Drop an instance and every cache entry derived from it, so a
        future object reusing the same ``id()`` cannot alias it."""
        self._instances.pop(key, None)
        self._indexes.pop(key, None)
        self._answers.pop(key, None)
        self._projections.pop(key, None)
        self._charged_indexes.pop(key, None)

    def _pin_query(self, query: Any) -> int:
        key = id(query)
        if key not in self._queries:
            self._queries[key] = query
        return key

    # ------------------------------------------------------------------
    # Plans and indexes
    # ------------------------------------------------------------------

    def plan_for(self, query: Any,
                 first_atom: int | None = None) -> CompiledPlan:
        """The compiled plan of a CQ *query* (cached per first-atom pin)."""
        key = (self._pin_query(query), first_atom)
        plan = self._plans.get(key)
        if plan is None:
            plan = compile_plan(query, first_atom)
            self._plans[key] = plan
            self.statistics.plans_compiled += 1
        return plan

    def indexes_for(self, instance: Instance) -> InstanceIndexes:
        """The (lazily populated) hash indexes of *instance*."""
        key = self._pin_instance(instance)
        indexes = self._indexes.get(key)
        if indexes is None:
            indexes = InstanceIndexes(instance,
                                      on_build=self._on_build_for(instance))
            self._indexes[key] = indexes
        return indexes

    def storage_for(self, instance: Instance) -> "StorageBackend":
        """The instance's storage for this context's backend (pinned so
        the storage-holding instance survives the LRU)."""
        self._pin_instance(instance)
        return instance.storage(self.backend)

    def _on_build_for(self, instance: Instance) -> Callable:
        """The ``on_build`` callback of *instance*'s indexes: it ticks
        the governor and counts ``index_builds`` once per ``(relation,
        positions)`` pair per instance per context, whichever executor
        asks.  The context's hash indexes ask once per pair; a storage
        outlives contexts (it is cached on the instance), so it reports
        every index a plan *requires*, and the counters stay those of a
        cold run whether or not the storage is pre-warmed.
        """
        key = self._pin_instance(instance)
        charged = self._charged_indexes.setdefault(key, set())

        def on_build(relation: str, positions: tuple[int, ...]) -> None:
            index_key = (relation, positions)
            if index_key in charged:
                return
            charged.add(index_key)
            if self.governor is not None:
                self.governor.tick("index_builds")
            self.statistics.index_builds += 1

        return on_build

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, query: Any, instance: Instance) -> frozenset[tuple]:
        """``Q(D)``, memoized per (query, instance) pair.

        CQ/UCQ/∃FO⁺ run on the compiled, indexed path; other languages
        (FO, FP — non-monotone, not plannable here) fall back to their
        own evaluators, still benefiting from the answer cache.
        """
        instance_key = self._pin_instance(instance)
        query_key = self._pin_query(query)
        per_instance = self._answers.setdefault(instance_key, {})
        cached = per_instance.get(query_key)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        self.statistics.cache_misses += 1
        if getattr(query, "language", None) in ENGINE_LANGUAGES:
            answers = self._engine_evaluate(query, instance)
        else:
            answers = query.evaluate(instance)
        self.statistics.full_evaluations += 1
        per_instance[query_key] = answers
        return answers

    def holds(self, query: Any, instance: Instance) -> bool:
        """``Q(D) ≠ ∅`` (Boolean queries: truth)."""
        return bool(self.evaluate(query, instance))

    def _engine_evaluate(self, query: Any,
                         instance: Instance) -> frozenset[tuple]:
        if self.backend != "python":
            storage = self.storage_for(instance)
            on_build = self._on_build_for(instance)
            answers: set[tuple] = set()
            for disjunct in query.to_cq_disjuncts():
                answers.update(storage.plan_rows(
                    self.plan_for(disjunct), on_build=on_build))
            return frozenset(answers)
        source = IndexedSource(self.indexes_for(instance))
        answers = set()
        for disjunct in query.to_cq_disjuncts():
            plan = self.plan_for(disjunct)
            sources = (source,) * len(plan.steps)
            answers.update(iter_rows(plan, sources))
        return frozenset(answers)

    # ------------------------------------------------------------------
    # Delta evaluation
    # ------------------------------------------------------------------

    def evaluate_extension(self, query: Any, base: Instance,
                           delta_facts: Iterable[Fact]) -> frozenset[tuple]:
        """``Q(base ∪ Δ)`` without materializing the union.

        For the monotone engine languages this is the cached ``Q(base)``
        plus the answers the semi-naive rule derives from Δ
        (:meth:`_new_answers`).  Non-monotone languages (FO, FP)
        materialize the union and evaluate it directly.
        """
        new_rows = group_delta(base, delta_facts)
        if getattr(query, "language", None) not in ENGINE_LANGUAGES:
            # Non-monotone fallback: materialize D ∪ Δ.  The union is
            # ephemeral (one per candidate), so it is not answer-cached.
            if not new_rows:
                return query.evaluate(base)
            from repro.relational.instance import extend_unvalidated

            delta = [(name, row) for name, rows in new_rows.items()
                     for row in rows]
            self.statistics.full_evaluations += 1
            return query.evaluate(extend_unvalidated(base, delta))
        base_answers = self.evaluate(query, base)
        if not self._derives_new(query, base_answers, new_rows):
            return base_answers
        return base_answers.union(self._new_answers(query, base, new_rows))

    @staticmethod
    def _derives_new(query: Any, base_answers: frozenset[tuple],
                     new_rows: dict[str, list[tuple]]) -> bool:
        """Whether Δ can add answers to ``Q(base)``: it has new rows,
        and ``Q`` is not a Boolean query already true on the base
        (monotonicity keeps that one true under any extension)."""
        return bool(new_rows) and not (
            getattr(query, "arity", None) == 0 and base_answers)

    def _new_answers(self, query: Any, base: Instance,
                     new_rows: dict[str, list[tuple]]) -> Iterator[tuple]:
        """The answers of ``Q(base ∪ Δ)`` derived from Δ, lazily.

        Every genuinely new answer has at least one atom matched by a
        new Δ-fact, so for each disjunct and each atom position ``j`` a
        delta plan is run in which atom ``j`` ranges over ``Δ \\ D``
        only, atoms at earlier body positions over ``D`` only, and later
        ones over ``D ∪ Δ`` — partitioning the new bindings by their
        minimal Δ-atom so none is enumerated twice (answers already in
        ``Q(base)`` may come out again).  Every delta plan is compiled
        before this returns, so a caller that stops at the first answer
        compiles and counts the same plans as one that drains the
        iterator; indexes are built only by the searches that run.
        """
        self.statistics.delta_evaluations += 1
        base_source = IndexedSource(self.indexes_for(base))
        delta_source = DeltaSource(new_rows)
        chain_source = ChainSource(base_source, delta_source)
        searches = []
        for disjunct in query.to_cq_disjuncts():
            for j, atom in enumerate(disjunct.relation_atoms):
                if atom.relation not in new_rows:
                    continue
                plan = self.plan_for(disjunct, first_atom=j)
                searches.append(iter_rows(plan, delta_sources(
                    plan, j, base_source, delta_source, chain_source)))
        return chain.from_iterable(searches)

    def extension_satisfies(self, query: Any, base: Instance,
                            delta_facts: Iterable[Fact], projection: Any,
                            master: Instance) -> bool:
        """Whether ``Q(base ∪ Δ) ⊆ p(master)`` — the containment
        constraint check on a candidate extension.

        The check decides *violation* instead of computing
        ``Q(base ∪ Δ)``: it stops at the first answer outside
        ``p(master)``, or at any answer when the target is empty.  It
        tests the cached ``Q(base)`` once, then draws the semi-naive new
        answers one at a time.  ``p(master)`` is read only once some
        answer exists and every delta plan is compiled up front, so the
        counters equal those of the materializing check except
        ``index_builds``, which can only be lower (a search cut short
        builds fewer indexes).  Non-engine languages (FO, FP)
        materialize ``Q(base ∪ Δ)`` and test it.  The template kernels
        decide all of ``V`` per valuation through :meth:`check_program`
        instead.
        """
        new_answers: Iterable[tuple] = ()
        if getattr(query, "language", None) not in ENGINE_LANGUAGES:
            answers = self.evaluate_extension(query, base, delta_facts)
        else:
            new_rows = group_delta(base, delta_facts)
            answers = self.evaluate(query, base)
            if self._derives_new(query, answers, new_rows):
                new_answers = self._new_answers(query, base, new_rows)
        if projection.is_empty_target:
            if answers:
                return False
            for _ in new_answers:
                return False
            return True
        allowed = None
        if answers:
            allowed = self.projection_rows(projection, master)
            if not answers <= allowed:
                return False
        for answer in new_answers:
            if allowed is None:
                allowed = self.projection_rows(projection, master)
            if answer not in allowed:
                return False
        return True

    def check_program(self, templates: "TableauTemplates", base: Instance,
                      master: Instance,
                      constraints: "Sequence[ContainmentConstraint]",
                      ) -> CheckProgram:
        """``values ↦ (base ∪ templates.facts(values), master) ⊨
        constraints``, compiled once for the tableau *templates* reads
        (:class:`~repro.engine.checks.CheckProgram`).  A kernel builds
        one at its first check of a tableau and calls it on every later
        value tuple of that tableau.  Verdicts and counters are those of
        :meth:`extension_satisfies` per constraint, except fewer cache
        hits."""
        return CheckProgram(self, templates, base, master, constraints)

    # ------------------------------------------------------------------
    # Master projections
    # ------------------------------------------------------------------

    def projection_rows(self, projection: Any,
                        master: Instance) -> frozenset[tuple]:
        """``p(Dm)``, memoized per (projection, master) pair."""
        key = self._pin_instance(master)
        per_master = self._projections.setdefault(key, {})
        rows = per_master.get(projection)
        if rows is None:
            self.statistics.cache_misses += 1
            rows = projection.evaluate(master)
            per_master[projection] = rows
        else:
            self.statistics.cache_hits += 1
        return rows

    # ------------------------------------------------------------------
    # Generic memoization and governor attachment
    # ------------------------------------------------------------------

    def memo(self, key: Any, factory: Callable[[], Any],
             pin: Iterable[Any] = ()) -> Any:
        """Get-or-compute an arbitrary decision-scoped value.

        Callers keying on ``id()`` of objects must pass those objects in
        *pin* so their ids stay stable for the context's lifetime (used
        by the deciders for tableaux, active domains, and value pools).
        """
        if key in self._memo:
            self.statistics.cache_hits += 1
            return self._memo[key]
        for obj in pin:
            self._pinned.setdefault(id(obj), obj)
        value = factory()
        self._memo[key] = value
        return value

    @contextmanager
    def governed(self, governor: "ExecutionGovernor | None"
                 ) -> Iterator["EvaluationContext"]:
        """Attach *governor* to the context for the duration of a search
        loop, restoring the previous one afterwards.  Index builds that
        happen inside the block tick the governor; engine work outside
        it (setup, baselines) stays uncharged."""
        previous = self.governor
        self.governor = governor
        try:
            yield self
        finally:
            self.governor = previous

    def __repr__(self) -> str:
        return (f"EvaluationContext[instances={len(self._instances)}, "
                f"plans={len(self._plans)}, {self.statistics!r}]")
