"""Property tests for the counting workloads.

Pins the definitional identity ``count_missing_answers ≡
len(missing_answers_report(...).answers)``, the verdict bridge
(``count == 0 ⟺ COMPLETE``), monotonicity under Δ-extensions, limit
truncation, backend invariance, governed interruption, and the count of
completing extensions against the materializing reference
(``benchmarks/reference_rcdp.py``).
"""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.containment import (ContainmentConstraint,
                                           Projection, satisfies_all)
from repro.constraints.ind import InclusionDependency
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.results import SearchStatistics
from repro.errors import ExecutionInterrupted, ReproError
from repro.incomplete import (CountReport, count_completing_extensions,
                              count_missing_answers)
from repro.io.json_io import load_bundle
from repro.mdm.scenario import CRMScenario
from repro.queries.atoms import eq, rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.backends import BACKEND_NAMES
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

from benchmarks.reference_rcdp import reference_count
from tests.strategies import (SCHEMA, conjunctive_queries,
                              extension_facts, instances, union_queries)

#: The shipped example bundles.
_BUNDLES = sorted((Path(__file__).resolve().parent.parent / "examples"
                   / "bundles").glob("*.json"))

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)


def _count(query, db, **kwargs):
    return count_missing_answers(query, db, DM, [IND], **kwargs)


def _within_active_domain(db, delta):
    """Whether every Δ value already occurs in D or the master.

    The counting semantics range over the decider's candidate space
    (active domain + canonical fresh values), so monotonicity against an
    arbitrary Δ only holds when Δ introduces no values outside it."""
    known = {value for _, rows in db for row in rows for value in row}
    known.update({0, 1})  # master M = {(0,), (1,)} is always in adom
    return all(value in known for _, row in delta for value in row)


class TestCountEqualsReportLength:
    @settings(max_examples=40, deadline=None)
    @given(query=conjunctive_queries(), db=instances())
    def test_count_is_report_cardinality(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            report = missing_answers_report(query, db, DM, [IND])
        except ReproError:
            assume(False)
        count = _count(query, db)
        assert count.count == len(report.answers)
        assert count.exhaustive == report.exhaustive
        assert (count.statistics.valuations_examined
                == report.statistics.valuations_examined)

    @settings(max_examples=30, deadline=None)
    @given(query=conjunctive_queries(), db=instances())
    def test_zero_count_iff_complete(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            verdict = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        count = _count(query, db)
        assert count.exhaustive
        assert (count.count == 0) == verdict.is_complete

    @settings(max_examples=30, deadline=None)
    @given(query=conjunctive_queries(), db=instances())
    def test_zero_extension_count_iff_complete(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            verdict = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        count = count_completing_extensions(query, db, DM, [IND])
        assert count.exhaustive
        assert (count.count == 0) == verdict.is_complete


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(query=conjunctive_queries(), db=instances(),
           delta=extension_facts())
    def test_count_bounds_gain_of_any_valid_extension(
            self, query, db, delta):
        """Every answer a constraint-respecting Δ (over the decider's
        candidate space) exposes is counted as missing: ``|Q(D ∪ Δ) ∖
        Q(D)| ≤ count_missing_answers(D)``."""
        assume(satisfies_all(db, DM, [IND]))
        assume(_within_active_domain(db, delta))
        extended = extend_unvalidated(db, delta)
        assume(satisfies_all(extended, DM, [IND]))
        try:
            count = _count(query, db)
        except ReproError:
            assume(False)
        gained = query.evaluate(extended) - query.evaluate(db)
        assert len(gained) <= count.count

    @settings(max_examples=30, deadline=None)
    @given(query=conjunctive_queries(), db=instances(),
           delta=extension_facts())
    def test_count_shrinks_as_the_database_grows(self, query, db, delta):
        """Adding valid facts can only close gaps: the extended
        database misses at most what the original missed."""
        assume(satisfies_all(db, DM, [IND]))
        assume(_within_active_domain(db, delta))
        extended = Instance(
            SCHEMA, {name: set(rows) for name, rows in
                     extend_unvalidated(db, delta)})
        assume(satisfies_all(extended, DM, [IND]))
        try:
            before = missing_answers_report(query, db, DM, [IND])
            after = missing_answers_report(query, extended, DM, [IND])
        except ReproError:
            assume(False)
        gained = query.evaluate(extended) - query.evaluate(db)
        assert after.answers <= before.answers - gained


class TestLimitAndGovernance:
    @settings(max_examples=30, deadline=None)
    @given(query=conjunctive_queries(), db=instances(),
           limit=st.integers(1, 4))
    def test_limit_truncates_the_count(self, query, db, limit):
        assume(satisfies_all(db, DM, [IND]))
        try:
            full = _count(query, db)
        except ReproError:
            assume(False)
        limited = _count(query, db, limit=limit)
        assert limited.count == min(limit, full.count)
        if full.count >= limit:
            # The enumeration stops at the limit without knowing
            # whether more answers exist, so the count is a lower bound.
            assert not limited.exhaustive
        else:
            assert limited.exhaustive

    def test_budget_interruption_degrades_to_lower_bound(self):
        scenario = CRMScenario.example()
        query = scenario.q0_customers_with_area_code()
        args = (query, scenario.database(missing_customers=["c1"]),
                scenario.master(), scenario.default_constraints())
        count = count_missing_answers(*args, budget=3)
        assert not count.exhaustive
        assert count.interrupted == "budget"
        assert repr(count).startswith("CountReport[≥")
        with pytest.raises(ExecutionInterrupted):
            count_missing_answers(*args, budget=3, on_exhausted="error")
        extensions = count_completing_extensions(*args, budget=3)
        assert not extensions.exhaustive
        assert extensions.interrupted == "budget"

    def test_max_extensions_truncates(self):
        scenario = CRMScenario.example()
        query = scenario.q0_customers_with_area_code()
        args = (query, scenario.database(missing_customers=["c1"]),
                scenario.master(), scenario.default_constraints())
        full = count_completing_extensions(*args)
        assert full.exhaustive and full.count >= 1
        capped = count_completing_extensions(*args, max_extensions=1)
        assert capped.count == 1
        assert not capped.exhaustive

    def test_exhaustive_report_repr_has_no_qualifier(self):
        report = CountReport(count=2, exhaustive=True, statistics=None)
        assert repr(report) == "CountReport[2]"


def _backend_statistics(statistics: SearchStatistics,
                        backend: str) -> SearchStatistics:
    """*statistics* as compared across backends: every field, but
    ``index_builds`` on sqlite, which charges its SQL indexes per keyed
    step of ``Q(D)``'s plan, up front, where python builds a hash index
    per probe."""
    if backend == "sqlite":
        return replace(statistics, index_builds=0)
    return statistics


class TestBackendInvariance:
    """Every backend runs the same checks (a storage evaluates only
    whole plans), so it reports python's statistics: every field, but
    ``index_builds`` on sqlite."""

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_counts_match_python_backend(self, backend):
        scenario = CRMScenario.example()
        query = scenario.q0_customers_with_area_code()
        args = (query, scenario.database(missing_customers=["c1"]),
                scenario.master(), scenario.default_constraints())
        oracle = count_missing_answers(*args, backend="python")
        count = count_missing_answers(*args, backend=backend)
        assert count.count == oracle.count
        assert count.exhaustive and oracle.exhaustive
        ext_oracle = count_completing_extensions(*args, backend="python")
        ext = count_completing_extensions(*args, backend=backend)
        assert ext.count == ext_oracle.count
        # The python counters are exact and pinned; a change to the
        # check layer may lower only the cache hits.
        assert replace(ext_oracle.statistics, engine_cache_hits=0) \
            == SearchStatistics(valuations_examined=279841,
                                constraint_checks=267674, plans_compiled=6,
                                index_builds=5, delta_evaluations=534819,
                                full_evaluations=4)
        for ours, python in ((count, oracle), (ext, ext_oracle)):
            assert _backend_statistics(ours.statistics, backend) == \
                _backend_statistics(python.statistics, backend)

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    @pytest.mark.parametrize("path", _BUNDLES, ids=lambda path: path.stem)
    def test_decide_statistics_match_python_backend(self, path, backend):
        bundle = load_bundle(path)
        inputs = (bundle["query"], bundle["database"], bundle["master"],
                  bundle["constraints"])
        oracle = decide_rcdp(*inputs, backend="python")
        result = decide_rcdp(*inputs, backend=backend)
        assert result.status is oracle.status
        assert result.certificate == oracle.certificate
        assert _backend_statistics(result.statistics, backend) == \
            _backend_statistics(oracle.statistics, backend)

    def test_worker_invariance(self):
        scenario = CRMScenario.example()
        query = scenario.q0_customers_with_area_code()
        args = (query, scenario.database(missing_customers=["c1"]),
                scenario.master(), scenario.default_constraints())
        serial = count_missing_answers(*args, workers=1)
        parallel = count_missing_answers(*args, workers=2)
        assert parallel.count == serial.count
        assert parallel.exhaustive == serial.exhaustive


_X, _Y = var("x"), var("y")
#: Bans a symmetric R pair on the value 1, so R(1, 1) is rejected; a
#: self-join, so its delta plans run.
_BAN_ONE = ContainmentConstraint(
    cq([], [rel("R", _X, _Y), rel("R", _Y, _X), eq(_X, _Y), eq(_X, 1)]),
    Projection.empty(), name="ban-R(1,1)")
_SYMMETRIC = cq([_X], [rel("R", _X, _Y), rel("R", _Y, _X)], name="Qsym")
#: The count's cap on the shipped bundles: crm_q1_supported has over
#: 3,000,000 candidates, and the reference materializes every one.
_BUNDLE_CAP = 2000


@st.composite
def _constraints(draw):
    """The IND plus up to two CQ or UCQ constraints, against ``π(M)``
    (unary heads) or ``∅``."""
    drawn = [IND]
    for index in range(draw(st.integers(0, 2))):
        query = draw(st.one_of(conjunctive_queries(max_comparisons=2),
                               union_queries()))
        target = (Projection.on("M", [0])
                  if query.arity == 1 and draw(st.booleans())
                  else Projection.empty())
        drawn.append(ContainmentConstraint(query, target, name=f"cc{index}"))
    return drawn


def _count_and_counters(*inputs, **options):
    report = count_completing_extensions(*inputs, **options)
    return (report.count, report.statistics.constraint_checks,
            report.statistics.valuations_examined)


class TestCountMatchesReference:
    """``count_completing_extensions`` against
    :func:`~benchmarks.reference_rcdp.reference_count`, which checks
    every candidate on the materialized ``D ∪ Δ`` and deduplicates the
    accepted Δs by ``frozenset``: the same count, the same
    ``constraint_checks`` and the same ``valuations_examined`` (the
    reference visits every valuation the count decides in a block) on
    every backend."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(query=st.one_of(conjunctive_queries(), union_queries()),
           db=instances(), constraints=_constraints())
    def test_random_queries(self, backend, query, db, constraints):
        # D need not satisfy V: then no Δ is accepted, on either side.
        try:
            ours = _count_and_counters(query, db, DM, constraints,
                                     check_partially_closed=False,
                                     backend=backend)
        except ReproError:
            assume(False)
        assert ours == reference_count(query, db, DM, constraints)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_self_join_valuations_sharing_one_delta(self, backend):
        # (x, y) = (0, 1) and (1, 0) both add {R(0, 1), R(1, 0)}: the
        # second is counted already and not checked.  R(1, 1) is
        # rejected; R(0, 0) is accepted.
        db = Instance(SCHEMA, {"R": {(2, 0)}, "T": set()})
        inputs = (_SYMMETRIC, db, DM, [IND, _BAN_ONE])
        assert _count_and_counters(*inputs, backend=backend) == \
            reference_count(*inputs) == (2, 3, 4)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_ucq_disjuncts_reaching_one_fact(self, backend):
        # The two-row disjunct at x = y = 0 and the one-row disjunct at
        # x = 0 both add the one fact R(0, 0), counted once; x = 1 adds
        # R(1, 1) from both, rejected and checked by each.
        query = UnionOfConjunctiveQueries(
            [_SYMMETRIC, cq([_X], [rel("R", _X, _X)])], name="Qucq")
        db = Instance(SCHEMA, {"R": {(2, 0)}, "T": set()})
        inputs = (query, db, DM, [IND, _BAN_ONE])
        assert _count_and_counters(*inputs, backend=backend) == \
            reference_count(*inputs) == (2, 4, 6)

    @pytest.mark.parametrize("path", _BUNDLES, ids=lambda path: path.stem)
    def test_shipped_bundles(self, path):
        bundle = load_bundle(path)
        inputs = (bundle["query"], bundle["database"], bundle["master"],
                  bundle["constraints"])
        expected = reference_count(*inputs, max_extensions=_BUNDLE_CAP)
        for backend in BACKEND_NAMES:
            assert _count_and_counters(
                *inputs, max_extensions=_BUNDLE_CAP,
                backend=backend) == expected, backend
