"""Observability tests: unit coverage for ``repro.obs`` plus the two
layer-wide invariants the module's docstring promises.

* **Traced ≡ untraced** (property-based): attaching an
  :class:`~repro.obs.Observation` to the governor — enabled or
  disabled, serial or sharded, with or without fault injection — never
  changes a verdict, a witness, or the search statistics.  Tracing is
  observation-only.
* **Well-formed traces on the corpus**: every ``examples/bundles``
  bundle that carries a ``"trace"`` block decides cleanly under a
  tracer at ``workers ∈ {1, 2}``; the exported JSONL records pass
  :func:`~repro.obs.check_trace` (no orphans, no same-lane overlap,
  children inside parents, root tick deltas == governor ledger ==
  ``SearchStatistics``) and contain the bundle's expected phase spans.
"""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.containment import satisfies_all
from repro.constraints.ind import InclusionDependency
from repro.core.rcdp import decide_rcdp
from repro.core.rcqp import decide_rcqp
from repro.core.results import RCDPStatus, SearchStatistics
from repro.core.witness import make_complete
from repro.errors import ReproError
from repro.incomplete.counting import count_completing_extensions
from repro.io.json_io import load_bundle
from repro.obs import (MetricsRegistry, Observation, Tracer, check_trace,
                       merged_span_ticks, obs_of, obs_span, profile_rows,
                       read_trace, render_profile, trace_records,
                       write_trace)
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.runtime import Budget, ExecutionGovernor, FaultInjector

from tests.strategies import SCHEMA, conjunctive_queries, instances

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)

BUNDLE_DIR = (Path(__file__).resolve().parent.parent / "examples"
              / "bundles")
TRACED_BUNDLES = sorted(
    path for path in BUNDLE_DIR.glob("*.json")
    if "trace" in json.loads(path.read_text(encoding="utf-8")))


def observed_governor(*, enabled=True, faults=None):
    """A governor with an unlimited tick ledger and an attached
    observation — the tracing configuration the CLI builds."""
    governor = ExecutionGovernor(budget=Budget(), faults=faults)
    Observation.attach(governor, enabled=enabled)
    return governor


# ---------------------------------------------------------------------
# Unit: tracer
# ---------------------------------------------------------------------

class TestTracer:
    def test_spans_nest_by_dynamic_scope(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.started <= inner.started
        assert inner.ended <= outer.ended

    def test_tick_attribution_diffs_the_source(self):
        ledger = {"valuations": 0}
        tracer = Tracer(tick_source=lambda: dict(ledger))
        with tracer.span("search"):
            ledger["valuations"] = 7
        assert tracer.spans[0].ticks == {"valuations": 7}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("phase") as span:
            assert span is None
        assert tracer.spans == []

    def test_max_spans_drops_leaves_only(self):
        tracer = Tracer(max_spans=2)
        with tracer.span("root"):
            with tracer.span("kept"):
                pass
            with tracer.span("dropped") as span:
                assert span is None
        assert [s.name for s in tracer.spans] == ["kept", "root"]
        assert tracer.dropped_spans == 1

    def test_absorb_reparents_and_stamps_lane(self):
        worker = Tracer()
        with worker.span("shard"):
            with worker.span("work"):
                pass
        parent = Tracer()
        with parent.span("root"):
            parent.absorb(worker.to_records(), lane="shard-0")
        names = {s.name: s for s in parent.spans}
        root = names["root"]
        assert names["shard"].parent_id == root.span_id
        assert names["work"].parent_id == names["shard"].span_id
        assert names["shard"].attributes["lane"] == "shard-0"

    def test_on_span_end_hooks_fire_in_completion_order(self):
        tracer = Tracer()
        seen = []
        tracer.on_span_end.append(lambda span: seen.append(span.name))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert seen == ["b", "a"]


# ---------------------------------------------------------------------
# Unit: metrics
# ---------------------------------------------------------------------

class TestMetrics:
    def test_merge_adds_counters_and_combines_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.count("calls", 2)
        left.observe("seconds", 1.0)
        right.count("calls", 3)
        right.observe("seconds", 3.0)
        right.gauge("shard", 1)
        left.merge(right.snapshot())
        assert left.counters["calls"] == 5
        assert left.gauges["shard"] == 1
        summary = left.histograms["seconds"]
        assert summary == {"count": 2, "total": 4.0,
                           "min": 1.0, "max": 3.0}

    def test_statistics_roundtrip_through_search_counters(self):
        registry = MetricsRegistry()
        stats = SearchStatistics(valuations_examined=5,
                                 plans_compiled=2, index_builds=1)
        registry.record_statistics(stats)
        assert registry.as_search_statistics() == stats
        assert registry.counters["search.valuations_examined"] == 5

    def test_record_ticks_uses_the_governor_namespace(self):
        registry = MetricsRegistry()
        registry.record_ticks({"valuations": 4, "idle": 0})
        assert registry.counters == {"governor.ticks.valuations": 4}


# ---------------------------------------------------------------------
# Property: merge is associative and order-insensitive over
# shard-style snapshots (satellite: what supervision relies on when it
# folds worker registries home in completion order, not shard order).
#
# Scope of the claim: counter and histogram values are kept integral so
# float addition is exact, and gauge names are disjoint per shard
# (``parallel.shard.N.consumed``) — gauges are last-write-wins, so
# colliding gauge keys are legitimately order-sensitive and real shard
# snapshots never collide.
# ---------------------------------------------------------------------

_COUNTER_NAMES = st.sampled_from(
    ["governor.ticks.valuations", "governor.ticks.nodes",
     "search.valuations_examined", "search.constraint_checks",
     "span.enumerate_valuations.calls"])
_HIST_NAMES = st.sampled_from(
    ["span.decide_rcdp.seconds", "span.analyze.seconds"])


@st.composite
def _shard_snapshots(draw):
    """A list of 2–5 worker-registry snapshots with disjoint gauges."""
    snapshots = []
    for index in range(draw(st.integers(2, 5))):
        registry = MetricsRegistry()
        for name, amount in draw(st.dictionaries(
                _COUNTER_NAMES, st.integers(0, 1000), max_size=4)).items():
            registry.count(name, amount)
        registry.gauge(f"parallel.shard.{index}.consumed",
                       float(draw(st.integers(0, 1000))))
        for name, values in draw(st.dictionaries(
                _HIST_NAMES,
                st.lists(st.integers(0, 100), min_size=1, max_size=4),
                max_size=2)).items():
            for value in values:
                registry.observe(name, float(value))
        snapshots.append(registry.snapshot())
    return snapshots


def _fold(*snapshots):
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(snapshots=_shard_snapshots(),
           seed=st.randoms(use_true_random=False))
    def test_merge_is_order_insensitive(self, snapshots, seed):
        shuffled = list(snapshots)
        seed.shuffle(shuffled)
        assert _fold(*shuffled) == _fold(*snapshots)

    @settings(max_examples=50, deadline=None)
    @given(snapshots=_shard_snapshots())
    def test_merge_is_associative(self, snapshots):
        a, b, *rest = snapshots
        left_first = _fold(_fold(a, b), *rest)
        right_first = _fold(a, _fold(b, *rest))
        assert left_first == right_first == _fold(*snapshots)

    @settings(max_examples=50, deadline=None)
    @given(snapshots=_shard_snapshots())
    def test_empty_registry_is_identity(self, snapshots):
        folded = _fold(*snapshots)
        assert _fold({}, *snapshots) == folded
        assert _fold(*snapshots, _fold()) == folded


# ---------------------------------------------------------------------
# Unit: trace IO + profile
# ---------------------------------------------------------------------

class TestTraceIO:
    def _records(self):
        tracer = Tracer(tick_source=lambda: {})
        with tracer.span("decide_rcdp"):
            with tracer.span("analyze"):
                pass
            with tracer.span("enumerate_valuations"):
                pass
        return trace_records(tracer.to_records(), procedure="rcdp",
                             command="rcdp bundle.json",
                             ticks={}, verdict="complete")

    def test_roundtrip_and_check(self, tmp_path):
        records = self._records()
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), records)
        loaded = read_trace(str(path))
        assert loaded == json.loads(json.dumps(records))
        assert check_trace(loaded) == []

    def test_check_flags_orphans_and_duplicates(self):
        records = self._records()
        spans = [r for r in records if r["type"] == "span"]
        spans[0]["parent"] = 999
        problems = check_trace(records)
        assert any("orphan" in problem for problem in problems)
        spans[1]["id"] = spans[2]["id"]
        assert any("duplicate" in problem
                   for problem in check_trace(records))

    def test_check_flags_same_lane_overlap(self):
        records = self._records()
        spans = [r for r in records if r["type"] == "span"]
        # Force the two siblings to overlap in the main lane.
        spans[1]["start"] = spans[0]["start"]
        spans[1]["end"] = spans[0]["end"] + (spans[0]["end"]
                                             - spans[0]["start"]) + 1e-3
        spans[1]["dur"] = spans[1]["end"] - spans[1]["start"]
        spans[2]["end"] = max(spans[2]["end"], spans[1]["end"])
        spans[2]["dur"] = spans[2]["end"] - spans[2]["start"]
        assert any("overlap" in problem
                   for problem in check_trace(records))

    def test_check_flags_ledger_statistics_mismatch(self):
        tracer = Tracer(tick_source=lambda: {})
        with tracer.span("decide_rcdp"):
            pass
        tracer.spans[0].ticks = {"valuations": 3}
        records = trace_records(
            tracer.to_records(), procedure="rcdp",
            statistics=SearchStatistics(valuations_examined=5),
            ticks={"valuations": 3}, verdict="complete")
        problems = check_trace(records)
        assert any("statistics" in problem for problem in problems)

    def test_check_flags_root_ledger_divergence(self):
        records = self._records()
        stats = [r for r in records if r["type"] == "statistics"][0]
        stats["ticks"] = {"valuations": 2}
        assert any("ledger" in problem.lower()
                   for problem in check_trace(records))

    def test_merged_span_ticks_counts_roots_only(self):
        records = [
            {"type": "span", "id": 0, "parent": None,
             "ticks": {"valuations": 5}},
            {"type": "span", "id": 1, "parent": 0,
             "ticks": {"valuations": 3}},
        ]
        assert merged_span_ticks(records) == {"valuations": 5}
        assert merged_span_ticks(records, roots_only=False) == {
            "valuations": 8}


class TestProfile:
    def test_own_time_subtracts_children(self):
        records = [
            {"type": "span", "id": 0, "parent": None, "name": "root",
             "start": 0.0, "end": 1.0, "dur": 1.0,
             "ticks": {"valuations": 4}},
            {"type": "span", "id": 1, "parent": 0, "name": "child",
             "start": 0.1, "end": 0.4, "dur": 0.3, "ticks": {}},
        ]
        rows = {row["name"]: row for row in profile_rows(records)}
        assert rows["root"]["own_s"] == pytest.approx(0.7)
        assert rows["root"]["ticks"] == {"valuations": 4}
        table = render_profile(records)
        assert "root" in table and "child" in table
        assert "valuations=4" in table

    def test_empty_profile_renders_placeholder(self):
        assert "no spans" in render_profile([])


# ---------------------------------------------------------------------
# The traced ≡ untraced property (satellite: observation-only tracing)
# ---------------------------------------------------------------------

def _assert_same_decision(plain, traced):
    assert traced.status is plain.status
    assert traced.explanation == plain.explanation
    if plain.certificate is None:
        assert traced.certificate is None
    else:
        assert traced.certificate is not None
        assert (traced.certificate.extension_facts
                == plain.certificate.extension_facts)
        assert (traced.certificate.new_answer
                == plain.certificate.new_answer)


class TestTracedEqualsUntraced:
    @settings(max_examples=25, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances(), enabled=st.booleans())
    def test_rcdp_serial(self, query, db, enabled):
        assume(satisfies_all(db, DM, [IND]))
        try:
            plain = decide_rcdp(query, db, DM, [IND],
                                governor=ExecutionGovernor(
                                    budget=Budget()))
        except ReproError:
            assume(False)
        traced = decide_rcdp(query, db, DM, [IND],
                             governor=observed_governor(enabled=enabled))
        _assert_same_decision(plain, traced)
        assert traced.statistics == plain.statistics

    @pytest.mark.usefixtures("no_head_start")
    @settings(max_examples=10, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_rcdp_two_workers(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            plain = decide_rcdp(query, db, DM, [IND], workers=2)
        except ReproError:
            assume(False)
        traced = decide_rcdp(query, db, DM, [IND], workers=2,
                             governor=observed_governor())
        _assert_same_decision(plain, traced)
        if plain.status is RCDPStatus.COMPLETE:
            # Full enumeration: merged counters are exact either way.
            assert (traced.statistics.valuations_examined
                    == plain.statistics.valuations_examined)

    @pytest.mark.usefixtures("no_head_start")
    @settings(max_examples=15, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances(), after=st.integers(0, 20),
           workers=st.sampled_from([1, 2]))
    def test_rcdp_fault_injected(self, query, db, after, workers):
        """Deterministic fault clocks: the traced and untraced runs
        trip (or don't) at the same step and agree on the outcome."""
        assume(satisfies_all(db, DM, [IND]))

        def run(governor):
            return decide_rcdp(query, db, DM, [IND], workers=workers,
                               governor=governor, on_exhausted="partial")

        try:
            plain = run(ExecutionGovernor(
                budget=Budget(),
                faults=FaultInjector(exhaust_after=after)))
        except ReproError:
            assume(False)
        traced = run(observed_governor(
            faults=FaultInjector(exhaust_after=after)))
        assert traced.status is plain.status
        assert ((traced.checkpoint is None)
                == (plain.checkpoint is None))
        if plain.status is not RCDPStatus.EXHAUSTED and workers == 1:
            _assert_same_decision(plain, traced)
            assert traced.statistics == plain.statistics

    @settings(max_examples=10, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False))
    def test_rcqp_serial(self, query):
        try:
            plain = decide_rcqp(query, DM, [IND], SCHEMA,
                                governor=ExecutionGovernor(
                                    budget=Budget()))
        except ReproError:
            assume(False)
        traced = decide_rcqp(query, DM, [IND], SCHEMA,
                             governor=observed_governor())
        assert traced.status is plain.status
        assert traced.witness == plain.witness
        assert traced.statistics == plain.statistics

    @settings(max_examples=10, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_make_complete_serial(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            plain = make_complete(query, db, DM, [IND],
                                  governor=ExecutionGovernor(
                                      budget=Budget()))
        except ReproError:
            assume(False)
        traced = make_complete(query, db, DM, [IND],
                               governor=observed_governor())
        assert traced.complete == plain.complete
        assert traced.rounds == plain.rounds
        assert traced.added_facts == plain.added_facts
        assert traced.statistics == plain.statistics


# ---------------------------------------------------------------------
# Corpus traces: well-formed span trees with exact tick accounting
# ---------------------------------------------------------------------

def _decide_traced(path, workers):
    bundle = load_bundle(str(path))
    governor = observed_governor()
    observation = obs_of(governor)
    result = decide_rcdp(bundle["query"], bundle["database"],
                         bundle["master"], bundle["constraints"],
                         governor=governor, workers=workers)
    observation.finalize(governor, result.statistics)
    records = trace_records(
        observation.tracer.to_records(), procedure="rcdp",
        command=f"rcdp {path.name}",
        metrics=observation.metrics.snapshot(),
        statistics=result.statistics,
        ticks=governor.budget.snapshot(),
        verdict=result.status.value,
        exhausted=result.status is RCDPStatus.EXHAUSTED)
    return records, result


def test_traced_corpus_is_nonempty():
    assert TRACED_BUNDLES, (
        "examples/bundles/ should ship bundles with 'trace' blocks")


@pytest.mark.usefixtures("no_head_start")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", TRACED_BUNDLES,
                         ids=[path.stem for path in TRACED_BUNDLES])
def test_corpus_traces_are_well_formed(path, workers):
    records, _ = _decide_traced(path, workers)
    problems = check_trace(records)
    assert problems == [], f"{path.name} at workers={workers}: {problems}"


@pytest.mark.usefixtures("no_head_start")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", TRACED_BUNDLES,
                         ids=[path.stem for path in TRACED_BUNDLES])
def test_corpus_traces_carry_expected_phases(path, workers):
    block = json.loads(path.read_text(encoding="utf-8"))["trace"]
    assert block["procedure"] == "rcdp"
    records, _ = _decide_traced(path, workers=workers)
    spans = [r for r in records if r.get("type") == "span"]
    names = {r["name"] for r in spans}
    missing = set(block["expect_spans"]) - names
    assert not missing, (f"{path.name} at workers={workers}: phases "
                         f"never opened: {missing}")
    if workers == 1:
        # In-process: no worker lane, no pool bookkeeping.
        assert "shard" not in names
        assert not any((r.get("attrs") or {}).get("lane") for r in spans)
        (metrics,) = [r for r in records if r.get("type") == "metrics"]
        assert not [name for section in ("counters", "gauges", "histograms")
                    for name in metrics.get(section) or {}
                    if name.startswith("parallel.")]


@pytest.mark.usefixtures("no_head_start")
@pytest.mark.parametrize("path", TRACED_BUNDLES,
                         ids=[path.stem for path in TRACED_BUNDLES])
def test_corpus_worker_spans_carry_lanes(path):
    records, _ = _decide_traced(path, workers=2)
    lanes = {(r.get("attrs") or {}).get("lane")
             for r in records
             if r.get("type") == "span" and r["name"] == "shard"}
    assert lanes == {"shard-0", "shard-1"}


# ---------------------------------------------------------------------
# Observation plumbing
# ---------------------------------------------------------------------

class TestObservation:
    @pytest.mark.parametrize("run, spans", [
        (count_completing_extensions, 0), (decide_rcdp, 1)],
        ids=["count", "decide"])
    def test_analyze_span_wraps_an_analysis_pass(self, run, spans):
        """The count validates with ``analyze=False``: no pass runs, so
        no ``analyze`` span opens; a decision runs one pass in one."""
        bundle = load_bundle(str(BUNDLE_DIR / "crm_q2_supported_ind.json"))
        governor = observed_governor()
        run(bundle["query"], bundle["database"], bundle["master"],
            bundle["constraints"], governor=governor)
        names = [span.name for span in obs_of(governor).tracer.spans]
        assert names.count("analyze") == spans

    def test_obs_span_returns_null_context_when_unobserved(self):
        assert obs_span(None, "phase") is obs_span(None, "other")
        governor = ExecutionGovernor(budget=Budget())
        assert obs_of(governor) is None
        Observation.attach(governor, enabled=False)
        assert (obs_span(obs_of(governor), "phase")
                is obs_span(None, "phase"))

    def test_finalize_records_ledger_and_statistics(self):
        governor = observed_governor()
        governor.budget.charge("valuations", 3)
        observation = obs_of(governor)
        observation.finalize(
            governor, SearchStatistics(valuations_examined=3))
        counters = observation.metrics.counters
        assert counters["governor.ticks.valuations"] == 3
        assert counters["search.valuations_examined"] == 3
