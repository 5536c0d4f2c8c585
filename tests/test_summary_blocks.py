"""Summary blocks in the C1–C4 enumeration.

A tableau whose summary is bound before its last variable is enumerated
in groups of one summary each (``iter_valid_valuations(..., groups=True)``,
``tests/test_valuations.py`` checks the stream itself).  The ``rcdp``,
``missing`` and E4-build kernels and the completion count decide a group
at once when they already know its summary, and still count every
valuation of it.  These tests pin that contract:

* the searches agree with the materializing references
  (``benchmarks/reference_rcdp.py``), which visit every valuation one by
  one: verdicts, witnesses, missing answers in first-occurrence order,
  ``valuations_examined`` and ``constraint_checks``, at workers 1, 2 and
  3, with and without the head start;
* on q0's missing report, a budget or a scheduled fault that lands
  inside a block, at its edge or several blocks on stops on the same
  valuation, with the same checkpoint, tick ledger and resumed report
  as a one-by-one enumeration (the numbers below were read off one), and
  so does a deadline or cancellation that falls due as a block begins;
* the enumeration span says how many valuations were decided in blocks
  and how many were visited one by one.
"""

import dataclasses
import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchmarks.reference_rcdp import reference_missing, reference_rcdp
from repro.constraints.containment import (ContainmentConstraint, Projection,
                                           satisfies_all)
from repro.constraints.ind import InclusionDependency
from repro.core import search
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.rcqp import decide_rcqp_with_inds
from repro.core.results import RCDPStatus, RCQPStatus
from repro.core.valuations import TableauTemplates, _GroupPlan
from repro.errors import ReproError
from repro.io.json_io import load_bundle
from repro.obs import Observation, render_profile
from repro.queries.atoms import neq, rel
from repro.queries.cq import cq
from repro.queries.tableau import Tableau
from repro.queries.terms import var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.runtime import (Budget, CancellationToken, Deadline,
                           ExecutionGovernor, FaultInjector)

from tests.strategies import (SCHEMA, conjunctive_queries, instances,
                              union_queries)

ROOT = Path(__file__).resolve().parent.parent
BUNDLES = sorted((ROOT / "examples" / "bundles").glob("*.json"))
Q0 = ROOT / "examples" / "bundles" / "crm_q0_area_code.json"

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
# R[b] ⊆ M[c] prunes the enumeration; "no T row repeats its first
# column" is left to the check program.
IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(SCHEMA, MASTER_SCHEMA)
BAN_T = ContainmentConstraint(
    cq([], [rel("T", var("x"), var("x"), var("z"))]), Projection.empty(),
    name="ban-t")
CONSTRAINTS = [IND, BAN_T]


def _closed(database):
    """*database* without the rows that violate :data:`CONSTRAINTS`."""
    return Instance(SCHEMA, {
        "R": {row for row in database.relation("R") if row[1] in (0, 1)},
        "T": {row for row in database.relation("T") if row[0] != row[1]}})


#: Small random instances, partially closed under :data:`CONSTRAINTS`.
closed_instances = instances().map(_closed)

#: The reference walks every valuation of a bundle's missing report up
#: to the limit-th answer: on crm_q1_supported the second comes at
#: valuation 279,842 (its 21 answers span all 6,436,343).
MISSING_LIMIT = 2

#: ``(workers, head start)``: serial; a head the small inputs end in;
#: and no head, so that the pool runs.
RUNS = [(1, search.HEAD_START), (2, search.HEAD_START),
        (3, search.HEAD_START), (2, 0), (3, 0)]


def _fields(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)}


def _with_head(allowance, decide, *args, **kwargs):
    saved = search.HEAD_START
    search.HEAD_START = allowance
    try:
        return decide(*args, **kwargs)
    finally:
        search.HEAD_START = saved


def _assert_rcdp(result, reference, *, exact):
    status, certificate, checks, examined = reference
    assert result.status is status
    if certificate is None:
        assert result.certificate is None
    else:
        assert (result.certificate.extension_facts,
                result.certificate.new_answer) == certificate
    if exact or status is RCDPStatus.COMPLETE:
        assert result.statistics.constraint_checks == checks
        assert result.statistics.valuations_examined == examined


def _assert_missing(report, reference, *, exact, scanned=True):
    answers, examined, checks = reference
    assert report.answers == frozenset(answers)
    if exact or scanned:
        assert report.statistics.valuations_examined == examined
    if exact:
        assert report.statistics.constraint_checks == checks


def _assert_runs(query, database, master, constraints, *, limit=None,
                 options=()):
    """Every run of :data:`RUNS` against the references.  A run that
    ends in its head is the serial run, field for field.  One that fans
    out reports the serial counters for a full scan of a complete
    decision; its missing report, the serial ``valuations_examined``
    without a limit, but not ``constraint_checks``, since a shard checks
    again an answer another shard found."""
    options = dict(options)
    args = (query, database, master, constraints)
    rcdp_reference = reference_rcdp(*args)
    missing_reference = reference_missing(*args, limit=limit)
    serial = decide_rcdp(*args, **options)
    serial_report = missing_answers_report(*args, limit=limit, **options)
    for workers, allowance in RUNS:
        governor = ExecutionGovernor()
        result = _with_head(allowance, decide_rcdp, *args, workers=workers,
                            governor=governor, **options)
        headed = governor.fan_out is None or not governor.fan_out.fanned_out
        _assert_rcdp(result, rcdp_reference, exact=headed)
        if headed:
            assert _fields(result) == _fields(serial)
        governor = ExecutionGovernor()
        report = _with_head(allowance, missing_answers_report, *args,
                            limit=limit, workers=workers, governor=governor,
                            **options)
        headed = governor.fan_out is None or not governor.fan_out.fanned_out
        _assert_missing(report, missing_reference, exact=headed,
                        scanned=limit is None)
        if headed:
            assert _fields(report) == _fields(serial_report)


def _grouped(query):
    return any(TableauTemplates(Tableau(d, SCHEMA)).grouped
               for d in query.to_cq_disjuncts())


class TestAgainstTheReferences:
    @settings(max_examples=20, deadline=None)
    @given(query=st.one_of(conjunctive_queries(), union_queries()),
           db=closed_instances)
    def test_random_queries_with_early_summary_points(self, query, db):
        assume(_grouped(query))
        assert satisfies_all(db, DM, CONSTRAINTS)
        try:
            decide_rcdp(query, db, DM, CONSTRAINTS)
        except ReproError:
            assume(False)
        _assert_runs(query, db, DM, CONSTRAINTS)

    @settings(max_examples=20, deadline=None)
    @given(query=conjunctive_queries(), db=closed_instances)
    def test_answers_come_in_first_occurrence_order(self, query, db):
        """The first k answers of a report limited to k are the first k
        the reference meets, after as many valuations, for every k."""
        assume(_grouped(query))
        try:
            answers, _, _ = reference_missing(query, db, DM, CONSTRAINTS)
            for limit in range(1, len(answers) + 1):
                _assert_missing(
                    missing_answers_report(query, db, DM, CONSTRAINTS,
                                           limit=limit),
                    reference_missing(query, db, DM, CONSTRAINTS,
                                      limit=limit), exact=True)
        except ReproError:
            assume(False)

    @pytest.mark.parametrize("path", BUNDLES, ids=lambda path: path.stem)
    def test_shipped_bundles(self, path):
        bundle = load_bundle(path)
        _assert_runs(bundle["query"], bundle["database"], bundle["master"],
                     bundle["constraints"], limit=MISSING_LIMIT)

    @pytest.mark.parametrize("workers, allowance", RUNS)
    def test_e4_witness_database(self, workers, allowance):
        """``Q(c) :- Supt(e, d, c)`` under ``Supt[cid] ⊆ DCust[cid]``:
        its summary c is the first variable, so the witness construction
        decides the rest of each c's valuations once it has found one."""
        schema = DatabaseSchema([RelationSchema("Supt",
                                                ["eid", "dept", "cid"])])
        master_schema = DatabaseSchema([RelationSchema("DCust", ["cid"])])
        master = Instance(master_schema, {"DCust": {("c1",), ("c2",)}})
        ind = InclusionDependency("Supt", ["cid"], "DCust", ["cid"]) \
            .to_containment_constraint(schema, master_schema)
        query = cq([var("c")], [rel("Supt", var("e"), var("d"), var("c"))])
        serial = decide_rcqp_with_inds(query, master, [ind], schema)
        assert serial.status is RCQPStatus.NONEMPTY
        assert len(serial.witness.relation("Supt")) == 2
        result = _with_head(allowance, decide_rcqp_with_inds, query, master,
                            [ind], schema, workers=workers)
        assert result.status is serial.status
        assert result.witness == serial.witness

    def test_an_open_group_is_walked_without_a_count(self, monkeypatch):
        """``Q() :- R(x, y), R(y, z), x ≠ z`` over loops only: Q(D) is
        empty, so the query's one group is open, and its first valuation
        is a new answer.  The ≠ atom lies below the group, so only a
        count through the plan could size it: neither search makes one,
        and each stops after one valuation, as the references do."""
        database = Instance(SCHEMA, {"R": {(i, i) for i in range(8)},
                                     "T": set()})
        x, y, z = var("x"), var("y"), var("z")
        query = cq([], [rel("R", x, y), rel("R", y, z), neq(x, z)],
                   name="Q")
        counted = []
        monkeypatch.setattr(_GroupPlan, "count",
                            lambda plan, bound: counted.append(bound))
        args = (query, database, DM, [])
        result = decide_rcdp(*args)
        _assert_rcdp(result, reference_rcdp(*args), exact=True)
        assert result.statistics.valuations_examined == 1
        report = missing_answers_report(*args, limit=1)
        _assert_missing(report, reference_missing(*args, limit=1),
                        exact=True)
        assert report.statistics.valuations_examined == 1
        assert counted == []


# ---------------------------------------------------------------------
# Governor and resume on q0's missing report
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _q0():
    bundle = load_bundle(Q0)
    return (bundle["query"], bundle["database"], bundle["master"],
            bundle["constraints"])


#: q0's 279,841 valuations come in 23 groups of 12,167, one per value
#: of its summary ?c.  The first group's summary is a new answer at its
#: first valuation, so the rest of it is one block; a budget of B admits
#: exactly B valuations.  Per budget: the answers found before it
#: tripped (its checkpoint carries them), as read off a one-by-one
#: enumeration.
BUDGETS = {
    5_000: 1,      # inside the first block
    12_167: 1,     # at its edge: the first group, whole
    12_168: 2,     # the first valuation of the second group
    100_000: 9,    # several blocks on
}


class TestGovernorOnBlocks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("limit_kind", ["total", "valuations"])
    def test_budget_checkpoint_ledger_and_resume(self, budget, workers,
                                                 limit_kind):
        """At workers=2 the report ends in the head, so the same."""
        governor = ExecutionGovernor(budget=(
            Budget(limit=budget) if limit_kind == "total"
            else Budget(valuations=budget)))
        partial = missing_answers_report(*_q0(), governor=governor,
                                         workers=workers)
        assert (partial.interrupted, partial.exhaustive) == ("budget", False)
        assert len(partial.answers) == BUDGETS[budget]
        assert partial.statistics.valuations_examined == budget
        assert partial.statistics.constraint_checks == BUDGETS[budget]
        assert governor.budget.snapshot() == {"valuations": budget + 1}
        assert governor.ticks == budget + 1
        assert partial.checkpoint.cursor == (1,)
        (shard,) = partial.checkpoint.payload[0]
        assert (shard.index, shard.count, shard.skip, shard.done,
                len(shard.carried)) == (0, 1, budget, False, BUDGETS[budget])

        resumed_governor = ExecutionGovernor(budget=Budget())
        resumed = missing_answers_report(*_q0(), governor=resumed_governor,
                                         resume_from=partial.checkpoint,
                                         workers=workers)
        whole = missing_answers_report(*_q0())
        assert resumed.exhaustive and resumed.answers == whole.answers
        assert len(whole.answers) == 21
        assert resumed.statistics.valuations_examined == 279_841
        assert resumed.statistics.constraint_checks == 21
        assert resumed_governor.budget.snapshot() == {
            "valuations": 279_841 - budget}

    @pytest.mark.parametrize("fault, reason", [
        ("exhaust_after", "budget"), ("deadline_after", "deadline"),
        ("cancel_after", "cancelled")])
    @pytest.mark.parametrize("budget", [5_000, 12_167, 100_000])
    def test_fault_trips_on_the_same_tick(self, budget, fault, reason):
        """A fault schedule counts single ticks, so blocks tick one
        valuation at a time under it: the fault fires on tick B + 1."""
        faults = FaultInjector(**{fault: budget})
        governor = ExecutionGovernor(faults=faults, budget=Budget())
        partial = missing_answers_report(*_q0(), governor=governor)
        assert partial.interrupted == reason
        assert faults.ticks == governor.ticks == budget + 1
        assert governor.budget.snapshot() == {"valuations": budget}
        assert partial.statistics.valuations_examined == budget
        (shard,) = partial.checkpoint.payload[0]
        assert (shard.skip, len(shard.carried)) == (budget, BUDGETS[budget])

    @pytest.mark.parametrize("due", ["deadline", "cancelled"])
    def test_a_due_deadline_or_cancellation_trips_on_a_blocks_first(
            self, monkeypatch, due):
        """A deadline or cancellation that falls due as the second block
        begins (the rest of the second group, after its new answer at
        valuation 12,168) stops the run on the block's first valuation,
        charging the one tick that a one-by-one enumeration charges; an
        attached fault injector that schedules nothing makes the blocks
        tick one by one.  A cancellation trips before the budget is
        charged, a deadline after."""
        decide = search.SearchRun.decide

        def trip(faults):
            governor = ExecutionGovernor(
                budget=Budget(), deadline=Deadline.after(3600),
                cancellation=CancellationToken(), faults=faults)
            blocks = itertools.count(1)

            def decide_and_fall_due(run, count, start, within):
                if next(blocks) == 2:
                    if due == "deadline":
                        governor.deadline.at = 0.0
                    else:
                        governor.cancellation.cancel()
                decide(run, count, start, within)

            monkeypatch.setattr(search.SearchRun, "decide",
                                decide_and_fall_due)
            partial = missing_answers_report(*_q0(), governor=governor)
            (shard,) = partial.checkpoint.payload[0]
            return (partial.interrupted,
                    partial.statistics.valuations_examined, shard.skip,
                    len(shard.carried), governor.ticks,
                    governor.budget.snapshot())

        examined = 12_168
        charged = examined + (due == "deadline")
        assert trip(None) == trip(FaultInjector()) == (
            due, examined, examined, 2, examined + 1,
            {"valuations": charged})

    def test_whole_budget_is_one_tick_per_block(self):
        """With room for every valuation, the whole report charges its
        279,841 ticks and completes."""
        governor = ExecutionGovernor(budget=Budget(limit=279_841))
        report = missing_answers_report(*_q0(), governor=governor)
        assert report.exhaustive and report.interrupted is None
        assert governor.budget.snapshot() == {"valuations": 279_841}


class TestBlocksInTheTrace:
    def test_enumeration_span_counts_blocks(self):
        governor = ExecutionGovernor(budget=Budget())
        observation = Observation.attach(governor)
        report = missing_answers_report(*_q0(), governor=governor)
        (span,) = [span for span in observation.tracer.spans
                   if span.name == "enumerate_valuations"]
        # 2 of the 23 summaries are in Q(D) and 21 are new answers, each
        # found at its group's first valuation.
        assert span.attributes == {"blocks": 23,
                                   "valuations_in_blocks": 279_820,
                                   "valuations_visited": 21}
        assert span.ticks == {"valuations": 279_841}
        assert report.statistics.valuations_examined == 279_841
        records = observation.tracer.to_records()
        assert ("enumerate_valuations: 279,820 valuation(s) decided in 23 "
                "block(s), 21 visited one by one") in render_profile(records)
