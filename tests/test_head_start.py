"""The serial head start of sharded searches (``repro.core.search``).

At ``workers=n > 1`` every exact search first runs its kernel in-process
for :data:`~repro.core.search.HEAD_START` work units, over the n-shard
prefix layout, and fans out only the rest of its stream.  These tests
pin the contract:

* a search that ends in the head returns the ``workers=1`` result field
  for field (engine counters included) and never imports the pool;
* a search that hands over mid-stream keeps the serial verdict, witness
  and full-enumeration statistics, whatever H and the worker count;
* checkpoints taken before a fan-out resume with any worker count, and
  budget-interrupted legs converge across the head/tail boundary;
* the decision's root span, the run ledger and ``repro report`` say
  whether the search fanned out, and why.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.constraints.cfd import FunctionalDependency
from repro.constraints.containment import satisfies_all
from repro.constraints.ind import InclusionDependency
from repro.core import search
from repro.core.bounded import brute_force_rcdp, brute_force_rcqp
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.rcqp import decide_rcqp
from repro.core.results import RCDPStatus
from repro.errors import ReproError
from repro.obs import (Observation, check_trace, read_ledger, read_trace,
                       trace_records)
from repro.queries.atoms import eq, rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.reductions.qsat_to_rcdp import reduce_forall_exists_3sat_to_rcdp
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.runtime import Budget, ExecutionGovernor
from repro.solvers.qbf import ForallExists3SAT
from repro.solvers.sat import CNF

from tests.strategies import SCHEMA, conjunctive_queries, instances

ROOT = Path(__file__).resolve().parent.parent

# The differential suite's fixed scenarios: R[b] ⊆ M[c]; a Boolean join
# whose verdict is COMPLETE, and a projection with a witness.
MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})
IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(SCHEMA, MASTER_SCHEMA)
COMPLETE_QUERY = cq([], [rel("T", var("x"), var("y"), var("z")),
                         rel("R", var("x"), var("y"))], name="qjoin")
COMPLETE_DB = Instance(SCHEMA, {"R": {(0, 0)}, "T": {(0, 0, 0)}})
WITNESS_QUERY = cq([var("x")], [rel("R", var("x"), var("y"))],
                   name="qproj")
WITNESS_DB = Instance(SCHEMA, {"R": {(0, 0)}})
_RCQP_IND = InclusionDependency(
    "R", ["a"], "M", ["c"]).to_containment_constraint(SCHEMA, MASTER_SCHEMA)

# Example 4.1's Q2 under eid -> (dept, cid): the general E2/E6 search
# (the rcqp-sets kernel) finds a bounding valuation set.
_SUPT = DatabaseSchema([RelationSchema("Supt", ["eid", "dept", "cid"])])
_SUPT_MASTER = DatabaseSchema([RelationSchema("DCust", ["cid"])])
_Q2 = cq([var("e"), var("d"), var("c")],
         [rel("Supt", var("e"), var("d"), var("c")), eq(var("e"), "e0")],
         name="Q2")
_FD = FunctionalDependency("Supt", ["eid"],
                           ["dept", "cid"]).to_containment_constraints(_SUPT)

#: One small decision per procedure: each ends inside the default head.
PROCEDURES = {
    "rcdp-complete": lambda **kw: decide_rcdp(
        COMPLETE_QUERY, COMPLETE_DB, DM, [IND], **kw),
    "rcdp-incomplete": lambda **kw: decide_rcdp(
        WITNESS_QUERY, WITNESS_DB, DM, [IND], **kw),
    "missing": lambda **kw: missing_answers_report(
        WITNESS_QUERY, WITNESS_DB, DM, [IND], **kw),
    "brute-rcdp": lambda **kw: brute_force_rcdp(
        WITNESS_QUERY, WITNESS_DB, DM, [IND], max_extra_facts=1, **kw),
    "brute-rcqp": lambda **kw: brute_force_rcqp(
        WITNESS_QUERY, DM, [IND], SCHEMA, max_database_size=1,
        completeness_bound=1, **kw),
    "rcqp-sets": lambda **kw: decide_rcqp(
        _Q2, Instance(_SUPT_MASTER), _FD, _SUPT, **kw),
    "inds-scan-build": lambda **kw: decide_rcqp(
        WITNESS_QUERY, DM, [_RCQP_IND], SCHEMA, **kw),
}


def _fields(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)}


def _true_family(n, *, false_twin=False):
    """Theorem 3.6's always-true ``∀x1..xn ∃y ⋀(xi ∨ y)``: COMPLETE after
    a full scan of its pruned valuation space.  Its false twin negates y
    in the first clause, so x1 = x2 = false forces y both ways: the
    decision is INCOMPLETE, with a witness part way through the scan."""
    y = n + 1
    clauses = [(i, i, -y if false_twin and i == 1 else y)
               for i in range(1, n + 1)]
    formula = ForallExists3SAT(list(range(1, n + 1)), [y], CNF(clauses))
    instance = reduce_forall_exists_3sat_to_rcdp(formula)
    return (instance.query, instance.database, instance.master,
            list(instance.constraints))


class TestEndsInTheHead:
    @pytest.mark.parametrize("name", sorted(PROCEDURES))
    def test_two_workers_return_the_serial_result(self, name):
        decide = PROCEDURES[name]
        serial = decide()
        governor = ExecutionGovernor()
        headed = decide(workers=2, governor=governor)
        assert _fields(headed) == _fields(serial)
        assert governor.fan_out.fanned_out is False
        assert governor.fan_out.reason == "ended in head"
        assert governor.fan_out.head_units > 0

    def test_fresh_interpreter_loads_no_pool(self):
        """Every procedure above, at workers=2, in a new interpreter:
        neither the pool nor ``multiprocessing`` is imported."""
        script = (
            "import sys\n"
            "from tests.test_head_start import PROCEDURES\n"
            "for decide in PROCEDURES.values():\n"
            "    decide(workers=2)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'multiprocessing'\n"
            "             or m.startswith('repro.parallel')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(ROOT),
                          os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == "[]"


class TestHandover:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("allowance", [0, 1, 500, 3000])
    def test_full_scan_statistics_are_exact(self, monkeypatch, workers,
                                            allowance):
        """The true family at n=6 (193 valuations, ~6,000 units) hands
        over mid-stream, mid-prefix for most allowances; the verdict and
        the examined and checked counts are the serial run's."""
        args = _true_family(6)
        serial = decide_rcdp(*args)
        monkeypatch.setattr(search, "HEAD_START", allowance)
        governor = ExecutionGovernor()
        result = decide_rcdp(*args, workers=workers, governor=governor)
        assert result.status is serial.status is RCDPStatus.COMPLETE
        assert result.explanation == serial.explanation
        assert (result.statistics.valuations_examined
                == serial.statistics.valuations_examined)
        assert (result.statistics.constraint_checks
                == serial.statistics.constraint_checks)
        assert governor.fan_out.fanned_out
        assert governor.fan_out.reason == "allowance spent"
        assert governor.fan_out.head_units >= allowance

    @pytest.mark.parametrize("allowance", [0, 3, 20])
    def test_flat_stream_hands_over_at_a_position(self, monkeypatch,
                                                  allowance):
        serial = brute_force_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                                  max_extra_facts=1)
        monkeypatch.setattr(search, "HEAD_START", allowance)
        result = brute_force_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                                  max_extra_facts=1, workers=2)
        assert result.status is serial.status
        assert (result.statistics.valuations_examined
                == serial.statistics.valuations_examined)
        assert result.statistics.constraint_checks == \
            serial.statistics.constraint_checks

    @pytest.mark.parametrize("allowance", [0, 200])
    def test_witness_in_the_tail_is_the_serial_first(self, monkeypatch,
                                                     allowance):
        args = _true_family(5, false_twin=True)
        serial = decide_rcdp(*args)
        assert serial.status is RCDPStatus.INCOMPLETE
        monkeypatch.setattr(search, "HEAD_START", allowance)
        governor = ExecutionGovernor()
        result = decide_rcdp(*args, workers=2, governor=governor)
        assert governor.fan_out.fanned_out
        assert result.status is serial.status
        assert result.certificate == serial.certificate

    def test_true_family_head_units_are_pinned(self, monkeypatch):
        """The true family at n=5, run whole in the head: 97 valuations,
        all of them decided in 63 blocks (their summaries are in Q(D)),
        a unit each, and 1,719 plan extensions.  Each IND row test also
        refutes the partial valuations at every bound prefix of its
        variables; a plan testing a row only once its last variable is
        bound spent 7,210 units, and one that visited the 97 valuations
        one by one 1,816."""
        monkeypatch.setattr(search, "HEAD_START", 10 ** 9)
        governor = ExecutionGovernor()
        result = decide_rcdp(*_true_family(5), workers=2,
                             governor=governor)
        assert result.status is RCDPStatus.COMPLETE
        assert result.statistics.valuations_examined == 97
        assert governor.fan_out.fanned_out is False
        assert governor.fan_out.head_units == 1782


class TestCheckpointsAcrossWorkerCounts:
    @pytest.mark.parametrize("allowance", [0, search.HEAD_START])
    def test_serial_checkpoint_resumes_at_two_workers(self, monkeypatch,
                                                      allowance):
        monkeypatch.setattr(search, "HEAD_START", allowance)
        serial = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND])
        partial = decide_rcdp(
            COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
            governor=ExecutionGovernor.from_limits(budget=3),
            on_exhausted="partial")
        assert partial.checkpoint.cursor[0] == 1
        resumed = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                              workers=2, resume_from=partial.checkpoint)
        assert resumed.status is serial.status
        assert resumed.statistics.valuations_examined == \
            serial.statistics.valuations_examined

    @pytest.mark.parametrize("resume_workers", [1, 2, 3])
    def test_checkpoint_from_the_head_resumes_with_any_count(
            self, resume_workers):
        """A budget that trips inside the head yields a one-slice
        checkpoint, which no shard layout binds."""
        serial = missing_answers_report(WITNESS_QUERY, WITNESS_DB, DM,
                                        [IND])
        partial = missing_answers_report(
            WITNESS_QUERY, WITNESS_DB, DM, [IND], workers=2,
            governor=ExecutionGovernor.from_limits(budget=3))
        assert partial.checkpoint is not None
        assert partial.checkpoint.cursor[0] == 1
        resumed = missing_answers_report(
            WITNESS_QUERY, WITNESS_DB, DM, [IND], workers=resume_workers,
            resume_from=partial.checkpoint)
        assert resumed.answers == serial.answers
        assert resumed.exhaustive
        assert resumed.statistics.valuations_examined == \
            serial.statistics.valuations_examined


class TestHeadProperty:
    @settings(max_examples=25, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances(), workers=st.sampled_from([2, 3]),
           allowance=st.sampled_from([0, 7, search.HEAD_START]),
           budget=st.integers(1, 9))
    def test_head_and_tail_match_serial(self, query, db, workers,
                                        allowance, budget):
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = decide_rcdp(query, db, DM, [IND])
            serial_missing = missing_answers_report(query, db, DM, [IND])
        except ReproError:
            assume(False)
        saved = search.HEAD_START
        search.HEAD_START = allowance
        try:
            result = decide_rcdp(query, db, DM, [IND], workers=workers)
            assert result.status is serial.status
            assert result.certificate == serial.certificate
            if serial.status is RCDPStatus.COMPLETE:
                assert result.statistics.valuations_examined == \
                    serial.statistics.valuations_examined
                assert result.statistics.constraint_checks == \
                    serial.statistics.constraint_checks
            report = missing_answers_report(query, db, DM, [IND],
                                            workers=workers)
            assert report.answers == serial_missing.answers
            assert report.statistics.valuations_examined == \
                serial_missing.statistics.valuations_examined

            # Budget-interrupted legs, resumed across the head/tail
            # boundary, land on the serial verdict and answers.
            for decide, expected in (
                    (decide_rcdp, serial), (missing_answers_report,
                                            serial_missing)):
                leg = decide(query, db, DM, [IND], workers=workers,
                             governor=ExecutionGovernor.from_limits(
                                 budget=budget), on_exhausted="partial")
                legs = 1
                while leg.checkpoint is not None:
                    # Every interrupted leg examines at least one
                    # valuation of the stream the serial scan walks.
                    assert legs <= \
                        serial_missing.statistics.valuations_examined, \
                        "resume loop made no progress"
                    leg = decide(query, db, DM, [IND], workers=workers,
                                 governor=ExecutionGovernor.from_limits(
                                     budget=budget),
                                 on_exhausted="partial",
                                 resume_from=leg.checkpoint)
                    legs += 1
                if decide is decide_rcdp:
                    assert leg.status is expected.status
                else:
                    assert leg.answers == expected.answers
                    assert leg.statistics.valuations_examined == \
                        expected.statistics.valuations_examined
        finally:
            search.HEAD_START = saved


class TestHeadInTraceAndLedger:
    def test_root_span_records_a_head_that_ended_the_search(self):
        governor = ExecutionGovernor(budget=Budget())
        observation = Observation.attach(governor)
        result = decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                             workers=2, governor=governor)
        observation.finalize(governor, result.statistics)
        records = trace_records(
            observation.tracer.to_records(), procedure="rcdp",
            metrics=observation.metrics.snapshot(),
            statistics=result.statistics,
            ticks=governor.budget.snapshot(),
            verdict=result.status.value, exhausted=False)
        assert check_trace(records) == []
        (root,) = [r for r in records
                   if r.get("type") == "span" and r["parent"] is None]
        assert root["attrs"]["fanned_out"] is False
        assert root["attrs"]["fan_out_reason"] == "ended in head"
        assert root["attrs"]["head_units"] == \
            governor.fan_out.head_units > 0
        assert not any(r.get("attrs", {}).get("lane") for r in records
                       if r.get("type") == "span")

    def test_cli_trace_and_ledger_of_a_search_that_fans_out(
            self, tmp_path, capsys, monkeypatch):
        bundle = ROOT / "examples" / "bundles" / "crm_q1_supported.json"
        trace, ledger = tmp_path / "t.jsonl", tmp_path / "l.jsonl"
        monkeypatch.setattr(search, "HEAD_START", 0)
        assert main(["decide", str(bundle), "--workers", "2",
                     "--trace", str(trace), "--ledger", str(ledger)]) == 1
        monkeypatch.undo()
        assert main(["decide", str(bundle), "--ledger", str(ledger)]) == 1
        assert main(["decide", str(bundle), "--workers", "2",
                     "--ledger", str(ledger)]) == 1
        capsys.readouterr()

        records = read_trace(str(trace))
        assert check_trace(records) == []
        (root,) = [r for r in records if r.get("type") == "span"
                   and r["parent"] is None and r["name"] == "decide_rcdp"]
        assert root["attrs"]["fanned_out"] is True
        assert root["attrs"]["fan_out_reason"] == "allowance spent"
        lanes = {(r.get("attrs") or {}).get("lane") for r in records
                 if r.get("type") == "span" and r["name"] == "shard"}
        assert lanes == {"shard-0", "shard-1"}

        fanned, serial, headed = read_ledger(str(ledger))
        assert (fanned.fanned_out, fanned.fan_out_reason) == \
            (True, "allowance spent")
        assert fanned.head_units == root["attrs"]["head_units"]
        assert (serial.head_units, serial.fanned_out,
                serial.fan_out_reason) == (0, False, None)
        assert (headed.fanned_out, headed.fan_out_reason) == \
            (False, "ended in head")
        assert headed.statistics == serial.statistics

        assert main(["report", "--ledger", str(ledger),
                     "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["procedures"]["rcdp"]["fan_out"] == {
            "headed": 2, "fanned_out": 1}
        assert main(["report", "--ledger", str(ledger)]) == 0
        assert "fanned out 1/2" in capsys.readouterr().out
