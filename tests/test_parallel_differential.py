"""Differential tests: parallel search ≡ serial search.

The ``repro.parallel`` contract is that sharding is *invisible* in the
result: for every worker count the deciders return the same verdict,
the same (serial-first) witness, and — on full enumerations — the same
merged search statistics as the serial run.  These tests pin that down
with Hypothesis-random scenarios, with fault injection, and with
budget-exhausted multi-leg resumption.

Early-exit caveat: on an INCOMPLETE/NONEMPTY verdict the *verdict and
witness* are worker-count invariant but the examined-candidate counters
need not be — a shard may scan candidates the serial run never reached
before the witness was found.  Counter equality is therefore asserted
only on verdicts that exhaust their enumeration.
"""

from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.cfd import FunctionalDependency
from repro.constraints.containment import satisfies_all
from repro.constraints.ind import InclusionDependency
from repro.core.bounded import brute_force_rcdp, brute_force_rcqp
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.rcqp import decide_rcqp
from repro.core.results import RCDPStatus, RCQPStatus
from repro.core.witness import make_complete
from repro.errors import ReproError
from repro.parallel import resolve_workers
from repro.queries.atoms import RelAtom, eq, rel
from repro.queries.cq import ConjunctiveQuery, cq
from repro.queries.terms import Var, var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.runtime import ExecutionGovernor, FaultInjector

from tests.strategies import SCHEMA, conjunctive_queries, instances

import pytest

# The pool is this suite's subject: hand every search at workers > 1
# to it at the first candidate instead of finishing in-process.
pytestmark = pytest.mark.usefixtures("no_head_start")

MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["c"])])
DM = Instance(MASTER_SCHEMA, {"M": {(0,), (1,)}})

# R[b] ⊆ M[c]: random instances whose R carries a 2 in column b are not
# partially closed and get filtered out below.
IND = InclusionDependency(
    "R", ["b"], "M", ["c"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)


def _assert_same_rcdp(serial, parallel):
    assert parallel.status is serial.status
    assert parallel.explanation == serial.explanation
    if serial.certificate is None:
        assert parallel.certificate is None
    else:
        assert parallel.certificate is not None
        assert (parallel.certificate.extension_facts
                == serial.certificate.extension_facts)
        assert (parallel.certificate.new_answer
                == serial.certificate.new_answer)
    if serial.status is RCDPStatus.COMPLETE:
        # Full enumeration: the merged counters are exact.
        assert (parallel.statistics.valuations_examined
                == serial.statistics.valuations_examined)


class TestRCDPDifferential:
    @settings(max_examples=30, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_two_workers_match_serial(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        parallel = decide_rcdp(query, db, DM, [IND], workers=2)
        _assert_same_rcdp(serial, parallel)

    @settings(max_examples=15, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances(), after=st.integers(0, 25))
    def test_fault_injected_run_resumes_to_serial_verdict(
            self, query, db, after):
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = decide_rcdp(query, db, DM, [IND])
        except ReproError:
            assume(False)
        governor = ExecutionGovernor(
            faults=FaultInjector(exhaust_after=after))
        partial = decide_rcdp(query, db, DM, [IND], workers=2,
                              governor=governor, on_exhausted="partial")
        if partial.status is not RCDPStatus.EXHAUSTED:
            _assert_same_rcdp(serial, partial)
            return
        assert partial.checkpoint is not None
        resumed = decide_rcdp(query, db, DM, [IND], workers=2,
                              resume_from=partial.checkpoint)
        assert resumed.status is serial.status

    @settings(max_examples=10, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances(), budget=st.integers(1, 12))
    def test_budget_exhausted_legs_converge_to_serial_verdict(
            self, query, db, budget):
        """Re-running with the same small budget and resuming each
        EXHAUSTED leg from its checkpoint must terminate (the split
        governor hands every leg at least one admissible tick) and land
        on the serial verdict."""
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = decide_rcdp(query, db, DM, [IND])
            # The serial missing-answers scan walks the whole stream.
            stream = missing_answers_report(
                query, db, DM, [IND]).statistics.valuations_examined
        except ReproError:
            assume(False)
        result = decide_rcdp(
            query, db, DM, [IND], workers=2,
            governor=ExecutionGovernor.from_limits(budget=budget),
            on_exhausted="partial")
        legs = 1
        while result.status is RCDPStatus.EXHAUSTED:
            # Every exhausted leg examines at least one valuation of the
            # stream, so a loop that progresses ends within its length.
            assert legs <= stream, "budget-resume loop made no progress"
            assert result.checkpoint is not None
            result = decide_rcdp(
                query, db, DM, [IND], workers=2,
                governor=ExecutionGovernor.from_limits(budget=budget),
                on_exhausted="partial", resume_from=result.checkpoint)
            legs += 1
        assert result.status is serial.status


class TestMissingAnswersDifferential:
    @settings(max_examples=25, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances())
    def test_two_workers_match_serial(self, query, db):
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = missing_answers_report(query, db, DM, [IND])
        except ReproError:
            assume(False)
        parallel = missing_answers_report(query, db, DM, [IND],
                                          workers=2)
        assert parallel.answers == serial.answers
        assert parallel.exhaustive == serial.exhaustive

    @settings(max_examples=15, deadline=None)
    @given(query=conjunctive_queries(allow_inequalities=False),
           db=instances(), limit=st.integers(1, 3))
    def test_truncated_report_matches_serial(self, query, db, limit):
        """The limit-truncated parallel report keeps exactly the serial
        run's first *limit* distinct missing answers."""
        assume(satisfies_all(db, DM, [IND]))
        try:
            serial = missing_answers_report(query, db, DM, [IND],
                                            limit=limit)
        except ReproError:
            assume(False)
        parallel = missing_answers_report(query, db, DM, [IND],
                                          limit=limit, workers=2)
        assert parallel.answers == serial.answers
        assert parallel.exhaustive == serial.exhaustive


# A Boolean join whose verdict is COMPLETE: the decider must exhaust
# the pruned valuation space, so the merged statistics are exact.
_X, _Y, _Z = Var("x"), Var("y"), Var("z")
COMPLETE_QUERY = ConjunctiveQuery(
    (), [RelAtom("T", (_X, _Y, _Z)), RelAtom("R", (_X, _Y))],
    name="qjoin")
COMPLETE_DB = Instance(SCHEMA, {"R": {(0, 0)}, "T": {(0, 0, 0)}})

# A single-atom projection whose verdict is INCOMPLETE with a witness.
WITNESS_QUERY = ConjunctiveQuery(
    (_X,), [RelAtom("R", (_X, _Y))], name="qproj")
WITNESS_DB = Instance(SCHEMA, {"R": {(0, 0)}})

# Example 4.1's Q2 under eid -> (dept, cid): not INDs, so decide_rcqp
# runs the general E2/E6 candidate-set search (the rcqp-sets kernel).
SUPT = DatabaseSchema([RelationSchema("Supt", ["eid", "dept", "cid"])])
SUPT_MASTER = Instance(DatabaseSchema([RelationSchema("DCust", ["cid"])]))
Q2 = cq([var("e"), var("d"), var("c")],
        [rel("Supt", var("e"), var("d"), var("c")), eq(var("e"), "e0")],
        name="Q2")
FD = FunctionalDependency("Supt", ["eid"],
                          ["dept", "cid"]).to_containment_constraints(SUPT)


class TestFixedScenarioWorkerLadder:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_complete_verdict_and_exact_statistics(self, workers):
        serial = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND])
        assert serial.status is RCDPStatus.COMPLETE
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             workers=workers)
        _assert_same_rcdp(serial, result)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_incomplete_witness_is_the_serial_first(self, workers):
        serial = decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND])
        assert serial.status is RCDPStatus.INCOMPLETE
        result = decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                             workers=workers)
        _assert_same_rcdp(serial, result)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("one_pass", [False, True],
                             ids=["all-relations", "relations-generator"])
    def test_brute_force_rcdp_matches_serial(self, workers, one_pass):
        def relations():
            # A single-pass iterable must be read once, not once per use.
            return (name for name in ["R"]) if one_pass else None

        serial = brute_force_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                                  max_extra_facts=1, relations=relations())
        result = brute_force_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                                  max_extra_facts=1, relations=relations(),
                                  workers=workers)
        assert result.status is serial.status
        assert result.explanation == serial.explanation
        if serial.certificate is not None:
            assert (result.certificate.extension_facts
                    == serial.certificate.extension_facts)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_brute_force_rcqp_matches_serial(self, workers):
        serial = brute_force_rcqp(WITNESS_QUERY, DM, [IND], SCHEMA,
                                  max_database_size=1,
                                  completeness_bound=1)
        result = brute_force_rcqp(WITNESS_QUERY, DM, [IND], SCHEMA,
                                  max_database_size=1,
                                  completeness_bound=1, workers=workers)
        assert result.status is serial.status
        assert result.witness == serial.witness

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rcqp_general_matches_serial(self, workers):
        serial = decide_rcqp(WITNESS_QUERY, Instance(MASTER_SCHEMA),
                             [IND], SCHEMA, max_valuation_set_size=1,
                             max_rows_per_unit=1)
        result = decide_rcqp(WITNESS_QUERY, Instance(MASTER_SCHEMA),
                             [IND], SCHEMA, max_valuation_set_size=1,
                             max_rows_per_unit=1, workers=workers)
        assert result.status is serial.status
        assert result.witness == serial.witness

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rcqp_candidate_sets_match_serial(self, workers):
        serial = decide_rcqp(Q2, SUPT_MASTER, FD, SUPT)
        assert serial.status is RCQPStatus.NONEMPTY
        result = decide_rcqp(Q2, SUPT_MASTER, FD, SUPT, workers=workers)
        assert result.status is serial.status
        assert result.explanation == serial.explanation
        assert result.witness == serial.witness

    @pytest.mark.parametrize("workers", [2, 3])
    def test_make_complete_matches_serial(self, workers):
        serial = make_complete(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                               max_rounds=4)
        result = make_complete(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                               max_rounds=4, workers=workers)
        assert result.complete == serial.complete
        assert result.rounds == serial.rounds
        assert result.added_facts == serial.added_facts


class TestWorkerKnob:
    def test_resolve_workers_normalizes(self):
        import os
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_serial_decide_never_loads_the_pool(self):
        """workers=1 runs the kernel in-process: neither the pool nor
        ``multiprocessing`` is imported."""
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"),
                          os.environ.get("PYTHONPATH")])))
        script = (
            "import sys\n"
            "from repro.core.rcdp import decide_rcdp\n"
            "from repro.io.json_io import load_bundle\n"
            "b = load_bundle(sys.argv[1])\n"
            "decide_rcdp(b['query'], b['database'], b['master'],\n"
            "            b['constraints'], workers=1)\n"
            "print(sorted(m for m in ('multiprocessing',\n"
            "                         'repro.parallel.supervise')\n"
            "             if m in sys.modules))\n")
        bundle = root / "examples" / "bundles" / "crm_q2_supported_ind.json"
        done = subprocess.run([sys.executable, "-c", script, str(bundle)],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_negative_workers_rejected(self):
        with pytest.raises(ReproError, match="workers"):
            decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                        workers=-1)

    def test_checkpoint_binds_worker_count(self):
        """Once a search fans out, ownership of its slices depends on
        the worker count."""
        partial = decide_rcdp(
            COMPLETE_QUERY, COMPLETE_DB, DM, [IND], workers=2,
            governor=ExecutionGovernor.from_limits(budget=2),
            on_exhausted="partial")
        assert partial.status is RCDPStatus.EXHAUSTED
        assert partial.checkpoint is not None
        with pytest.raises(ReproError, match="workers=2"):
            decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                        workers=3, resume_from=partial.checkpoint)

    def test_serial_checkpoint_resumes_with_more_workers(self):
        """One slice has no shard layout to bind: a workers=1
        checkpoint resumes at workers=2 (as the head, which hands the
        rest of the stream to the pool) with the serial statistics."""
        serial = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND])
        partial = decide_rcdp(
            COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
            governor=ExecutionGovernor.from_limits(budget=2),
            on_exhausted="partial")
        assert partial.status is RCDPStatus.EXHAUSTED
        assert partial.checkpoint.cursor[0] == 1
        resumed = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                              workers=2, resume_from=partial.checkpoint)
        _assert_same_rcdp(serial, resumed)
        assert resumed.statistics.constraint_checks == \
            serial.statistics.constraint_checks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhausted_statistics_are_cumulative_across_legs(self, workers):
        serial = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND])
        result = decide_rcdp(
            COMPLETE_QUERY, COMPLETE_DB, DM, [IND], workers=workers,
            governor=ExecutionGovernor.from_limits(budget=5),
            on_exhausted="partial")
        legs = 1
        while result.status is RCDPStatus.EXHAUSTED:
            assert legs < 50
            result = decide_rcdp(
                COMPLETE_QUERY, COMPLETE_DB, DM, [IND], workers=workers,
                governor=ExecutionGovernor.from_limits(budget=5),
                on_exhausted="partial", resume_from=result.checkpoint)
            legs += 1
        assert legs > 1, "budget=5 should force at least one resume"
        assert result.status is RCDPStatus.COMPLETE
        assert (result.statistics.valuations_examined
                == serial.statistics.valuations_examined)


class TestStartMethods:
    """The differential contract holds under every multiprocessing
    start method — ``spawn`` in particular re-imports the worker module
    and re-pickles every task, the path ``fork`` never exercises."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_fixed_scenarios_under_forced_start_method(
            self, monkeypatch, method):
        import multiprocessing
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", method)
        serial = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND])
        _assert_same_rcdp(serial, decide_rcdp(
            COMPLETE_QUERY, COMPLETE_DB, DM, [IND], workers=2))
        serial = decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND])
        _assert_same_rcdp(serial, decide_rcdp(
            WITNESS_QUERY, WITNESS_DB, DM, [IND], workers=2))

    def test_workers_never_rebuild_the_search_space(self, monkeypatch):
        """Each decider builds its search space once and ships it to the
        workers: under fork they inherit an ``ActiveDomain.build`` that
        fails outside this process, and still reach the serial result
        (a worker that rebuilt the space would fail its shard)."""
        import multiprocessing
        import os

        from repro.core.rcqp import decide_rcqp_with_inds
        from repro.core.valuations import ActiveDomain

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("start method 'fork' unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "fork")
        parent, build = os.getpid(), ActiveDomain.build.__func__

        def build_in_parent_only(cls, *args, **kwargs):
            assert os.getpid() == parent, "a worker rebuilt the Adom"
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(ActiveDomain, "build",
                            classmethod(build_in_parent_only))
        for query, db in ((COMPLETE_QUERY, COMPLETE_DB),
                          (WITNESS_QUERY, WITNESS_DB)):
            _assert_same_rcdp(
                decide_rcdp(query, db, DM, [IND]),
                decide_rcdp(query, db, DM, [IND], workers=2))
        serial = missing_answers_report(WITNESS_QUERY, WITNESS_DB, DM,
                                        [IND])
        parallel = missing_answers_report(WITNESS_QUERY, WITNESS_DB, DM,
                                          [IND], workers=2)
        assert serial.answers and parallel.answers == serial.answers
        assert parallel.exhaustive and serial.exhaustive
        serial = decide_rcqp_with_inds(WITNESS_QUERY, DM, [_RCQP_IND],
                                       SCHEMA)
        parallel = decide_rcqp_with_inds(WITNESS_QUERY, DM, [_RCQP_IND],
                                         SCHEMA, workers=2)
        assert parallel.status is serial.status is RCQPStatus.NONEMPTY
        assert parallel.witness == serial.witness

    def test_unknown_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "bogus")
        with pytest.raises(ReproError,
                           match="REPRO_PARALLEL_START_METHOD"):
            decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                        workers=2)


_RCQP_IND = InclusionDependency(
    "R", ["a"], "M", ["c"]).to_containment_constraint(
    SCHEMA, MASTER_SCHEMA)


class TestRCQPWithINDsDifferential:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_nonempty_witness_matches_serial(self, workers):
        serial = decide_rcqp(WITNESS_QUERY, DM, [_RCQP_IND], SCHEMA)
        assert serial.status is RCQPStatus.NONEMPTY
        result = decide_rcqp(WITNESS_QUERY, DM, [_RCQP_IND], SCHEMA,
                             workers=workers)
        assert result.status is serial.status
        assert result.witness == serial.witness

    @pytest.mark.parametrize("workers", [2, 3])
    def test_empty_master_matches_serial(self, workers):
        empty_master = Instance(MASTER_SCHEMA)
        serial = decide_rcqp(WITNESS_QUERY, empty_master, [_RCQP_IND],
                             SCHEMA)
        result = decide_rcqp(WITNESS_QUERY, empty_master, [_RCQP_IND],
                             SCHEMA, workers=workers)
        assert result.status is serial.status
        assert result.witness == serial.witness
