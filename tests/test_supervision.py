"""Tests for fault-tolerant parallel execution.

The supervised pool's contract (``docs/PARALLEL.md``, "Fault
tolerance"): for any injected crash schedule with per-attempt crash
probability < 1, a supervised run terminates with the verdict, witness,
and full-enumeration statistics of the serial run; retried shards draw
from the same governor budget ledger; and budget exhaustion under
faults still yields a resumable checkpoint, never a crash-shaped
error.  These tests drive :class:`~repro.parallel.supervise.
ShardSupervisor` through every recovery path — deterministic crashes,
probabilistic chaos schedules, hangs, dropped outcomes, poison
quarantine — plus the fail-fast legacy mode and the CLI surface.
"""

import argparse
import json

import pytest

from repro.cli import (EXIT_POOL_FAILURE, _governor_from_args,
                       _retry_from_args, main)
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.results import RCDPStatus
from repro.errors import ReproError, WorkerPoolError
from repro.obs import Observation, check_trace, trace_records
from repro.runtime import (Budget, CRASH_EXIT_CODE, ExecutionGovernor,
                           FaultInjector, RetryPolicy)

from tests.test_parallel_differential import (COMPLETE_DB, COMPLETE_QUERY,
                                              DM, IND, WITNESS_DB,
                                              WITNESS_QUERY,
                                              _assert_same_rcdp)

# The pool is this suite's subject: hand every search at workers > 1
# to it at the first candidate instead of finishing in-process.
pytestmark = pytest.mark.usefixtures("no_head_start")

#: Fast-failure policy for tests: tiny backoff, tight heartbeat.
FAST = dict(backoff_base=0.001, backoff_cap=0.01, heartbeat=0.02)


def _serial_complete():
    result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND])
    assert result.status is RCDPStatus.COMPLETE
    return result


class TestRetryPolicy:
    def test_defaults_are_valid_and_supervised(self):
        policy = RetryPolicy()
        assert policy.supervise
        assert policy.max_retries == 2
        assert policy.on_poison == "serial"

    def test_disabled_is_the_legacy_fail_fast_pool(self):
        policy = RetryPolicy.disabled()
        assert not policy.supervise
        assert policy.max_retries == 0
        assert policy.on_poison == "error"

    def test_effective_silent_after(self):
        assert RetryPolicy(heartbeat=0.5).effective_silent_after == 20.0
        assert RetryPolicy(silent_after=3.0).effective_silent_after == 3.0

    @pytest.mark.parametrize("kwargs", [
        dict(max_retries=-1),
        dict(backoff_base=-0.1),
        dict(backoff_base=1.0, backoff_cap=0.5),
        dict(backoff_jitter=-0.5),
        dict(heartbeat=0.0),
        dict(silent_after=0.0),
        dict(on_poison="panic"),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ReproError):
            RetryPolicy(**kwargs)

    def test_backoff_is_deterministic_monotone_and_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.4,
                             backoff_jitter=0.0)
        delays = [policy.backoff_delay(n) for n in range(5)]
        assert delays == [policy.backoff_delay(n) for n in range(5)]
        assert delays == sorted(delays)
        assert delays[-1] == 0.4
        jittered = RetryPolicy(backoff_base=0.1, backoff_jitter=0.5)
        assert (jittered.backoff_delay(0, key=0)
                == jittered.backoff_delay(0, key=0))
        assert 0.1 <= jittered.backoff_delay(0, key=0) <= 0.15


class TestProcessFaults:
    def test_unarmed_process_faults_are_inert(self):
        """Serial runs and parent governors carry the injector without
        ever arming it — certain-crash settings must not fire."""
        governor = ExecutionGovernor(faults=FaultInjector(
            crash_after=0, crash_probability=1.0, drop_outcome=1.0))
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             governor=governor)
        assert result.status is RCDPStatus.COMPLETE
        assert not governor.faults.should_drop_outcome()

    def test_reseeded_copy_is_fresh_and_disarmed(self):
        faults = FaultInjector(crash_probability=0.5, seed=3)
        faults.arm_process_faults()
        copy = faults.reseeded(5)
        assert copy.seed == 8
        assert not copy.process_armed
        assert faults.process_armed

    @pytest.mark.parametrize("kwargs", [
        dict(crash_probability=1.5),
        dict(drop_outcome=-0.1),
        dict(crash_after=-1),
        dict(hang_after=-1),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ReproError):
            FaultInjector(**kwargs)


class TestSupervisedRecovery:
    def test_deterministic_crash_recovers_exact_statistics(self):
        """Every attempt crashes after 3 ticks, so the shard burns its
        retry budget and falls to quarantine — the verdict and the
        full-enumeration counters must still equal the serial run's."""
        serial = _serial_complete()
        governor = ExecutionGovernor(
            faults=FaultInjector(crash_after=3),
            retry=RetryPolicy(max_retries=1, **FAST))
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             workers=2, governor=governor)
        _assert_same_rcdp(serial, result)

    def test_dropped_witness_outcome_is_recovered(self):
        """A worker that finds the witness, publishes its beacon rank,
        and then loses its outcome must not wedge the run: the retry
        re-examines the published candidate (rank == cutoff is *this*
        witness, not a better one) and re-reports it."""
        serial = decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND])
        assert serial.status is RCDPStatus.INCOMPLETE
        governor = ExecutionGovernor(
            faults=FaultInjector(drop_outcome=1.0),
            retry=RetryPolicy(max_retries=1, **FAST))
        result = decide_rcdp(WITNESS_QUERY, WITNESS_DB, DM, [IND],
                             workers=2, governor=governor)
        _assert_same_rcdp(serial, result)

    def test_hung_worker_is_detected_and_recovered(self):
        serial = _serial_complete()
        governor = ExecutionGovernor(
            faults=FaultInjector(hang_after=4),
            retry=RetryPolicy(max_retries=0, silent_after=0.3, **FAST))
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             workers=2, governor=governor)
        _assert_same_rcdp(serial, result)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_schedule_matches_serial(self, workers, seed):
        """The acceptance property: any crash schedule with per-attempt
        probability < 1 terminates with the serial verdict, witness,
        and exact full-enumeration statistics."""
        serial = _serial_complete()
        governor = ExecutionGovernor(
            faults=FaultInjector(crash_probability=0.15, seed=seed),
            retry=RetryPolicy(max_retries=2, **FAST))
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             workers=workers, governor=governor)
        _assert_same_rcdp(serial, result)

    def test_missing_answers_under_chaos(self):
        """Accumulating-data kind: per-shard rank/answer pairs must
        survive commit-and-retry without duplication or loss."""
        serial = missing_answers_report(WITNESS_QUERY, WITNESS_DB, DM,
                                        [IND])
        governor = ExecutionGovernor(
            faults=FaultInjector(crash_probability=0.2, seed=1),
            retry=RetryPolicy(max_retries=2, **FAST))
        parallel = missing_answers_report(WITNESS_QUERY, WITNESS_DB, DM,
                                          [IND], workers=2,
                                          governor=governor)
        assert parallel.answers == serial.answers
        assert parallel.exhaustive == serial.exhaustive

    def test_budget_ledger_holds_across_attempts_and_legs(self):
        """Crashing legs under a tiny budget: every exhaustion yields a
        resumable checkpoint (never a crash-shaped error), no leg
        overdraws its ledger, and the legs converge to the serial
        verdict with exact cumulative statistics."""
        serial = _serial_complete()
        policy = RetryPolicy(max_retries=1, heartbeat=0.005,
                             backoff_base=0.001, backoff_cap=0.01)
        checkpoint, legs = None, 0
        while True:
            governor = ExecutionGovernor(
                budget=Budget(limit=6),
                faults=FaultInjector(crash_probability=0.1, seed=legs),
                retry=policy)
            result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                                 workers=2, governor=governor,
                                 resume_from=checkpoint,
                                 on_exhausted="partial")
            legs += 1
            assert governor.budget.remaining >= 0, "ledger overdrawn"
            if result.status is not RCDPStatus.EXHAUSTED:
                break
            checkpoint = result.checkpoint
            assert checkpoint is not None, "exhaustion without checkpoint"
            assert legs < 50, "budget-resume loop made no progress"
        assert legs > 1, "budget=6 should force at least one resume"
        _assert_same_rcdp(serial, result)

    def test_poison_error_mode_raises_pool_error(self):
        governor = ExecutionGovernor(
            faults=FaultInjector(crash_after=3),
            retry=RetryPolicy(max_retries=0, on_poison="error", **FAST))
        with pytest.raises(WorkerPoolError) as excinfo:
            decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                        workers=2, governor=governor)
        assert "poison" in excinfo.value.details
        assert "search worker(s) failed" in excinfo.value.summary

    def test_disabled_policy_fails_fast_on_crash(self):
        governor = ExecutionGovernor(
            faults=FaultInjector(crash_after=3),
            retry=RetryPolicy.disabled())
        with pytest.raises(WorkerPoolError) as excinfo:
            decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                        workers=2, governor=governor)
        assert f"exited with code {CRASH_EXIT_CODE}" in \
            excinfo.value.details

    def test_spawn_start_method_crash_recovery(self, monkeypatch):
        """Recovery also works when respawned workers pay full module
        re-import (the default policy's generous silence horizon must
        not misjudge spawn startup as a hang)."""
        import multiprocessing
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        serial = _serial_complete()
        governor = ExecutionGovernor(
            faults=FaultInjector(crash_after=3),
            retry=RetryPolicy(max_retries=1, backoff_base=0.001,
                              backoff_cap=0.01))
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             workers=2, governor=governor)
        _assert_same_rcdp(serial, result)


class TestSupervisionObservability:
    def test_counters_events_and_trace_accounting(self, tmp_path):
        """A crashy supervised run records crash/retry/quarantine
        counters, emits supervisor spans, and still writes a trace that
        passes the full ``check_trace`` accounting."""
        governor = ExecutionGovernor(
            budget=Budget(),
            faults=FaultInjector(crash_after=3),
            retry=RetryPolicy(max_retries=1, **FAST))
        Observation.attach(governor)
        result = decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND],
                             workers=2, governor=governor)
        assert result.status is RCDPStatus.COMPLETE
        observation = governor.obs
        observation.finalize(governor, result.statistics)
        counters = observation.metrics.counters
        assert counters.get("parallel.crash", 0) >= 2
        assert counters.get("parallel.retry", 0) >= 1
        assert counters.get("parallel.quarantine", 0) >= 1
        assert counters.get("parallel.shard.0.crash", 0) >= 1
        payload = observation.payload()
        names = {record["name"] for record in payload["spans"]}
        assert "supervisor.retry" in names
        assert "supervisor.quarantine" in names
        records = trace_records(
            payload["spans"], procedure="rcdp", command="test",
            metrics=payload["metrics"], statistics=result.statistics,
            ticks=dict(governor.budget.snapshot()),
            verdict=str(result.status), exhausted=False)
        assert check_trace(records) == []

    def test_quarantined_attempt_gets_its_own_lane(self):
        """Attempt K > 0 spans land in lane ``shard-N.aK`` so per-lane
        overlap checks stay valid across overlapping attempts."""
        governor = ExecutionGovernor(
            budget=Budget(),
            faults=FaultInjector(crash_after=3),
            retry=RetryPolicy(max_retries=0, **FAST))
        Observation.attach(governor)
        decide_rcdp(COMPLETE_QUERY, COMPLETE_DB, DM, [IND], workers=2,
                    governor=governor)
        lanes = {(record.get("attrs") or {}).get("lane")
                 for record in governor.obs.tracer.to_records()
                 if record["name"] == "shard"}
        # Both shards crash their only attempt and are quarantined as
        # attempt 1; the crashed attempt-0 spans died with the workers.
        assert lanes == {"shard-0.a1", "shard-1.a1"}


class TestSupervisionCLI:
    @pytest.fixture
    def bundle(self, tmp_path):
        from repro.constraints.containment import (ContainmentConstraint,
                                                   Projection)
        from repro.io.json_io import dump_bundle
        from repro.queries.atoms import rel
        from repro.queries.cq import cq
        from repro.queries.terms import var
        from repro.relational.instance import Instance
        from repro.relational.schema import DatabaseSchema, RelationSchema

        schema = DatabaseSchema([RelationSchema("S", ["eid", "cid"])])
        master_schema = DatabaseSchema([RelationSchema("M", ["cid"])])
        cc = ContainmentConstraint(
            cq([var("c")], [rel("S", var("e"), var("c"))]),
            Projection.on("M", [0]), name="ind")
        path = tmp_path / "bundle.json"
        dump_bundle(str(path), schema=schema,
                    master_schema=master_schema,
                    database=Instance(schema, {"S": {("e0", "c1"),
                                                     ("e0", "c2")}}),
                    master=Instance(master_schema,
                                    {"M": {("c1",), ("c2",)}}),
                    query=cq([var("c")], [rel("S", "e0", var("c"))]),
                    constraints=[cc])
        return str(path)

    def test_retry_flags_accepted_end_to_end(self, bundle, capsys):
        assert main(["rcdp", bundle, "--workers", "2",
                     "--max-retries", "1", "--heartbeat", "0.1"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_no_retry_flag_accepted(self, bundle, capsys):
        assert main(["rcdp", bundle, "--no-retry"]) == 0

    def test_no_retry_conflicts_with_retry_flags(self, bundle, capsys):
        assert main(["rcdp", bundle, "--no-retry",
                     "--max-retries", "1"]) == 2
        assert "--no-retry conflicts" in capsys.readouterr().err

    def test_pool_failure_maps_to_exit_code_4(self, bundle, capsys,
                                              monkeypatch):
        import repro.cli as cli_module

        def boom(*args, **kwargs):
            raise WorkerPoolError(
                "2 of 2 search worker(s) failed",
                details="[shard 0] traceback\n[shard 1] traceback")

        monkeypatch.setattr(cli_module, "decide_rcdp", boom)
        assert main(["rcdp", bundle]) == EXIT_POOL_FAILURE
        err = capsys.readouterr().err
        assert err.strip() == ("error: worker pool failure — "
                               "2 of 2 search worker(s) failed")

    def test_retry_from_args_resolution(self):
        def namespace(**kwargs):
            base = dict(max_retries=None, heartbeat=None, no_retry=False)
            base.update(kwargs)
            return argparse.Namespace(**base)

        assert _retry_from_args(namespace()) is None
        policy = _retry_from_args(namespace(max_retries=5))
        assert policy.max_retries == 5
        assert policy.heartbeat == RetryPolicy().heartbeat
        policy = _retry_from_args(namespace(heartbeat=0.5))
        assert policy.heartbeat == 0.5
        assert policy.max_retries == RetryPolicy().max_retries
        assert not _retry_from_args(namespace(no_retry=True)).supervise

    def test_retry_flags_force_a_governor(self):
        args = argparse.Namespace(
            budget=None, timeout=None, trace=None, metrics=None,
            profile=False, stats=False, max_retries=3, heartbeat=None,
            no_retry=False)
        governor = _governor_from_args(args)
        assert governor is not None
        assert governor.retry.max_retries == 3

    def test_metrics_export_includes_supervision_counters(
            self, bundle, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["rcdp", bundle, "--workers", "2",
                     "--metrics", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"].get("parallel.shards") == 2
