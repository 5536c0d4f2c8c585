"""The decision observatory: run ledger, history gate, exporters,
progress — plus the layer-wide acceptance invariant.

* **Ledger ≡ no ledger** (differential): running a decision with the
  run ledger and live progress attached yields bit-identical verdicts,
  witnesses, and ``SearchStatistics`` across every backend ×
  worker-count cell.  Recording is observation-only.
* **Crash-safe appends**: two processes hammering one ledger file
  interleave whole lines — every line parses, no record is lost.
* **History gate**: ``repro history --gate`` passes against a
  truthful baseline and exits nonzero under a synthetic 2× slowdown,
  a tick drift, a verdict flip, or a baseline that fails its own
  recorded gates.
"""

import io
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.constraints.containment import (ContainmentConstraint,
                                           Projection)
from repro.io.json_io import dump_bundle
from repro.obs import atomic_write_text
from repro.obs.export import (event_records, prometheus_lines,
                              render_events, render_prometheus,
                              write_events, write_prometheus)
from repro.obs.history import (HISTORY_FACTOR, diff_reports,
                               discover_baselines, load_bench_report,
                               report_problems)
from repro.obs.ledger import (LEDGER_VERSION, RunRecord, append_record,
                              check_ledger, group_name, ledger_metrics,
                              ledger_report, read_ledger,
                              render_summary, run_key,
                              statistics_fields, summarize_ledger)
from repro.obs.progress import ProgressReporter
from repro.queries.atoms import rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.backends import BACKEND_NAMES, resolve_backend_name
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema([RelationSchema("S", ["eid", "cid"])])
MASTER_SCHEMA = DatabaseSchema([RelationSchema("M", ["cid"])])


@pytest.fixture
def bundle_path(tmp_path):
    def write(support):
        database = Instance(SCHEMA, {"S": set(support)})
        master = Instance(MASTER_SCHEMA, {"M": {("c1",), ("c2",)}})
        q = cq([var("c")], [rel("S", "e0", var("c"))])
        cc = ContainmentConstraint(
            cq([var("c")], [rel("S", var("e"), var("c"))]),
            Projection.on("M", [0]), name="ind")
        path = tmp_path / "bundle.json"
        dump_bundle(str(path), schema=SCHEMA,
                    master_schema=MASTER_SCHEMA, database=database,
                    master=master, query=q, constraints=[cc])
        return str(path)

    return write


def _record(i=0, **overrides):
    base = dict(procedure="rcdp", label="demo", verdict="complete",
                backend="python", workers=1, wall_s=0.01 * (i + 1),
                ticks={"valuations": 10 * (i + 1)},
                statistics={"engine_cache_hits": 3,
                            "full_evaluations": 1})
    base.update(overrides)
    return RunRecord(**base)


# ---------------------------------------------------------------------
# Unit: records and the append/read cycle
# ---------------------------------------------------------------------

class TestRunRecord:
    def test_payload_roundtrip(self):
        record = _record(interrupted="budget", exhausted=True,
                         artifacts={"trace": "t.jsonl"},
                         extra={"note": 1})
        payload = record.to_payload()
        assert payload["v"] == LEDGER_VERSION
        assert RunRecord.from_payload(payload) == record

    def test_from_payload_ignores_unknown_keys(self):
        payload = _record().to_payload()
        payload["from_the_future"] = {"x": 1}
        assert RunRecord.from_payload(payload) == _record()

    def test_run_key_is_content_addressed(self):
        q = cq([var("c")], [rel("S", "e0", var("c"))])
        again = cq([var("c")], [rel("S", "e0", var("c"))])
        other = cq([var("c")], [rel("S", "e1", var("c"))])
        assert run_key("rcdp", q) == run_key("rcdp", again)
        assert run_key("rcdp", q) != run_key("rcdp", other)
        assert run_key("rcdp", q) != run_key("rcqp", q)

    def test_statistics_fields_drops_zeroes(self):
        from repro.core.results import SearchStatistics

        stats = SearchStatistics(valuations_examined=4)
        assert statistics_fields(stats) == {"valuations_examined": 4}
        assert statistics_fields(None) == {}


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for i in range(3):
            append_record(path, _record(i))
        records = read_ledger(path)
        assert records == [_record(0), _record(1), _record(2)]
        assert check_ledger(path) == []

    def test_read_rejects_torn_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_record(str(path), _record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "procedure": "rc')  # torn mid-write
        with pytest.raises(ValueError, match="not valid JSON"):
            read_ledger(str(path))
        problems = check_ledger(str(path))
        assert problems and "line 2" in problems[0]

    def test_check_flags_version_and_missing_keys(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"v": 99, "procedure": "rcdp", '
                        '"verdict": "", "wall_s": 0}\n'
                        '{"v": 1, "procedure": "rcdp"}\n',
                        encoding="utf-8")
        problems = check_ledger(str(path))
        assert any("version" in p for p in problems)
        assert any("missing keys" in p for p in problems)


def _hammer(path, tag, count):
    for i in range(count):
        append_record(path, RunRecord(
            procedure="stress", label=f"{tag}-{i}", verdict="complete",
            wall_s=0.0, extra={"tag": tag, "i": i}))


class TestConcurrentAppends:
    def test_two_processes_interleave_whole_lines(self, tmp_path):
        """The satellite crash-safety property: two concurrent writer
        processes, every line parses, no record lost."""
        path = str(tmp_path / "ledger.jsonl")
        count = 200
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=_hammer,
                                   args=(path, tag, count))
                   for tag in ("a", "b")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert check_ledger(path) == []
        records = read_ledger(path)
        assert len(records) == 2 * count
        seen = {(r.extra["tag"], r.extra["i"]) for r in records}
        assert seen == {(tag, i) for tag in ("a", "b")
                        for i in range(count)}


# ---------------------------------------------------------------------
# Unit: aggregation (`repro report`)
# ---------------------------------------------------------------------

class TestSummarize:
    def test_percentiles_verdicts_and_cache_rate(self):
        records = [_record(i, verdict="complete" if i % 2 else
                           "incomplete") for i in range(10)]
        summary = summarize_ledger(records)
        assert summary["records"] == 10
        proc = summary["procedures"]["rcdp"]
        assert proc["runs"] == 10
        assert proc["wall_p50_s"] == pytest.approx(0.05)
        assert proc["wall_p90_s"] == pytest.approx(0.09)
        assert proc["verdicts"] == {"complete": 5, "incomplete": 5}
        # 30 hits vs 10 full evaluations over the 10 records
        assert proc["cache_hit_rate"] == pytest.approx(0.75)
        assert summary["backends"]["python"]["runs"] == 10

    def test_render_mentions_the_headline_numbers(self):
        records = [_record(0), _record(1, exhausted=True)]
        text = render_summary(summarize_ledger(records))
        assert "2 record(s)" in text
        assert "rcdp" in text and "exhausted×1" in text


class TestLedgerReport:
    def test_groups_by_identity_and_takes_p50(self):
        records = ([_record(i) for i in range(3)]
                   + [_record(0, backend="sqlite", workers=2)])
        report = ledger_report(records)
        assert report["name"] == "ledger"
        names = [row["name"] for row in report["rows"]]
        assert names == sorted(["rcdp/demo/python/w1",
                                "rcdp/demo/sqlite/w2"])
        by_name = {row["name"]: row for row in report["rows"]}
        python_row = by_name["rcdp/demo/python/w1"]
        assert python_row["wall_s"] == pytest.approx(0.02)
        assert python_row["extra"]["runs"] == 3
        # ticks come from the most recent record in the group
        assert python_row["ticks"] == {"valuations": 30}
        assert group_name(records[-1]) == "rcdp/demo/sqlite/w2"

    def test_metrics_snapshot_aggregates(self):
        snapshot = ledger_metrics([_record(0), _record(1)])
        assert snapshot["counters"]["ledger.runs.rcdp"] == 2
        assert snapshot["counters"]["ledger.verdict.complete"] == 2
        assert snapshot["counters"]["governor.ticks.valuations"] == 30
        assert snapshot["counters"]["search.engine_cache_hits"] == 6
        assert snapshot["gauges"]["ledger.records"] == 2.0
        assert snapshot["histograms"]["ledger.wall_seconds"][
            "count"] == 2


# ---------------------------------------------------------------------
# Unit: history diffing and the gate
# ---------------------------------------------------------------------

def _bench(name, rows, gates=()):
    return {"bench_report_version": 1, "name": name, "smoke": False,
            "rows": rows, "gates": list(gates), "extra": {}}


def _row(name, wall_s, *, ticks=None, verdicts=None):
    return {"name": name, "wall_s": wall_s, "ticks": ticks or {},
            "verdicts": verdicts or {}, "extra": {}}


class TestHistory:
    BASE = _bench("ledger", [
        _row("rcdp/a/python/w1", 0.10, ticks={"valuations": 8},
             verdicts={"complete": 1}),
        _row("rcdp/b/python/w1", 0.20, ticks={"valuations": 16},
             verdicts={"incomplete": 1}),
    ])

    def test_identical_reports_pass(self):
        result = diff_reports([("base", self.BASE)],
                              [("now", self.BASE)])
        assert result.ok
        assert result.median_ratio == pytest.approx(1.0)
        assert len(result.pairs) == 2

    def test_synthetic_slowdown_trips_the_wall_gate(self):
        result = diff_reports([("base", self.BASE)],
                              [("now", self.BASE)], slowdown=2.0)
        assert not result.ok
        assert any("median wall-time ratio" in r
                   for r in result.regressions)
        # ... while a sub-threshold wobble stays green.
        assert diff_reports([("base", self.BASE)],
                            [("now", self.BASE)],
                            slowdown=HISTORY_FACTOR - 0.1).ok

    def test_tick_drift_is_a_regression_not_noise(self):
        current = _bench("ledger", [
            _row("rcdp/a/python/w1", 0.10, ticks={"valuations": 9},
                 verdicts={"complete": 1})])
        result = diff_reports([("base", self.BASE)],
                              [("now", current)])
        assert not result.ok
        assert any("ticks[valuations]" in r for r in result.regressions)

    def test_verdict_flip_is_a_regression(self):
        current = _bench("ledger", [
            _row("rcdp/a/python/w1", 0.10, ticks={"valuations": 8},
                 verdicts={"incomplete": 1})])
        result = diff_reports([("base", self.BASE)],
                              [("now", current)])
        assert not result.ok
        assert any("verdict mix" in r for r in result.regressions)

    def test_baseline_failing_its_own_gate_is_a_problem(self):
        bad = _bench("ledger", [], gates=[
            {"name": "speed", "required": 5.0, "measured": 2.0,
             "higher_is_better": True, "enforced": True,
             "passed": True}])  # hand-edited into "passing"
        assert report_problems(bad, source="bad")
        result = diff_reports([("bad", bad)], [])
        assert not result.ok and result.baseline_problems

    def test_unpaired_rows_are_informational(self):
        current = _bench("ledger", [
            _row("rcdp/new-row/python/w1", 0.10)])
        orphan = _bench("unknown-report", [_row("x", 0.1)])
        result = diff_reports([("base", self.BASE)],
                              [("now", current), ("now2", orphan)])
        assert result.ok
        assert len(result.unpaired_current) == 2

    def test_discover_and_load(self, tmp_path):
        path = tmp_path / "BENCH_ledger.json"
        path.write_text(json.dumps(self.BASE), encoding="utf-8")
        (tmp_path / "unrelated.json").write_text("{}", encoding="utf-8")
        found = discover_baselines(str(tmp_path))
        assert found == [str(path)]
        assert discover_baselines(str(path)) == [str(path)]
        assert load_bench_report(str(path))["name"] == "ledger"
        (tmp_path / "BENCH_bad.json").write_text(
            '{"bench_report_version": 2, "rows": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="bench_report_version"):
            load_bench_report(str(tmp_path / "BENCH_bad.json"))


# ---------------------------------------------------------------------
# Unit: exporters
# ---------------------------------------------------------------------

class TestExport:
    SNAPSHOT = {
        "counters": {"governor.ticks.valuations": 7},
        "gauges": {"ledger.records": 3.0},
        "histograms": {"ledger.wall_seconds":
                       {"count": 2, "total": 0.5,
                        "min": 0.1, "max": 0.4}},
    }

    def test_prometheus_exposition_shape(self):
        text = render_prometheus(self.SNAPSHOT)
        assert "# TYPE repro_governor_ticks_valuations_total counter" \
            in text
        assert "repro_governor_ticks_valuations_total 7" in text
        assert "# TYPE repro_ledger_records gauge" in text
        assert "repro_ledger_wall_seconds_count 2" in text
        assert "repro_ledger_wall_seconds_sum 0.5" in text
        # every sample line is name<space>value — parseable exposition
        for line in prometheus_lines(self.SNAPSHOT):
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name.replace("_", "a").isalnum()
            float(value)

    def test_event_stream_shape(self):
        records = event_records(self.SNAPSHOT, source="test")
        assert records[0]["type"] == "header"
        kinds = {(r["kind"], r["name"]) for r in records[1:]}
        assert ("counter", "governor.ticks.valuations") in kinds
        assert ("gauge", "ledger.records") in kinds
        assert ("histogram", "ledger.wall_seconds") in kinds
        for line in render_events(self.SNAPSHOT).splitlines():
            json.loads(line)

    def test_writers_are_atomic_and_loadable(self, tmp_path):
        prom = tmp_path / "out.prom"
        events = tmp_path / "events.jsonl"
        write_prometheus(str(prom), self.SNAPSHOT)
        write_events(str(events), self.SNAPSHOT)
        assert "repro_ledger_records 3" in prom.read_text(
            encoding="utf-8")
        assert json.loads(events.read_text(
            encoding="utf-8").splitlines()[0])["type"] == "header"
        # no stray temp files from the atomic-rename dance
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl", "out.prom"]


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(str(path), "first")
        atomic_write_text(str(path), "second")
        assert path.read_text(encoding="utf-8") == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


# ---------------------------------------------------------------------
# Unit: progress
# ---------------------------------------------------------------------

class _FakeBudget:
    def __init__(self):
        self.ticks = {"valuations": 0}

    def snapshot(self):
        return dict(self.ticks)


class TestProgress:
    def _reporter(self, **kwargs):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, poll_interval=0.02,
                                    **kwargs)
        return reporter, stream

    def test_percent_and_eta_with_a_total(self):
        reporter, stream = self._reporter(total=100, label="decide")
        reporter.update_serial(25)
        reporter.close()
        out = stream.getvalue()
        assert "decide:" in out
        assert "25.0% (25/100 ticks)" in out
        assert "eta" in out

    def test_degrades_to_raw_counter_without_total(self):
        reporter, stream = self._reporter()
        reporter.update_serial(7)
        reporter.close()
        assert "7 tick(s)" in stream.getvalue()

    def test_serial_and_shard_sources_never_double_count(self):
        reporter, _ = self._reporter(total=1000)
        reporter.update_serial(10)      # pre-fan-out prefix
        reporter.update_shard(0, 30)
        reporter.update_shard(1, 20)
        assert reporter.value == 10 + 30 + 20
        # reconciliation absorbs worker ticks into the parent ledger:
        # the serial number jumps past the shard sum, no double count
        reporter.update_serial(10 + 30 + 20)
        assert reporter.value == 60
        # shard updates are per-shard monotone maxima
        reporter.update_shard(0, 25)
        assert reporter.value == 60

    def test_polling_samples_the_budget_ledger(self):
        budget = _FakeBudget()
        reporter, stream = self._reporter(total=50)
        reporter.start_polling(budget)
        budget.ticks["valuations"] = 50
        reporter.close()  # takes one final sample before painting
        assert reporter.value == 50
        assert "100.0%" in stream.getvalue()

    def test_value_is_monotone(self):
        reporter, _ = self._reporter()
        reporter.update_serial(9)
        reporter.update_serial(4)
        assert reporter.value == 9


# ---------------------------------------------------------------------
# Acceptance: ledger + progress are observation-only, every cell
# ---------------------------------------------------------------------

class TestLedgerDifferential:
    @pytest.mark.usefixtures("no_head_start")
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_recorded_run_is_bit_identical(self, backend, workers,
                                           bundle_path, tmp_path,
                                           capsys):
        """`decide --ledger --progress` must print the exact stdout of
        a bare `decide` — verdict, witness, statistics — and the
        ledger record must agree with what was printed."""
        path = bundle_path({("e0", "c1")})
        ledger = str(tmp_path / "ledger.jsonl")
        base_args = ["decide", path, "--backend", backend,
                     "--workers", str(workers), "--stats"]
        plain_exit = main(base_args)
        plain_out = capsys.readouterr().out
        recorded_exit = main(base_args + ["--ledger", ledger,
                                          "--progress"])
        recorded_out = capsys.readouterr().out
        assert recorded_exit == plain_exit == 1
        assert recorded_out == plain_out
        (record,) = read_ledger(ledger)
        assert record.procedure == "rcdp"
        assert record.verdict == "incomplete"
        assert record.backend == backend
        assert record.workers == workers
        assert record.key and record.ticks
        assert str(record.statistics["valuations_examined"]) in plain_out

    def test_same_decision_appends_the_same_key(self, bundle_path,
                                                tmp_path, capsys):
        path = bundle_path({("e0", "c1")})
        ledger = str(tmp_path / "ledger.jsonl")
        for backend in ("python", "sqlite"):
            main(["decide", path, "--backend", backend,
                  "--ledger", ledger])
        capsys.readouterr()
        first, second = read_ledger(ledger)
        assert first.key == second.key != ""

    def test_interrupted_audit_records_why_it_stopped(self, tmp_path,
                                                      capsys):
        """q0's RCDP stage finds the database incomplete within the
        budget and RCQP's unit enumeration runs out of it: the record
        names the interruption, as the single-procedure verbs' do."""
        bundle = (Path(__file__).resolve().parent.parent / "examples"
                  / "bundles" / "crm_q0_area_code.json")
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["audit", str(bundle), "--budget", "5",
                     "--on-exhausted", "partial",
                     "--ledger", ledger]) == 3
        assert "RCQP interrupted by: budget" in capsys.readouterr().out
        (record,) = read_ledger(ledger)
        assert record.procedure == "audit"
        assert record.verdict == "inconclusive" and record.exhausted
        assert record.interrupted == "budget"


# ---------------------------------------------------------------------
# CLI verbs: report and history
# ---------------------------------------------------------------------

class TestReportCommand:
    def _ledger(self, bundle_path, tmp_path, capsys):
        path = bundle_path({("e0", "c1")})
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["decide", path, "--ledger", ledger]) == 1
        capsys.readouterr()
        return ledger

    def test_text_and_json_summaries(self, bundle_path, tmp_path,
                                     capsys):
        ledger = self._ledger(bundle_path, tmp_path, capsys)
        assert main(["report", "--ledger", ledger]) == 0
        assert "1 record(s)" in capsys.readouterr().out
        assert main(["report", "--ledger", ledger,
                     "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["procedures"]["rcdp"]["runs"] == 1

    def test_out_writes_a_pairable_bench_report(self, bundle_path,
                                                tmp_path, capsys):
        ledger = self._ledger(bundle_path, tmp_path, capsys)
        out = tmp_path / "BENCH_ledger.json"
        prom = tmp_path / "ledger.prom"
        assert main(["report", "--ledger", ledger, "--out", str(out),
                     "--prom", str(prom)]) == 0
        report = load_bench_report(str(out))
        assert report["name"] == "ledger"
        assert report["rows"][0]["name"] == \
            f"rcdp/bundle/{resolve_backend_name()}/w1"
        assert "repro_ledger_runs_rcdp_total 1" in prom.read_text(
            encoding="utf-8")

    def test_missing_ledger_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["report"]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_corrupt_ledger_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "ledger.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["report", "--ledger", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_env_var_names_the_default_ledger(self, bundle_path,
                                              tmp_path, capsys,
                                              monkeypatch):
        path = bundle_path({("e0", "c1")})
        ledger = str(tmp_path / "ledger.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", ledger)
        assert main(["decide", path]) == 1
        capsys.readouterr()
        assert main(["report"]) == 0
        assert "1 record(s)" in capsys.readouterr().out


class TestHistoryCommand:
    def _baseline(self, bundle_path, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        path = bundle_path({("e0", "c1")})
        assert main(["decide", path, "--ledger", ledger]) == 1
        baseline = tmp_path / "BENCH_ledger.json"
        assert main(["report", "--ledger", ledger,
                     "--out", str(baseline)]) == 0
        capsys.readouterr()
        return ledger, str(baseline)

    def test_gate_passes_against_its_own_baseline(self, bundle_path,
                                                  tmp_path, capsys):
        ledger, baseline = self._baseline(bundle_path, tmp_path, capsys)
        assert main(["history", "--ledger", ledger,
                     "--baseline", baseline, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_gate_fails_under_synthetic_slowdown(self, bundle_path,
                                                 tmp_path, capsys):
        ledger, baseline = self._baseline(bundle_path, tmp_path, capsys)
        assert main(["history", "--ledger", ledger,
                     "--baseline", baseline, "--gate",
                     "--slowdown", "2.0"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "history gate FAILED" in captured.err

    def test_no_baselines_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["history", "--baseline", str(empty),
                     "--current", str(empty / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------
# The bench side: report_schema forwards rows to $REPRO_LEDGER
# ---------------------------------------------------------------------

class TestBenchLedgerForwarding:
    def test_write_report_appends_rows(self, tmp_path, monkeypatch,
                                       capsys):
        benchmarks = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks")
        monkeypatch.syspath_prepend(benchmarks)
        import report_schema

        ledger = str(tmp_path / "ledger.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", ledger)
        report = report_schema.bench_report(
            "engine",
            [report_schema.bench_row("rcdp/n=4", 0.25,
                                     ticks={"valuations": 16},
                                     verdicts={"complete": 1})],
            smoke=True)
        report_schema.write_report(str(tmp_path / "BENCH_engine.json"),
                                   report)
        capsys.readouterr()
        (record,) = read_ledger(ledger)
        assert record.procedure == "bench-engine"
        assert record.label == "rcdp/n=4"
        assert record.verdict == "complete"
        assert record.ticks == {"valuations": 16}
        assert record.extra == {"smoke": True}

    def test_silent_without_the_env_var(self, tmp_path, monkeypatch,
                                        capsys):
        benchmarks = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks")
        monkeypatch.syspath_prepend(benchmarks)
        import report_schema

        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        report_schema.write_report(
            str(tmp_path / "BENCH_x.json"),
            report_schema.bench_report("x", [], smoke=True))
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_x.json"]
