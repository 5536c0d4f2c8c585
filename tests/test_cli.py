"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.constraints.containment import (ContainmentConstraint,
                                           Projection)
from repro.io.json_io import dump_bundle
from repro.queries.atoms import rel
from repro.queries.cq import cq
from repro.queries.terms import var
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema, RelationSchema

ROOT = Path(__file__).resolve().parent.parent
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


class TestRCDPCommand:
    def test_complete_exit_zero(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        assert main(["rcdp", path]) == 0
        assert "complete" in capsys.readouterr().out

    def test_incomplete_exit_one_with_certificate(self, bundle_path,
                                                  capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["rcdp", path]) == 1
        out = capsys.readouterr().out
        assert "incomplete" in out
        assert "counterexample" in out


class TestRCQPCommand:
    def test_nonempty_exit_zero_with_witness(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["rcqp", path]) == 0
        out = capsys.readouterr().out
        assert "nonempty" in out
        assert "witness" in out


class TestCompleteCommand:
    def test_suggests_missing_facts(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["complete", path]) == 0
        out = capsys.readouterr().out
        assert "collect" in out
        assert "c2" in out


class TestDemoCommand:
    def test_runs_and_prints_audit(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "master data" in out
        assert "verdict" in out


class TestErrors:
    def test_missing_bundle_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["rcdp"])  # argparse: missing argument

    def test_broken_bundle_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": {"relations": []}, '
                        '"master_schema": {"relations": []}, '
                        '"database": {}, "master": {}, '
                        '"query": {"language": "CQ", "text": ""}, '
                        '"constraints": []}')
        assert main(["rcdp", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestAuditCommand:
    def test_trustworthy_exit_zero(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        assert main(["audit", path]) == 0
        assert "trustworthy" in capsys.readouterr().out

    def test_collect_data_exit_one(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["audit", path]) == 1
        out = capsys.readouterr().out
        assert "collect" in out


class TestMissingCommand:
    def test_lists_missing_answers(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["missing", path]) == 1
        out = capsys.readouterr().out
        assert "c2" in out

    def test_complete_database_reports_none(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        assert main(["missing", path]) == 0
        assert "relatively complete" in capsys.readouterr().out

    def test_limit_flag(self, bundle_path, capsys):
        path = bundle_path(set())
        assert main(["missing", path, "--limit", "1"]) == 1
        out = capsys.readouterr().out
        assert "1 answer(s)" in out

    def test_limit_zero_reports_the_find_that_trips_it(self, bundle_path,
                                                      capsys):
        path = bundle_path(set())
        assert main(["missing", path, "--limit", "0"]) == 1
        assert "at least 1 answer(s)" in capsys.readouterr().out

    def test_negative_limit_is_an_argument_error(self, bundle_path, capsys):
        path = bundle_path(set())
        with pytest.raises(SystemExit) as raised:
            main(["missing", path, "--limit", "-3"])
        assert raised.value.code == 2
        assert "--limit: must be at least 0" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_decide_alias_with_trace_profile_stats(self, bundle_path,
                                                   tmp_path, capsys):
        from repro.obs import check_trace, read_trace

        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["decide", path, "--trace", str(trace),
                     "--metrics", str(metrics), "--profile"]) == 1
        out = capsys.readouterr().out
        # satellite: engine counters surface in the statistics block
        assert "statistics:" in out
        assert "plans_compiled" in out
        assert "phase" in out and "decide_rcdp" in out
        # start-up: the bundle load is a root span of its own (a row
        # of the profile), and the decision's root span carries the
        # time from ``import repro`` to the verb
        assert "load" in {line.split()[0] for line in out.splitlines()
                          if line.strip()}
        records = read_trace(str(trace))
        assert check_trace(records) == []
        spans = {r["name"]: r for r in records if r.get("type") == "span"}
        assert spans["load"]["parent"] is None
        assert spans["load"]["end"] <= spans["decide_rcdp"]["start"]
        assert spans["decide_rcdp"]["attrs"]["import_s"] > 0
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert "governor.ticks.valuations" in snapshot["counters"]

    def test_traced_run_keeps_the_untraced_verdict(self, bundle_path,
                                                   tmp_path, capsys):
        path = bundle_path({("e0", "c1"), ("e0", "c2")})
        plain = main(["rcdp", path])
        traced = main(["rcdp", path, "--trace",
                       str(tmp_path / "t.jsonl")])
        assert traced == plain == 0

    @pytest.mark.usefixtures("no_head_start")
    def test_workers_two_trace_validates(self, bundle_path, tmp_path,
                                         capsys):
        from repro.obs import check_trace, read_trace

        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        assert main(["decide", path, "--workers", "2",
                     "--trace", str(trace)]) == 1
        records = read_trace(str(trace))
        assert check_trace(records) == []
        lanes = {(r.get("attrs") or {}).get("lane")
                 for r in records if r.get("type") == "span"
                 and r["name"] == "shard"}
        assert lanes == {"shard-0", "shard-1"}

    def test_stats_flag_without_observability(self, bundle_path, capsys):
        path = bundle_path({("e0", "c1")})
        assert main(["rcdp", path, "--stats"]) == 1
        assert "valuations_examined" in capsys.readouterr().out


class TestTraceCommand:
    def test_check_valid_trace(self, bundle_path, tmp_path, capsys):
        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        main(["decide", path, "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace), "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_renders_profile_by_default(self, bundle_path, tmp_path,
                                        capsys):
        path = bundle_path({("e0", "c1")})
        trace = tmp_path / "trace.jsonl"
        main(["decide", path, "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "decide_rcdp" in out

    def test_check_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["trace", str(bad), "--check"]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_flags_invalid_span_tree(self, tmp_path, capsys):
        import json

        bad = tmp_path / "orphan.jsonl"
        records = [
            {"type": "header", "version": 1, "procedure": "rcdp",
             "command": None},
            {"type": "span", "id": 1, "parent": 99, "name": "analyze",
             "start": 0.0, "end": 1.0, "dur": 1.0, "ticks": {},
             "attrs": {}},
        ]
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                       encoding="utf-8")
        assert main(["trace", str(bad), "--check"]) == 2
        assert "orphan" in capsys.readouterr().out


def _fresh_interpreter(script: str, *args: str) -> str:
    """Run *script* in a new interpreter on this checkout's sources and
    return its last line of standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return done.stdout.splitlines()[-1]


class TestImportBoundary:
    """A verb imports only the modules it runs: package ``__init__``s
    resolve their re-exports on first access, and the other verbs'
    modules are imported inside those verbs."""

    #: Modules a ``decide`` process has no use for: other verbs, the
    #: analyzer's flow and cost passes, the ledger and exporters, and
    #: the worker pool (``workers=1`` runs in-process, and so does a
    #: search that ends in its head at ``workers > 1``).
    NOT_NEEDED_TO_DECIDE = (
        "repro.corpus.generate", "repro.corpus.runner", "repro.mdm",
        "repro.incomplete", "repro.analysis.cost", "repro.analysis.flow",
        "repro.analysis.interaction", "repro.obs.ledger",
        "repro.obs.export", "repro.obs.progress", "repro.core.rcqp",
        "repro.core.bounded", "repro.core.witness", "repro.parallel",
        "multiprocessing")

    def _decide_loads(self, *flags: str) -> list[str]:
        script = (
            "import json, runpy, sys\n"
            "sys.argv = ['repro', 'decide', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        bundle = ROOT / "examples" / "bundles" / "crm_q2_supported_ind.json"
        return json.loads(_fresh_interpreter(script, str(bundle), *flags))

    def test_decide_loads_only_the_decision_path(self):
        loaded = self._decide_loads()
        assert [m for m in self.NOT_NEEDED_TO_DECIDE if m in loaded] == []
        ours = [m for m in loaded if m == "repro" or m.startswith("repro.")]
        assert len(ours) <= 50

    def test_two_workers_ending_in_the_head_load_no_pool(self):
        """At ``--workers 2`` this decision ends in its in-process head
        (51 work units), so the pool is never imported."""
        loaded = self._decide_loads("--workers", "2")
        assert [m for m in self.NOT_NEEDED_TO_DECIDE if m in loaded] == []

    def test_importing_the_package_loads_no_submodule(self):
        script = ("import json, sys\n"
                  "import repro\n"
                  "print(json.dumps([m for m in sys.modules\n"
                  "                  if m.startswith('repro.')]))\n")
        assert json.loads(_fresh_interpreter(script)) == []
