"""Tests of the benchmark itself (not of the library).

Run from the repository root::

    python -m pytest perfbench -q

They take about a minute: every stream of both workloads runs one
cycle, with the search sizes shrunk where the reference allows it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import measure
import references
import workloads


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every seeded search whose reference is computed rather
    than pinned; ``dense`` (q0) and ``general`` keep their pinned size.
    Generated bundles go to a temporary directory."""
    monkeypatch.setattr(workloads, "WORK", tmp_path)
    monkeypatch.setattr(workloads, "CORPUS_PER_FAMILY", 3)
    monkeypatch.setattr(workloads, "PRUNED_UNIVERSAL", 3)
    monkeypatch.setattr(workloads, "DENIAL_CUSTOMERS", 4)
    monkeypatch.setattr(workloads, "DENIAL_AREA_CODES", 3)
    monkeypatch.setattr(workloads, "RCQP_UNSAT", (4, 16))
    monkeypatch.setattr(workloads, "RCQP_SAT", (4, 8))


def _one_cycle(ops: list) -> list:
    return workloads.run_stream(ops, 0.0, min_ops=len(ops))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_stream_passes_at_tiny_size(tiny, workload):
    ops = workloads.build_ops(7, workloads.WORKLOADS[workload])
    samples = [s for stream in workloads.STREAMS
               for s in _one_cycle(ops[stream])]
    failed = [(s.op.name, s.outcome.detail) for s in samples if not s.ok]
    assert not failed
    kinds = {s.op.kind for s in samples}
    assert kinds == {"corpus", "cli", *workloads.HEAVY_KINDS}


def test_flipped_verdict_counts_as_failed(tiny, monkeypatch):
    from repro.core import rcdp
    from repro.core.results import RCDPResult, RCDPStatus

    original = rcdp.decide_rcdp
    flipped = []

    def flip_first(*args, **kwargs):
        result = original(*args, **kwargs)
        if flipped:
            return result
        flipped.append(result.status)
        status = (RCDPStatus.INCOMPLETE if result.is_complete
                  else RCDPStatus.COMPLETE)
        return RCDPResult(status=status, statistics=result.statistics)

    monkeypatch.setattr(rcdp, "decide_rcdp", flip_first)
    samples = _one_cycle(workloads.corpus_ops(
        7, 1, workloads.WORK / "flip"))
    assert flipped
    assert sum(not s.ok for s in samples) == 1


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, percentile, beyond = measure.tail(values)
    assert value == 89.0 and beyond == 10
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0
    assert measure.tail([float(v) for v in range(11)])[0] == 0.0
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def test_traced_pass_keeps_exact_counters(tiny):
    ops = workloads.build_ops(7, 1)
    chosen = ops["corpus"] + [op for op in ops["heavy"]
                              if op.kind in ("pruned", "denial", "rcqp")]
    plain = [workloads.run_op(op) for op in chosen]
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        traced = [workloads.run_op(op) for op in chosen]
    finally:
        uninstall()
    assert [s.outcome.counters for s in traced] \
        == [s.outcome.counters for s in plain]
    assert tracer.calls("analysis.validate") >= len(chosen)
    assert tracer.counts["valuations.count"] > 0
    from repro.core import rcdp
    assert not hasattr(rcdp.iter_valid_valuations, "__wrapped__")


def test_general_reference_matches_pinned_count():
    query, database, master, constraints = workloads.general_inputs(7)
    constants = (set(database.active_domain())
                 | set(master.active_domain()) | set(query.constants()))
    for constraint in constraints:
        constants |= set(constraint.query.constants())
    count = references.count_q0_extensions(
        set(database.relation("Cust")), set(master.relation("DCust")),
        constants, "908", "01")
    assert count == references.GENERAL_EXTENSIONS


def test_formula_mixes_are_true_and_false():
    from repro.solvers.sat import dpll_satisfiable

    for seed in (1, 2):
        assert [f.is_true() for f in workloads.pruned_formulas(seed)] \
            == [True, False]
        assert [dpll_satisfiable(cnf) is not None
                for cnf in workloads.rcqp_formulas(seed)] \
            == [False, True] * workloads.RCQP_RENAMINGS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
