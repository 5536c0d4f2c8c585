"""Parallel search benchmark: ``repro.parallel`` on Table-1 RCDP work.

The workload is the Theorem 3.6 true-family ``∀x1..xn ∃y ⋀(xi ∨ y)``:
the formula is always true, so the decider must certify COMPLETE by
*exhausting* the pruned valuation space — no early exit, which makes it
the honest scaling target for sharded search (every worker's slice must
actually be scanned, and the merged statistics must equal the serial
run's exactly).

For each size the decider runs serially and at each ``--workers`` count;
verdicts, explanations, and ``valuations_examined`` are cross-checked
for worker-count invariance, and the speedup over serial is reported.
Both modes gate on the largest rung, n=8 (769 valuations, ~673,000 work
units): at ``workers > 1`` a search first spends
``repro.core.search.HEAD_START`` units in-process, and n=5 (~7,200
units) ends there without reaching the pool.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke]
        [--stats-out STATS.json]

Writes ``BENCH_parallel.json`` (normalized ``report_schema`` shape;
with ``--stats-out``, also the merged ``SearchStatistics`` of every run
for CI artifact upload).  Speedup
gates apply only when the host actually has the cores to parallelize
on (``os.cpu_count()``): ≥ ``SMOKE_SPEEDUP`` at 2 workers in smoke mode
on ≥ 2 cores, ≥ ``FULL_SPEEDUP`` at 4 workers in full mode on ≥ 4
cores.  On smaller hosts the invariance checks still run and the gate
is skipped with a note — a 1-core container can validate determinism
but not wall-clock scaling.

A second gate is host-independent: the default supervised pool
(heartbeat snapshots + the supervisor's collection loop) must stay
within ``SUPERVISION_OVERHEAD`` of the retry-disabled pool on the same
fault-free 2-worker workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from report_schema import (bench_gate, bench_report, bench_row,
                           check_gates, write_report)
from repro.core.rcdp import decide_rcdp
from repro.core.results import RCDPStatus, SearchStatistics
from repro.reductions.qsat_to_rcdp import reduce_forall_exists_3sat_to_rcdp
from repro.solvers.qbf import ForallExists3SAT
from repro.solvers.sat import CNF

#: Required speedup at 4 workers (full mode, ≥ 4 cores).
FULL_SPEEDUP = 2.0
#: Required speedup at 2 workers (smoke mode, ≥ 2 cores).
SMOKE_SPEEDUP = 1.15
#: Max wall-clock ratio of the default supervised pool over the
#: retry-disabled pool (2 workers, best-of-N): heartbeat publishing and
#: the supervisor's collection loop must cost less than 5%.
SUPERVISION_OVERHEAD = 1.05


def _workload(num_universal: int):
    n = num_universal
    clauses = [(i, i, n + 1) for i in range(1, n + 1)]
    formula = ForallExists3SAT(list(range(1, n + 1)), [n + 1],
                               CNF(clauses))
    assert formula.is_true()
    return reduce_forall_exists_3sat_to_rcdp(formula)


def _time(fn, repeats: int):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_size(num_universal: int, worker_counts: list[int],
               repeats: int) -> dict:
    """One ladder rung: serial vs each worker count, invariance-checked."""
    instance = _workload(num_universal)
    args = (instance.query, instance.database, instance.master,
            list(instance.constraints))

    serial_s, serial = _time(lambda: decide_rcdp(*args), repeats)
    assert serial.status is RCDPStatus.COMPLETE
    row = {
        "universal_vars": num_universal,
        "valuations": serial.statistics.valuations_examined,
        "serial_s": round(serial_s, 6),
        "workers": {},
    }
    stats_rows = [{"workers": 1,
                   "statistics": dataclasses.asdict(serial.statistics)}]
    for count in worker_counts:
        elapsed, result = _time(
            lambda: decide_rcdp(*args, workers=count), repeats)
        assert result.status is serial.status, (
            f"verdict changed at workers={count}: {result.status}")
        assert result.explanation == serial.explanation, (
            f"explanation changed at workers={count}")
        # COMPLETE = full enumeration: the merged counters are exact.
        assert (result.statistics.valuations_examined
                == serial.statistics.valuations_examined), (
            f"merged valuations_examined diverged at workers={count}: "
            f"{result.statistics.valuations_examined} != "
            f"{serial.statistics.valuations_examined}")
        row["workers"][str(count)] = {
            "elapsed_s": round(elapsed, 6),
            "speedup": round(serial_s / elapsed, 2) if elapsed else None,
        }
        stats_rows.append(
            {"workers": count,
             "statistics": dataclasses.asdict(result.statistics)})
    row["stats_rows"] = stats_rows
    return row


def bench_supervision_overhead(num_universal: int, rounds: int) -> dict:
    """Supervised (default policy) vs retry-disabled pool at 2 workers.

    Fault-free runs, so the two pools do identical search work; the
    ratio isolates the cost of heartbeat snapshots plus the
    supervisor's collection loop.  Measured as the **median of paired
    ratios** over *rounds* back-to-back (disabled, supervised) pairs
    with alternating order inside each pair — host-load drift between
    samples then cancels within a pair instead of biasing a ratio of
    minima, which matters on small shared hosts.  No multi-core
    requirement."""
    import statistics

    from repro import ExecutionGovernor, RetryPolicy

    instance = _workload(num_universal)
    args = (instance.query, instance.database, instance.master,
            list(instance.constraints))

    def run(retry):
        start = time.perf_counter()
        result = decide_rcdp(*args, workers=2,
                             governor=ExecutionGovernor(retry=retry))
        elapsed = time.perf_counter() - start
        assert result.status is RCDPStatus.COMPLETE
        return elapsed, result

    ratios = []
    disabled_best = supervised_best = float("inf")
    for index in range(rounds):
        first, second = (None, RetryPolicy.disabled())
        if index % 2 == 0:
            first, second = second, first
        elapsed_a, result_a = run(first)
        elapsed_b, result_b = run(second)
        assert (result_a.statistics.valuations_examined
                == result_b.statistics.valuations_examined)
        disabled_s, supervised_s = ((elapsed_a, elapsed_b)
                                    if index % 2 == 0
                                    else (elapsed_b, elapsed_a))
        ratios.append(supervised_s / disabled_s)
        disabled_best = min(disabled_best, disabled_s)
        supervised_best = min(supervised_best, supervised_s)
    return {
        "universal_vars": num_universal,
        "rounds": rounds,
        "disabled_s": round(disabled_best, 6),
        "supervised_s": round(supervised_best, 6),
        "ratio": round(statistics.median(ratios), 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, single repeat, 2-worker gate "
                             "only (the CI mode)")
    parser.add_argument("--output", default="BENCH_parallel.json")
    parser.add_argument("--stats-out", default=None, metavar="PATH",
                        help="also write every run's merged "
                             "SearchStatistics as JSON (CI artifact)")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.smoke:
        sizes, worker_counts, repeats = [5, 6, 8], [2], 1
    else:
        sizes, worker_counts, repeats = [6, 7, 8], [2, 4], 2

    rows = []
    for size in sizes:
        row = bench_size(size, worker_counts, repeats)
        rows.append(row)
        per_worker = ", ".join(
            f"W={count} {data['elapsed_s']:.3f}s ({data['speedup']}x)"
            for count, data in row["workers"].items())
        print(f"n={size}: {row['valuations']} valuations, "
              f"serial {row['serial_s']:.3f}s, {per_worker}")

    overhead = bench_supervision_overhead(sizes[-1],
                                          rounds=5 if args.smoke else 9)
    print(f"supervision overhead (n={overhead['universal_vars']}, "
          f"2 workers, {overhead['rounds']} paired rounds): best "
          f"disabled {overhead['disabled_s']:.3f}s, best supervised "
          f"{overhead['supervised_s']:.3f}s -> median paired ratio "
          f"{overhead['ratio']}")

    gate_workers = 2 if args.smoke else 4
    required = SMOKE_SPEEDUP if args.smoke else FULL_SPEEDUP
    largest = rows[-1]
    measured = largest["workers"].get(str(gate_workers), {}).get("speedup")
    enforced = cores >= gate_workers and measured is not None
    note = None
    if not enforced:
        note = (f"host has {cores} core(s); wall-clock scaling is not "
                f"measurable, invariance checks only")
        print(f"speedup gate skipped: {note}")

    bench_rows = []
    for row in rows:
        detail = {key: value for key, value in row.items()
                  if key != "stats_rows"}
        bench_rows.append(bench_row(
            f"serial/n={row['universal_vars']}", row["serial_s"],
            ticks={"valuations": row["valuations"]},
            verdicts={"complete": 1}, extra=detail))
        for count, data in row["workers"].items():
            bench_rows.append(bench_row(
                f"workers={count}/n={row['universal_vars']}",
                data["elapsed_s"],
                ticks={"valuations": row["valuations"]},
                verdicts={"complete": 1},
                extra={"speedup": data["speedup"]}))
    bench_rows.append(bench_row(
        f"supervision-overhead/n={overhead['universal_vars']}",
        overhead["supervised_s"], verdicts={"complete": 1},
        extra=overhead))
    report = bench_report(
        "parallel", bench_rows, smoke=args.smoke,
        gates=[bench_gate(f"speedup_at_{gate_workers}_workers",
                          required=required, measured=measured,
                          enforced=enforced, note=note),
               bench_gate("supervision_overhead_at_2_workers",
                          required=SUPERVISION_OVERHEAD,
                          measured=overhead["ratio"],
                          higher_is_better=False,
                          # On a single core the 2-worker pool and the
                          # supervisor's heartbeat threads time-slice
                          # one CPU, so the ratio measures scheduler
                          # contention, not supervision cost.
                          enforced=cores >= 2,
                          note=(None if cores >= 2 else
                                f"host has {cores} core(s); the paired "
                                f"ratio is scheduler noise there"))],
        extra={"workload": "RCDP qsat true-family ∀x1..xn ∃y ⋀(xi ∨ y) "
                           "(Theorem 3.6 reduction, full enumeration)",
               "cores": cores})
    write_report(args.output, report)

    if args.stats_out:
        merged = SearchStatistics()
        for row in rows:
            for stats_row in row["stats_rows"]:
                merged = merged.merged(
                    SearchStatistics(**stats_row["statistics"]))
        payload = {
            "merged": dataclasses.asdict(merged),
            "runs": [{"universal_vars": row["universal_vars"],
                      "stats_rows": row["stats_rows"]} for row in rows],
        }
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        print(f"wrote {args.stats_out}")

    return check_gates(report, stream=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
