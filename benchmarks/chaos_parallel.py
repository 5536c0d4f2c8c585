"""Chaos harness: supervised parallel search under injected crashes.

Runs the Table-1 RCDP true-family workload at ``--workers`` (default 3)
with process-level fault injection — every governor tick is a
``--crash-probability`` chance the worker dies — across several seeds,
and asserts the supervised pool's contract on each run:

* the verdict, explanation, and exact full-enumeration statistics
  equal the serial run's (full differential equality);
* the supervision counters account for what happened (a crash was
  either retried or quarantined, never dropped), and the traced seed
  saw at least one crash and one retry: the workload (n=7 by default,
  ~20,000 work units) is large enough to leave the in-process head
  start (``repro.core.search.HEAD_START``) and reach the pool;
* the final seed's run is traced, and the trace passes the full
  ``check_trace`` accounting (span tree, per-lane overlap, root tick
  deltas vs. the governor ledger, ledger vs. statistics) — validate
  the written file independently with ``repro trace --check``.

Run from the repository root::

    PYTHONPATH=src:benchmarks python benchmarks/chaos_parallel.py
        [--seeds N] [--workers N] [--crash-probability P]
        [--trace-out FILE.jsonl]

Exits 0 when every seed upholds the contract, 1 otherwise.  The crash
probability must stay < 1: quarantine guarantees termination at any
rate, but a certain-crash schedule never exercises the retry path.
"""

from __future__ import annotations

import argparse
import sys
import time

from bench_parallel import _workload
from repro import Budget, ExecutionGovernor, FaultInjector, RetryPolicy
from repro.core.rcdp import decide_rcdp
from repro.core.results import RCDPStatus
from repro.obs import Observation, check_trace, trace_records, write_trace


def chaos_run(args_tuple, serial, *, workers: int, seed: int,
              crash_probability: float, observe: bool):
    governor = ExecutionGovernor(
        budget=Budget(),
        faults=FaultInjector(crash_probability=crash_probability,
                             seed=seed),
        retry=RetryPolicy(max_retries=2, backoff_base=0.001,
                          backoff_cap=0.05, heartbeat=0.05))
    if observe:
        Observation.attach(governor)
    start = time.perf_counter()
    result = decide_rcdp(*args_tuple, workers=workers, governor=governor)
    elapsed = time.perf_counter() - start

    problems = []
    if result.status is not serial.status:
        problems.append(f"verdict {result.status} != {serial.status}")
    if result.explanation != serial.explanation:
        problems.append("explanation diverged from serial")
    if (result.statistics.valuations_examined
            != serial.statistics.valuations_examined):
        problems.append(
            f"valuations_examined {result.statistics.valuations_examined}"
            f" != serial {serial.statistics.valuations_examined}")
    return governor, result, elapsed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--crash-probability", type=float, default=0.2)
    parser.add_argument("--size", type=int, default=7, metavar="N",
                        help="universal variables in the workload (the "
                             "search must outlast the head start to "
                             "reach the pool)")
    parser.add_argument("--trace-out", default="CHAOS_trace.jsonl")
    args = parser.parse_args(argv)
    if not 0.0 <= args.crash_probability < 1.0:
        parser.error("--crash-probability must be in [0, 1)")

    instance = _workload(args.size)
    decide_args = (instance.query, instance.database, instance.master,
                   list(instance.constraints))
    serial = decide_rcdp(*decide_args)
    assert serial.status is RCDPStatus.COMPLETE
    print(f"serial: {serial.status.name}, "
          f"{serial.statistics.valuations_examined} valuations")

    failed = 0
    crashes = retries = quarantines = 0
    for index in range(args.seeds):
        observe = index == args.seeds - 1
        governor, result, elapsed, problems = chaos_run(
            decide_args, serial, workers=args.workers, seed=index,
            crash_probability=args.crash_probability, observe=observe)
        counters = (governor.obs.metrics.counters if observe else {})
        status = "ok" if not problems else "FAIL"
        print(f"seed {index}: {status} {result.status.name} "
              f"{result.statistics.valuations_examined} valuations "
              f"in {elapsed:.2f}s")
        for problem in problems:
            print(f"  FAIL: {problem}", file=sys.stderr)
            failed += 1
        if observe:
            crashes = counters.get("parallel.crash", 0)
            retries = counters.get("parallel.retry", 0)
            quarantines = counters.get("parallel.quarantine", 0)
            observation = governor.obs
            observation.finalize(governor, result.statistics)
            payload = observation.payload()
            records = trace_records(
                payload["spans"], procedure="rcdp",
                command=f"chaos_parallel --seeds {args.seeds} "
                        f"--workers {args.workers}",
                metrics=payload["metrics"],
                statistics=result.statistics,
                ticks=dict(governor.budget.snapshot()),
                verdict=result.status.name, exhausted=False)
            trace_problems = check_trace(records)
            for problem in trace_problems:
                print(f"  FAIL trace: {problem}", file=sys.stderr)
                failed += 1
            write_trace(args.trace_out, records)
            # Every crash must be accounted for: retried or quarantined.
            if crashes > retries + quarantines:
                print(f"  FAIL: {crashes} crash(es) but only {retries} "
                      f"retry(s) + {quarantines} quarantine(s)",
                      file=sys.stderr)
                failed += 1
            if not (crashes and retries):
                print(f"  FAIL: {crashes} crash(es) and {retries} "
                      f"retry(s): the faults never reached a worker "
                      f"(does the search outlast the head start?)",
                      file=sys.stderr)
                failed += 1

    print(f"traced seed: {crashes} crash(es), {retries} retry(s), "
          f"{quarantines} quarantine(s); trace written to "
          f"{args.trace_out}")
    if failed:
        print(f"{failed} chaos check(s) failed", file=sys.stderr)
        return 1
    print(f"all {args.seeds} chaos seed(s) match the serial run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
