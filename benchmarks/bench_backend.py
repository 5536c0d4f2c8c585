"""Storage-backend benchmark: python vs columnar vs sqlite.

Times the Table-1 RCDP workload (``Q2`` under ``supt⊆dcust`` and the
at-most-k constraint ``φ1`` on generated CRM scenarios — the same
workload as ``bench_engine.py``) with the engine's instance storage
swapped between the three backends.  A storage evaluates whole plans
over the base instance (``Q(D)`` and the constraints' ``q(D)``); every
candidate's check runs the engine's semi-naive delta plans over the
base's hash indexes, the same on every backend:

* **python** — the default frozenset-of-tuples storage with indexed
  tuple-at-a-time joins (the baseline);
* **columnar** — interned constants and set-at-a-time batch joins;
* **sqlite** — the whole compiled plan lowered to a single SQL
  statement over an in-memory SQLite database.

Verdicts and search statistics (valuations examined, constraint
checks) are cross-checked between the backends on every row: the
backends differ in *how* they evaluate, never in *what* they decide.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_backend.py [--smoke]

Writes ``BENCH_backend.json`` (normalized ``report_schema`` shape) and,
unless ``--smoke``, gates on the best alternative backend's ≥ 10×
speedup over the python backend at the largest scenario size.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from report_schema import (bench_gate, bench_report, bench_row,
                           check_gates, write_report)
from repro.core.rcdp import decide_rcdp
from repro.mdm.generators import GeneratorConfig, generate_scenario

REQUIRED_SPEEDUP = 10.0
BACKENDS = ("python", "columnar", "sqlite")


def _scenario(num_domestic: int):
    config = GeneratorConfig(
        num_domestic=num_domestic, num_international=0,
        num_employees=3, support_probability=1.0,
        missing_support_fraction=0.0)
    return generate_scenario(config, random.Random(42))


def _time(fn, repeats: int) -> tuple[float, object]:
    """Best-of-*repeats* wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_backends(num_domestic: int, repeats: int) -> dict:
    """Full decider once per backend, verdicts and search statistics
    cross-checked.

    Every employee supports exactly ``k = num_domestic - 1`` customers
    while master data holds one more, so every candidate extension the
    search proposes passes the IND prefilter and must be rejected by
    the (k+1)-way φ1 self-join.  φ1's target is the empty set, so a
    violation is "any answer exists", and each check stops at its
    first new answer.  The backends differ only in their whole-plan
    evaluations, so the rows time storage attach, bulk load and
    ``q(D)`` beside checks every backend shares.
    """
    scenario = _scenario(num_domestic)
    spare = f"c{num_domestic - 1}"
    missing = [(f"e{i}", spare) for i in range(3)]
    database = scenario.database(missing_support=missing)
    master = scenario.master()
    k = num_domestic - 1
    constraints = [scenario.supt_cid_ind(), scenario.phi1_at_most_k(k)]
    query = scenario.q2_all_supported_by("e0")

    row: dict = {
        "num_domestic": num_domestic,
        "k": k,
        "supt_rows": len(database.relation("Supt")),
    }
    results = {}
    for backend in BACKENDS:
        # Each timed call builds a fresh context (backend=...) so plan
        # compilation, storage attach, and bulk load are all included —
        # the backends compete on whole-decision wall time.
        seconds, result = _time(
            lambda backend=backend: decide_rcdp(
                query, database, master, constraints, backend=backend),
            repeats)
        results[backend] = result
        row[f"{backend}_s"] = round(seconds, 6)
    baseline = results["python"]
    row["verdict"] = baseline.status.value
    for backend in BACKENDS[1:]:
        other = results[backend]
        assert other.status is baseline.status, (
            f"verdict mismatch at n={num_domestic}: "
            f"{backend} {other.status}, python {baseline.status}")
        assert (other.statistics.valuations_examined
                == baseline.statistics.valuations_examined), (
            f"search divergence at n={num_domestic}: {backend} examined "
            f"{other.statistics.valuations_examined} valuations, python "
            f"{baseline.statistics.valuations_examined}")
        assert (other.statistics.constraint_checks
                == baseline.statistics.constraint_checks), (
            f"search divergence at n={num_domestic}: {backend} ran "
            f"{other.statistics.constraint_checks} constraint checks, "
            f"python {baseline.statistics.constraint_checks}")
        row[f"{backend}_speedup"] = (
            round(row["python_s"] / row[f"{backend}_s"], 2)
            if row[f"{backend}_s"] else None)
    row["valuations_examined"] = baseline.statistics.valuations_examined
    row["constraint_checks"] = baseline.statistics.constraint_checks
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, single repeat, no speedup gate "
                             "(the CI mode)")
    parser.add_argument("--output", default="BENCH_backend.json")
    args = parser.parse_args(argv)

    sizes = [2, 3] if args.smoke else [3, 4, 5, 6]
    repeats = 1 if args.smoke else 3

    bench_rows = []
    for size in sizes:
        # The python backend is best-of-1 at the largest size: one run
        # already takes seconds and the alternatives are timed within
        # the same row.
        row = bench_backends(size, 1 if size >= 6 else repeats)
        bench_rows.append(row)
        print(f"rcdp n={size}: python {row['python_s']:.4f}s, "
              f"columnar {row['columnar_s']:.4f}s "
              f"({row['columnar_speedup']}x), "
              f"sqlite {row['sqlite_s']:.4f}s "
              f"({row['sqlite_speedup']}x), verdict {row['verdict']}")

    largest = bench_rows[-1]
    best_speedup = max(largest["columnar_speedup"] or 0.0,
                       largest["sqlite_speedup"] or 0.0)
    rows = [bench_row(f"rcdp/n={row['num_domestic']}", row["python_s"],
                      ticks={"valuations": row["valuations_examined"]},
                      verdicts={row["verdict"]: 1}, extra=row)
            for row in bench_rows]
    gates = [
        bench_gate("backend_speedup", required=REQUIRED_SPEEDUP,
                   measured=best_speedup, enforced=not args.smoke,
                   note="best of columnar/sqlite vs the python backend "
                        "at the largest size"),
    ]
    report = bench_report(
        "backend", rows, smoke=args.smoke, gates=gates,
        extra={"workload": "RCDP Q2 + {supt⊆dcust, φ1(at-most-k)} on "
                           "generated CRM scenarios (Table-1 (CQ, CQ) "
                           "row), storage backend ablation",
               "backends": list(BACKENDS),
               "required_speedup": REQUIRED_SPEEDUP,
               "largest_size_best_speedup": best_speedup})
    write_report(args.output, report)
    return check_gates(report, stream=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
