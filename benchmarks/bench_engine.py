"""Engine ablation benchmark: naive vs indexed vs delta evaluation.

Times the Table-1 RCDP workload that motivated the engine — ``Q2`` under
the Example 2.1 constraints ``supt⊆dcust`` (IND) and ``φ1`` (at-most-k,
a (k+1)-way ``Supt`` self-join with pairwise inequalities) on generated
CRM scenarios — three ways:

* **naive** — the materializing reference
  (:func:`reference_rcdp.reference_rcdp`: the decider's candidates, each
  ``D ∪ Δ`` materialized and checked from scratch) on the pre-engine
  backtracking evaluators;
* **indexed** — the same reference on the engine-backed ``evaluate``
  (compiled plans over per-call indexes, no shared context);
* **engine** — ``decide_rcdp``: compiled plans, hash-indexed joins,
  memoized master projections, and a check program per tableau deciding
  each valuation's extension check on the delta path.

A second section isolates the evaluation strategies on the φ1 check
itself (the decider hot loop's unit of work): naive re-evaluation vs
indexed re-evaluation vs the semi-naive delta rule.

A third section times ``count_completing_extensions`` on the
``general`` shape (one 908-area domestic customer, one international
customer, the default CRM constraints): 28,561 valuations and 26,364
check-program calls, the check layer's many-cheap-checks end, on the
python backend and on sqlite (which evaluates the whole plans of
``Q(D)`` in SQL and runs the checks on the same python delta plans).
Its count and the counters no backend changes are asserted in every
mode.

A fourth section pins the observability contract: a governed decider
run with a *disabled* :class:`~repro.obs.Observation` attached must stay
within ``OBS_OFF_OVERHEAD`` of the same run with no observation at all
(the enabled-tracing cost is reported informationally), and so must the
same run plus one run-ledger append.  Both are timed where the search
dominates, in alternating rounds, and gate the median per-round ratio;
each row records the ratios' interquartile range beside it.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke]

Writes ``BENCH_engine.json`` (normalized ``report_schema`` shape) and,
unless ``--smoke``, gates on the engine's ≥ 5× speedup over naive at
the largest scenario size and on the disabled-observation and ledger
overheads.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

from reference_rcdp import reference_rcdp
from report_schema import (bench_gate, bench_report, bench_row,
                           check_gates, write_report)
from repro.core.rcdp import decide_rcdp
from repro.engine import EvaluationContext
from repro.incomplete.counting import count_completing_extensions
from repro.mdm.generators import GeneratorConfig, generate_scenario
from repro.obs import Observation
from repro.obs.ledger import RunRecord, append_record, run_key
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instance import extend_unvalidated
from repro.runtime import Budget, ExecutionGovernor

REQUIRED_SPEEDUP = 5.0
#: Disabled tracing must cost < 5% on a governed decider run.
OBS_OFF_OVERHEAD = 1.05
#: The ``general`` count and its exact counters that every backend
#: shares (shape-determined: the generator's draw only picks names and
#: the department).
GENERAL_COUNT = 24_336
GENERAL_COUNTERS = {"valuations_examined": 28_561,
                    "constraint_checks": 26_364,
                    "delta_evaluations": 52_728,
                    "full_evaluations": 4}


@contextmanager
def seed_evaluators():
    """Restore the pre-engine behavior: ``evaluate`` becomes the
    backtracking ``evaluate_naive`` (kept on every query class as the
    testing oracle).  This is the honest *naive* baseline — plain
    ``evaluate`` is engine-backed even without a context."""
    patched = []
    for cls in (ConjunctiveQuery, UnionOfConjunctiveQueries):
        patched.append((cls, cls.evaluate))
        cls.evaluate = (
            lambda self, instance, *, context=None:
            self.evaluate_naive(instance))
    try:
        yield
    finally:
        for cls, original in patched:
            cls.evaluate = original


def _scenario(num_domestic: int):
    config = GeneratorConfig(
        num_domestic=num_domestic, num_international=0,
        num_employees=3, support_probability=1.0,
        missing_support_fraction=0.0)
    return generate_scenario(config, random.Random(42))


def _workload(num_domestic: int) -> tuple:
    """``(Q2, D, Dm, V)`` at *num_domestic* customers: every employee
    supports exactly ``k = num_domestic - 1`` of them while master data
    holds one more, so every candidate extension the search proposes
    passes the IND prefilter and must be rejected by the (k+1)-way φ1
    self-join — the decider certifies COMPLETE through the expensive
    constraint-check path."""
    scenario = _scenario(num_domestic)
    spare = f"c{num_domestic - 1}"
    database = scenario.database(
        missing_support=[(f"e{i}", spare) for i in range(3)])
    constraints = [scenario.supt_cid_ind(),
                   scenario.phi1_at_most_k(num_domestic - 1)]
    return (scenario.q2_all_supported_by("e0"), database, scenario.master(),
            constraints)


def _time(fn, repeats: int) -> tuple[float, object]:
    """Best-of-*repeats* wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_rcdp(num_domestic: int, repeats: int) -> dict:
    """The decider against the materializing reference on the naive and
    the indexed evaluators; verdicts, constraint checks and valuations
    examined cross-checked."""
    inputs = _workload(num_domestic)
    with seed_evaluators():
        naive_s, naive = _time(lambda: reference_rcdp(*inputs), repeats)
    indexed_s, indexed = _time(lambda: reference_rcdp(*inputs), repeats)
    engine_s, engine = _time(lambda: decide_rcdp(*inputs), repeats)
    stats = engine.statistics
    decided = (engine.status, stats.constraint_checks,
               stats.valuations_examined)
    for name, (status, _, checks, examined) in (("naive", naive),
                                                ("indexed", indexed)):
        assert (status, checks, examined) == decided, (
            f"{name} reference reads {status} after {checks} checks of "
            f"{examined} valuations at n={num_domestic}; the decider "
            f"{decided}")
    return {
        "num_domestic": num_domestic,
        "k": num_domestic - 1,
        "supt_rows": len(inputs[1].relation("Supt")),
        "verdict": engine.status.value,
        "naive_s": round(naive_s, 6),
        "indexed_s": round(indexed_s, 6),
        "engine_s": round(engine_s, 6),
        "indexed_speedup": round(naive_s / indexed_s, 2)
        if indexed_s else None,
        "speedup": round(naive_s / engine_s, 2) if engine_s else None,
        "engine_stats": {
            "valuations_examined": stats.valuations_examined,
            "plans_compiled": stats.plans_compiled,
            "index_builds": stats.index_builds,
            "engine_cache_hits": stats.engine_cache_hits,
            "delta_evaluations": stats.delta_evaluations,
            "full_evaluations": stats.full_evaluations,
        },
    }


def _general_inputs() -> tuple:
    """``(Q0, D, Dm, V)`` on the ``general`` shape: one domestic
    customer in the 908 area (draws are retried until it is), supported
    by one employee, and one international customer, under the default
    constraints (φ0, cust01, the management IND)."""
    config = GeneratorConfig(num_domestic=1, num_international=1,
                             num_employees=1, support_probability=1.0,
                             management_depth=0)
    attempt = 0
    while True:
        scenario = generate_scenario(
            config, random.Random(f"bench-engine:general:{attempt}"))
        if scenario.domestic[0].ac == "908":
            return (scenario.q0_customers_with_area_code(),
                    scenario.database(), scenario.master(),
                    scenario.default_constraints())
        attempt += 1


def bench_counting(repeats: int, backend: str = "python") -> dict:
    """``count_completing_extensions`` on the ``general`` shape and
    *backend*; the count and the shared counters are asserted."""
    inputs = _general_inputs()
    count_s, report = _time(
        lambda: count_completing_extensions(*inputs, backend=backend),
        repeats)
    stats = report.statistics
    counters = {name: getattr(stats, name) for name in GENERAL_COUNTERS}
    assert report.exhaustive and report.count == GENERAL_COUNT, report
    assert counters == GENERAL_COUNTERS, counters
    return {
        "backend": backend,
        "count": report.count,
        "count_s": round(count_s, 6),
        "us_per_valuation": round(
            count_s / stats.valuations_examined * 1e6, 3),
        "engine_stats": dict(
            counters, plans_compiled=stats.plans_compiled,
            index_builds=stats.index_builds,
            engine_cache_hits=stats.engine_cache_hits),
    }


def bench_extension_check(num_domestic: int, repeats: int) -> dict:
    """One hot-loop unit of work, three ways: is the φ1 query's answer
    changed by adding a single Supt fact?"""
    scenario = _scenario(num_domestic)
    database = scenario.database()
    k = num_domestic
    phi1 = scenario.phi1_at_most_k(k).query
    delta = [("Supt", ("e0", "sales", f"c{num_domestic}"))]

    def naive():
        return phi1.evaluate_naive(extend_unvalidated(database, delta))

    def indexed():
        return phi1.evaluate(extend_unvalidated(database, delta))

    context = EvaluationContext()
    context.evaluate(phi1, database)  # warm: Q(D) cached, indexes built

    def via_delta():
        return context.evaluate_extension(phi1, database, delta)

    naive_s, naive_rows = _time(naive, repeats)
    indexed_s, indexed_rows = _time(indexed, repeats)
    delta_s, delta_rows = _time(via_delta, repeats)
    assert naive_rows == indexed_rows == delta_rows
    return {
        "num_domestic": num_domestic,
        "k": k,
        "naive_s": round(naive_s, 6),
        "indexed_s": round(indexed_s, 6),
        "delta_s": round(delta_s, 6),
        "indexed_speedup": round(naive_s / indexed_s, 2)
        if indexed_s else None,
        "delta_speedup": round(naive_s / delta_s, 2) if delta_s else None,
    }


def _governed_decide(inputs: tuple, attach: bool | None = None):
    """One governed decision on a fresh governor with an unlimited tick
    ledger, with an :class:`Observation` attached (enabled or disabled)
    unless *attach* is None."""
    governor = ExecutionGovernor(budget=Budget())
    if attach is not None:
        Observation.attach(governor, enabled=attach)
    return decide_rcdp(*inputs, governor=governor), governor


def _alternating(variants: list, rounds: int) -> tuple[dict, object]:
    """Wall times of each ``(name, fn)`` variant over *rounds* rounds,
    after one untimed warm-up of each, every round in the opposite order
    to the last (a slow spell on the host moves all of a round instead
    of one variant); also the last return value."""
    times: dict[str, list[float]] = {name: [] for name, _ in variants}
    for _, fn in variants:
        value = fn()
    for index in range(rounds):
        for name, fn in variants[::-1 if index % 2 else 1]:
            start = time.perf_counter()
            value = fn()
            times[name].append(time.perf_counter() - start)
    return times, value


def _ratios(times: dict[str, list[float]], name: str) -> list[float]:
    """Per-round ratios of variant *name* to the ``bare`` variant."""
    return [mine / bare for bare, mine in zip(times["bare"], times[name])]


def _iqr(ratios: list[float]) -> float:
    """The interquartile range of per-round *ratios*."""
    first, _, third = statistics.quantiles(ratios, n=4)
    return round(third - first, 4)


def bench_obs_overhead(num_domestic: int, rounds: int) -> dict:
    """The same governed decider run three ways: no observation,
    observation attached but disabled (what every governed production
    run pays), and observation enabled (full span capture), in
    alternating rounds; the gate reads the median of the per-round
    disabled/bare ratios.

    The variants differ *only* in the attachment — the disabled case
    exercises the ``obs_of``/null-span fast path at every instrumented
    site.
    """
    inputs = _workload(num_domestic)
    verdicts = set()

    def decide(attach: bool | None):
        result, _ = _governed_decide(inputs, attach)
        verdicts.add(result.status)
        return result

    times, result = _alternating([("bare", lambda: decide(None)),
                                  ("off", lambda: decide(False)),
                                  ("on", lambda: decide(True))], rounds)
    assert len(verdicts) == 1, (
        f"verdict changed under observation at n={num_domestic}")
    off, on = _ratios(times, "off"), _ratios(times, "on")
    return {
        "num_domestic": num_domestic,
        "verdict": result.status.value,
        "valuations": result.statistics.valuations_examined,
        "rounds": rounds,
        "gov_s": round(statistics.median(times["bare"]), 6),
        "obs_off_s": round(statistics.median(times["off"]), 6),
        "obs_on_s": round(statistics.median(times["on"]), 6),
        "off_ratios": [round(ratio, 4) for ratio in off],
        "off_overhead": round(statistics.median(off), 4),
        "off_iqr": _iqr(off),
        "on_overhead": round(statistics.median(on), 4),
    }


def bench_ledger_overhead(num_domestic: int, pairs: int) -> dict:
    """The governed decide against the same decide plus one crash-safe
    ``RunRecord`` append (what ``--ledger`` adds to a production run),
    at a size where the search dominates, in alternating pairs; the gate
    reads the median of the per-pair ratios.
    """
    inputs = _workload(num_domestic)
    key = run_key("rcdp", *inputs)

    def with_ledger(path: str):
        result, governor = _governed_decide(inputs)
        append_record(path, RunRecord(
            procedure="rcdp", label=f"bench-n{num_domestic}", key=key,
            verdict=result.status.value,
            ticks=dict(governor.budget.snapshot()),
            statistics={"valuations_examined":
                        result.statistics.valuations_examined}))
        return result, governor

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        times, (result, _) = _alternating(
            [("bare", lambda: _governed_decide(inputs)),
             ("ledger", lambda: with_ledger(path))], pairs)
    ratios = _ratios(times, "ledger")
    return {
        "num_domestic": num_domestic,
        "verdict": result.status.value,
        "valuations": result.statistics.valuations_examined,
        "pairs": pairs,
        "bare_s": round(statistics.median(times["bare"]), 6),
        "ledger_s": round(statistics.median(times["ledger"]), 6),
        "ratios": [round(ratio, 4) for ratio in ratios],
        "ledger_overhead": round(statistics.median(ratios), 4),
        "ledger_iqr": _iqr(ratios),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, single repeat, no speedup gate "
                             "(the CI mode)")
    parser.add_argument("--output", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    rcdp_sizes = [2, 3] if args.smoke else [3, 4, 5, 6]
    extension_sizes = [2, 3] if args.smoke else [3, 4, 5, 6]
    repeats = 1 if args.smoke else 3
    # A 5% overhead gate needs noise suppression: both overhead gates
    # run where the search takes ~0.2 s, in 31 alternating rounds (at
    # 11, two full runs of one tree could read either side of 1.05).
    overhead_size = 3 if args.smoke else 8
    overhead_rounds = 3 if args.smoke else 31

    rcdp_rows = []
    for size in rcdp_sizes:
        # The naive decider is best-of-1: at the largest size one run
        # already takes tens of seconds.
        row = bench_rcdp(size, 1 if size >= 6 else repeats)
        rcdp_rows.append(row)
        print(f"rcdp n={size}: naive {row['naive_s']:.4f}s, "
              f"indexed {row['indexed_s']:.4f}s "
              f"({row['indexed_speedup']}x), "
              f"engine {row['engine_s']:.4f}s "
              f"({row['speedup']}x), verdict {row['verdict']}")

    extension_rows = []
    for size in extension_sizes:
        row = bench_extension_check(size, repeats)
        extension_rows.append(row)
        print(f"extension-check n={size}: naive {row['naive_s']:.4f}s, "
              f"indexed {row['indexed_s']:.4f}s "
              f"({row['indexed_speedup']}x), "
              f"delta {row['delta_s']:.4f}s ({row['delta_speedup']}x)")

    counting_rows = [bench_counting(repeats, backend)
                     for backend in ("python", "sqlite")]
    for row in counting_rows:
        print(f"count-ext general ({row['backend']}): {row['count']} "
              f"extensions in {row['count_s']:.4f}s "
              f"({row['us_per_valuation']} us/valuation)")

    obs_row = bench_obs_overhead(overhead_size, overhead_rounds)
    print(f"obs-overhead n={overhead_size}: governed "
          f"{obs_row['gov_s']:.4f}s, obs-off {obs_row['obs_off_s']:.4f}s, "
          f"obs-on {obs_row['obs_on_s']:.4f}s; median of "
          f"{overhead_rounds} round ratios: off {obs_row['off_overhead']}x "
          f"(IQR {obs_row['off_iqr']}), on {obs_row['on_overhead']}x")

    ledger_row = bench_ledger_overhead(overhead_size, overhead_rounds)
    print(f"ledger-overhead n={overhead_size}: governed "
          f"{ledger_row['bare_s']:.4f}s, with ledger "
          f"{ledger_row['ledger_s']:.4f}s, median of "
          f"{overhead_rounds} pair ratios {ledger_row['ledger_overhead']}x "
          f"(IQR {ledger_row['ledger_iqr']})")

    largest = rcdp_rows[-1]
    rows = [bench_row(f"rcdp/n={row['num_domestic']}", row["engine_s"],
                      ticks={"valuations":
                             row["engine_stats"]["valuations_examined"]},
                      verdicts={row["verdict"]: 1}, extra=row)
            for row in rcdp_rows]
    rows += [bench_row(f"extension-check/n={row['num_domestic']}",
                       row["delta_s"], extra=row)
             for row in extension_rows]
    rows += [bench_row(
        "count-ext/general" + ("" if row["backend"] == "python"
                               else f"/{row['backend']}"),
        row["count_s"],
        ticks={"valuations": row["engine_stats"]["valuations_examined"]},
        extra=row) for row in counting_rows]
    rows.append(bench_row(f"obs-overhead/n={obs_row['num_domestic']}",
                          obs_row["obs_off_s"],
                          ticks={"valuations": obs_row["valuations"]},
                          verdicts={obs_row["verdict"]: 1},
                          extra=obs_row))
    rows.append(bench_row(f"ledger-overhead/n={overhead_size}",
                          ledger_row["ledger_s"],
                          ticks={"valuations": ledger_row["valuations"]},
                          verdicts={ledger_row["verdict"]: 1},
                          extra=ledger_row))
    gates = [
        bench_gate("engine_speedup", required=REQUIRED_SPEEDUP,
                   measured=largest["speedup"],
                   enforced=not args.smoke),
        bench_gate("obs_disabled_overhead", required=OBS_OFF_OVERHEAD,
                   measured=obs_row["off_overhead"],
                   higher_is_better=False, enforced=not args.smoke,
                   note=f"governed decide with a disabled Observation vs "
                        f"bare governed decide at n={overhead_size}, "
                        f"median of {overhead_rounds} alternating rounds"),
        bench_gate("ledger_overhead", required=OBS_OFF_OVERHEAD,
                   measured=ledger_row["ledger_overhead"],
                   higher_is_better=False, enforced=not args.smoke,
                   note=f"decide + one RunRecord append vs bare governed "
                        f"decide at n={overhead_size}, median of "
                        f"{overhead_rounds} alternating pairs"),
    ]
    report = bench_report(
        "engine", rows, smoke=args.smoke, gates=gates,
        extra={"workload": "RCDP Q2 + {supt⊆dcust, φ1(at-most-k)} on "
                           "generated CRM scenarios (Table-1 (CQ, CQ) "
                           "row)",
               "required_speedup": REQUIRED_SPEEDUP,
               "largest_size_speedup": largest["speedup"]})
    write_report(args.output, report)
    return check_gates(report, stream=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
