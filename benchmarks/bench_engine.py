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

A third section pins the observability contract: a governed decider run
with a *disabled* :class:`~repro.obs.Observation` attached must stay
within ``OBS_OFF_OVERHEAD`` of the same run with no observation at all
(the enabled-tracing cost is reported informationally), and so must the
same run plus one run-ledger append, timed where the search dominates.

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
    the indexed evaluators; verdicts and constraint checks
    cross-checked."""
    inputs = _workload(num_domestic)
    with seed_evaluators():
        naive_s, naive = _time(lambda: reference_rcdp(*inputs), repeats)
    indexed_s, indexed = _time(lambda: reference_rcdp(*inputs), repeats)
    engine_s, engine = _time(lambda: decide_rcdp(*inputs), repeats)
    stats = engine.statistics
    decided = (engine.status, stats.constraint_checks)
    for name, (status, _, checks) in (("naive", naive),
                                      ("indexed", indexed)):
        assert (status, checks) == decided, (
            f"{name} reference reads {status} after {checks} checks at "
            f"n={num_domestic}; the decider {decided}")
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


def bench_obs_overhead(num_domestic: int, repeats: int) -> dict:
    """The same governed decider run three ways: no observation,
    observation attached but disabled (what every governed production
    run pays), and observation enabled (full span capture).

    The variants differ *only* in the attachment — the disabled case
    exercises the ``obs_of``/null-span fast path at every instrumented
    site.
    """
    inputs = _workload(num_domestic)
    gov_s, (bare, _) = _time(lambda: _governed_decide(inputs), repeats)
    obs_off_s, (off, _) = _time(lambda: _governed_decide(inputs, False),
                                repeats)
    obs_on_s, (on, _) = _time(lambda: _governed_decide(inputs, True),
                              repeats)
    assert bare.status is off.status is on.status, (
        f"verdict changed under observation at n={num_domestic}")
    return {
        "num_domestic": num_domestic,
        "verdict": bare.status.value,
        "valuations": bare.statistics.valuations_examined,
        "gov_s": round(gov_s, 6),
        "obs_off_s": round(obs_off_s, 6),
        "obs_on_s": round(obs_on_s, 6),
        "off_overhead": round(obs_off_s / gov_s, 4) if gov_s else None,
        "on_overhead": round(obs_on_s / gov_s, 4) if gov_s else None,
    }


def bench_ledger_overhead(num_domestic: int, pairs: int) -> dict:
    """The governed decide against the same decide plus one crash-safe
    ``RunRecord`` append (what ``--ledger`` adds to a production run),
    at a size where the search dominates.

    The two run in alternating pairs, each pair in the opposite order
    to the last, after one untimed warm-up of each; the gate reads the
    median of the per-pair ratios, so a slow spell on the host moves
    both halves of a pair instead of one side of a best-of.
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

    times: dict[str, list[float]] = {"bare": [], "ledger": []}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        variants = [("bare", lambda: _governed_decide(inputs)),
                    ("ledger", lambda: with_ledger(path))]
        for _, fn in variants:
            fn()
        for index in range(pairs):
            for name, fn in variants[::-1 if index % 2 else 1]:
                start = time.perf_counter()
                result, _ = fn()
                times[name].append(time.perf_counter() - start)
    ratios = [led / bare for bare, led in zip(times["bare"],
                                              times["ledger"])]
    return {
        "num_domestic": num_domestic,
        "verdict": result.status.value,
        "valuations": result.statistics.valuations_examined,
        "pairs": pairs,
        "bare_s": round(statistics.median(times["bare"]), 6),
        "ledger_s": round(statistics.median(times["ledger"]), 6),
        "ratios": [round(ratio, 4) for ratio in ratios],
        "ledger_overhead": round(statistics.median(ratios), 4),
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
    # A 5% overhead gate needs noise suppression: a mid-ladder size
    # (long enough to time, short enough to repeat) and more best-of
    # rounds than the ablation rows.
    obs_size = 3 if args.smoke else 5
    obs_repeats = 2 if args.smoke else 5
    # The ledger append is a fixed cost, so its gate runs where the
    # search takes ~0.2 s, in alternating pairs.
    ledger_size = 3 if args.smoke else 8
    ledger_pairs = 3 if args.smoke else 11

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

    obs_row = bench_obs_overhead(obs_size, obs_repeats)
    print(f"obs-overhead n={obs_size}: governed {obs_row['gov_s']:.4f}s, "
          f"obs-off {obs_row['obs_off_s']:.4f}s "
          f"({obs_row['off_overhead']}x), "
          f"obs-on {obs_row['obs_on_s']:.4f}s "
          f"({obs_row['on_overhead']}x)")

    ledger_row = bench_ledger_overhead(ledger_size, ledger_pairs)
    print(f"ledger-overhead n={ledger_size}: governed "
          f"{ledger_row['bare_s']:.4f}s, with ledger "
          f"{ledger_row['ledger_s']:.4f}s, median of "
          f"{ledger_pairs} pair ratios {ledger_row['ledger_overhead']}x")

    largest = rcdp_rows[-1]
    rows = [bench_row(f"rcdp/n={row['num_domestic']}", row["engine_s"],
                      ticks={"valuations":
                             row["engine_stats"]["valuations_examined"]},
                      verdicts={row["verdict"]: 1}, extra=row)
            for row in rcdp_rows]
    rows += [bench_row(f"extension-check/n={row['num_domestic']}",
                       row["delta_s"], extra=row)
             for row in extension_rows]
    rows.append(bench_row(f"obs-overhead/n={obs_row['num_domestic']}",
                          obs_row["obs_off_s"],
                          ticks={"valuations": obs_row["valuations"]},
                          verdicts={obs_row["verdict"]: 1},
                          extra=obs_row))
    rows.append(bench_row(f"ledger-overhead/n={ledger_size}",
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
                   higher_is_better=False, enforced=not args.smoke),
        bench_gate("ledger_overhead", required=OBS_OFF_OVERHEAD,
                   measured=ledger_row["ledger_overhead"],
                   higher_is_better=False, enforced=not args.smoke,
                   note=f"decide + one RunRecord append vs bare governed "
                        f"decide at n={ledger_size}, median of "
                        f"{ledger_pairs} alternating pairs"),
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
