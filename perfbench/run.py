"""The repository benchmark: one command, two workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serial --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same ops once untraced and once with per-layer spans installed, and
prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Everything above it is a human-readable report: inputs and their
digests, per-stream statistics, exact counters and failed ops.

The benchmark needs the checkout's ``src/`` and ``examples/bundles/``;
without them it exits with status 2 and prints no result.  See
``perfbench/README.md`` for the workloads, metrics and recorded numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from measure import host_factor, median, peak_rss_mb, process_factor, tail
from workloads import (BUNDLES, SRC, WORK, WORKLOADS, add_counters, digest,
                       run_op)

HERE = Path(__file__).resolve().parent
#: The warm-up op of a set-up probe: a shipped golden, so a probe does
#: no input generation.
WARMUP_BUNDLE = BUNDLES / "gen_crm_golden.json"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Share of ``--seconds`` each stream runs for, in this order.
SHARE = {"corpus": 0.12, "heavy": 0.64, "cli": 0.24}
#: How each stream's loop ends.  Heavy and CLI ops run in whole cycles
#: so every kind and bundle is equally represented: three heavy cycles
#: give each search kind a median of three, four CLI cycles (28 ops) put
#: the tail (ten ops beyond it) above the median.  The corpus is a
#: stream of distinct scenarios, cut when the budget ends.
LOOP = {"corpus": {"min_ops": 200, "whole_cycles": False},
        "heavy": {"min_ops": 3 * 5},
        "cli": {"min_ops": 4 * 7}}
#: Repetitions of each CLI start-up probe in a traced run.
CLI_PROBES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup",),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up and CLI start-up probes (fresh processes)
# ---------------------------------------------------------------------------


def setup_probe(workers: int, spawned_at: float) -> int:
    """Child side of a set-up probe: import the package, run one
    warm-up decision, report seconds since the parent spawned us."""
    import repro  # noqa: F401  (the import is what is being timed)
    from repro.core.rcdp import decide_rcdp
    from repro.io.json_io import load_bundle

    bundle = load_bundle(str(WARMUP_BUNDLE))
    decide_rcdp(bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"], workers=workers)
    print(json.dumps({"setup_s": time.perf_counter() - spawned_at}))
    return 0


def measure_setup(workload: str, env: dict) -> tuple[list, list]:
    """``setup_s`` samples: process start through ``import repro`` and
    one warm-up op, in fresh interpreters.  ``perf_counter`` is the
    system-wide monotonic clock on Linux, so parent and child agree.
    Returns the raw seconds and the process-start gauge readings taken
    before each probe and after the last."""
    values, readings = [], []
    for _ in range(SETUP_PROBES):
        readings.append(process_factor(env))
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", "setup",
             "--workload", workload, "--spawned-at", repr(spawned)],
            capture_output=True, text=True, env=env, timeout=120,
            check=True)
        values.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    readings.append(process_factor(env))
    return values, readings


_FIRST_CALL = """
import json, sys, time
from repro.core.rcdp import decide_rcdp
from repro.io.json_io import load_bundle
b = load_bundle(sys.argv[1])
args = (b["query"], b["database"], b["master"], b["constraints"])
times = []
for _ in range(2):
    t = time.perf_counter(); decide_rcdp(*args)
    times.append(time.perf_counter() - t)
print(json.dumps(times))
"""


def measure_cli_startup(env: dict, q0: Path) -> dict[str, float]:
    """CLI start-up split: bare interpreter, ``import repro.cli`` on top
    of it, and the first decide's extra cost over a warm one."""

    def wall(command: list[str]) -> float:
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True,
                       timeout=120)
        return time.perf_counter() - started

    py = sys.executable
    interpreter = statistics.median(
        wall([py, "-c", "pass"]) for _ in range(CLI_PROBES))
    imported = statistics.median(
        wall([py, "-c", "import repro.cli"]) for _ in range(CLI_PROBES))
    first = []
    for _ in range(CLI_PROBES):
        done = subprocess.run([py, "-c", _FIRST_CALL, str(q0)], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120)
        cold, warm = json.loads(done.stdout)
        first.append(cold - warm)
    return {"interpreter_ms": interpreter * 1e3,
            "import_ms": (imported - interpreter) * 1e3,
            "first_call_ms": statistics.median(first) * 1e3}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def latencies(samples: list, scaled: bool = True) -> list[float]:
    """Op latencies in seconds (at the reference host speed unless
    *scaled* is false); a failed op counts as having missed any latency
    limit, so it enters at its timeout."""
    return [(s.scaled if scaled else s.seconds) if s.ok
            else workloads.OP_TIMEOUT_S[s.op.stream] for s in samples]


def e2e_metrics(setup: list[float], samples: dict,
                scaled: bool = True) -> dict:
    """The end-to-end metrics of one untraced run."""
    corpus = latencies(samples["corpus"], scaled)
    cli = latencies(samples["cli"], scaled)
    values = {
        "setup_s": (median(setup), "s"),
        "corpus_p50_ms": (median(corpus) * 1e3, "ms"),
        "corpus_tail_ms": (tail(corpus)[0] * 1e3, "ms"),
        "corpus_ops_per_s": (len(corpus) / sum(corpus), "1/s"),
    }
    for kind in workloads.HEAVY_KINDS:
        values[f"{kind}_op_s"] = (median(latencies(
            [s for s in samples["heavy"] if s.op.kind == kind], scaled)),
            "s")
    values["cli_p50_ms"] = (median(cli) * 1e3, "ms")
    values["cli_tail_ms"] = (tail(cli)[0] * 1e3, "ms")
    values["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {name: metric(value, unit)
            for name, (value, unit) in values.items()}


def exact_counters(samples: list) -> dict:
    total: dict = {}
    for sample in samples:
        total = add_counters(total, sample.outcome.counters)
    return dict(sorted(total.items()))


def check_counter_ledger(workload: str, seed: int, inputs: str,
                         counters: dict) -> str:
    """Compare this run's exact counters with the last run of the same
    workload and seed in this checkout; record this run's."""
    path = WORK / f"counters-{workload}.json"
    ledger = (json.loads(path.read_text(encoding="utf-8"))
              if path.exists() else {})
    previous = ledger.get(str(seed))
    if previous is None or previous["inputs"] != inputs:
        verdict = "first run with these inputs"
    elif previous["counters"] == counters:
        verdict = "identical to the previous run with this seed"
    else:
        verdict = (f"DIFFERENT from the previous run with this seed: "
                   f"{previous['counters']}")
    ledger[str(seed)] = {"inputs": inputs, "counters": counters}
    WORK.mkdir(exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(ledger, indent=1, sort_keys=True),
                       encoding="utf-8")
    os.replace(partial, path)
    return verdict


def print_inputs(seed: int, ops: dict) -> str:
    every = [op.digest for stream in ops.values() for op in stream]
    inputs = digest(seed, *every)
    print(f"seed {seed}: {sum(map(len, ops.values()))} distinct ops, "
          f"inputs digest {inputs}")
    for stream, stream_ops in ops.items():
        for op in stream_ops:
            print(f"  input {stream}/{op.kind} {op.name} {op.digest}")
    return inputs


def print_failures(samples: list) -> None:
    for sample in samples:
        if not sample.ok:
            op = sample.op
            print(f"FAILED {op.stream}/{op.kind} {op.name}: "
                  f"{sample.outcome.detail}")


def warm_up(ops: dict) -> None:
    """One untimed op, then freeze the heap built so far (modules,
    inputs) so the per-op collections only scan what ops allocate."""
    run_op(ops["corpus"][0])
    gc.collect()
    gc.freeze()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(workload: str, workers: int, seed: int,
                 seconds: float) -> dict:
    ops = workloads.build_ops(seed, workers)
    inputs = print_inputs(seed, ops)
    env = workloads.child_env()
    setup_raw, setup_gauge = measure_setup(workload, env)
    setup_factor = sum(setup_gauge) / len(setup_gauge)
    setup = [value / setup_factor for value in setup_raw]
    warm_up(ops)

    gauges = {"corpus": (host_factor, 0.5), "heavy": (host_factor, 0.0),
              "cli": (lambda: process_factor(env), 0.0)}
    samples: dict[str, list] = {}
    wall: dict[str, float] = {}
    for stream in workloads.STREAMS:
        gauge, every = gauges[stream]
        started = time.perf_counter()
        samples[stream] = workloads.run_stream(
            ops[stream], seconds * SHARE[stream], gauge=gauge,
            gauge_every_s=every, **LOOP[stream])
        wall[stream] = time.perf_counter() - started

    metrics = e2e_metrics(setup, samples)
    raw = e2e_metrics(setup_raw, samples, scaled=False)
    _, corpus_pct, _ = tail(latencies(samples["corpus"]))
    _, cli_pct, _ = tail(latencies(samples["cli"]))

    every = [s for stream in samples.values() for s in stream]
    failed = sum(not s.ok for s in every)
    counters = {stream: exact_counters(samples[stream][:size])
                for stream, size in (("corpus", LOOP["corpus"]["min_ops"]),
                                     ("heavy", len(ops["heavy"])))}
    print(f"workload {workload} (workers={workers}), "
          f"{seconds:g} s budget")
    print(f"  setup_s samples: {[round(v, 4) for v in setup]} "
          f"(raw {[round(v, 4) for v in setup_raw]})")
    for stream in workloads.STREAMS:
        factors = [s.factor for s in samples[stream]]
        print(f"  {stream}: {len(samples[stream])} ops in "
              f"{wall[stream]:.2f} s, host factor median "
              f"{median(factors):.3f} (range {min(factors):.3f}-"
              f"{max(factors):.3f}); raw p50 "
              f"{median([s.seconds for s in samples[stream]]) * 1e3:.2f} ms")
    print(f"  corpus tail is p{corpus_pct} ({len(samples['corpus'])} ops, "
          f"10 beyond); cli tail is p{cli_pct} ({len(samples['cli'])} ops, "
          f"10 beyond)")
    print("  raw metrics (host speed not factored out): " + json.dumps(
        {name: round(entry["value"], 6) for name, entry in raw.items()}))
    for kind in workloads.HEAVY_KINDS:
        kind_samples = [s for s in samples["heavy"] if s.op.kind == kind]
        print(f"  {kind}: {[round(s.scaled, 4) for s in kind_samples]} "
              f"(raw {[round(s.seconds, 4) for s in kind_samples]})")
    print(f"  failed_share: {failed}/{len(every)}")
    print(f"  children peak RSS: "
          f"{peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB")
    print(f"  exact counters (first {LOOP['corpus']['min_ops']} corpus "
          f"ops, first heavy cycle): {json.dumps(counters)}")
    volatile = [s.outcome.volatile for s in every if s.outcome.volatile]
    if volatile:
        print(f"  timing-dependent counters (sharded early stops, not "
              f"compared): {volatile[:len(ops['heavy'])]}")
    print(f"  counters: "
          f"{check_counter_ledger(workload, seed, inputs, counters)}")
    print_failures(every)
    return {"correct": failed == 0, "attempted": len(every),
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def one_pass(pass_ops: list) -> list:
    """Every op once, each gauged for host speed."""
    return workloads.run_stream(pass_ops, 0.0, min_ops=len(pass_ops),
                                gauge=host_factor)


def traced_pass(tracer: layers.Tracer, pass_ops: list) -> list:
    """:func:`one_pass` with the layer wrappers installed and each op in
    an ``op`` span."""

    def spanned(index: int, op: workloads.Op) -> workloads.Op:
        def run() -> workloads.Outcome:
            tracer.op_id = index
            frame = tracer.enter("op")
            try:
                return op.run()
            finally:
                tracer.exit(frame)

        return dataclasses.replace(op, run=run)

    uninstall = layers.install(tracer)
    try:
        return one_pass([spanned(i, op) for i, op in enumerate(pass_ops)])
    finally:
        uninstall()


def total(samples: list) -> float:
    return sum(s.scaled for s in samples)


def run_traced(workload: str, workers: int, seed: int) -> dict:
    ops = workloads.build_ops(seed, workers)
    inputs = print_inputs(seed, ops)
    in_process = ops["corpus"] + ops["heavy"]
    warm_up(ops)

    untraced = one_pass(in_process)
    cli = workloads.run_stream(ops["cli"], 0.0, min_ops=len(ops["cli"]))
    tracer = layers.Tracer()
    traced = traced_pass(tracer, in_process)

    # Speed-up of sharding: the shardable kinds in the other mode,
    # untraced, against this run's untraced heavy ops.
    other = [op for op in workloads.heavy_ops(seed, 3 - workers)
             if op.kind in workloads.SHARDABLE]
    other_samples = one_pass(other)
    this_times = {s.op.kind: s.scaled for s in untraced
                  if s.op.stream == "heavy"}
    other_times = {s.op.kind: s.scaled for s in other_samples}
    serial, sharded = ((this_times, other_times) if workers == 1
                       else (other_times, this_times))
    speedups = {kind: serial[kind] / sharded[kind]
                for kind in workloads.SHARDABLE}
    if workers == 1:
        # The serial ops never enter the pool: trace it on sharded ops.
        parallel = layers.Tracer()
        parallel_samples = traced_pass(parallel, other)
    else:
        parallel, parallel_samples = tracer, []

    cli_startup = measure_cli_startup(workloads.child_env(),
                                      workloads.Q0_BUNDLE)

    counters: dict = {}
    for sample in traced:
        counters = add_counters(counters, sample.outcome.counters)
        counters = add_counters(counters, sample.outcome.volatile)
        if sample.op.kind == "general":
            counters = add_counters(counters, {
                "general_checks":
                    sample.outcome.counters["constraint_checks"]})
    per_layer = layers.layer_metrics(
        tracer, parallel, ops=len(traced), counters=counters,
        speedups=speedups, cli=cli_startup,
        overhead=total(traced) / total(untraced))

    every = untraced + cli + traced + other_samples + parallel_samples
    failed = sum(not s.ok for s in every)
    mismatched = [
        f"{u.op.stream}/{u.op.name}"
        for u, t in zip(untraced, traced)
        if u.outcome.counters != t.outcome.counters]

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload}-{seed}.json"
    tracer.dump(str(trace_path))
    print(f"workload {workload} (workers={workers}), traced pass of "
          f"{len(traced)} in-process ops; spans in {trace_path}")
    for stream in ("corpus", "heavy"):
        plain = total([s for s in untraced if s.op.stream == stream])
        with_spans = total([s for s in traced if s.op.stream == stream])
        print(f"  trace overhead {stream}: {with_spans / plain:.3f} "
              f"({with_spans:.3f} s traced / {plain:.3f} s untraced, "
              f"at reference speed)")
    for name, value in layers.backend_times(tracer).items():
        shown = "n/a (never called)" if value is None else f"{value:.1f} us"
        print(f"  {name}: {shown}")
    for name, entry in sorted(per_layer.items()):
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"  exact counters traced vs untraced: "
          f"{'identical' if not mismatched else 'DIFFER: ' + str(mismatched)}")
    print(f"  inputs digest {inputs}")
    print_failures(every)
    return {"correct": failed == 0 and not mismatched,
            "attempted": len(every), "failed": failed,
            "metrics": per_layer}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not WARMUP_BUNDLE.is_file():
        print("perfbench: src/repro and examples/bundles not found; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]  # default backend and start method
    workers = WORKLOADS[args.workload]
    if args.probe == "setup":
        return setup_probe(workers, args.spawned_at)

    try:
        if args.trace:
            result = run_traced(args.workload, workers, args.seed)
        else:
            result = run_untraced(args.workload, workers, args.seed,
                                  args.seconds)
    finally:
        for leftover in WORK.glob(f"corpus-{os.getpid()}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
