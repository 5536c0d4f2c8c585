"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------

``rcdp BUNDLE.json``
    Decide whether the bundle's database is complete for its query
    relative to its master data and constraints; print the verdict and,
    when incomplete, the counterexample extension.

``rcqp BUNDLE.json``
    Decide whether any relatively complete database exists for the
    bundle's query; print the verdict and witness.

``complete BUNDLE.json``
    Run the certificate-completion loop and print the facts that would
    make the database complete.

``audit BUNDLE.json``
    Run the full §2.3 cascade (RCDP → RCQP → completion guidance →
    master-data expansion advice) and print the report.

``missing BUNDLE.json``
    Enumerate the answers the query could still gain over the active
    domain (the completeness *margin*).

``lint BUNDLE.json [...]``
    Run the static analyzer (:mod:`repro.analysis`) over one or more
    bundles — or directories of bundles — without deciding anything:
    schema mismatches, unsafe or provably empty queries,
    vacuous/subsumed constraints, violated partial closedness,
    unbounded output variables, plus the whole-scenario flow pass
    (chase termination, unreachable/dead constraints, plan shapes,
    search-space cost) — each finding with a stable ``RCxxx`` code, a
    source span (rendered with a caret), and, where possible, a fix-it.
    ``--format json`` emits the report as machine-readable JSON;
    ``--explain-cost`` prints the static cost estimate (predicted
    governor ticks, dominant phase, per-disjunct breakdown).  Exit
    codes: 0 clean (infos allowed), 1 warnings, 2 errors.  A directory
    argument is linted file by file in sorted name order; the exit code
    is the worst severity found anywhere.

``trace FILE.jsonl``
    Inspect a JSONL trace written by ``--trace``: print its phase
    profile, or with ``--check`` validate it (span-tree well-formedness
    and tick accounting — see ``docs/OBSERVABILITY.md``) and exit 0/2.

``report``
    Aggregate a JSONL run ledger (``--ledger FILE`` or
    ``$REPRO_LEDGER``): latency percentiles, verdict mix, cache hit
    rates, per-backend comparison; ``--out`` derives a BENCH-format
    report, ``--prom`` a Prometheus exposition.

``history``
    Diff fresh runs (a ledger and/or BENCH-format reports) against the
    committed ``BENCH_*.json`` baselines: exact tick equality and
    verdict mixes per paired row, a median wall-time ratio against
    ``--factor``.  ``--gate`` exits nonzero on any regression (the CI
    mode); ``--slowdown 2`` injects a synthetic regression to prove
    the gate trips.

``demo``
    Run the paper's CRM example end to end and print the §2.3 audit.

Bundles are JSON files in the format of :mod:`repro.io.json_io`.

Observability flags (same subcommands as the governor flags):
``--trace FILE`` writes a JSONL span trace, ``--metrics FILE`` writes
the metrics-registry snapshot as JSON, ``--prom FILE`` writes a
Prometheus text exposition, ``--profile`` prints a phase profile
table, and ``--stats`` prints the search statistics (including the
engine's ``plans_compiled`` / ``index_builds`` / ``cache_hits``
counters).  Any of trace/metrics/prom/profile attaches a tick-ledger
governor so phases can be attributed even without
``--budget``/``--timeout``.  ``--progress`` renders live
percent-complete and ETA to stderr (the denominator is the static cost
model's prediction), and ``--ledger FILE`` (or ``$REPRO_LEDGER``)
appends a schema-versioned ``RunRecord`` to the crash-safe JSONL run
ledger — content key, verdict, backend, workers, tick ledger, wall
time, artifact paths — for ``repro report`` / ``repro history``.

Execution governor flags (``rcdp``, ``rcqp``, ``complete``, ``audit``,
``missing``): ``--budget N`` caps the total units of search work —
before the search starts, a static cost preflight compares the
predicted ticks against the budget and prints an advisory (with a
suggested budget and worker count) when the budget looks too small —
``--timeout SECONDS`` sets a wall-clock deadline, and
``--on-exhausted {error,partial}`` picks between failing fast (exit
code 3) and degrading gracefully to a partial, checkpointed result
(also exit code 3, but with the best-so-far output printed).  The same
subcommands accept ``--workers N`` to shard the search across N worker
processes (0 = all cores; see ``docs/PARALLEL.md``) — the verdict is
identical for every worker count.

Fault-tolerance flags (same subcommands): ``--max-retries N`` bounds
how often a crashed or silent worker shard is respawned from its last
progress snapshot before quarantine, ``--heartbeat SECONDS`` sets the
progress-snapshot interval liveness detection keys off, and
``--no-retry`` disables supervision entirely, restoring the legacy
fail-fast behavior where any worker death aborts the command.

Exit codes: 0 — affirmative verdict (complete / nonempty /
trustworthy / no missing answers); 1 — negative verdict; 2 — error;
3 — the governed search was interrupted before reaching a verdict;
4 — an unrecovered worker-pool failure (a worker reported an
unexpected exception, or died under ``--no-retry``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

from repro import _IMPORT_STARTED
# Only the modules ``rcdp``/``decide`` and ``missing`` run are imported
# here; every other verb imports its own modules when it runs, so a
# decision's start-up compiles none of them.
from repro.core.rcdp import decide_rcdp, missing_answers_report
from repro.core.results import RCDPStatus, RCQPStatus
from repro.errors import (AnalysisError, ExecutionInterrupted, ReproError,
                          WorkerPoolError)
from repro.io.json_io import load_bundle
from repro.obs import obs_of, obs_span
from repro.relational.backends import BACKEND_NAMES
from repro.runtime import EXHAUSTION_MODES, ExecutionGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.retry import RetryPolicy

__all__ = ["main"]

#: Exit code for searches interrupted by a budget or deadline.
EXIT_EXHAUSTED = 3
#: Exit code for unrecovered worker-pool failures.
EXIT_POOL_FAILURE = 4


def _non_negative_int(text: str) -> int:
    """An argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_governor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="cap the total units of search work (valuations, candidate "
             "sets, solver nodes, ...) across the whole command")
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline for the whole command")
    parser.add_argument(
        "--on-exhausted", choices=EXHAUSTION_MODES, default="partial",
        help="when the budget or deadline trips: 'error' fails fast, "
             "'partial' (default) prints the best-so-far partial result")
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the search across N worker processes (default 1 = "
             "serial, 0 = all cores); the verdict is identical for "
             "every worker count")
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="respawn a crashed or silent worker shard from its last "
             "progress snapshot up to N times before quarantining it "
             "to an in-process serial re-run (default 2)")
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="worker progress-snapshot interval; a shard silent for "
             "~40 heartbeats is presumed hung and retried (default 0.25)")
    parser.add_argument(
        "--no-retry", action="store_true",
        help="disable shard supervision: any worker death aborts the "
             "command with exit code 4 (the pre-supervision behavior)")
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSONL span trace of the decision to FILE "
             "(validate it with 'repro trace --check FILE')")
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the metrics-registry snapshot (counters, gauges, "
             "histograms) as JSON to FILE")
    parser.add_argument(
        "--profile", action="store_true",
        help="print a per-phase profile table (calls, total/own time, "
             "attributed ticks) after the verdict")
    parser.add_argument(
        "--stats", action="store_true",
        help="print the search statistics, including the evaluation "
             "engine's plans_compiled/index_builds/cache_hits counters")
    parser.add_argument(
        "--progress", action="store_true",
        help="render live percent-complete and ETA to stderr while the "
             "search runs (numerator: governor ticks + shard "
             "heartbeats; denominator: the static cost model's "
             "predicted ticks)")
    parser.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="append a RunRecord for this decision to the JSONL run "
             "ledger at FILE (default: $REPRO_LEDGER, else no ledger); "
             "aggregate with 'repro report', gate with 'repro history'")
    parser.add_argument(
        "--prom", default=None, metavar="FILE",
        help="write the metrics registry as Prometheus text exposition "
             "to FILE after the verdict")
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="instance storage backend for the evaluation engine "
             "(default: $REPRO_BACKEND or 'python'); the verdict is "
             "identical for every backend")


def _observability_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace", None)
                or getattr(args, "metrics", None)
                or getattr(args, "prom", None)
                or getattr(args, "profile", False))


def _ledger_path(args: argparse.Namespace) -> str | None:
    """The run-ledger file: ``--ledger``, else ``$REPRO_LEDGER``
    (:data:`repro.obs.ledger.LEDGER_ENV`, spelled out so that a run
    without a ledger never imports that module)."""
    return (getattr(args, "ledger", None)
            or os.environ.get("REPRO_LEDGER") or None)


def _retry_from_args(args: argparse.Namespace) -> "RetryPolicy | None":
    """The retry policy the flags ask for, or None for the default."""
    from repro.runtime import RetryPolicy

    max_retries = getattr(args, "max_retries", None)
    heartbeat = getattr(args, "heartbeat", None)
    if getattr(args, "no_retry", False):
        if max_retries is not None or heartbeat is not None:
            raise ReproError("--no-retry conflicts with --max-retries "
                             "and --heartbeat")
        return RetryPolicy.disabled()
    if max_retries is None and heartbeat is None:
        return None
    defaults = RetryPolicy()
    return RetryPolicy(
        max_retries=(max_retries if max_retries is not None
                     else defaults.max_retries),
        heartbeat=(heartbeat if heartbeat is not None
                   else defaults.heartbeat))


def _governor_from_args(args: argparse.Namespace) -> ExecutionGovernor | None:
    budget = getattr(args, "budget", None)
    timeout = getattr(args, "timeout", None)
    observed = _observability_requested(args)
    progressed = getattr(args, "progress", False)
    ledgered = _ledger_path(args) is not None
    retry = _retry_from_args(args)
    if (budget is None and timeout is None and not observed
            and not progressed and not ledgered and retry is None):
        return None
    governor = ExecutionGovernor.from_limits(budget=budget, timeout=timeout,
                                             retry=retry)
    if observed or progressed or ledgered:
        from repro.runtime import Budget

        if governor.budget is None:
            # An unlimited budget is the tick *ledger* spans diff to
            # attribute work to phases (and the progress numerator /
            # RunRecord tick source); it never trips.
            governor.budget = Budget()
    if observed:
        from repro.obs import Observation

        # Start-up, from ``import repro`` to this verb's first step; it
        # rides to the decision's root span with the cost estimate.
        Observation.attach(governor).annotate(
            import_s=time.perf_counter() - _IMPORT_STARTED)
    if progressed:
        from repro.obs import ProgressReporter

        reporter = ProgressReporter(
            label=getattr(args, "command", None) or "search")
        governor.progress = reporter
        reporter.start_polling(governor.budget)
    return governor


def _statistics_lines(statistics) -> list[str]:
    from dataclasses import fields

    return [f"  {field.name}: {getattr(statistics, field.name)}"
            for field in fields(statistics)]


def _finish_observability(args: argparse.Namespace,
                          governor: ExecutionGovernor | None, *,
                          procedure: str, statistics,
                          verdict: str, exhausted: bool) -> None:
    """Render/export everything the obs flags asked for, after a verdict.

    The statistics block (``--stats``, or implied by any obs flag)
    surfaces the full :class:`~repro.core.results.SearchStatistics` —
    engine counters included.  With an observation attached, the
    governor ledger and statistics are folded into the registry, the
    profile table is printed, and trace/metrics files are written.
    """
    progress = getattr(governor, "progress", None)
    if progress is not None:
        progress.close()
    observation = obs_of(governor)
    if statistics is not None and (getattr(args, "stats", False)
                                   or observation is not None):
        print("statistics:")
        for line in _statistics_lines(statistics):
            print(line)
    if observation is None:
        return
    from repro.obs import render_profile, trace_records, write_trace

    observation.finalize(governor, statistics)
    payload = observation.payload()
    if getattr(args, "profile", False):
        print(render_profile(payload["spans"]))
    if getattr(args, "trace", None):
        ticks = (dict(governor.budget.snapshot())
                 if governor.budget is not None else {})
        write_trace(args.trace, trace_records(
            payload["spans"], procedure=procedure,
            command=f"{procedure} {getattr(args, 'bundle', '')}".strip(),
            metrics=payload["metrics"], statistics=statistics,
            ticks=ticks, verdict=verdict, exhausted=exhausted))
        print(f"trace written to {args.trace}")
    if getattr(args, "metrics", None):
        from repro.obs import atomic_write_text

        atomic_write_text(args.metrics, json.dumps(
            payload["metrics"], indent=2, sort_keys=True) + "\n")
        print(f"metrics written to {args.metrics}")
    if getattr(args, "prom", None):
        from repro.obs import write_prometheus

        write_prometheus(args.prom, payload["metrics"])
        print(f"prometheus exposition written to {args.prom}")


def _preflight(args: argparse.Namespace,
               governor: ExecutionGovernor | None,
               bundle, procedure: str) -> None:
    """Static cost check before a decision: annotate the trace root span
    with the prediction and warn when it exceeds ``--budget``.

    Advisory only — estimation failures are swallowed and the decision
    proceeds untouched (the differential tests pin verdict/witness/
    statistics identity with and without a governor attached).
    """
    if governor is None:
        return
    try:
        from repro.analysis.cost import estimate_decision

        if procedure == "rcqp":
            estimate = estimate_decision(
                "rcqp", bundle["query"], None, bundle["master"],
                bundle["constraints"], schema=bundle["schema"])
        else:
            kind = "missing" if procedure == "missing" else "rcdp"
            estimate = estimate_decision(
                kind, bundle["query"], bundle.get("database"),
                bundle["master"], bundle["constraints"])
    except Exception:
        return
    observation = obs_of(governor)
    if observation is not None:
        observation.annotate(
            cost_estimate=estimate.total_predicted,
            cost_dominant_phase=estimate.dominant_phase)
    progress = getattr(governor, "progress", None)
    if progress is not None:
        # The prediction is the --progress denominator; without it the
        # reporter falls back to a raw tick counter.
        progress.set_total(estimate.total_predicted)
    budget = governor.budget
    if (budget is not None and budget.limit is not None
            and estimate.total_predicted > budget.limit):
        from repro.parallel import suggest_workers

        print(f"preflight: predicted ~{estimate.total_predicted} tick(s) "
              f"exceeds --budget {budget.limit} (dominant phase "
              f"{estimate.dominant_phase}); suggested budget "
              f"{governor.suggest_budget(estimate)}, suggested workers "
              f"{suggest_workers(estimate)}")


def _record_run(args: argparse.Namespace,
                governor: ExecutionGovernor | None, *,
                procedure: str, bundle, statistics, verdict: str,
                exhausted: bool, wall_s: float,
                interrupted: str | None = None) -> None:
    """Append one :class:`~repro.obs.ledger.RunRecord` for this
    decision when a ledger is configured (``--ledger``/$REPRO_LEDGER).

    Observation-only: the record is derived *after* the verdict, and
    failures to compute the content key degrade to an empty key rather
    than failing the command.
    """
    path = _ledger_path(args)
    if path is None:
        return
    from repro.obs import (RunRecord, append_record, run_key,
                           statistics_fields)

    try:
        objects = [bundle[name] for name in
                   ("query", "database", "master", "constraints")
                   if bundle.get(name) is not None]
        key = run_key(procedure, *objects)
    except Exception:
        key = ""
    backend = (getattr(args, "backend", None)
               or os.environ.get("REPRO_BACKEND") or "python")
    label = os.path.splitext(
        os.path.basename(getattr(args, "bundle", "") or ""))[0]
    ticks = (dict(governor.budget.snapshot())
             if governor is not None and governor.budget is not None
             else {})
    artifacts = {name: value for name, value in
                 (("trace", getattr(args, "trace", None)),
                  ("metrics", getattr(args, "metrics", None)),
                  ("prom", getattr(args, "prom", None)))
                 if value}
    fan_out = getattr(governor, "fan_out", None)
    append_record(path, RunRecord(
        procedure=procedure, label=label, key=key, verdict=verdict,
        backend=backend, workers=getattr(args, "workers", 1),
        wall_s=wall_s, exhausted=exhausted, interrupted=interrupted,
        ticks=ticks, statistics=statistics_fields(statistics),
        artifacts=artifacts,
        **(fan_out.attributes() if fan_out is not None else {})))
    print(f"run recorded in {path}", file=sys.stderr)


def _load(args: argparse.Namespace,
          governor: ExecutionGovernor | None) -> dict:
    """Load the verb's bundle, in a ``load`` root span when observed."""
    with obs_span(obs_of(governor), "load"):
        return load_bundle(args.bundle, backend=args.backend)


def _print_exhaustion(result) -> None:
    print(f"search interrupted: {result.interrupted}")
    if result.checkpoint is not None:
        print(f"resumable checkpoint: {result.checkpoint!r}")


def _cmd_rcdp(args: argparse.Namespace) -> int:
    governor = _governor_from_args(args)
    bundle = _load(args, governor)
    _preflight(args, governor, bundle, "rcdp")
    started = time.perf_counter()
    result = decide_rcdp(bundle["query"], bundle["database"],
                         bundle["master"], bundle["constraints"],
                         governor=governor,
                         on_exhausted=args.on_exhausted,
                         backend=args.backend,
                         workers=args.workers)
    wall_s = time.perf_counter() - started
    print(f"RCDP: {result.status.value}")
    print(result.explanation)
    if result.certificate is not None:
        print("counterexample extension:")
        for name, row in result.certificate.extension_facts:
            print(f"  + {name}{row!r}")
        print(f"new answer: {result.certificate.new_answer!r}")
    _finish_observability(args, governor, procedure="rcdp",
                          statistics=result.statistics,
                          verdict=result.status.value,
                          exhausted=result.is_exhausted)
    _record_run(args, governor, procedure="rcdp", bundle=bundle,
                statistics=result.statistics,
                verdict=result.status.value,
                exhausted=result.is_exhausted, wall_s=wall_s,
                interrupted=(str(result.interrupted)
                             if result.is_exhausted else None))
    if result.is_exhausted:
        _print_exhaustion(result)
        return EXIT_EXHAUSTED
    return 0 if result.status is RCDPStatus.COMPLETE else 1


def _cmd_rcqp(args: argparse.Namespace) -> int:
    from repro.core.rcqp import decide_rcqp

    governor = _governor_from_args(args)
    bundle = _load(args, governor)
    _preflight(args, governor, bundle, "rcqp")
    started = time.perf_counter()
    result = decide_rcqp(bundle["query"], bundle["master"],
                         bundle["constraints"], bundle["schema"],
                         max_valuation_set_size=args.max_set_size,
                         governor=governor,
                         on_exhausted=args.on_exhausted,
                         backend=args.backend,
                         workers=args.workers)
    wall_s = time.perf_counter() - started
    print(f"RCQP: {result.status.value}")
    print(result.explanation)
    if result.witness is not None:
        print("witness database:")
        print(result.witness.pretty())
    _finish_observability(args, governor, procedure="rcqp",
                          statistics=result.statistics,
                          verdict=result.status.value,
                          exhausted=result.is_exhausted)
    _record_run(args, governor, procedure="rcqp", bundle=bundle,
                statistics=result.statistics,
                verdict=result.status.value,
                exhausted=result.is_exhausted, wall_s=wall_s,
                interrupted=(str(result.interrupted)
                             if result.is_exhausted else None))
    if result.is_exhausted:
        _print_exhaustion(result)
        return EXIT_EXHAUSTED
    return 0 if result.status is RCQPStatus.NONEMPTY else 1


def _cmd_complete(args: argparse.Namespace) -> int:
    from repro.core.witness import make_complete

    governor = _governor_from_args(args)
    bundle = _load(args, governor)
    _preflight(args, governor, bundle, "complete")
    started = time.perf_counter()
    outcome = make_complete(bundle["query"], bundle["database"],
                            bundle["master"], bundle["constraints"],
                            max_rounds=args.max_rounds,
                            governor=governor,
                            on_exhausted=args.on_exhausted,
                            backend=args.backend,
                            workers=args.workers)
    if outcome.complete:
        print(f"complete after {outcome.rounds} round(s); collect:")
    else:
        print(f"NOT complete after {outcome.rounds} round(s); "
              f"partial guidance:")
    for name, row in outcome.added_facts:
        print(f"  + {name}{row!r}")
    _finish_observability(
        args, governor, procedure="complete",
        statistics=outcome.statistics,
        verdict="complete" if outcome.complete else "incomplete",
        exhausted=outcome.interrupted is not None)
    _record_run(args, governor, procedure="complete", bundle=bundle,
                statistics=outcome.statistics,
                verdict="complete" if outcome.complete else "incomplete",
                exhausted=outcome.interrupted is not None,
                wall_s=time.perf_counter() - started,
                interrupted=(str(outcome.interrupted)
                             if outcome.interrupted is not None
                             else None))
    if outcome.interrupted is not None:
        print(f"search interrupted: {outcome.interrupted}")
        return EXIT_EXHAUSTED
    return 0 if outcome.complete else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.mdm.audit import AuditVerdict, CompletenessAudit

    governor = _governor_from_args(args)
    bundle = _load(args, governor)
    audit = CompletenessAudit(
        master=bundle["master"], constraints=bundle["constraints"],
        schema=bundle["schema"],
        rcqp_valuation_set_size=args.max_set_size,
        backend=args.backend,
        workers=args.workers)
    _preflight(args, governor, bundle, "rcdp")
    started = time.perf_counter()
    report = audit.assess(bundle["query"], bundle["database"],
                          governor=governor,
                          on_exhausted=args.on_exhausted)
    wall_s = time.perf_counter() - started
    print(report.summary())
    stages = [stage for stage in (report.rcdp, report.rcqp,
                                  report.completion) if stage is not None]
    statistics = stages[0].statistics
    for stage in stages[1:]:
        statistics = statistics.merged(stage.statistics)
    interrupted = next((stage.interrupted for stage in stages
                        if stage.interrupted is not None), None)
    _finish_observability(
        args, governor, procedure="audit", statistics=statistics,
        verdict=report.verdict.value,
        exhausted=report.verdict is AuditVerdict.INCONCLUSIVE)
    _record_run(args, governor, procedure="audit", bundle=bundle,
                statistics=statistics, verdict=report.verdict.value,
                exhausted=report.verdict is AuditVerdict.INCONCLUSIVE,
                wall_s=wall_s, interrupted=interrupted)
    if report.verdict is AuditVerdict.INCONCLUSIVE:
        return EXIT_EXHAUSTED
    return 0 if report.verdict.value == "trustworthy" else 1


def _cmd_missing(args: argparse.Namespace) -> int:
    governor = _governor_from_args(args)
    bundle = _load(args, governor)
    _preflight(args, governor, bundle, "missing")
    started = time.perf_counter()
    report = missing_answers_report(
        bundle["query"], bundle["database"], bundle["master"],
        bundle["constraints"], limit=args.limit,
        governor=governor, backend=args.backend,
        on_exhausted=args.on_exhausted, workers=args.workers)
    wall_s = time.perf_counter() - started
    if not report.answers and report.exhaustive:
        print("no missing answers: the database is relatively complete")
        _finish_observability(args, governor, procedure="missing",
                              statistics=report.statistics,
                              verdict="none", exhausted=False)
        _record_run(args, governor, procedure="missing", bundle=bundle,
                    statistics=report.statistics, verdict="none",
                    exhausted=False, wall_s=wall_s)
        return 0
    qualifier = "" if report.exhaustive else "at least "
    print(f"{qualifier}{len(report.answers)} answer(s) the query could "
          f"still gain:")
    for row in sorted(report.answers, key=repr):
        print(f"  ? {row!r}")
    _finish_observability(
        args, governor, procedure="missing",
        statistics=report.statistics,
        verdict="exhaustive" if report.exhaustive else "partial",
        exhausted=report.interrupted is not None)
    _record_run(args, governor, procedure="missing", bundle=bundle,
                statistics=report.statistics,
                verdict="exhaustive" if report.exhaustive else "partial",
                exhausted=report.interrupted is not None, wall_s=wall_s,
                interrupted=(str(report.interrupted)
                             if report.interrupted is not None
                             else None))
    if report.interrupted is not None:
        _print_exhaustion(report)
        return EXIT_EXHAUSTED
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import lint_path

    worst = 0
    payloads = []
    for path in args.bundles:
        report = lint_path(path, deep=not args.fast)
        worst = max(worst, report.exit_code)
        if args.format == "json":
            payloads.append({"bundle": path, **report.to_dict()})
        else:
            if len(args.bundles) > 1:
                print(f"== {path}")
            print(report.render())
            if args.explain_cost and report.facts.cost_estimate is not None:
                print(report.facts.cost_estimate.render())
    if args.format == "json":
        print(json.dumps(payloads if len(args.bundles) > 1
                         else payloads[0], indent=2, sort_keys=True))
    return worst


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import check_trace, read_trace, render_profile

    try:
        records = read_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    problems = check_trace(records)
    spans = [r for r in records if r.get("type") == "span"]
    if problems:
        print(f"{args.file}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 2
    if args.check:
        print(f"{args.file}: OK ({len(spans)} span(s))")
        return 0
    print(render_profile(spans))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import (atomic_write_text, check_ledger,
                           ledger_metrics, ledger_report, read_ledger,
                           render_summary, summarize_ledger,
                           write_prometheus)

    path = _ledger_path(args)
    if path is None:
        raise ReproError("no ledger: pass --ledger FILE or set "
                         "$REPRO_LEDGER")
    problems = check_ledger(path)
    if problems:
        print(f"{path}: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    try:
        records = read_ledger(path)
    except (OSError, ValueError) as error:
        raise ReproError(str(error)) from error
    summary = summarize_ledger(records)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    if args.out:
        report = ledger_report(records)
        atomic_write_text(args.out, json.dumps(
            report, indent=2, ensure_ascii=False, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.prom:
        write_prometheus(args.prom, ledger_metrics(records))
        print(f"prometheus exposition written to {args.prom}")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs import ledger_report, read_ledger
    from repro.obs.history import (HISTORY_FACTOR, diff_reports,
                                   discover_baselines,
                                   load_bench_report, render_history)

    baselines = []
    for path in args.baseline:
        files = discover_baselines(path)
        if not files:
            raise ReproError(f"no BENCH_*.json baselines under {path!r}")
        for file in files:
            try:
                baselines.append((file, load_bench_report(file)))
            except (OSError, ValueError, json.JSONDecodeError) as error:
                raise ReproError(f"bad baseline {file}: {error}") \
                    from error

    currents = []
    ledger_path = _ledger_path(args)
    if ledger_path is not None:
        try:
            records = read_ledger(ledger_path)
        except (OSError, ValueError) as error:
            raise ReproError(str(error)) from error
        currents.append((ledger_path, ledger_report(records)))
    for path in args.current:
        try:
            currents.append((path, load_bench_report(path)))
        except (OSError, ValueError, json.JSONDecodeError) as error:
            raise ReproError(f"bad current report {path}: {error}") \
                from error

    factor = args.factor if args.factor is not None else HISTORY_FACTOR
    result = diff_reports(baselines, currents, factor=factor,
                          slowdown=args.slowdown)
    print(render_history(result))
    if args.gate and not result.ok:
        print("history gate FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.mdm.audit import CompletenessAudit
    from repro.mdm.scenario import CRMScenario

    scenario = CRMScenario.example()
    # The strict supt⊆dcust IND only holds for domestic support tuples.
    scenario.support = {(e, d, c) for e, d, c in scenario.support
                        if not c.startswith("i")}
    audit = CompletenessAudit(
        master=scenario.master(),
        constraints=[scenario.supt_cid_ind()],
        schema=scenario.schema)
    database = scenario.database()
    print("master data:")
    print(scenario.master().pretty())
    print()
    print("database:")
    print(database.pretty())
    print()
    for query in (scenario.q2_all_supported_by("e0"),
                  scenario.q2_all_supported_by("e1")):
        report = audit.assess(query, database)
        print(f"--- audit of {query.name} ({query!r})")
        print(report.summary())
        print()
    return 0


DEFAULT_CORPUS_DIR = "corpus_bundles"


def corpus_families() -> tuple[str, ...]:
    from repro.corpus.spec import FAMILIES
    return FAMILIES


def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import generate_corpus

    manifest = generate_corpus(
        args.out, seed=args.seed, per_family=args.per_family,
        families=tuple(args.families))
    print(f"generated {len(manifest['scenarios'])} scenarios "
          f"(seed {manifest['seed']}, families "
          f"{'/'.join(manifest['families'])}) into {args.out}")
    return 0


def _cmd_corpus_run(args: argparse.Namespace) -> int:
    from repro.corpus import build_report, check_report, render_report, \
        run_corpus

    result = run_corpus(args.dir, backends=tuple(args.backends),
                        workers=tuple(args.workers),
                        check_counting=not args.no_counting,
                        ledger=_ledger_path(args))
    report = build_report(result, smoke=args.smoke)
    print(render_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        print(f"wrote {args.report}")
    return check_report(report)


def _cmd_corpus_report(args: argparse.Namespace) -> int:
    from repro.corpus import check_report, render_report
    from repro.corpus.report import load_report

    report = load_report(args.file)
    print(render_report(report))
    return check_report(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Relative information completeness (Fan & Geerts, "
                    "PODS 2009) — completeness checks for partially "
                    "closed databases.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    rcdp = subparsers.add_parser(
        "rcdp", aliases=["decide"],
        help="is the database complete for the query?")
    rcdp.add_argument("bundle", help="JSON problem bundle")
    _add_governor_arguments(rcdp)
    rcdp.set_defaults(func=_cmd_rcdp)

    rcqp = subparsers.add_parser(
        "rcqp", help="does any relatively complete database exist?")
    rcqp.add_argument("bundle", help="JSON problem bundle")
    rcqp.add_argument("--max-set-size", type=int, default=2,
                      help="valuation-set budget for the E2 search")
    _add_governor_arguments(rcqp)
    rcqp.set_defaults(func=_cmd_rcqp)

    complete = subparsers.add_parser(
        "complete", help="suggest the facts that make the database "
                         "complete")
    complete.add_argument("bundle", help="JSON problem bundle")
    complete.add_argument("--max-rounds", type=int, default=32)
    _add_governor_arguments(complete)
    complete.set_defaults(func=_cmd_complete)

    audit = subparsers.add_parser(
        "audit", help="run the full §2.3 audit cascade")
    audit.add_argument("bundle", help="JSON problem bundle")
    audit.add_argument("--max-set-size", type=int, default=1,
                       help="valuation-set budget for the RCQP step")
    _add_governor_arguments(audit)
    audit.set_defaults(func=_cmd_audit)

    missing = subparsers.add_parser(
        "missing", help="enumerate answers the query could still gain")
    missing.add_argument("bundle", help="JSON problem bundle")
    missing.add_argument("--limit", type=_non_negative_int, default=None,
                         help="stop after this many missing answers")
    _add_governor_arguments(missing)
    missing.set_defaults(func=_cmd_missing)

    lint = subparsers.add_parser(
        "lint", help="statically analyze bundles without deciding "
                     "anything")
    lint.add_argument("bundles", nargs="+", metavar="bundle",
                      help="JSON problem bundle(s), or directories of "
                           "them (linted in sorted name order)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="output format")
    lint.add_argument("--fast", action="store_true",
                      help="skip the NP-hard minimization/containment "
                           "rules (RC005, RC103)")
    lint.add_argument("--explain-cost", action="store_true",
                      help="print the static cost estimate (predicted "
                           "governor ticks, dominant phase, per-disjunct "
                           "breakdown) after each report")
    lint.set_defaults(func=_cmd_lint)

    trace = subparsers.add_parser(
        "trace", help="inspect or validate a JSONL trace written by "
                      "--trace")
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument("--check", action="store_true",
                       help="validate only (span-tree well-formedness "
                            "and tick accounting); exit 0 when valid, "
                            "2 otherwise")
    trace.set_defaults(func=_cmd_trace)

    corpus = subparsers.add_parser(
        "corpus", help="generate and differentially run the scenario "
                       "corpus (see docs/CORPUS.md)")
    corpus_sub = corpus.add_subparsers(dest="corpus_command",
                                       required=True)

    generate = corpus_sub.add_parser(
        "generate", help="emit a seeded, oracle-verified scenario sweep")
    generate.add_argument("--out", default=DEFAULT_CORPUS_DIR,
                          metavar="DIR",
                          help=f"output directory (default "
                               f"{DEFAULT_CORPUS_DIR})")
    generate.add_argument("--seed", type=int, default=9,
                          help="sweep seed; the same seed reproduces "
                               "byte-identical bundles (default 9)")
    generate.add_argument("--per-family", type=int, default=25,
                          metavar="N",
                          help="scenarios per domain family (default 25 "
                               "→ a 100-scenario sweep)")
    generate.add_argument("--families", nargs="+", metavar="FAMILY",
                          default=list(corpus_families()),
                          choices=corpus_families(),
                          help="domain families to sweep (default: all)")
    generate.set_defaults(func=_cmd_corpus_generate)

    run = corpus_sub.add_parser(
        "run", help="re-decide every scenario across the backend × "
                    "worker matrix against the python-serial oracle")
    run.add_argument("--dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
                     help=f"corpus directory (default "
                          f"{DEFAULT_CORPUS_DIR})")
    run.add_argument("--backends", nargs="+", choices=BACKEND_NAMES,
                     default=list(BACKEND_NAMES),
                     help="storage backends to cross-check "
                          "(default: all)")
    run.add_argument("--workers", nargs="+", type=int, default=[1, 2],
                     metavar="N", help="worker counts to cross-check "
                                       "(default: 1 2)")
    run.add_argument("--no-counting", action="store_true",
                     help="skip the per-backend missing-answer "
                          "counting leg")
    run.add_argument("--smoke", action="store_true",
                     help="mark the report as a smoke run")
    run.add_argument("--report", default=None, metavar="FILE",
                     help="also write the BENCH-format JSON report "
                          "to FILE")
    run.add_argument("--ledger", default=None, metavar="FILE",
                     help="append one RunRecord per scenario to the "
                          "JSONL run ledger at FILE (default: "
                          "$REPRO_LEDGER, else no ledger)")
    run.set_defaults(func=_cmd_corpus_run)

    corpus_report = corpus_sub.add_parser(
        "report", help="render a previously written corpus report and "
                       "re-check its gates")
    corpus_report.add_argument("file", help="BENCH-format corpus report")
    corpus_report.set_defaults(func=_cmd_corpus_report)

    report = subparsers.add_parser(
        "report", help="aggregate a JSONL run ledger: latency "
                       "percentiles, verdict mix, cache hit rates, "
                       "per-backend comparison")
    report.add_argument("--ledger", default=None, metavar="FILE",
                        help="ledger file (default: $REPRO_LEDGER)")
    report.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    report.add_argument("--out", default=None, metavar="FILE",
                        help="also write a BENCH-format report derived "
                             "from the ledger (the current side of "
                             "'repro history')")
    report.add_argument("--prom", default=None, metavar="FILE",
                        help="write the aggregated metrics as "
                             "Prometheus text exposition to FILE")
    report.set_defaults(func=_cmd_report)

    history = subparsers.add_parser(
        "history", help="diff fresh runs against committed BENCH_*.json "
                        "baselines; --gate exits nonzero on regression")
    history.add_argument("--ledger", default=None, metavar="FILE",
                         help="derive the current side from this run "
                              "ledger (default: $REPRO_LEDGER if set)")
    history.add_argument("--baseline", nargs="+", default=["."],
                         metavar="PATH",
                         help="baseline report file(s), or directories "
                              "globbed for BENCH_*.json (default: .)")
    history.add_argument("--current", nargs="+", default=[],
                         metavar="FILE",
                         help="additional current-side BENCH-format "
                              "report file(s)")
    history.add_argument("--gate", action="store_true",
                         help="exit 1 on any baseline problem or "
                              "regression (the CI mode)")
    history.add_argument("--factor", type=float, default=None,
                         help="ceiling on the median paired wall-time "
                              "ratio (default 1.75)")
    history.add_argument("--slowdown", type=float, default=1.0,
                         metavar="X",
                         help="multiply current wall times by X — a "
                              "synthetic regression for gate "
                              "self-tests (default 1.0)")
    history.set_defaults(func=_cmd_history)

    demo = subparsers.add_parser(
        "demo", help="run the paper's CRM example")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExecutionInterrupted as interrupt:
        print(f"search interrupted: {interrupt.reason} — {interrupt}",
              file=sys.stderr)
        if interrupt.checkpoint is not None:
            print(f"resumable checkpoint: {interrupt.checkpoint!r}",
                  file=sys.stderr)
        return EXIT_EXHAUSTED
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        if error.report is not None:
            print(error.report.render(), file=sys.stderr)
        return 2
    except WorkerPoolError as error:
        # One-line diagnostic; the per-shard tracebacks are in
        # ``error.details`` for interactive debugging, not the console.
        print(f"error: worker pool failure — {error.summary}",
              file=sys.stderr)
        return EXIT_POOL_FAILURE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
