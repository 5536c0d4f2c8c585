"""The persistent run ledger: one append-only JSONL file per site.

Every CLI decision, corpus scenario, and benchmark row can append a
:class:`RunRecord` — what was decided (a content key from
:mod:`repro.engine.keys`, so identical decisions correlate across
processes), how (backend, workers, governor outcome), what came out
(verdict, per-kind tick ledger, ``SearchStatistics``), how long it
took, and where the trace/metrics artifacts went.  The ledger is the
cross-run layer the future ``repro serve`` service will publish:
``repro report`` aggregates it (latency percentiles, verdict mix,
cache hit rates, per-backend comparison) and ``repro history --gate``
diffs a fresh ledger against the committed ``BENCH_*.json`` baselines
(see :mod:`repro.obs.history`).

Crash safety: records are appended with ``O_APPEND`` as one
``os.write`` per line under an advisory ``flock`` (where available),
so concurrent writers interleave whole lines and an interrupted run
never leaves a torn record — property-tested with two processes in
``tests/test_ledger.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SearchStatistics

__all__ = ["LEDGER_VERSION", "LEDGER_ENV", "RunRecord", "run_key",
           "statistics_fields", "append_record", "read_ledger",
           "check_ledger", "summarize_ledger", "render_summary",
           "ledger_report", "ledger_metrics", "group_name"]

LEDGER_VERSION = 1

#: Environment variable naming the default ledger file; the CLI flags
#: and ``benchmarks/report_schema.write_report`` both consult it.
LEDGER_ENV = "REPRO_LEDGER"

_REQUIRED_KEYS = ("v", "procedure", "verdict", "wall_s")


@dataclasses.dataclass
class RunRecord:
    """One run's worth of cross-process telemetry."""

    procedure: str
    label: str = ""
    #: Content-key digest from :func:`run_key` ("" when unavailable).
    key: str = ""
    verdict: str = ""
    backend: str = "python"
    workers: int = 1
    wall_s: float = 0.0
    exhausted: bool = False
    #: Governor outcome for interrupted runs ("budget", "deadline", ...).
    interrupted: str | None = None
    #: The governor's final per-kind tick ledger (``budget.snapshot()``).
    ticks: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Non-zero ``SearchStatistics`` fields.
    statistics: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Artifact paths (``{"trace": ..., "metrics": ..., "prom": ...}``).
    artifacts: dict[str, str] = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)
    #: At ``workers > 1``: the work units the searches' in-process heads
    #: spent, whether any search fanned out to the worker pool, and why
    #: (:class:`repro.core.search.FanOut`); ``None`` when no head ran.
    head_units: int = 0
    fanned_out: bool = False
    fan_out_reason: str | None = None

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["wall_s"] = round(float(self.wall_s), 6)
        payload["v"] = LEDGER_VERSION
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RunRecord":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in fields})


def run_key(procedure: str, *objects: Any) -> str:
    """A short content-key digest for one decision.

    Built on :func:`repro.engine.keys.decision_key` — the same
    content-addressed fingerprints the engine's cross-call caches use —
    so the *same* decision appends the *same* key from any process.
    """
    from repro.engine.keys import decision_key

    digest = hashlib.sha256(
        repr(decision_key(procedure, *objects)).encode("utf-8"))
    return digest.hexdigest()[:16]


def statistics_fields(statistics: "SearchStatistics | None",
                      ) -> dict[str, int]:
    """The non-zero ``SearchStatistics`` fields, ledger-shaped."""
    if statistics is None:
        return {}
    return {key: value
            for key, value in dataclasses.asdict(statistics).items()
            if value}


# ----------------------------------------------------------------------
# Crash-safe append + read
# ----------------------------------------------------------------------

def _flock(fd: int, acquire: bool) -> None:
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platform
        return
    fcntl.flock(fd, fcntl.LOCK_EX if acquire else fcntl.LOCK_UN)


def append_record(path: str, record: RunRecord) -> None:
    """Append *record* as one line; safe under concurrent writers.

    ``O_APPEND`` + a single ``os.write`` of the whole line means the
    kernel seeks and writes atomically per call; the advisory ``flock``
    additionally serializes writers on filesystems where large appends
    could interleave.  There is no temp-file dance here on purpose —
    an append-only file is never truncated, so a crash mid-write can
    at worst lose its own final line, never a predecessor's.
    """
    line = json.dumps(record.to_payload(), ensure_ascii=False,
                      sort_keys=True, default=repr) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        _flock(fd, True)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            _flock(fd, False)
    finally:
        os.close(fd)


def read_ledger(path: str) -> list[RunRecord]:
    """Parse every line; raises ``ValueError`` on a torn/corrupt line."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number} is not valid JSON: {error}"
                    ) from error
            records.append(RunRecord.from_payload(payload))
    return records


def check_ledger(path: str) -> list[str]:
    """Validate a ledger file; returns the problems (empty = valid)."""
    problems: list[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        return [f"cannot read {path}: {error}"]
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"line {line_number} is not valid JSON")
            continue
        if payload.get("v") != LEDGER_VERSION:
            problems.append(f"line {line_number}: unsupported ledger "
                            f"version {payload.get('v')!r}")
        missing = [key for key in _REQUIRED_KEYS if key not in payload]
        if missing:
            problems.append(f"line {line_number}: missing keys {missing}")
    return problems


# ----------------------------------------------------------------------
# Aggregation: `repro report`
# ----------------------------------------------------------------------

def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def group_name(record: RunRecord) -> str:
    """The pairing identity ``repro history`` matches rows on."""
    return (f"{record.procedure}/{record.label or '-'}/"
            f"{record.backend}/w{record.workers}")


def _cache_hit_rate(statistics: dict[str, int]) -> float | None:
    hits = statistics.get("engine_cache_hits", 0)
    evaluations = (statistics.get("full_evaluations", 0)
                   + statistics.get("delta_evaluations", 0))
    if hits + evaluations == 0:
        return None
    return hits / (hits + evaluations)


def summarize_ledger(records: Sequence[RunRecord]) -> dict:
    """The ``repro report`` aggregate: latency percentiles, verdict
    mix, cache hit rates, and a per-backend comparison."""
    procedures: dict[str, dict] = {}
    backends: dict[str, list[float]] = {}
    keys = set()
    for record in records:
        if record.key:
            keys.add(record.key)
        bucket = procedures.setdefault(record.procedure, {
            "walls": [], "verdicts": {}, "statistics": {},
            "exhausted": 0, "headed": 0, "fanned_out": 0})
        bucket["walls"].append(record.wall_s)
        if record.fan_out_reason is not None:
            bucket["headed"] += 1
            bucket["fanned_out"] += record.fanned_out
        if record.verdict:
            bucket["verdicts"][record.verdict] = \
                bucket["verdicts"].get(record.verdict, 0) + 1
        if record.exhausted:
            bucket["exhausted"] += 1
        for field, value in record.statistics.items():
            bucket["statistics"][field] = \
                bucket["statistics"].get(field, 0) + value
        backends.setdefault(record.backend, []).append(record.wall_s)

    def _proc_summary(bucket: dict) -> dict:
        summary = {
            "runs": len(bucket["walls"]),
            "wall_p50_s": round(_percentile(bucket["walls"], 0.50), 6),
            "wall_p90_s": round(_percentile(bucket["walls"], 0.90), 6),
            "verdicts": dict(sorted(bucket["verdicts"].items())),
            "exhausted": bucket["exhausted"],
        }
        rate = _cache_hit_rate(bucket["statistics"])
        if rate is not None:
            summary["cache_hit_rate"] = round(rate, 4)
        if bucket["headed"]:
            # Of the runs whose searches started with a head (workers >
            # 1), how many reached the worker pool.
            summary["fan_out"] = {"headed": bucket["headed"],
                                  "fanned_out": bucket["fanned_out"]}
        return summary

    return {
        "records": len(records),
        "distinct_keys": len(keys),
        "procedures": {name: _proc_summary(bucket)
                       for name, bucket in sorted(procedures.items())},
        "backends": {name: {"runs": len(walls),
                            "wall_p50_s": round(
                                _percentile(walls, 0.50), 6)}
                     for name, walls in sorted(backends.items())},
    }


def render_summary(summary: dict) -> str:
    lines = [f"ledger: {summary['records']} record(s), "
             f"{summary['distinct_keys']} distinct decision key(s)"]
    for name, proc in summary["procedures"].items():
        verdicts = ", ".join(f"{verdict}×{count}" for verdict, count
                             in proc["verdicts"].items()) or "-"
        line = (f"  {name}: {proc['runs']} run(s), "
                f"p50 {proc['wall_p50_s']:.4f}s, "
                f"p90 {proc['wall_p90_s']:.4f}s, verdicts {verdicts}")
        if proc["exhausted"]:
            line += f", exhausted×{proc['exhausted']}"
        if "cache_hit_rate" in proc:
            line += f", cache hit rate {proc['cache_hit_rate']:.0%}"
        if "fan_out" in proc:
            fan_out = proc["fan_out"]
            line += (f", fanned out {fan_out['fanned_out']}/"
                     f"{fan_out['headed']}")
        lines.append(line)
    backend_bits = ", ".join(
        f"{name} p50 {stats['wall_p50_s']:.4f}s ({stats['runs']})"
        for name, stats in summary["backends"].items())
    if backend_bits:
        lines.append(f"  backends: {backend_bits}")
    return "\n".join(lines)


def ledger_report(records: Sequence[RunRecord], *,
                  smoke: bool = False) -> dict:
    """Derive a ``BENCH_*.json``-shaped report (name ``"ledger"``) from
    ledger records, one row per :func:`group_name` group — the current
    side ``repro history`` pairs against a committed
    ``BENCH_ledger.json`` baseline."""
    groups: dict[str, list[RunRecord]] = {}
    for record in records:
        groups.setdefault(group_name(record), []).append(record)
    rows = []
    for name in sorted(groups):
        members = groups[name]
        walls = [record.wall_s for record in members]
        verdicts: dict[str, int] = {}
        for record in members:
            if record.verdict:
                verdicts[record.verdict] = \
                    verdicts.get(record.verdict, 0) + 1
        last = members[-1]
        rows.append({
            "name": name,
            "wall_s": round(_percentile(walls, 0.50), 6),
            "ticks": dict(last.ticks),
            "verdicts": verdicts,
            "extra": {"runs": len(members),
                      "wall_p90_s": round(_percentile(walls, 0.90), 6),
                      "key": last.key},
        })
    return {
        "bench_report_version": 1,
        "name": "ledger",
        "smoke": bool(smoke),
        "rows": rows,
        "gates": [],
        "extra": {"records": len(records)},
    }


def ledger_metrics(records: Sequence[RunRecord]) -> dict:
    """A :class:`~repro.obs.metrics.MetricsRegistry` snapshot aggregated
    over ledger records, for the Prometheus/event exporters."""
    from repro.obs.metrics import SEARCH_PREFIX, TICK_PREFIX, \
        MetricsRegistry

    registry = MetricsRegistry()
    for record in records:
        registry.count(f"ledger.runs.{record.procedure}")
        if record.verdict:
            registry.count(f"ledger.verdict.{record.verdict}")
        if record.exhausted:
            registry.count("ledger.exhausted")
        registry.observe("ledger.wall_seconds", record.wall_s)
        for kind, amount in record.ticks.items():
            if amount > 0:
                registry.count(TICK_PREFIX + kind, amount)
        for field, value in record.statistics.items():
            if value:
                registry.count(SEARCH_PREFIX + field, value)
    registry.gauge("ledger.records", float(len(records)))
    return registry.snapshot()
