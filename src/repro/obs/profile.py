"""The phase-profile table: where did the decision spend its time?

Aggregates span records by phase name into a fixed-width text table in
the spirit of ``cProfile``'s output — one row per phase, sorted by
total time — with *own* time (total minus time attributed to child
spans) and the per-kind governor ticks charged inside the phase.  A
phase whose spans say how many valuations they decided in blocks and
how many they visited one by one (the search kernels' enumeration) gets
a line under the table with the totals.  See ``docs/OBSERVABILITY.md``
for a reading guide.
"""

from __future__ import annotations

__all__ = ["profile_rows", "render_profile"]

#: The span attributes a search kernel's ``enumerate_valuations`` span
#: records (:meth:`repro.core.search.SearchRun.enumerating`), summed per
#: phase into its row's ``valuations``.
_VALUATION_ATTRIBUTES = ("blocks", "valuations_in_blocks",
                         "valuations_visited")


def profile_rows(records: list[dict]) -> list[dict]:
    """Aggregate span *records* (wire form) into per-phase rows:
    ``{"name", "calls", "total_s", "own_s", "ticks", "valuations"}``,
    sorted by ``total_s`` descending; ``valuations`` sums the phase's
    block attributes (empty for a phase that records none)."""
    child_time: dict[int, float] = {}
    spans = [r for r in records if r.get("type") == "span"]
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + record["dur"])
    phases: dict[str, dict] = {}
    for record in spans:
        row = phases.setdefault(record["name"], {
            "name": record["name"], "calls": 0,
            "total_s": 0.0, "own_s": 0.0, "ticks": {}, "valuations": {}})
        row["calls"] += 1
        row["total_s"] += record["dur"]
        row["own_s"] += max(
            0.0, record["dur"] - child_time.get(record["id"], 0.0))
        for kind, amount in (record.get("ticks") or {}).items():
            row["ticks"][kind] = row["ticks"].get(kind, 0) + amount
        attributes = record.get("attrs") or {}
        for name in _VALUATION_ATTRIBUTES:
            if name in attributes:
                row["valuations"][name] = (row["valuations"].get(name, 0)
                                           + attributes[name])
    return sorted(phases.values(),
                  key=lambda row: (-row["total_s"], row["name"]))


def _format_ticks(ticks: dict[str, int]) -> str:
    if not ticks:
        return "-"
    return ", ".join(f"{kind}={amount}"
                     for kind, amount in sorted(ticks.items()))


def render_profile(records: list[dict]) -> str:
    """The text phase-profile table for span *records*."""
    rows = profile_rows(records)
    if not rows:
        return "phase profile: no spans recorded"
    name_width = max(5, max(len(row["name"]) for row in rows))
    lines = [
        f"{'phase':<{name_width}}  {'calls':>6}  {'total s':>10}  "
        f"{'own s':>10}  ticks",
        f"{'-' * name_width}  {'-' * 6}  {'-' * 10}  {'-' * 10}  "
        f"{'-' * 5}",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  {row['calls']:>6}  "
            f"{row['total_s']:>10.6f}  {row['own_s']:>10.6f}  "
            f"{_format_ticks(row['ticks'])}")
    for row in rows:
        counts = row["valuations"]
        if counts:
            lines.append(
                f"{row['name']}: "
                f"{counts.get('valuations_in_blocks', 0):,} valuation(s) "
                f"decided in {counts.get('blocks', 0):,} block(s), "
                f"{counts.get('valuations_visited', 0):,} visited one by "
                f"one")
    return "\n".join(lines)
