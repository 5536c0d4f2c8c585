"""Statistics and process-level measurements shared by the benchmark.

Nothing here imports :mod:`repro`: these helpers time and summarize,
they never decide anything.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from typing import Sequence

#: A tail percentile must have at least this many samples above it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail(values: Sequence[float],
         beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that has at least *beyond* samples above it.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` sorted
    samples the candidate is the sample at 0-based rank
    ``n - beyond - 1``: exactly *beyond* samples lie above it, and it is
    the nearest-rank percentile ``100 * (rank + 1) / n`` (rounded down
    to 0.1, so the name never claims more than the rank supports).
    Fewer than ``beyond + 1`` samples leave no such percentile, which is
    an error: the caller must measure more operations.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(
            f"a tail with {beyond} samples beyond it needs at least "
            f"{beyond + 1} samples, got {n}")
    rank = n - beyond - 1
    percentile = math.floor(1000.0 * (rank + 1) / n) / 10
    return sorted(values)[rank], percentile, beyond


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size of this process (or its waited-for
    children, with ``RUSAGE_CHILDREN``) in MiB.

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
    """
    peak = resource.getrusage(who).ru_maxrss
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return peak / scale


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#
# The host is shared: the same interpreter work runs up to three times as
# slow from one minute to the next.  Every timed op is therefore
# bracketed by readings of a fixed reference task, and reported at the
# reference speed: raw time / factor, where factor is the mean of the
# nearby readings over the nominal time below (see
# ``workloads.run_stream``).  A slow host then does not read as a slow
# program, and the reference code never changes with the program under
# test.

#: Median time of :func:`reference_work` on the host the bounds were set
#: on (2-core x86-64, Python 3.11).
REFERENCE_S = 0.015
#: Median wall time of ``python -c pass`` on the same host.
REFERENCE_PROCESS_S = 0.075


def reference_work() -> int:
    """A fixed slice of interpreter work (dict and integer operations,
    the kind of work the deciders do)."""
    table: dict[int, int] = {}
    for i in range(90_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return len(table)


def host_factor() -> float:
    """How slow the host runs interpreter work right now (1.0 = the
    nominal speed): the gauge for in-process ops.  The median of three
    slices, so one interrupted slice does not skew the reading."""
    slices = []
    for _ in range(3):
        started = time.perf_counter()
        reference_work()
        slices.append(time.perf_counter() - started)
    return median(slices) / REFERENCE_S


def process_factor(env: dict) -> float:
    """How slow the host starts a bare interpreter right now: the gauge
    for ops that are fresh processes (start-up is file and page-fault
    work that the in-process gauge does not track)."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   capture_output=True, timeout=60)
    return (time.perf_counter() - started) / REFERENCE_PROCESS_S
