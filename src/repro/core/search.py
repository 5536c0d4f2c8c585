"""One search run: shard ownership, counters, outcomes and checkpoints.

Every exact search in :mod:`repro.core` walks a deterministic candidate
stream (valuations, extension sets, candidate databases, valuation-unit
sets) and is written once, as a *kernel* beside its decider.  A kernel
handles the candidates one :class:`ShardSpec` owns: shard ``i`` of ``n``
owns the stream positions ``p`` with ``p % n == i``, so shard 0 of 1 is
the whole serial stream.

A decider validates and prepares its search once, then runs its kernel
in-process as shard 0 of 1 when ``workers`` resolves to 1
(:func:`run_inline`, on the caller's governor and evaluation context), or
hands the same kernel to :mod:`repro.parallel` otherwise.  Either way it
gets one :class:`ShardOutcome` per shard and reconciles them with one
code path:

* the minimum-rank witness is the one the serial stream meets first
  (:func:`best_witness`);
* partial answers merge by per-key minimum rank (:func:`merged_finds`);
* the first exhausted shard names the interruption
  (:func:`first_exhausted`), and :func:`search_checkpoint` records every
  shard's resume point under one layout per procedure, with the worker
  count as the cursor's first entry.

Nothing here imports :mod:`repro.parallel`, so a serial decision never
loads the worker pool.
"""

from __future__ import annotations

import itertools
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterable, Iterator

from repro.core.results import SearchStatistics
from repro.errors import ExecutionInterrupted, ReproError
from repro.runtime import SearchCheckpoint

__all__ = ["resolve_workers", "ShardSpec", "ShardOutcome", "SearchRun",
           "Kernel", "run_inline", "owned", "subsets", "fresh_shards",
           "best_witness", "first_exhausted", "total_statistics",
           "merged_finds", "resume_shards", "search_checkpoint",
           "resume_point", "exhausted_result"]


def resolve_workers(workers: int | None) -> int:
    """Normalize the deciders' ``workers=`` knob to a positive count.

    ``None`` and ``1`` run the search in-process; ``0`` means "all
    cores" (:func:`os.cpu_count`); negative counts are rejected.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ReproError(
            f"workers must be nonnegative (0 = all cores), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return int(workers)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of a deterministic candidate stream.

    *skip* fast-forwards past owned candidates an interrupted run already
    processed; *done* marks a slice that was fully scanned before the
    interruption, so a resumed run answers it without searching;
    *carried* holds the partial answers the slice found so far (see
    :attr:`SearchRun.found`).
    """

    index: int = 0
    count: int = 1
    skip: int = 0
    done: bool = False
    carried: tuple = ()

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.count:
            raise ReproError(f"shard index must be in [0, {self.count}), "
                             f"got {self.index}")

    def owns(self, position: int) -> bool:
        return position % self.count == self.index


@dataclass
class ShardOutcome:
    """What one kernel run reports to its decider.

    *kind* is one of ``"complete"`` (slice fully scanned, or a
    partial-answer limit reached), ``"witness"`` (found a
    counterexample/witness at *rank*), ``"superseded"`` (stopped early
    because another shard holds a strictly earlier witness),
    ``"exhausted"`` (governor tripped), ``"progress"`` (a mid-run
    heartbeat snapshot from a supervised worker: same fields, not
    final), or ``"error"``.

    *consumed* counts the owned candidates the slice has fully processed,
    including the skip prefix of a resumed run, so it is directly a
    :attr:`ShardSpec.skip` value.  *data* is the witness payload of a
    ``"witness"`` outcome and, for every other kind, the slice's partial
    answers.  *ticks* is the per-kind snapshot of a worker governor's
    budget ledger, absorbed into the parent governor on reconciliation.
    """

    index: int
    kind: str
    rank: tuple[int, ...] | None = None
    data: Any = None
    consumed: int = 0
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    ticks: dict[str, int] = field(default_factory=dict)
    reason: str | None = None
    error: str | None = None
    #: When the parent traces, the worker observation's picklable
    #: ``{"spans": ..., "metrics": ...}`` payload, grafted into the
    #: parent's trace as a ``shard-N`` lane (``shard-N.aK`` for retry
    #: attempt K) on reconciliation.
    obs: dict | None = None
    #: Which attempt at this shard produced the outcome (0 = first);
    #: the supervisor discards messages from attempts it gave up on.
    attempt: int = 0


class SearchRun:
    """The slice, hooks and counters of one kernel invocation.

    A kernel walks its procedure's candidate stream in serial order and,
    for every candidate its :attr:`shard` owns past the skip prefix:

    * publishes a heartbeat snapshot when :attr:`beat` is due;
    * stops with a ``"superseded"`` outcome once :attr:`beacon` carries
      an earlier witness rank;
    * ticks :attr:`governor` before doing the work;
    * counts it in :attr:`examined` (and its constraint checks in
      :attr:`checks`), and in :attr:`consumed` once fully processed.

    Kernels that collect partial answers keep them in :attr:`found`, a
    dict from answer to an entry tuple ``(rank, answer, ...)`` seeded
    from the slice's carried answers.

    *owns_context* says whether the kernel runs on an evaluation context
    of its own (in a worker), whose engine counters it then reports; a
    kernel run in-process shares the decider's context, and the decider
    reports those counters itself.
    """

    __slots__ = ("shard", "governor", "context", "beacon", "beat",
                 "consumed", "examined", "checks", "examined_as", "found",
                 "_engine_base")

    def __init__(self, shard: ShardSpec, governor: Any, context: Any, *,
                 beacon: Any = None, beat: Any = None,
                 owns_context: bool = False) -> None:
        self.shard = shard
        self.governor = governor
        self.context = context
        self.beacon = beacon
        self.beat = beat
        self.consumed = shard.skip
        self.examined = 0
        self.checks = 0
        #: The ``SearchStatistics`` field :attr:`examined` is reported in.
        self.examined_as = "valuations_examined"
        self.found: dict = {entry[1]: entry for entry in shard.carried}
        self._engine_base = (context.statistics.copy()
                             if owns_context and context is not None
                             else None)

    def governed(self) -> ContextManager[Any]:
        """Attach the governor to the context for the search loop, so
        index builds inside it tick the budget."""
        if self.context is None:
            return nullcontext()
        return self.context.governed(self.governor)

    def statistics(self) -> SearchStatistics:
        stats = SearchStatistics(constraint_checks=self.checks,
                                 **{self.examined_as: self.examined})
        if self._engine_base is not None:
            stats = stats.merged(
                self.context.statistics.since(self._engine_base))
        return stats

    def outcome(self, kind: str, *, rank: tuple[int, ...] | None = None,
                data: Any = None, reason: str | None = None,
                ) -> ShardOutcome:
        budget = getattr(self.governor, "budget", None)
        return ShardOutcome(
            index=self.shard.index, kind=kind, rank=rank,
            data=tuple(self.found.values()) if data is None else data,
            consumed=self.consumed, statistics=self.statistics(),
            ticks=dict(budget.snapshot()) if budget is not None else {},
            reason=reason)

    def witness(self, rank: tuple[int, ...], data: Any) -> ShardOutcome:
        """Report a witness at *rank*, and let sibling shards stop at any
        later candidate."""
        if self.beacon is not None:
            self.beacon.offer(rank)
        return self.outcome("witness", rank=rank, data=data)

    def heartbeat(self) -> None:
        """Publish a progress snapshot: taken between candidates, it is
        an exact restart point for the supervisor."""
        self.beat.publish(self.outcome("progress"))


#: A kernel: one procedure's search loop over the slice a
#: :class:`SearchRun` owns, driven by a picklable payload dict.
Kernel = Callable[[SearchRun, dict], ShardOutcome]


def run_inline(kernel: Kernel, payload: dict, shard: ShardSpec,
               governor: Any, context: Any) -> ShardOutcome:
    """Run *kernel* in this process on the caller's governor and
    context; a slice already *done* is answered without searching."""
    if shard.done:
        return ShardOutcome(index=shard.index, kind="complete",
                            consumed=shard.skip, data=shard.carried)
    return kernel(SearchRun(shard, governor, context), payload)


def owned(shard: ShardSpec, candidates: Iterable[Any],
          ) -> Iterator[tuple[int, Any]]:
    """``(position, candidate)`` for the candidates of a flat stream that
    *shard* owns, past its skip prefix."""
    mine = ((position, candidate)
            for position, candidate in enumerate(candidates)
            if shard.owns(position))
    return itertools.islice(mine, shard.skip, None)


def subsets(items: Iterable[Any], smallest: int, largest: int,
            ) -> Iterator[tuple]:
    """Every subset of *items* of size *smallest*..*largest*, smallest
    first — the flat stream the bounded and candidate-set searches
    shard."""
    items = tuple(items)
    return itertools.chain.from_iterable(
        itertools.combinations(items, size)
        for size in range(smallest, largest + 1))


def fresh_shards(count: int) -> list[ShardSpec]:
    return [ShardSpec(index, count) for index in range(count)]


def best_witness(outcomes: Iterable[ShardOutcome]) -> ShardOutcome | None:
    """The minimum-rank witness, which the serial stream meets first."""
    outcomes = list(outcomes)
    witnesses = [o for o in outcomes if o.kind == "witness"]
    if not witnesses:
        if any(o.kind == "superseded" for o in outcomes):
            raise ReproError(
                "internal error: a shard observed a witness beacon but no "
                "shard reported a witness — please report this as a bug")
        return None
    return min(witnesses, key=lambda o: o.rank)


def first_exhausted(outcomes: Iterable[ShardOutcome],
                    ) -> ShardOutcome | None:
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if outcome.kind == "exhausted":
            return outcome
    return None


def total_statistics(outcomes: Iterable[ShardOutcome]) -> SearchStatistics:
    total = SearchStatistics()
    for outcome in outcomes:
        total = total.merged(outcome.statistics)
    return total


def merged_finds(outcomes: Iterable[ShardOutcome]) -> list[tuple]:
    """Every shard's partial-answer entries, one per answer (its
    minimum-rank occurrence), in rank order: the order in which the
    serial stream first meets them."""
    best: dict[Any, tuple] = {}
    for outcome in outcomes:
        for entry in outcome.data or ():
            known = best.get(entry[1])
            if known is None or entry[0] < known[0]:
                best[entry[1]] = entry
    return sorted(best.values(), key=lambda entry: entry[0])


def resume_shards(outcomes: Iterable[ShardOutcome]) -> list[ShardSpec]:
    """Where each shard resumes after *outcomes*: its consumed count,
    whether its slice is done, and the partial answers it carries."""
    ordered = sorted(outcomes, key=lambda o: o.index)
    return [ShardSpec(o.index, len(ordered), skip=o.consumed,
                      done=o.kind == "complete",
                      carried=tuple(o.data or ()))
            for o in ordered]


def search_checkpoint(procedure: str, shards: list[ShardSpec],
                      statistics: SearchStatistics,
                      position: tuple[int, ...] = (),
                      extra: tuple = ()) -> SearchCheckpoint:
    """The one checkpoint layout: cursor ``(workers, *position)``,
    payload ``(shard resume points, *extra)``."""
    return SearchCheckpoint(procedure=procedure,
                            cursor=(len(shards), *position),
                            statistics=statistics,
                            payload=(tuple(shards), *extra))


def resume_point(checkpoint: SearchCheckpoint, procedure: str, count: int,
                 ) -> tuple[tuple[int, ...], list[ShardSpec], tuple]:
    """Validate a :func:`search_checkpoint` and unpack it into
    ``(position, shards, extra)``.

    Shard ownership is a function of the worker count, so a checkpoint
    only resumes with the count it was taken under.
    """
    checkpoint.require(procedure)
    recorded = checkpoint.cursor[0]
    if recorded != count:
        raise ReproError(
            f"checkpoint from a workers={recorded} run cannot resume with "
            f"workers={count}: shard ownership depends on the count")
    shards, *extra = checkpoint.payload
    return tuple(checkpoint.cursor[1:]), list(shards), tuple(extra)


def exhausted_result(partial: Any, on_exhausted: str,
                     message: str | None = None) -> Any:
    """Return an ``EXHAUSTED`` *partial* result, or raise it attached to
    an :class:`~repro.errors.ExecutionInterrupted` under
    ``on_exhausted="error"``."""
    if on_exhausted == "error":
        raise ExecutionInterrupted(
            message or partial.explanation, reason=partial.interrupted,
            statistics=partial.statistics, partial_result=partial,
            checkpoint=partial.checkpoint)
    return partial
