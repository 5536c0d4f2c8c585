"""One search run: shard ownership, counters, outcomes and checkpoints.

Every exact search in :mod:`repro.core` walks a deterministic candidate
stream (valuations, extension sets, candidate databases, valuation-unit
sets) and is written once, as a *kernel* beside its decider.  A kernel
handles the candidates one :class:`ShardSpec` owns: shard ``i`` of ``n``
owns the stream positions ``p`` with ``p % n == i``, so shard 0 of 1 is
the whole serial stream.

A decider validates and prepares its search once, then hands its kernel
to :func:`run_search`.  When ``workers`` resolves to 1 the kernel runs
in-process as shard 0 of 1 (:func:`run_inline`, on the caller's governor
and evaluation context).  At ``workers=n > 1`` it first runs in-process
the same way, as the *head*, over the n-shard prefix layout, until it
has spent :data:`HEAD_START` work units (:class:`HeadStart`); only a
search still running then fans the rest of its stream out to
:mod:`repro.parallel`, as n shards that start where the head stopped.
Every head rank precedes every tail rank, so the decider gets one
:class:`ShardOutcome` per shard and reconciles them with one code path:

* the minimum-rank witness is the one the serial stream meets first
  (:func:`best_witness`);
* partial answers merge by per-key minimum rank (:func:`merged_finds`);
* the first exhausted shard names the interruption
  (:func:`first_exhausted`), and :func:`search_checkpoint` records every
  shard's resume point under one layout per procedure, with the shard
  count as the cursor's first entry: 1 until the search fans out.

Nothing here imports :mod:`repro.parallel` unless a search fans out, so
a search that ends in its head never loads the worker pool.
"""

from __future__ import annotations

import itertools
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ContextManager, Iterable, Iterator

from repro.core.results import SearchStatistics
from repro.errors import ExecutionInterrupted, ReproError
from repro.runtime import SearchCheckpoint

__all__ = ["HEAD_START", "resolve_workers", "ShardSpec", "ShardOutcome",
           "SearchRun", "Kernel", "HeadStart", "FanOut", "run_search",
           "run_inline", "owned", "subsets", "fresh_shards",
           "best_witness", "first_exhausted", "total_statistics",
           "merged_finds", "resume_shards", "search_checkpoint",
           "resume_point", "exhausted_result"]

#: H, the head start: the work units a search spends in-process at
#: ``workers > 1`` before it fans the rest of its stream out, and the
#: fewest predicted ticks per worker ``suggest_workers`` advises.  One
#: unit is one candidate the kernel ticks or one partial valuation the
#: positional plan extends.  H is one pool round in units: on a 2-core
#: x86-64 host (Python 3.11) a 2-worker round cost a median 20.7 ms over
#: the in-process run of the 7 shipped bundles, and in-process searches
#: spent 0.5 to 3.7 µs per unit, 2.5 µs on the Theorem 3.6 family
#: (``docs/PARALLEL.md``).
HEAD_START = 8_192

#: The interruption reason a head raises to hand its stream over.
_HANDOVER = "handover"


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

    *layout* is the shard count whose prefix layout numbers the slice's
    valuations (0: *count*); a head is shard 0 of 1 in the layout of the
    shards it may hand over to.  *start* is where a head stopped: its
    last entry is a stream position (a prefix number, or a flat
    position), and the entries before it the outer rank components it
    lies under (a tableau index).  Positions before *start* belong to
    the head; the shard that owns the interrupted prefix resumes it
    through *skip*.
    """

    index: int = 0
    count: int = 1
    skip: int = 0
    done: bool = False
    carried: tuple = ()
    layout: int = 0
    start: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.count:
            raise ReproError(f"shard index must be in [0, {self.count}), "
                             f"got {self.index}")

    def owns(self, position: int) -> bool:
        return position % self.count == self.index

    def first(self, *outer: int) -> int | None:
        """The first position of the stream under rank components
        *outer* that the slice covers: the head's stopping position at
        its own stream, 0 after it, and None before it (the head covered
        that stream)."""
        if not self.start:
            return 0
        stopped_under = self.start[:-1]
        if outer == stopped_under:
            return self.start[-1]
        return 0 if outer > stopped_under else None


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
    #: The slice's :attr:`ShardSpec.start`, kept for its resume point.
    start: tuple[int, ...] = ()


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

    @property
    def meter(self) -> "HeadStart | None":
        """The allowance meter when this run is a head, for the
        enumerator to count plan extensions into."""
        return self.beat if isinstance(self.beat, HeadStart) else None

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
            reason=reason, start=self.shard.start)

    def witness(self, rank: tuple[int, ...], data: Any) -> ShardOutcome:
        """Report a witness at *rank*, and let sibling shards stop at any
        later candidate."""
        if self.beacon is not None:
            self.beacon.offer(rank)
        return self.outcome("witness", rank=rank, data=data)

    def heartbeat(self, start: tuple[int, ...], within: int = 0) -> None:
        """Publish a progress snapshot, taken before the candidate that
        is number *within* of the stream unit *start* (a prefix, or a
        flat position): an exact restart point for the supervisor, and
        the point where a head hands its stream over."""
        self.beat.publish(self.outcome("progress"), start, within)


#: A kernel: one procedure's search loop over the slice a
#: :class:`SearchRun` owns, driven by a picklable payload dict.
Kernel = Callable[[SearchRun, dict], ShardOutcome]


class HeadStart:
    """The allowance of a search's in-process head, in work units.

    One unit is one candidate the kernel ticks (:attr:`SearchRun.
    examined`) or one partial valuation the positional plan extends,
    which :func:`~repro.core.valuations.iter_valid_valuations` counts
    into :attr:`extensions`.  The meter stands in for a worker's
    heartbeat: the kernel reads :attr:`due` between candidates and the
    enumerator between prefixes, and once the allowance is spent the
    kernel's :meth:`SearchRun.heartbeat` (or the enumerator's
    :meth:`stop`) records where the stream hands over and unwinds the
    kernel with an interruption :func:`run_search` takes back.
    """

    __slots__ = ("allowance", "extensions", "run", "handover")

    def __init__(self, allowance: int) -> None:
        self.allowance = allowance
        self.extensions = 0
        self.run: SearchRun | None = None
        #: ``(start, within)`` once the head stopped: the stream unit it
        #: stopped in and how many of that unit's candidates it consumed.
        self.handover: tuple[tuple[int, ...], int] | None = None

    @property
    def units(self) -> int:
        return self.run.examined + self.extensions

    @property
    def due(self) -> bool:
        # A resumed head hands over only past its skip prefix (once it
        # has examined a candidate): a skipped stretch that spans several
        # prefixes has no one shard to resume it.
        run = self.run
        return (run.examined + self.extensions >= self.allowance
                and (run.examined > 0 or not run.shard.skip))

    def publish(self, outcome: ShardOutcome, start: tuple[int, ...],
                within: int = 0) -> None:
        self.stop(start, within)

    def stop(self, start: tuple[int, ...], within: int = 0) -> None:
        self.handover = (tuple(start), within)
        raise ExecutionInterrupted("head start spent", reason=_HANDOVER)


@dataclass
class FanOut:
    """What the heads of one governor's searches did (kept on
    :attr:`~repro.runtime.ExecutionGovernor.fan_out`, mirrored onto the
    decision's root span, and read into the run ledger).

    *head_units* sums the heads' work units; *fanned_out* says whether
    any search reached the pool, and *reason* why the last one did or
    did not: ``"ended in head"``, ``"allowance spent"``, or ``"resumed
    shards"`` (a checkpoint taken after a fan-out resumes in the pool).
    """

    head_units: int = 0
    fanned_out: bool = False
    reason: str = ""

    def attributes(self) -> dict[str, Any]:
        return {"head_units": self.head_units,
                "fanned_out": self.fanned_out,
                "fan_out_reason": self.reason}


def _note_fan_out(governor: Any, units: int, reason: str) -> None:
    if governor is None:
        return
    record = governor.fan_out
    if record is None:
        record = governor.fan_out = FanOut()
    record.head_units += units
    record.fanned_out = record.fanned_out or reason != "ended in head"
    record.reason = reason
    observation = governor.obs
    if observation is not None:
        observation.tracer.annotate_root(**record.attributes())


def run_search(entry: str, kind: str, kernel: Kernel, payload: dict,
               shards: list[ShardSpec], *, count: int, governor: Any,
               context: Any, use_beacon: bool = True,
               ) -> list[ShardOutcome]:
    """Run *kernel* over the slices *shards* describe and return one
    outcome per shard.

    At ``count == 1`` this is :func:`run_inline`.  At ``count = n > 1``
    a single slice (a fresh search, or a checkpoint taken before any fan
    out) first runs in-process as the head, shard 0 of 1 in the n-shard
    prefix layout, on the caller's governor and context.  A search that
    ends there returns the head's outcome, exactly the serial run's, and
    never imports :mod:`repro.parallel`.  Otherwise the stream from the
    head's stopping point on (or the n slices of a checkpoint taken
    after a fan out) goes to ``repro.parallel.api.<entry>``, the
    decider's named entry point, looked up when called; the head's
    counters and partial answers are carried into the tail like a
    committed prefix.  *kind* names the shards' work in the pool.
    """
    if count == 1 or (len(shards) == 1 and shards[0].done):
        return [run_inline(kernel, payload, shards[0], governor, context)]
    head = None
    if len(shards) == 1:
        meter = HeadStart(HEAD_START)
        run = SearchRun(replace(shards[0], layout=count), governor, context,
                        beat=meter)
        meter.run = run
        head = kernel(run, payload)
        if head.kind != "exhausted" or head.reason != _HANDOVER:
            _note_fan_out(governor, meter.units, "ended in head")
            return [head]
        _note_fan_out(governor, meter.units, "allowance spent")
        start, within = meter.handover
        shards = [ShardSpec(index, count, carried=head.data, start=start,
                            skip=within if start[-1] % count == index
                            else 0)
                  for index in range(count)]
    else:
        _note_fan_out(governor, 0, "resumed shards")
    from repro.parallel import api

    outcomes = getattr(api, entry)(kind, kernel, payload, shards,
                                   governor=governor, context=context,
                                   use_beacon=use_beacon)
    if head is not None:
        outcomes[0].statistics = head.statistics.merged(
            outcomes[0].statistics)
    return outcomes


def run_inline(kernel: Kernel, payload: dict, shard: ShardSpec,
               governor: Any, context: Any) -> ShardOutcome:
    """Run *kernel* in this process on the caller's governor and
    context; a slice already *done* is answered without searching."""
    if shard.done:
        return ShardOutcome(index=shard.index, kind="complete",
                            consumed=shard.skip, data=shard.carried,
                            start=shard.start)
    return kernel(SearchRun(shard, governor, context), payload)


def owned(shard: ShardSpec, candidates: Iterable[Any],
          ) -> Iterator[tuple[int, Any]]:
    """``(position, candidate)`` for the candidates of a flat stream that
    *shard* owns, from its :attr:`~ShardSpec.start` and past its skip
    prefix."""
    first = shard.first()
    mine = ((position, candidate) for position, candidate in enumerate(
        itertools.islice(candidates, first, None), first)
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


def fresh_shards() -> list[ShardSpec]:
    """The slices of a search not started yet: one, at any worker count
    (:func:`run_search` runs it as the head when there are more)."""
    return [ShardSpec()]


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
                      carried=tuple(o.data or ()), start=o.start)
            for o in ordered]


def search_checkpoint(procedure: str, shards: list[ShardSpec],
                      statistics: SearchStatistics,
                      position: tuple[int, ...] = (),
                      extra: tuple = ()) -> SearchCheckpoint:
    """The one checkpoint layout: cursor ``(shards, *position)``,
    payload ``(shard resume points, *extra)``."""
    return SearchCheckpoint(procedure=procedure,
                            cursor=(len(shards), *position),
                            statistics=statistics,
                            payload=(tuple(shards), *extra))


def resume_point(checkpoint: SearchCheckpoint, procedure: str, count: int,
                 ) -> tuple[tuple[int, ...], list[ShardSpec], tuple]:
    """Validate a :func:`search_checkpoint` and unpack it into
    ``(position, shards, extra)``.

    A checkpoint of one slice (a serial run, or a search interrupted
    before it fanned out) resumes with any worker count: at ``count >
    1`` its slice runs as a head.  Its partial answers all precede what
    the resumed run can find, so they are re-ranked ``(-1, i)`` in find
    order, below every stream rank of any layout.  Ownership of n > 1
    slices is a function of n, so such a checkpoint only resumes with
    the count it was taken under.
    """
    checkpoint.require(procedure)
    recorded = checkpoint.cursor[0]
    if recorded not in (1, count):
        raise ReproError(
            f"checkpoint from a workers={recorded} run cannot resume with "
            f"workers={count}: shard ownership depends on the count")
    shards, *extra = checkpoint.payload
    if recorded == 1:
        shards = [replace(shard, carried=tuple(
            ((-1, i), *entry[1:]) for i, entry in enumerate(shard.carried)))
            for shard in shards]
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
