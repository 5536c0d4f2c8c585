"""Seeded inputs, the operations run on them, and the closed-loop runner.

A workload is one closed-loop client (one operation at a time, each
waiting for its reply) running three op streams in turn:

``corpus``
    Routine traffic: ``load_bundle`` + ``decide_rcdp`` on generated
    corpus scenarios (4 families x CQ/CQ!=/UCQ x small/medium x both
    verdicts) and on the shipped golden bundles.
``heavy``
    The hot loop: five search kinds run in a fixed order, one op each
    per cycle (``dense``, ``pruned``, ``denial``, ``general``,
    ``rcqp``).
``cli``
    ``python -m repro decide`` as a fresh subprocess on each shipped
    bundle: start-up plus decision, as a CLI user sees it.

The ``serial`` workload runs everything with default flags; ``sharded``
runs the same traffic with ``workers=2`` wherever the API takes a
worker count (``count_completing_extensions`` takes none, so ``general``
stays serial there).  See ``README.md`` for why each stream exists.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLES = ROOT / "examples" / "bundles"
Q0_BUNDLE = BUNDLES / "crm_q0_area_code.json"
#: Scratch space inside the checkout for generated bundles and traces.
WORK = ROOT / ".perfbench"

WORKLOADS = {"serial": 1, "sharded": 2}
STREAMS = ("corpus", "heavy", "cli")
HEAVY_KINDS = ("dense", "pruned", "denial", "general", "rcqp")
#: Kinds whose decider takes ``workers``.
SHARDABLE = ("dense", "pruned", "denial", "rcqp")

#: Corpus scenarios per family: every 12 cover the tier x size x target
#: grid once.  Many distinct scenarios make the latency percentiles
#: properties of the scenario population, not of a few slow draws.
CORPUS_PER_FAMILY = 120
#: ∀∃-3SAT size for ``pruned`` (n universal variables, one existential).
PRUNED_UNIVERSAL = 6
#: ``denial``: domestic customers; φ1 allows k = n - 1 per employee.
DENIAL_CUSTOMERS = 6
DENIAL_AREA_CODES = 4
#: ``rcqp``: base formulas (variables, clauses), each decided under
#: ``RCQP_RENAMINGS`` seeded renamings per op.  The unsatisfiable one is
#: searched exhaustively; the satisfiable one stops at its witness, how
#: early depending on the renaming, so an op averages over two.
RCQP_UNSAT = (5, 30)
RCQP_SAT = (5, 12)
RCQP_RENAMINGS = 2

#: An op slower than this counts as failed (timed out).
OP_TIMEOUT_S = {"corpus": 5.0, "heavy": 60.0, "cli": 60.0}

#: The exact counters reported per workload, from ``SearchStatistics``.
COUNTERS = ("valuations_examined", "constraint_checks", "plans_compiled",
            "index_builds", "delta_evaluations", "full_evaluations",
            "engine_cache_hits")


@dataclass
class Outcome:
    """What one op returns: whether it matched its reference, a short
    description, and its ``SearchStatistics`` counters.

    *counters* are exact: the same inputs and code give the same
    numbers on every run.  A sharded search that stops at a witness
    examines a timing-dependent amount of work before the other shard
    sees the stop signal; its counters go to *volatile* instead, are
    reported, and are never compared.
    """

    ok: bool
    detail: str
    counters: dict = field(default_factory=dict)
    volatile: dict = field(default_factory=dict)

    def add(self, statistics: Any, exact: bool, **extra: int) -> None:
        values = {name: getattr(statistics, name) for name in COUNTERS}
        values.update(extra)
        if exact:
            self.counters = add_counters(self.counters, values)
        else:
            self.volatile = add_counters(self.volatile, values)


@dataclass
class Op:
    """One operation: *run* executes it and checks it against its
    reference."""

    stream: str
    kind: str
    name: str
    digest: str
    run: Callable[[], Outcome]


@dataclass
class Sample:
    """One timed op: *seconds* is the raw wall time, *factor* the host
    speed around it (see ``measure.host_factor``)."""

    op: Op
    seconds: float
    outcome: Outcome
    factor: float = 1.0

    @property
    def ok(self) -> bool:
        return self.outcome.ok

    @property
    def scaled(self) -> float:
        """The op's time at the reference host speed."""
        return self.seconds / self.factor


def digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def add_counters(left: dict, right: dict) -> dict:
    return {key: left.get(key, 0) + right.get(key, 0)
            for key in set(left) | set(right)}


def _decision_digest(*objects: Any) -> str:
    from repro.engine.keys import decision_key

    return digest(decision_key("perfbench", *objects))


# ---------------------------------------------------------------------------
# corpus stream
# ---------------------------------------------------------------------------


def corpus_ops(seed: int, workers: int, out_dir: Path) -> list[Op]:
    """Generated scenarios (reference: the spec's constructed target)
    and the shipped goldens (reference: their ``expected`` block).

    Scenarios come from ``build_scenario(spec_for(...))`` without the
    generator's oracle self-check, so a wrong verdict is counted as a
    failed op instead of being raised while generating.
    """
    from repro.corpus import FAMILIES, build_scenario, spec_for
    from repro.io.json_io import dump_bundle

    out_dir.mkdir(parents=True, exist_ok=True)
    targets: list[tuple[Path, str]] = []
    for family in FAMILIES:
        for index in range(CORPUS_PER_FAMILY):
            spec = spec_for(family, seed, index)
            built = build_scenario(spec)
            path = out_dir / f"{spec.name}.json"
            dump_bundle(str(path), schema=built.schema,
                        master_schema=built.master_schema,
                        database=built.database, master=built.master,
                        query=built.query, constraints=built.constraints)
            targets.append((path, spec.target))
    for path in sorted(BUNDLES.glob("*.json")):
        expected = json.loads(path.read_text(encoding="utf-8"))["expected"]
        targets.append((path, expected["rcdp"]))
    # A seeded shuffle, so that whatever prefix of the stream a run gets
    # through samples every family and grid point alike.
    random.Random(f"perfbench:corpus-order:{seed}").shuffle(targets)
    return [_corpus_op(path, target, workers) for path, target in targets]


def _corpus_op(path: Path, target: str, workers: int) -> Op:
    from repro.core import rcdp
    from repro.io import json_io

    key = digest(path.read_bytes())

    def run() -> Outcome:
        bundle = json_io.load_bundle(str(path))
        result = rcdp.decide_rcdp(bundle["query"], bundle["database"],
                                  bundle["master"], bundle["constraints"],
                                  workers=workers)
        verdict = result.status.value
        outcome = Outcome(verdict == target,
                          f"{verdict} (expected {target})")
        outcome.add(result.statistics,
                    exact=workers == 1 or result.is_complete)
        return outcome

    return Op("corpus", "corpus", path.stem, key, run)


# ---------------------------------------------------------------------------
# heavy stream
# ---------------------------------------------------------------------------


def dense_op(workers: int) -> Op:
    """``missing_answers_report`` on CRM q0: 23^4 valuations, 21 checks.
    q0 is fixed (the ROADMAP's reference); the seed does not touch it."""
    from repro.core import rcdp
    from repro.io import json_io
    from repro.relational.domain import is_fresh

    loaded = json_io.load_bundle(str(Q0_BUNDLE))
    key = _decision_digest(loaded["query"], loaded["database"],
                           loaded["master"], *loaded["constraints"])

    def run() -> Outcome:
        bundle = json_io.load_bundle(str(Q0_BUNDLE))
        report = rcdp.missing_answers_report(
            bundle["query"], bundle["database"], bundle["master"],
            bundle["constraints"], workers=workers)
        stats = report.statistics
        ok = (report.exhaustive
              and stats.valuations_examined == references.DENSE_VALUATIONS
              and references.dense_answers_ok(report.answers, is_fresh))
        outcome = Outcome(ok, f"{len(report.answers)} missing answers")
        outcome.add(stats, exact=True)
        return outcome

    return Op("heavy", "dense", "crm_q0", key, run)


def pruned_formulas(seed: int) -> list:
    """A true ∀∃-3SAT formula and its false twin, renamed by the seed.

    The true one is Theorem 3.6's exhaustive family ``∀x ∃y ⋀(±x_i ∨
    ±x_i ∨ y)`` with the variables permuted and half the x literals
    negated; the twin negates y in one clause, so two clauses force y
    both ways.  Every seed yields the same search shape (the IND row
    filter prunes a deep DFS to 193 leaves), so only the values move.
    """
    from repro.solvers.qbf import ForallExists3SAT
    from repro.solvers.sat import CNF

    rng = random.Random(f"perfbench:pruned:{seed}")
    n = PRUNED_UNIVERSAL
    y = n + 1
    order = list(range(1, n + 1))
    rng.shuffle(order)
    signs = [-1] * (n // 2) + [1] * (n - n // 2)
    rng.shuffle(signs)
    clauses = [(s * v, s * v, y) for s, v in zip(signs, order)]
    flip = rng.randrange(n)
    twin = [(a, b, -c if i == flip else c)
            for i, (a, b, c) in enumerate(clauses)]
    return [ForallExists3SAT(range(1, n + 1), [y], CNF(matrix))
            for matrix in (clauses, twin)]


def pruned_op(seed: int, workers: int) -> Op:
    """Theorem 3.6 ∀∃-3SAT -> RCDP: COMPLETE iff the formula is true.
    Reference: the QBF expansion solver."""
    from repro.core import rcdp
    from repro.core.results import RCDPStatus
    from repro.reductions.qsat_to_rcdp import \
        reduce_forall_exists_3sat_to_rcdp

    cases = []
    for formula in pruned_formulas(seed):
        instance = reduce_forall_exists_3sat_to_rcdp(formula)
        cases.append((instance, formula.is_true()))
    key = digest(*(_decision_digest(i.query, i.database, i.master,
                                    *i.constraints) for i, _ in cases))

    def run() -> Outcome:
        outcome = Outcome(True, "")
        for instance, true in cases:
            result = rcdp.decide_rcdp(
                instance.query, instance.database, instance.master,
                list(instance.constraints), workers=workers)
            complete = result.status is RCDPStatus.COMPLETE
            outcome.ok &= complete == true
            outcome.detail += f"{result.status.value} "
            outcome.add(result.statistics, exact=workers == 1 or complete)
        return outcome

    return Op("heavy", "pruned", "qsat_true+false", key, run)


def _crm(config: Any, label: str, seed: int,
         accept: Callable[[Any], bool]) -> Any:
    """A seeded CRM scenario of a fixed shape: the generator's RNG is
    drawn from the seed, and draws are retried (deterministically)
    until *accept* holds, so every seed gives the same search shape."""
    from repro.mdm.generators import generate_scenario

    for attempt in itertools.count():
        rng = random.Random(f"perfbench:{label}:{seed}:{attempt}")
        scenario = generate_scenario(config, rng)
        if accept(scenario):
            return scenario
    raise AssertionError("unreachable")


def denial_inputs(seed: int) -> tuple:
    """Q2 under ``supt⊆dcust`` and φ1 at-most-k with k = n - 1: every
    employee already supports k customers and master data holds one
    more, so each candidate passes the IND filter and must be refuted
    by φ1's (k+1)-way self-join.  COMPLETE by construction."""
    from repro.mdm.generators import GeneratorConfig

    n = DENIAL_CUSTOMERS
    config = GeneratorConfig(num_domestic=n, num_international=0,
                             num_employees=3, support_probability=1.0,
                             missing_support_fraction=0.0)
    scenario = _crm(
        config, "denial", seed,
        lambda s: (len({r.ac for r in s.domestic}) == DENIAL_AREA_CODES
                   and len({d for _, d, _ in s.support}) == 3))
    spare = f"c{n - 1}"
    database = scenario.database(
        missing_support=[(f"e{i}", spare) for i in range(3)])
    constraints = [scenario.supt_cid_ind(), scenario.phi1_at_most_k(n - 1)]
    return (scenario.q2_all_supported_by("e0"), database,
            scenario.master(), constraints)


def denial_op(seed: int, workers: int) -> Op:
    from repro.core import rcdp
    from repro.core.results import RCDPStatus

    query, database, master, constraints = denial_inputs(seed)
    key = _decision_digest(query, database, master, *constraints)

    def run() -> Outcome:
        result = rcdp.decide_rcdp(query, database, master, constraints,
                                  workers=workers)
        complete = result.status is RCDPStatus.COMPLETE
        outcome = Outcome(complete, result.status.value)
        outcome.add(result.statistics, exact=workers == 1 or complete)
        return outcome

    return Op("heavy", "denial", f"q2_phi1_n{DENIAL_CUSTOMERS}", key, run)


def general_inputs(seed: int) -> tuple:
    """q0 on generated CRM data under the default constraints (φ0 and
    cust01 have general targets, so every candidate costs a full CC
    check).  The shape is fixed: one 908-area domestic customer,
    supported by one employee, and one international customer; the seed
    picks the department."""
    from repro.mdm.generators import GeneratorConfig

    config = GeneratorConfig(num_domestic=1, num_international=1,
                             num_employees=1, support_probability=1.0,
                             management_depth=0)
    scenario = _crm(config, "general", seed,
                    lambda s: s.domestic[0].ac == "908")
    return (scenario.q0_customers_with_area_code(), scenario.database(),
            scenario.master(), scenario.default_constraints())


def general_op(seed: int) -> Op:
    """``count_completing_extensions``: the counting problem over the
    relative-completeness margin.  Reference: the pinned count."""
    from repro.incomplete import counting

    query, database, master, constraints = general_inputs(seed)
    key = _decision_digest(query, database, master, *constraints)

    def run() -> Outcome:
        report = counting.count_completing_extensions(
            query, database, master, constraints)
        ok = (report.exhaustive
              and report.count == references.GENERAL_EXTENSIONS)
        outcome = Outcome(ok, f"{report.count} extensions")
        outcome.add(report.statistics, exact=True, extensions=report.count)
        return outcome

    return Op("heavy", "general", "crm_q0_count", key, run)


def rcqp_formulas(seed: int) -> list:
    """Unsatisfiable and satisfiable 3CNFs, renamed by the seed.

    Each base formula is drawn once from a fixed stream; the seed then
    permutes its variables and flips polarities (``RCQP_RENAMINGS``
    times), which preserves satisfiability and the reduction's search
    shape."""
    from repro.solvers.sat import CNF, dpll_satisfiable, random_3sat

    base_rng = random.Random("perfbench:rcqp:base")
    bases = []
    for (n, m), satisfiable in ((RCQP_UNSAT, False), (RCQP_SAT, True)):
        while True:
            cnf = random_3sat(n, m, base_rng)
            if (dpll_satisfiable(cnf) is not None) == satisfiable:
                bases.append(cnf)
                break
    rng = random.Random(f"perfbench:rcqp:{seed}")
    renamed = []
    for cnf in bases * RCQP_RENAMINGS:
        order = list(range(1, cnf.num_variables + 1))
        rng.shuffle(order)
        flips = {v: rng.choice((-1, 1)) for v in order}
        clauses = [tuple((1 if lit > 0 else -1) * flips[abs(lit)]
                         * order[abs(lit) - 1] for lit in clause)
                   for clause in cnf.clauses]
        renamed.append(CNF(clauses, num_variables=cnf.num_variables))
    return renamed


def rcqp_op(seed: int, workers: int) -> Op:
    """Theorem 4.5 3SAT -> RCQP(CQ, INDs): EMPTY iff satisfiable.
    Reference: the DPLL solver."""
    from repro.core import rcqp
    from repro.core.results import RCQPStatus
    from repro.reductions.sat_to_rcqp import reduce_3sat_to_rcqp
    from repro.solvers.sat import dpll_satisfiable

    cases = []
    for cnf in rcqp_formulas(seed):
        instance = reduce_3sat_to_rcqp(cnf)
        cases.append((instance, dpll_satisfiable(cnf) is not None))
    key = digest(*(_decision_digest(i.query, i.master, *i.constraints)
                   for i, _ in cases))

    def run() -> Outcome:
        outcome = Outcome(True, "")
        for instance, satisfiable in cases:
            result = rcqp.decide_rcqp(
                instance.query, instance.master, list(instance.constraints),
                instance.schema, workers=workers)
            empty = result.status is RCQPStatus.EMPTY
            outcome.ok &= empty == satisfiable
            outcome.detail += f"{result.status.value} "
            # EMPTY stops at the first witness valuation.
            outcome.add(result.statistics, exact=workers == 1 or not empty)
        return outcome

    return Op("heavy", "rcqp", "3sat_unsat+sat_x2", key, run)


def heavy_ops(seed: int, workers: int) -> list[Op]:
    return [dense_op(workers), pruned_op(seed, workers),
            denial_op(seed, workers), general_op(seed),
            rcqp_op(seed, workers)]


# ---------------------------------------------------------------------------
# cli stream
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The environment for ``python -m repro``: this checkout's sources,
    and no backend or start-method override."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_ops(workers: int) -> list[Op]:
    """One fresh ``python -m repro decide`` per shipped bundle.
    Reference: the bundle's ``expected`` verdict, as exit code (0
    complete, 1 incomplete) and as the printed ``RCDP:`` line."""
    ops = []
    for path in sorted(BUNDLES.glob("*.json")):
        raw = path.read_bytes()
        expected = json.loads(raw)["expected"]["rcdp"]
        ops.append(_cli_op(path, expected, workers, digest(raw)))
    return ops


def _cli_op(path: Path, expected: str, workers: int, key: str) -> Op:
    command = [sys.executable, "-m", "repro", "decide", str(path)]
    if workers != 1:
        command += ["--workers", str(workers)]
    want_code = 0 if expected == "complete" else 1

    def run() -> Outcome:
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, env=child_env(),
                              timeout=OP_TIMEOUT_S["cli"])
        printed = f"RCDP: {expected}" in done.stdout.splitlines()
        return Outcome(done.returncode == want_code and printed,
                       f"exit {done.returncode}")

    return Op("cli", "cli", path.stem, key, run)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def build_ops(seed: int, workers: int) -> dict[str, list[Op]]:
    """Every op of one workload, inputs generated from *seed*."""
    return {
        "corpus": corpus_ops(seed, workers,
                             WORK / f"corpus-{os.getpid()}-{seed}"),
        "heavy": heavy_ops(seed, workers),
        "cli": cli_ops(workers),
    }


def run_op(op: Op) -> Sample:
    """Run one op; an exception, a mismatch or a timeout fails it but
    never aborts the run.

    The garbage earlier ops left behind is collected before the clock
    starts, so an op pays for its own allocations only."""
    gc.collect()
    started = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # a failed op is data, not a crash
        outcome = Outcome(False, f"raised {exc!r}")
    elapsed = time.perf_counter() - started
    if elapsed > OP_TIMEOUT_S[op.stream]:
        outcome.ok = False
        outcome.detail = f"timed out ({elapsed:.1f} s): {outcome.detail}"
    return Sample(op, elapsed, outcome)


def run_stream(ops: list[Op], seconds: float, *, min_ops: int,
               whole_cycles: bool = True,
               gauge: Callable[[], float] | None = None,
               gauge_every_s: float = 0.0) -> list[Sample]:
    """Closed loop over *ops* in order, wrapping around, for about
    *seconds* and at least *min_ops* ops.

    With *whole_cycles* the loop stops only between cycles, starting a
    new one while the mean cycle so far still fits in the budget;
    otherwise it stops at the first op boundary past the budget.

    *gauge* (a host-speed factor) runs between ops, outside their
    timing: before an op once *gauge_every_s* has passed since the last
    reading, and after the last op.  Each sample's factor is the mean of
    the two readings on either side of it, which follows the host's
    drift while averaging out the noise of single readings."""
    samples: list[Sample] = []
    readings: list[tuple[int, float]] = []  # (ops done, factor)
    last_reading = -float("inf")
    started = time.perf_counter()
    for op in itertools.cycle(ops):
        now = time.perf_counter()
        elapsed = now - started
        if len(samples) >= min_ops:
            if not whole_cycles and elapsed >= seconds:
                break
            if whole_cycles and len(samples) % len(ops) == 0:
                cycles = len(samples) // len(ops)
                if elapsed + elapsed / cycles > seconds:
                    break
        if gauge is not None and now - last_reading >= gauge_every_s:
            readings.append((len(samples), gauge()))
            last_reading = time.perf_counter()
        samples.append(run_op(op))
    if gauge is not None:
        readings.append((len(samples), gauge()))
        for j, ((start, _), (end, _)) in enumerate(
                zip(readings, readings[1:])):
            window = [factor for _, factor in readings[max(0, j - 1):j + 3]]
            for sample in samples[start:end]:
                sample.factor = sum(window) / len(window)
    return samples
