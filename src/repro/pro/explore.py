"""Systematic state-space exploration over the deterministic sim backend.

``tests/simulation/test_schedule_sweep.py`` established the *sampling*
regime: draw a few dozen ``schedule_seed`` interleavings per cell and check
that results never move.  Random draws, however, re-explore the same few
interleavings over and over -- measured on Algorithm 5 at ``p = 4``, five
hundred random seeds produce five hundred near-identical traces that all
collapse into a **single** commutation class of fabric operations.  This
module replaces sampling with *exploration*:

Fingerprints
    Every run is summarised by the occurrence order of its fabric
    operations plus its outcome.  :func:`canonical_fingerprint` hashes the
    **Foata normal form** of that op sequence under a conflict relation
    (:func:`ops_conflict`), so two interleavings that merely commute
    independent operations share a fingerprint -- the explorer counts
    *distinct behaviours*, not scheduler noise.
    :func:`interleaving_fingerprint` is the finer raw-order variant kept as
    a secondary coverage signal.

Guided search
    Each cell (program x p x fault plan) starts from its run-to-block
    reference run, then expands a frontier of **prefix flips**: at every
    recorded decision with more than one runnable rank, the explorer
    enqueues the prefix that forces an alternative choice -- except when
    the alternative's pending op is independent of the chosen op
    (sleep-set-style pruning: that flip provably lands in the same
    commutation class).  A PCT-style priority sampler
    (:class:`PCTPolicy`) adds depth-bounded random probes, and the budget
    is spent on whichever cell is still discovering new fingerprints
    fastest.

Findings
    Within one cell the outcome must be schedule-independent.  Any
    divergence (different result digest, failure where the reference
    succeeds) or hang (``max_decisions`` exceeded) is ddmin-shrunk with
    :func:`repro.pro.backends.faults.shrink_schedule` and can be emitted
    as a ready-to-commit pytest reproducer under
    ``tests/simulation/reproducers/``.

Surfaces: :func:`explore` (the engine), ``repro explore`` (CLI), the
nightly CI job, and telemetry events ``explore-start`` /
``explore-divergence`` / ``explore-shrink``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.pro.backends.faults import FaultInjectingBackend, shrink_schedule
from repro.pro.backends.sim import ScheduleLimitExceeded, SimBackend
from repro.pro.machine import PROMachine
from repro.pro.telemetry import record_event
from repro.util.errors import ValidationError

__all__ = [
    "ops_conflict",
    "foata_normal_form",
    "canonical_fingerprint",
    "interleaving_fingerprint",
    "outcomes_equivalent",
    "PCTPolicy",
    "EXPLORE_PROGRAMS",
    "DEFAULT_PROGRAMS",
    "default_row_sums",
    "replay_cell",
    "baseline_distinct",
    "generated_fault_plans",
    "committed_plans_for",
    "Finding",
    "ExplorationReport",
    "write_reproducer",
    "explore",
]


# ----------------------------------------------------------------------------
# Conflict relation and trace fingerprints
# ----------------------------------------------------------------------------
def _acting_rank(op: tuple) -> int:
    """The rank that performs ``op`` (put -> src, get -> dst, barrier -> rank)."""
    kind, a, b = op
    return b if kind == "get" else a


def ops_conflict(a: tuple, b: tuple) -> bool:
    """Dependence relation between two fabric ops ``(kind, src, dst)``.

    Two ops conflict (their order matters) when they are performed by the
    same rank (program order), touch the same ``(src, dst)`` channel
    (FIFO delivery order), or exactly one of them is a barrier (a barrier
    is a superstep fence for every rank).  Two barrier *arrivals* by
    different ranks commute: only the completed barrier matters.
    """
    if _acting_rank(a) == _acting_rank(b):
        return True
    a_barrier = a[0] == "barrier"
    b_barrier = b[0] == "barrier"
    if a_barrier != b_barrier:
        return True
    if a_barrier:
        return False
    return (a[1], a[2]) == (b[1], b[2])


def foata_normal_form(op_log: Sequence[tuple]) -> tuple:
    """Layered canonical form of an op sequence under :func:`ops_conflict`.

    Standard Mazurkiewicz-trace construction: each op is placed in the
    earliest layer strictly after every earlier conflicting op, and layers
    are sorted.  Two op sequences have the same Foata normal form exactly
    when one can be turned into the other by swapping adjacent independent
    ops, so the normal form *is* the commutation class.
    """
    layer_of: list[int] = []
    layers: list[list[tuple]] = []
    for i, op in enumerate(op_log):
        depth = 0
        for j in range(i):
            if ops_conflict(op_log[j], op):
                depth = max(depth, layer_of[j] + 1)
        layer_of.append(depth)
        while len(layers) <= depth:
            layers.append([])
        layers[depth].append(op)
    return tuple(tuple(sorted(layer)) for layer in layers)


def _hash(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def canonical_fingerprint(op_log: Sequence[tuple], outcome=None) -> str:
    """Fingerprint of a run's commutation class (plus its outcome).

    Interleavings that only reorder independent fabric ops share this
    fingerprint; the outcome is folded in so that runs whose op logs agree
    but whose results differ (the shared-state races the op log cannot
    see) still register as distinct behaviours.
    """
    return _hash(repr((foata_normal_form(op_log), outcome)))


def interleaving_fingerprint(op_log: Sequence[tuple], outcome=None) -> str:
    """Fingerprint of the exact op occurrence order (plus outcome)."""
    return _hash(repr((tuple(op_log), outcome)))


# ----------------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------------
def _digest(value) -> str:
    """Stable content digest of a program result."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(repr((value.shape, str(value.dtype))).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


def outcomes_equivalent(a: tuple, b: tuple) -> bool:
    """Whether two ``replay_cell`` outcomes count as the same behaviour.

    Successful runs must match bit-for-bit (same result digest).  Two
    failing runs are equivalent regardless of the error class: which rank's
    error wins the race to be reported legitimately depends on the
    schedule, and flagging that as divergence would drown real findings.
    Hangs only match hangs.
    """
    if a[0] != b[0]:
        return False
    if a[0] == "ok":
        return a[1] == b[1]
    return True


# ----------------------------------------------------------------------------
# PCT-style sampling policy
# ----------------------------------------------------------------------------
class PCTPolicy:
    """Probabilistic concurrency testing sampler for the sim scheduler.

    Every rank gets a random priority; the highest-priority runnable rank
    always runs.  At ``depth`` pre-drawn decision indices the current
    front-runner is demoted below everyone, which is the PCT trick that
    hits any depth-``d`` ordering bug with known probability rather than
    hoping a uniform draw stumbles on it.
    """

    def __init__(self, seed: int, *, depth: int = 3, horizon: int = 64):
        rng = random.Random(seed)
        self._rng = rng
        self._priority: dict[int, float] = {}
        changes = min(depth, max(horizon - 1, 0))
        self._changes = sorted(rng.sample(range(1, horizon), changes)) if changes else []
        self._demotions = 0

    def choose(self, step: int, runnable: Sequence[int], pending: Mapping) -> int:
        for rank in runnable:
            if rank not in self._priority:
                self._priority[rank] = self._rng.random()
        if self._changes and step >= self._changes[0]:
            self._changes.pop(0)
            top = max(runnable, key=lambda r: (self._priority[r], r))
            self._demotions += 1
            self._priority[top] = -float(self._demotions)
        return max(runnable, key=lambda r: (self._priority[r], r))


# ----------------------------------------------------------------------------
# Cell programs
# ----------------------------------------------------------------------------
def default_row_sums(n_procs: int) -> np.ndarray:
    """The schedule-sweep suite's canonical row sums, shared for parity."""
    return (np.arange(1, n_procs + 1) * 3) % 7 + 2


def _matrix_program(algorithm: str) -> Callable:
    def run(machine: PROMachine):
        from repro.core.parallel_matrix import sample_matrix_parallel

        matrix, _ = sample_matrix_parallel(
            default_row_sums(machine.n_procs), algorithm=algorithm, machine=machine
        )
        return matrix

    run.__name__ = f"run_{algorithm}"
    return run


def _alg1(machine: PROMachine):
    """Algorithm 1 with the root and the alg6 matrix, on uneven blocks.

    On the sim backend the output slices are shared, so the exchange is
    one-sided: every rank writes its pieces into the other ranks' slices
    between the two barriers.  The permutations must not depend on the
    interleaving.  Both outputs are in the digest; the recorded trace the
    explorer flips is the last run's (alg6), and the same replay prefix
    steers the root run too.
    """
    from repro.core.blocks import BlockDistribution
    from repro.core.permutation import random_permutation

    sizes = default_row_sums(machine.n_procs)
    data = np.arange(int(sizes.sum()), dtype=np.int64)
    return tuple(
        random_permutation(data, machine=machine, matrix_algorithm=algorithm,
                           distribution=BlockDistribution(sizes))
        for algorithm in ("root", "alg6")
    )


def _barrier_ring(machine: PROMachine):
    """Two rounds of ring token passing with a barrier between send/recv."""

    def program(ctx):
        token = ctx.rank
        for round_index in range(2):
            right = (ctx.rank + 1) % ctx.n_procs
            left = (ctx.rank - 1) % ctx.n_procs
            ctx.comm.send(token * 31 + round_index, right, tag=round_index)
            ctx.comm.barrier()
            token = ctx.comm.recv(left, tag=round_index)
        return token

    return tuple(machine.run(program).results)


def _scatter_gather(machine: PROMachine):
    """Root scatters work, everyone barriers, root gathers the echoes."""

    def program(ctx):
        parts = [i * i + 1 for i in range(ctx.n_procs)] if ctx.is_root else None
        mine = ctx.comm.scatter(parts)
        ctx.comm.barrier()
        return ctx.comm.gather(mine * 10 + ctx.rank)

    return tuple(machine.run(program).result(0))


def _racy_append(machine: PROMachine):
    """Planted bug: the result leaks the pre-barrier scheduling order.

    Every rank appends to one shared list before the barrier, and every
    rank returns the list's final order.  Under the sim backend's shared
    address space the result therefore depends on which rank was scheduled
    first -- a deliberate schedule-dependence the explorer must catch
    (the mutation self-check in ``tests/simulation/test_explore.py``).
    """
    shared: list[int] = []

    def program(ctx, log):
        log.append(ctx.rank)
        ctx.comm.barrier()
        return tuple(log)

    return machine.run(program, shared).result(0)


EXPLORE_PROGRAMS: dict[str, Callable] = {
    "alg1": _alg1,
    "alg5": _matrix_program("alg5"),
    "alg6": _matrix_program("alg6"),
    "barrier-ring": _barrier_ring,
    "scatter-gather": _scatter_gather,
    # The planted-bug demo is registered (so its reproducers can name it)
    # but deliberately excluded from DEFAULT_PROGRAMS: its divergence is
    # the explorer's self-check, not a product defect.
    "racy-append": _racy_append,
}

#: The product-sweep defaults: every program here must be schedule-independent.
DEFAULT_PROGRAMS: tuple[str, ...] = ("alg1", "alg5", "alg6", "barrier-ring",
                                     "scatter-gather")


def _resolve_program(program) -> tuple[str, Callable]:
    if callable(program):
        return getattr(program, "__name__", "custom"), program
    try:
        return program, EXPLORE_PROGRAMS[program]
    except KeyError:
        known = ", ".join(sorted(EXPLORE_PROGRAMS))
        raise ValidationError(
            f"unknown explore program {program!r}; known programs: {known}"
        ) from None


# ----------------------------------------------------------------------------
# Running one cell
# ----------------------------------------------------------------------------
def replay_cell(program, n_procs: int, *, machine_seed: int = 8128, plan=(),
                schedule=None, schedule_seed=None, policy=None,
                max_decisions: int | None = 2048, _collect: dict | None = None) -> tuple:
    """Run one explore cell under one schedule and classify the outcome.

    Builds a fresh :class:`~repro.pro.machine.PROMachine` (fresh machine,
    identical rank streams for a fixed ``machine_seed``) over a
    :class:`~repro.pro.backends.sim.SimBackend`, optionally wrapped in a
    :class:`~repro.pro.backends.faults.FaultInjectingBackend` for ``plan``.

    Returns ``("ok", digest)``, ``("fail", error_class_name)`` or
    ``("hang", reason)``.  When ``_collect`` is given, the run's recorded
    ``schedule`` / ``decisions`` / ``op_log`` are stored into it (partial
    on failure), which is what the explorer's frontier expansion reads.
    """
    _, runner = _resolve_program(program)
    sim = SimBackend(schedule=schedule, schedule_seed=schedule_seed,
                     policy=policy, max_decisions=max_decisions)
    backend = FaultInjectingBackend(sim, tuple(plan)) if plan else sim
    machine = PROMachine(n_procs, seed=machine_seed, backend=backend)
    try:
        value = runner(machine)
    except ScheduleLimitExceeded:
        outcome = ("hang", f"no termination within {max_decisions} decisions")
    except Exception as exc:  # noqa: BLE001 - any failure is a classified outcome
        outcome = ("fail", type(exc).__name__)
    else:
        outcome = ("ok", _digest(value))
    finally:
        if _collect is not None:
            _collect["schedule"] = list(sim.last_schedule or [])
            _collect["decisions"] = list(sim.last_decisions or [])
            _collect["op_log"] = list(sim.last_op_log or [])
        machine.close()
    return outcome


def baseline_distinct(program, n_procs: int, draws: int, *,
                      machine_seed: int = 8128,
                      max_decisions: int | None = 2048) -> set[str]:
    """Canonical fingerprints reached by plain ``schedule_seed`` draws.

    This is the status-quo sweeping strategy the explorer is measured
    against: ``draws`` independent random interleavings of the fault-free
    cell, fingerprinted exactly like explorer runs.
    """
    seen: set[str] = set()
    for seed in range(draws):
        collect: dict = {}
        outcome = replay_cell(program, n_procs, machine_seed=machine_seed,
                              schedule_seed=seed, max_decisions=max_decisions,
                              _collect=collect)
        seen.add(canonical_fingerprint(collect["op_log"], outcome))
    return seen


# ----------------------------------------------------------------------------
# Fault-plan axes
# ----------------------------------------------------------------------------
def _plan_ranks(plan) -> set[int]:
    ranks: set[int] = set()
    for fault in plan:
        for attr in ("rank", "src", "dst"):
            value = getattr(fault, attr, None)
            if value is not None:
                ranks.add(value)
    return ranks


def _normalized(plan) -> tuple:
    """Plan identity ignoring ``at_run`` pinning (used to dedupe axes)."""
    return tuple(dataclasses.replace(fault, at_run=None) for fault in plan)


def committed_plans_for(n_procs: int) -> dict[str, tuple]:
    """The committed chaos plans that are well-formed at this ``p``."""
    from repro.pro.resilience import committed_chaos_plans

    return {
        name: tuple(plan)
        for name, plan in committed_chaos_plans().items()
        if all(rank < n_procs for rank in _plan_ranks(plan))
    }


def generated_fault_plans(op_log: Sequence[tuple], n_procs: int, *,
                          max_crash_ops: int = 3, max_drops: int = 2,
                          delays: Sequence[int] = (1,),
                          limit: int = 24) -> dict[str, tuple]:
    """Derive single-fault plans from a cell's fault-free op log.

    Crash each rank at each of its first fabric ops, drop/delay the first
    messages of every used channel, and time out the first barrier entry
    of every barrier-using rank -- the reachable single-fault neighbourhood
    of the program, rather than a fixed hand-written list.  Deterministic:
    sorted by name and capped at ``limit`` plans.
    """
    from repro.pro.backends.faults import (
        BarrierTimeout,
        CrashRank,
        DelayMessage,
        DropMessage,
    )

    plans: dict[str, tuple] = {}
    per_rank: dict[int, int] = {}
    for op in op_log:
        rank = _acting_rank(op)
        per_rank[rank] = per_rank.get(rank, 0) + 1
    for rank in range(n_procs):
        for at_op in range(min(per_rank.get(rank, 0), max_crash_ops)):
            plans[f"crash-r{rank}-op{at_op}"] = (CrashRank(rank=rank, at_op=at_op),)
    channels: dict[tuple, int] = {}
    for kind, src, dst in op_log:
        if kind == "put":
            channels[(src, dst)] = channels.get((src, dst), 0) + 1
    for (src, dst), count in sorted(channels.items()):
        for nth in range(min(count, max_drops)):
            plans[f"drop-{src}to{dst}-n{nth}"] = (DropMessage(src=src, dst=dst, nth=nth),)
        for by in delays:
            plans[f"delay-{src}to{dst}-by{by}"] = (
                DelayMessage(src=src, dst=dst, nth=0, by=by),
            )
    for rank in sorted({op[1] for op in op_log if op[0] == "barrier"}):
        plans[f"barrier-timeout-r{rank}"] = (BarrierTimeout(rank=rank, nth=0),)
    return dict(sorted(plans.items())[:limit])


# ----------------------------------------------------------------------------
# Findings and the report
# ----------------------------------------------------------------------------
@dataclass
class Finding:
    """One schedule-dependent behaviour the explorer uncovered."""

    program: str
    n_procs: int
    plan_name: str
    plan: tuple
    kind: str                    # divergence | failure | hang | reference-failure
    schedule: list[int]          # shrunk decision trace that reproduces it
    original_length: int         # decisions before shrinking
    observed: tuple
    reference: tuple
    reproducer: str | None = None

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "n_procs": self.n_procs,
            "plan": self.plan_name,
            "plan_repr": repr(self.plan),
            "kind": self.kind,
            "schedule": list(self.schedule),
            "original_length": self.original_length,
            "observed": list(self.observed),
            "reference": list(self.reference),
            "reproducer": self.reproducer,
        }


@dataclass
class ExplorationReport:
    """Coverage and findings of one :func:`explore` invocation."""

    SCHEMA = 1

    budget: int
    runs_used: int
    machine_seed: int
    max_decisions: int | None
    programs: list[str]
    procs: list[int]
    plans_mode: str
    cells: list[dict] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    baseline: dict | None = None

    @property
    def distinct_total(self) -> int:
        """Sum of per-cell distinct canonical fingerprints (the headline)."""
        return sum(cell["distinct"] for cell in self.cells)

    @property
    def distinct_global(self) -> int:
        """Distinct canonical fingerprints across all cells combined."""
        union: set[str] = set()
        for cell in self.cells:
            union.update(cell["fingerprints"])
        return len(union)

    @property
    def interleavings_total(self) -> int:
        return sum(cell["interleavings"] for cell in self.cells)

    def coverage_ratio(self) -> float | None:
        """Explorer coverage relative to the plain random-draw baseline."""
        if not self.baseline or not self.baseline["distinct"]:
            return None
        return self.distinct_total / self.baseline["distinct"]

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "budget": self.budget,
            "runs_used": self.runs_used,
            "machine_seed": self.machine_seed,
            "max_decisions": self.max_decisions,
            "programs": list(self.programs),
            "procs": list(self.procs),
            "plans_mode": self.plans_mode,
            "distinct_total": self.distinct_total,
            "distinct_global": self.distinct_global,
            "interleavings_total": self.interleavings_total,
            "baseline": dict(self.baseline) if self.baseline else None,
            "coverage_ratio": self.coverage_ratio(),
            "cells": [
                {key: value for key, value in cell.items() if key != "fingerprints"}
                for cell in self.cells
            ],
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def summary(self) -> str:
        lines = [
            f"explored {len(self.cells)} cells in {self.runs_used}/{self.budget} runs: "
            f"{self.distinct_total} distinct trace fingerprints "
            f"({self.distinct_global} globally distinct, "
            f"{self.interleavings_total} raw interleavings)",
        ]
        if self.baseline:
            ratio = self.coverage_ratio()
            lines.append(
                f"baseline: {self.baseline['draws']} plain schedule_seed draws reached "
                f"{self.baseline['distinct']} fingerprints -> coverage ratio "
                f"{ratio:.1f}x" if ratio is not None else "baseline: no fingerprints"
            )
        if self.findings:
            lines.append(f"FINDINGS ({len(self.findings)}):")
            for finding in self.findings:
                lines.append(
                    f"  {finding.kind}: {finding.program} p={finding.n_procs} "
                    f"plan={finding.plan_name} schedule={finding.schedule} "
                    f"({finding.original_length} -> {len(finding.schedule)} decisions)"
                    + (f" -> {finding.reproducer}" if finding.reproducer else "")
                )
        else:
            lines.append("no schedule-dependent behaviour found")
        return "\n".join(lines)


_REPRODUCER_TEMPLATE = '''"""Auto-generated schedule reproducer (repro.pro.explore).

finding  : {kind}
program  : {program}  (p={n_procs}, machine seed {machine_seed})
plan     : {plan_name}
observed : {observed!r}
reference: {reference!r}
shrunk   : {original_length} -> {shrunk_length} decisions

Replays the exact interleaving that diverged; the test passes once the
behaviour is schedule-independent again -- and guards it forever after.
"""
import pytest
{fault_imports}
from repro.pro.explore import outcomes_equivalent, replay_cell

pytestmark = pytest.mark.sim

PROGRAM = {program!r}
N_PROCS = {n_procs}
MACHINE_SEED = {machine_seed}
PLAN = {plan_repr}
SCHEDULE = {schedule!r}


def test_interleaving_is_schedule_independent():
    replayed = replay_cell(PROGRAM, N_PROCS, machine_seed=MACHINE_SEED,
                           plan=PLAN, schedule=SCHEDULE)
    reference = replay_cell(PROGRAM, N_PROCS, machine_seed=MACHINE_SEED,
                            plan=PLAN, schedule=[])
    assert outcomes_equivalent(replayed, reference), (
        f"schedule {{SCHEDULE}} still produces {{replayed!r}} while the "
        f"run-to-block reference produces {{reference!r}}"
    )
'''


def write_reproducer(finding: Finding, directory, *, machine_seed: int) -> str:
    """Emit a ready-to-commit pytest file replaying ``finding``.

    The file is self-contained (program name, fault-plan literal, shrunk
    decision trace) and belongs under ``tests/simulation/reproducers/``,
    where tier-1 replays it on every run.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fault_classes = sorted({type(fault).__name__ for fault in finding.plan})
    fault_imports = (
        "\nfrom repro.pro.backends.faults import " + ", ".join(fault_classes)
        if fault_classes else ""
    )
    stamp = _hash(repr((finding.program, finding.n_procs, finding.plan_name,
                        finding.kind, tuple(finding.schedule))))[:10]
    slug = re.sub(r"[^a-z0-9]+", "_",
                  f"{finding.program}_p{finding.n_procs}_{finding.kind}".lower())
    path = directory / f"test_repro_{slug}_{stamp}.py"
    path.write_text(_REPRODUCER_TEMPLATE.format(
        kind=finding.kind,
        program=finding.program,
        n_procs=finding.n_procs,
        machine_seed=machine_seed,
        plan_name=finding.plan_name,
        observed=finding.observed,
        reference=finding.reference,
        original_length=finding.original_length,
        shrunk_length=len(finding.schedule),
        fault_imports=fault_imports,
        plan_repr=repr(tuple(finding.plan)),
        schedule=list(finding.schedule),
    ))
    return str(path)


# ----------------------------------------------------------------------------
# The explorer
# ----------------------------------------------------------------------------
class _Cell:
    """Mutable search state of one (program, p, plan) cell."""

    def __init__(self, program: str, n_procs: int, plan_name: str, plan: tuple):
        self.program = program
        self.n_procs = n_procs
        self.plan_name = plan_name
        self.plan = plan
        self.reference: tuple | None = None
        self.fingerprints: set[str] = set()
        self.interleavings: set[str] = set()
        self.frontier: deque[tuple] = deque()
        self.tried: set[tuple] = set()
        self.reported: set[tuple] = set()
        self.runs = 0
        self.new_hits = 0
        self.pct_used = 0
        self.shrink_attempts = 0
        self.exhausted = False

    def score(self) -> float:
        return (1.0 + self.new_hits) / (1.0 + self.runs)

    def label(self) -> str:
        return f"{self.program}/p{self.n_procs}/{self.plan_name}"


_FRONTIER_CAP = 512
_FINDING_KIND = {"ok": "divergence", "fail": "failure", "hang": "hang"}
#: A schedule-dependent cell can diverge in combinatorially many ways (every
#: digest differs); a handful of shrunk witnesses per cell tells the story.
_MAX_FINDINGS_PER_CELL = 3


def _extend_frontier(cell: _Cell, trace: list[int], decisions: list[tuple],
                     start: int) -> None:
    """Enqueue prefix flips from a run's decision log, pruning equivalents.

    For every decision (at index ``start`` or later) with more than one
    runnable rank, force each alternative via ``trace[:i] + [alt]`` --
    unless the alternative's pending op is known to be independent of the
    chosen op, in which case the flip provably stays inside the same
    commutation class and is skipped (sleep-set-style pruning).
    """
    for i in range(start, min(len(decisions), len(trace))):
        ordered, pendings, choice = decisions[i]
        if len(ordered) < 2:
            continue
        chosen_op = pendings[ordered.index(choice)]
        for idx, alt in enumerate(ordered):
            if alt == choice:
                continue
            alt_op = pendings[idx]
            if (chosen_op is not None and alt_op is not None
                    and not ops_conflict(chosen_op, alt_op)):
                continue
            prefix = tuple(trace[:i]) + (alt,)
            if prefix in cell.tried or len(cell.frontier) >= _FRONTIER_CAP:
                continue
            cell.tried.add(prefix)
            cell.frontier.append(prefix)


def explore(programs: Sequence = DEFAULT_PROGRAMS, procs: Sequence[int] = (2, 4, 8), *,
            plans: str | Mapping = "auto", budget: int = 500, machine_seed: int = 8128,
            baseline_draws: int = 0, commit_dir=None, max_decisions: int | None = 2048,
            pct_draws_per_cell: int = 6, pct_depth: int = 3,
            shrink_probes: int = 200, explore_seed: int = 0) -> ExplorationReport:
    """Coverage-guided sweep of schedules x fault plans x programs x p.

    ``plans`` selects the fault axis: ``"none"`` (schedules only),
    ``"committed"`` (adds :func:`~repro.pro.resilience.committed_chaos_plans`),
    ``"auto"`` (default: committed plans plus single-fault plans derived
    from each cell's own op log), or an explicit ``{name: (faults...)}``
    mapping.  ``budget`` bounds the number of simulated runs (shrinking
    probes for findings are budgeted separately by ``shrink_probes``).
    When ``commit_dir`` is set, every finding is emitted there as a pytest
    reproducer file.  With ``baseline_draws > 0`` the report also measures
    the plain random-seed baseline on each fault-free cell for the
    coverage ratio.
    """
    if isinstance(plans, str) and plans not in ("auto", "committed", "none"):
        raise ValidationError(
            f"plans must be 'auto', 'committed', 'none' or a mapping, got {plans!r}"
        )
    program_names = [_resolve_program(p)[0] for p in programs]
    plans_mode = plans if isinstance(plans, str) else "explicit"
    record_event("explore-start", programs=",".join(program_names),
                 procs=",".join(str(p) for p in procs), budget=budget,
                 plans=plans_mode)

    report = ExplorationReport(
        budget=budget, runs_used=0, machine_seed=machine_seed,
        max_decisions=max_decisions, programs=program_names,
        procs=[int(p) for p in procs], plans_mode=plans_mode,
    )
    cells: list[_Cell] = []

    def run_cell(cell: _Cell, *, schedule=None, policy=None) -> tuple[tuple, dict]:
        collect: dict = {}
        outcome = replay_cell(cell.program, cell.n_procs, machine_seed=machine_seed,
                              plan=cell.plan, schedule=schedule, policy=policy,
                              max_decisions=max_decisions, _collect=collect)
        report.runs_used += 1
        cell.runs += 1
        return outcome, collect

    def note_run(cell: _Cell, outcome: tuple, collect: dict, start: int) -> None:
        fingerprint = canonical_fingerprint(collect["op_log"], outcome)
        if fingerprint not in cell.fingerprints:
            cell.fingerprints.add(fingerprint)
            cell.new_hits += 1
        cell.interleavings.add(interleaving_fingerprint(collect["op_log"], outcome))
        _extend_frontier(cell, collect["schedule"], collect["decisions"], start)
        if cell.reference is not None and not outcomes_equivalent(outcome, cell.reference):
            _report_finding(cell, outcome, collect["schedule"])

    def _report_finding(cell: _Cell, outcome: tuple, trace: list[int]) -> None:
        if (len(cell.reported) >= _MAX_FINDINGS_PER_CELL
                or cell.shrink_attempts >= 2 * _MAX_FINDINGS_PER_CELL):
            return
        cell.shrink_attempts += 1
        kind = _FINDING_KIND[outcome[0]]
        record_event("explore-divergence", program=cell.program,
                     n_procs=cell.n_procs, plan=cell.plan_name, finding=kind)

        def still_fails(candidate: list[int]) -> bool:
            probe = replay_cell(cell.program, cell.n_procs, machine_seed=machine_seed,
                                plan=cell.plan, schedule=candidate,
                                max_decisions=max_decisions)
            return not outcomes_equivalent(probe, cell.reference)

        shrunk = shrink_schedule(still_fails, trace, max_probes=shrink_probes)
        key = (kind, tuple(shrunk))
        if key in cell.reported:
            return
        cell.reported.add(key)
        record_event("explore-shrink", program=cell.program, plan=cell.plan_name,
                     before=len(trace), after=len(shrunk))
        finding = Finding(
            program=cell.program, n_procs=cell.n_procs, plan_name=cell.plan_name,
            plan=cell.plan, kind=kind, schedule=list(shrunk),
            original_length=len(trace), observed=outcome, reference=cell.reference,
        )
        if commit_dir is not None:
            finding.reproducer = write_reproducer(finding, commit_dir,
                                                  machine_seed=machine_seed)
        report.findings.append(finding)

    # Seed the cell grid: one fault-free reference per (program, p), whose
    # op log also derives the generated fault axis.
    for program in program_names:
        for p in procs:
            if report.runs_used >= budget:
                break
            cell = _Cell(program, int(p), "none", ())
            outcome, collect = run_cell(cell)
            cell.reference = outcome
            cells.append(cell)
            note_run(cell, outcome, collect, start=0)
            if outcome[0] != "ok":
                # The program itself fails under run-to-block: surface it
                # and skip the fault axis (faults on a broken baseline
                # would only report noise).
                report.findings.append(Finding(
                    program=program, n_procs=int(p), plan_name="none", plan=(),
                    kind="reference-failure", schedule=list(collect["schedule"]),
                    original_length=len(collect["schedule"]),
                    observed=outcome, reference=("ok", "<expected>"),
                ))
                continue
            plan_map: dict[str, tuple] = {}
            if plans_mode == "explicit":
                plan_map.update({
                    name: tuple(plan) for name, plan in plans.items()
                    if all(rank < p for rank in _plan_ranks(plan))
                })
            if plans_mode in ("committed", "auto"):
                plan_map.update(committed_plans_for(int(p)))
            if plans_mode == "auto":
                committed_shapes = {_normalized(plan) for plan in plan_map.values()}
                for name, plan in generated_fault_plans(collect["op_log"], int(p)).items():
                    if _normalized(plan) not in committed_shapes:
                        plan_map[name] = plan
            for name, plan in plan_map.items():
                cells.append(_Cell(program, int(p), name, tuple(plan)))

    # Guided loop: spend the remaining budget on whichever cell is still
    # discovering fingerprints fastest.
    while report.runs_used < budget:
        candidates = [cell for cell in cells if not cell.exhausted]
        if not candidates:
            break
        cell = max(candidates, key=_Cell.score)
        if cell.reference is None:
            outcome, collect = run_cell(cell)
            cell.reference = outcome
            note_run(cell, outcome, collect, start=0)
        elif cell.frontier:
            prefix = cell.frontier.popleft()
            outcome, collect = run_cell(cell, schedule=list(prefix))
            note_run(cell, outcome, collect, start=len(prefix))
        elif cell.pct_used < pct_draws_per_cell:
            seed = explore_seed * 1_000_003 + cells.index(cell) * 7919 + cell.pct_used
            cell.pct_used += 1
            outcome, collect = run_cell(cell, policy=PCTPolicy(seed, depth=pct_depth))
            note_run(cell, outcome, collect, start=0)
        else:
            cell.exhausted = True

    for cell in cells:
        report.cells.append({
            "program": cell.program,
            "n_procs": cell.n_procs,
            "plan": cell.plan_name,
            "plan_repr": repr(cell.plan),
            "runs": cell.runs,
            "distinct": len(cell.fingerprints),
            "interleavings": len(cell.interleavings),
            "frontier_exhausted": cell.exhausted,
            "reference": list(cell.reference) if cell.reference else None,
            "fingerprints": sorted(cell.fingerprints),
        })

    if baseline_draws:
        pairs = [(program, int(p)) for program in program_names for p in procs]
        per_pair = max(1, baseline_draws // max(1, len(pairs)))
        distinct = 0
        drawn = 0
        for program, p in pairs:
            distinct += len(baseline_distinct(program, p, per_pair,
                                              machine_seed=machine_seed,
                                              max_decisions=max_decisions))
            drawn += per_pair
        report.baseline = {"draws": drawn, "distinct": distinct}

    return report
