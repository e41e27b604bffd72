"""Dart throwing: random destinations plus local shuffles.

The simplest coarse-grained "randomisation" sends every item to an
independently and uniformly chosen processor and shuffles locally.  It is
work-optimal (O(n/p) per processor) and balanced *in expectation*, but

* the target block sizes fluctuate like a multinomial (so the exact target
  layout of Problem 1 is not respected), and
* the induced distribution over arrangements is **not** uniform -- e.g. the
  probability that all items of a source block end up on the same target is
  much larger than under a uniform permutation.

Iterating the step (``iterated_dart_throwing``) mixes the distribution
towards uniformity at the price of a factor ``r`` (in the paper's
discussion: a ``log``-factor) in total work, which is exactly the trade-off
the paper's introduction describes and experiment E6 quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.core.permutation import local_shuffle
from repro.pro.machine import PROMachine, ProcessorContext, RunResult, resolve_machine
from repro.util.errors import ValidationError

__all__ = ["dart_throwing_program", "dart_throwing_permutation", "iterated_dart_throwing"]


def dart_throwing_program(ctx: ProcessorContext, local_values, *, rounds: int = 1) -> np.ndarray:
    """SPMD program: ``rounds`` iterations of scatter-to-random-processor + local shuffle."""
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    local = np.asarray(local_values)
    p = ctx.n_procs
    for _ in range(int(rounds)):
        destinations = ctx.rng.integers(0, p, size=len(local))
        ctx.log_random_variates(len(local))
        pieces = [local[destinations == dest] for dest in range(p)]
        ctx.log_compute(len(local))
        received = ctx.comm.alltoallv(pieces)
        local = np.concatenate([np.asarray(r) for r in received]) if received else local
        local = local_shuffle(local, ctx.rng)
        ctx.log_compute(len(local))
        ctx.comm.barrier()
    return local


def dart_throwing_permutation(
    values,
    n_procs: int = 4,
    *,
    machine: PROMachine | None = None,
    seed=None,
    rounds: int = 1,
) -> tuple[np.ndarray, RunResult]:
    """Scatter an in-memory vector with dart throwing; return vector + run result.

    The returned vector is a rearrangement of the input but **not** a
    uniformly random permutation (see the module docstring); the statistics
    subpackage contains tests that expose the bias.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"dart_throwing_permutation expects a 1-D vector, got shape {arr.shape}")
    machine = resolve_machine(n_procs, machine=machine, seed=seed)
    n_procs = machine.n_procs
    bounds = np.linspace(0, arr.shape[0], n_procs + 1).astype(np.int64)
    blocks = [arr[bounds[i]:bounds[i + 1]] for i in range(n_procs)]

    def program(ctx):
        return dart_throwing_program(ctx, blocks[ctx.rank], rounds=rounds)

    run = machine.run(program)
    permuted = np.concatenate([np.asarray(b) for b in run.results]) if arr.size else arr.copy()
    return permuted, run


def iterated_dart_throwing(
    values,
    n_procs: int = 4,
    *,
    rounds: int = 3,
    machine: PROMachine | None = None,
    seed=None,
) -> tuple[np.ndarray, RunResult]:
    """Dart throwing repeated ``rounds`` times (closer to uniform, ``rounds`` times the work)."""
    return dart_throwing_permutation(
        values, n_procs, machine=machine, seed=seed, rounds=rounds
    )
