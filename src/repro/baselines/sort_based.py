"""Goodrich-style permutation by sorting random keys.

Attach an independent uniform random key to every item and sort the items by
key: if all keys are distinct the induced ordering is a uniform random
permutation.  On a coarse-grained machine the sort is a parallel sample sort
(:mod:`repro.baselines.samplesort`), so the method is uniform and balanced --
but the total work is ``Theta(n log n)`` (the local sorts), a ``log n``
factor away from the sequential Fisher-Yates cost.  This is the baseline the
paper credits to Goodrich [1997] and rejects for not being work-optimal.

Key collisions (probability about ``n^2 / 2^65`` with 64-bit keys) would
introduce a tiny bias; the implementation detects them after the sort and
redraws the keys, so the output distribution is exactly uniform.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.samplesort import sample_sort_program
from repro.pro.machine import PROMachine, ProcessorContext, RunResult, resolve_machine
from repro.util.errors import ValidationError

__all__ = ["sort_based_program", "sort_based_permutation"]

_KEY_DTYPE = np.uint64
_KEY_BITS = 63  # keep keys in the positive int64 range so sorting structured pairs stays simple


def sort_based_program(ctx: ProcessorContext, local_values, *, max_attempts: int = 5) -> np.ndarray:
    """SPMD program: permute the distributed vector by sorting random keys.

    Returns this processor's block of the permuted vector.  Block sizes of
    the output follow the sample-sort bucket sizes, i.e. they are balanced
    with high probability but not exactly equal to the input sizes -- one of
    the balance caveats of this baseline.
    """
    local = np.asarray(local_values)
    for _ in range(max(1, int(max_attempts))):
        keys = ctx.rng.integers(0, 1 << _KEY_BITS, size=len(local)).astype(_KEY_DTYPE)
        ctx.log_random_variates(len(local))
        # Sort (key, value) pairs globally by key using sample sort on a
        # structured array so the values ride along with their keys.
        paired = np.empty(len(local), dtype=[("key", _KEY_DTYPE), ("value", local.dtype)])
        paired["key"] = keys
        paired["value"] = local
        sorted_pairs = sample_sort_program(ctx, paired)

        # Detect key collisions anywhere in the global order: a duplicate can
        # only be adjacent after sorting, so each processor checks its block
        # and the boundary with its successor.
        local_dup = bool(np.any(np.diff(sorted_pairs["key"].astype(np.uint64)) == 0)) if len(sorted_pairs) > 1 else False
        boundary_keys = ctx.comm.allgather(
            (int(sorted_pairs["key"][0]) if len(sorted_pairs) else None,
             int(sorted_pairs["key"][-1]) if len(sorted_pairs) else None)
        )
        boundary_dup = False
        previous_last = None
        for first, last in boundary_keys:
            if first is not None and previous_last is not None and first == previous_last:
                boundary_dup = True
            if last is not None:
                previous_last = last
        any_dup = ctx.comm.allreduce(local_dup or boundary_dup, op=lambda a, b: a or b)
        if not any_dup:
            return sorted_pairs["value"]
    raise ValidationError(
        f"sort_based_program failed to draw collision-free keys in {max_attempts} attempts; "
        "this is astronomically unlikely unless the key space is too small for the input"
    )


def sort_based_permutation(
    values,
    n_procs: int = 4,
    *,
    machine: PROMachine | None = None,
    seed=None,
) -> tuple[np.ndarray, RunResult]:
    """Permute an in-memory vector with the sort-based baseline.

    Returns the permuted vector and the machine's
    :class:`~repro.pro.machine.RunResult` (whose cost report exhibits the
    ``log n`` work overhead compared with Algorithm 1).
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"sort_based_permutation expects a 1-D vector, got shape {arr.shape}")
    machine = resolve_machine(n_procs, machine=machine, seed=seed)
    n_procs = machine.n_procs
    bounds = np.linspace(0, arr.shape[0], n_procs + 1).astype(np.int64)
    blocks = [arr[bounds[i]:bounds[i + 1]] for i in range(n_procs)]

    def program(ctx):
        return sort_based_program(ctx, blocks[ctx.rank])

    run = machine.run(program)
    permuted = np.concatenate([np.asarray(b) for b in run.results]) if arr.size else arr.copy()
    return permuted, run
