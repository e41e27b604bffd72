"""Parallel sample sort -- the sorting substrate of the Goodrich-style baseline.

Goodrich (1997) computes random permutations on the BSP by attaching random
keys to the items and sorting; any coarse-grained sorting algorithm will do,
and *sample sort with regular sampling* is the canonical one:

1. every processor sorts its local block;
2. every processor picks ``p - 1`` equally spaced local samples;
3. the root gathers the ``p (p - 1)`` samples, sorts them and broadcasts
   ``p - 1`` global splitters;
4. every processor partitions its sorted block by the splitters and an
   all-to-all exchange routes each bucket to its destination;
5. every processor merges (sorts) what it received.

With random keys the buckets are balanced within ``O(n/p)`` with high
probability, but the local sorts cost ``Theta((n/p) log n)`` -- the log
factor that makes the sort-based permutation *not* work-optimal, which is
exactly the comparison of experiment E6.
"""

from __future__ import annotations

import numpy as np

from repro.pro.machine import PROMachine, ProcessorContext, RunResult, resolve_machine
from repro.util.errors import ValidationError

__all__ = ["sample_sort_program", "parallel_sample_sort"]


def sample_sort_program(ctx: ProcessorContext, local_values, *, oversampling: int = 1) -> np.ndarray:
    """SPMD program: globally sort the distributed values, returning the local part.

    ``local_values`` is this processor's block.  The return value is this
    processor's block of the globally sorted vector (block sizes may differ
    from the input by design of sample sort).  ``oversampling`` multiplies
    the number of local samples, improving balance at a small cost.
    """
    local = np.sort(np.asarray(local_values), kind="stable")
    ctx.log_compute(int(max(len(local), 1) * np.log2(max(len(local), 2))))
    p = ctx.n_procs
    if p == 1:
        return local

    # Regular sampling: p-1 (times oversampling) equally spaced elements.
    n_samples = (p - 1) * max(1, int(oversampling))
    if len(local) == 0:
        samples = np.empty(0, dtype=local.dtype)
    else:
        positions = np.linspace(0, len(local) - 1, num=n_samples + 2)[1:-1]
        samples = local[np.round(positions).astype(np.int64)]

    gathered = ctx.comm.gather(samples, root=0)
    if ctx.rank == 0:
        non_empty = [np.asarray(s) for s in gathered if len(s)]
        all_samples = np.sort(np.concatenate(non_empty)) if non_empty else np.empty(0, dtype=local.dtype)
        if len(all_samples) >= p - 1 and p > 1:
            idx = np.linspace(0, len(all_samples) - 1, num=p + 1)[1:-1]
            splitters = all_samples[np.round(idx).astype(np.int64)]
        else:
            splitters = all_samples[: p - 1]
    else:
        splitters = None
    splitters = ctx.comm.bcast(splitters, root=0)

    # Partition the sorted local block by the splitters and exchange.
    cuts = np.searchsorted(local, splitters, side="right")
    pieces = np.split(local, cuts)
    while len(pieces) < p:  # degenerate splitter sets on tiny inputs
        pieces.append(np.empty(0, dtype=local.dtype))
    received = ctx.comm.alltoallv(pieces[:p])
    merged = np.sort(np.concatenate([np.asarray(r) for r in received]), kind="stable")
    ctx.log_compute(int(max(len(merged), 1) * np.log2(max(len(merged), 2))))
    return merged


def parallel_sample_sort(
    blocks,
    *,
    machine: PROMachine | None = None,
    seed=None,
    oversampling: int = 1,
) -> tuple[list[np.ndarray], RunResult]:
    """Sort a block-distributed vector globally; return the sorted blocks.

    The concatenation of the returned blocks is the sorted concatenation of
    the inputs; the per-processor sizes are balanced with high probability
    but not exactly equal (that is inherent to sample sort).
    """
    if len(blocks) == 0:
        raise ValidationError("parallel_sample_sort needs at least one block")
    machine = resolve_machine(len(blocks), machine=machine, seed=seed)
    if machine.n_procs != len(blocks):
        raise ValidationError(
            f"machine has {machine.n_procs} processors but {len(blocks)} blocks were given"
        )

    def program(ctx):
        return sample_sort_program(ctx, blocks[ctx.rank], oversampling=oversampling)

    run = machine.run(program)
    return run.results, run
