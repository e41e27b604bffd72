"""Algorithm 1: the coarse-grained uniform random permutation.

The paper's main algorithm permutes a block-distributed vector in three
supersteps:

1. every processor permutes its local block uniformly at random;
2. a communication matrix ``A`` is sampled from the law of Problem 2
   (sequentially at the root, or in parallel with Algorithm 5/6) and every
   processor ships the first ``a_{i,0}`` items of its shuffled block to
   ``P'_0``, the next ``a_{i,1}`` items to ``P'_1``, and so on -- a single
   irregular all-to-all exchange;
3. every target processor permutes the block it received uniformly at
   random.

Because the local shuffles make the pieces sent between any pair of
processors uniformly random subsets, and the matrix is drawn with exactly
the probability a uniform permutation would induce, the end-to-end result
is a uniform random permutation of the input (Propositions 1 and 2); the
statistical test-suite verifies this exhaustively for small inputs.

The module exposes the SPMD program itself
(:func:`parallel_permutation_program`) plus two front ends:

* :func:`permute_distributed` -- operate on an explicit list of per-processor
  blocks and return the permuted blocks (plus the machine's cost report);
* :func:`random_permutation` / :func:`random_permutation_indices` -- an
  in-memory convenience API that hides the machine completely.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockDistribution
from repro.core.kernels import resolve_kernels
from repro.core.parallel_matrix import MATRIX_ALGORITHMS
from repro.pro.machine import PROMachine, ProcessorContext, RunResult, resolve_machine
from repro.util.errors import ValidationError
from repro.util.validation import (
    check_marginals,
    check_nonnegative_int,
    check_positive_int,
)

__all__ = [
    "parallel_permutation_program",
    "permute_distributed",
    "random_permutation",
    "random_permutation_indices",
    "local_shuffle",
    "cut_rows",
]


def local_shuffle(values: np.ndarray, rng, kernels=None, *, out=None) -> np.ndarray:
    """Return ``values`` uniformly shuffled using ``rng``.

    Accepts both plain NumPy generators and
    :class:`~repro.rng.counting.CountingRNG` wrappers; the Fisher-Yates cost
    of ``len(values) - 1`` variates is what the wrapper records.  ``kernels``
    selects the kernel tier (see :mod:`repro.core.kernels`); the compiled
    tier draws the Fisher-Yates permutation with a jitted kernel and gathers
    ``values`` through it -- bit-identical to ``rng.shuffle`` on the same
    seed -- and any tier that declines falls back to the in-place shuffle.

    Without ``out`` the result is a fresh array and ``values`` is left
    alone.  With ``out`` (an array shaped like ``values``, or ``values``
    itself) the shuffled items are written into ``out``, which is returned;
    ``out is values`` shuffles in place without any full-size copy on the
    NumPy path.  Both forms consume ``rng`` identically, so they agree bit
    for bit.
    """
    arr = np.asarray(values)
    n = arr.shape[0]
    perm = resolve_kernels(kernels).permutation(rng, n) if n > 1 else None
    if perm is not None:
        if out is None:
            return arr[perm]
        out[...] = arr[perm]  # through a temporary: ``out`` may alias ``arr``
        return out
    if out is None:
        out = arr.copy()
    elif out is not arr:
        out[...] = arr
    if n > 1:
        rng.shuffle(out)
    return out


def cut_rows(values, counts) -> list[np.ndarray]:
    """Cut ``values`` into ``len(counts)`` consecutive pieces -- vectorized.

    The pieces are zero-copy views sized ``counts[0], counts[1], ...`` in
    order (the row-cut step of Algorithm 1's exchange superstep and of the
    external-memory distribution pass).  A single ``cumsum`` plus
    ``np.split`` replaces the per-piece Python slicing loop; the property
    suite checks equivalence against the loop formulation on random
    matrices.
    """
    arr = np.asarray(values)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum()) if counts.size else 0
    if total != arr.shape[0]:
        raise ValidationError(
            f"cut_rows counts sum to {total} but {arr.shape[0]} values were given"
        )
    if counts.size == 0:
        return []
    return np.split(arr, np.cumsum(counts[:-1]))


def _target_sizes(source_sizes: np.ndarray, target_sizes) -> np.ndarray:
    """Validated target block sizes ``m'`` (``None`` keeps the source sizes)."""
    if target_sizes is None:
        return source_sizes
    _, targets, _ = check_marginals(source_sizes, target_sizes, "block sizes", "target_sizes")
    if targets.size != source_sizes.size:
        raise ValidationError(
            f"target_sizes must have {source_sizes.size} entries, got {targets.size}"
        )
    return targets


def parallel_permutation_program(
    ctx: ProcessorContext,
    blocks,
    target_sizes=None,
    *,
    matrix_algorithm: str = "root",
    method: str = "auto",
    kernels=None,
    out=None,
) -> np.ndarray:
    """SPMD program implementing Algorithm 1.

    Parameters
    ----------
    ctx:
        The processor context supplied by the machine.
    blocks:
        Sequence of ``ctx.n_procs`` arrays; processor ``i`` permutes
        ``blocks[i]``.  (Passing the full list mirrors how a driver hands
        each rank its slice of a shared-memory vector; each rank only reads
        its own entry.)
    target_sizes:
        Optional target block sizes ``m'`` (defaults to the source sizes).
    matrix_algorithm:
        ``"root"`` (default; Algorithm 3 at the root and a scatter -- the
        variant used in the paper's experiments), ``"alg5"`` or ``"alg6"``.
    method:
        Hypergeometric sampling method forwarded to the samplers.
    kernels:
        Kernel-tier request (see :mod:`repro.core.kernels`); resolved once
        per rank, recorded in the rank's cost record, and forwarded to the
        shuffles and the matrix program.  Bit-identical across tiers.
    out:
        Optional sequence of ``ctx.n_procs`` writable arrays, ``out[i]``
        sized like target block ``i``: the caller-owned slices of the
        output vector.  When every rank shares every slice
        (``ctx.comm.is_shared``), the exchange is one-sided: sender ``i``
        writes its piece for ``j`` straight into ``out[j]`` at the column
        prefix ``sum_{k<i} a_{k,j}``, which is where ``np.concatenate``
        of the received pieces would put it, and processor ``j`` shuffles
        ``out[j]`` in place and returns it.  Otherwise ``out`` is not
        used: the pieces cross the fabric and each rank gathers them into
        an array of its own, as without ``out``.

    Returns
    -------
    numpy.ndarray
        The block of the permuted vector that lands on this processor.
    """
    if matrix_algorithm not in MATRIX_ALGORITHMS:
        raise ValidationError(
            f"unknown matrix_algorithm {matrix_algorithm!r}; "
            f"choose from {sorted(MATRIX_ALGORITHMS)}"
        )
    if len(blocks) != ctx.n_procs:
        raise ValidationError(
            f"expected one block per processor ({ctx.n_procs}), got {len(blocks)}"
        )

    local = np.asarray(blocks[ctx.rank])
    source_sizes = np.asarray([len(b) for b in blocks], dtype=np.int64)
    targets = _target_sizes(source_sizes, target_sizes)
    if out is not None and (len(out) != ctx.n_procs
                            or len(out[ctx.rank]) != targets[ctx.rank]):
        raise ValidationError(
            "out must hold one array per processor, sized like the target blocks"
        )
    # Every rank sees the same ``out``, so every rank takes the same branch.
    one_sided = out is not None and all(ctx.comm.is_shared(o) for o in out)

    # Resolve the kernel tier once per rank; the cost record carries which
    # tier actually ran here (and its JIT warm-up cost) back to the parent.
    tier = resolve_kernels(kernels)
    ctx.cost.note_kernel_tier(tier.name, tier.warmup_seconds)

    # Superstep 1: local shuffle.
    shuffled = local_shuffle(local, ctx.rng, kernels=tier)
    ctx.log_compute(len(shuffled))
    ctx.cost.allocate(len(shuffled))
    ctx.comm.barrier()

    # Superstep 2: sample the communication matrix and exchange the data.
    # Reads of ``blocks`` are over, so the one-sided writes may overwrite
    # input staged in ``out``; no rank reads ``out`` before the barrier.
    matrix_program = MATRIX_ALGORITHMS[matrix_algorithm]
    if one_sided:
        my_row, prefixes = matrix_program(ctx, source_sizes, targets, method=method,
                                          kernels=tier, column_prefix=True)
        ctx.comm.alltoallv(cut_rows(shuffled, my_row), out=out, offsets=prefixes)
    else:
        my_row = matrix_program(ctx, source_sizes, targets, method=method, kernels=tier)
        received = ctx.comm.alltoallv(cut_rows(shuffled, my_row))
    ctx.comm.barrier()

    # Superstep 3: shuffle the destination block in place -- the slice the
    # senders wrote, or the received pieces gathered in source order.
    dest = out[ctx.rank] if one_sided else np.concatenate(received)
    result = local_shuffle(dest, ctx.rng, kernels=tier, out=dest)
    ctx.log_compute(len(result))
    ctx.cost.allocate(len(result))
    return result


# ----------------------------------------------------------------------------
# Front ends
# ----------------------------------------------------------------------------
def _occupies(result, dest: np.ndarray) -> bool:
    """True when ``result`` is exactly the memory of the slice ``dest``."""
    if not isinstance(result, np.ndarray):
        return False
    if (result.dtype, result.shape) != (dest.dtype, dest.shape):
        return False
    return dest.size == 0 or (
        result.__array_interface__["data"][0] == dest.__array_interface__["data"][0]
        and result.strides == dest.strides)


def _permute(blocks, machine, target_sizes, matrix_algorithm, method, machine_options):
    """Run Algorithm 1 over ``blocks``; return ``(run, output)``.

    The output vector comes from the backend's ``empty`` hook and rank
    ``j`` is handed its target slice to assemble in place (``out=`` of
    :func:`parallel_permutation_program`): plain memory on the backends
    that share the caller's address space, a shared segment whose slices
    cross by reference on the process backend with ``sharedmem``.
    ``output`` is that vector when every rank's result occupies exactly
    the slice it was given; otherwise -- a backend whose ``empty``
    declines, or a retry that degraded into another address space, where
    the slices are not shared -- the results are arrays of the ranks' own
    and ``output`` is ``None``.

    When the ranks do not share the caller's address space and the run
    has a single attempt, the input is staged in the output vector too,
    so rank ``j`` reads its source block from it and the senders
    overwrite it.  That is safe because every read of ``blocks`` precedes
    the superstep-1 barrier and every write to ``out`` follows it.  A
    retried attempt must read an unmodified input, so under a
    ``RetryPolicy`` the input is not staged.
    """
    if len(blocks) == 0:
        raise ValidationError("permute_distributed needs at least one block")
    arrays = [np.asarray(b) for b in blocks]
    sources = np.asarray([len(a) for a in arrays], dtype=np.int64)
    targets = _target_sizes(sources, target_sizes)
    owns_machine = machine is None
    machine = resolve_machine(len(arrays), machine=machine, **machine_options)
    if machine.n_procs != len(arrays):
        raise ValidationError(
            f"machine has {machine.n_procs} processors but {len(arrays)} blocks were given"
        )
    layout = (arrays[0].dtype, arrays[0].shape[1:])
    output = out = None
    if all((a.dtype, a.shape[1:]) == layout for a in arrays):
        output = machine.backend.empty((int(targets.sum()),) + layout[1], layout[0])
    if output is not None:
        out = cut_rows(output, targets)
        if (not machine.backend.capabilities.shared_address_space
                and machine.retry_policy is None):
            np.concatenate(arrays, out=output)
            arrays = cut_rows(output, sources)
    try:
        run = machine.run(
            parallel_permutation_program,
            arrays,
            target_sizes,
            matrix_algorithm=matrix_algorithm,
            method=method,
            kernels=machine.kernels,
            out=out,
        )
    finally:
        if owns_machine:
            # Releases call-private resources only: fleets borrowed from
            # the process-wide default pool cache stay warm for the next
            # call (repro.pro.backends.pool owns and reaps those).
            machine.close()
    if out is None or not all(_occupies(r, o) for r, o in zip(run.results, out)):
        output = None
    return run, output


def permute_distributed(
    blocks,
    *,
    machine: PROMachine | None = None,
    target_sizes=None,
    matrix_algorithm: str = "root",
    method: str = "auto",
    **machine_options,
) -> tuple[list[np.ndarray], RunResult]:
    """Permute a block-distributed vector; return the permuted blocks.

    ``blocks`` is a list with one array per processor.  Without a
    ``machine``, one with ``len(blocks)`` processors is built from
    ``machine_options``, which are forwarded verbatim to
    :func:`~repro.pro.machine.resolve_machine`, which documents them.
    The returned blocks follow ``target_sizes`` (defaulting to the input
    sizes); the second element of the returned pair is the machine's
    :class:`~repro.pro.machine.RunResult`.  When the backend's ``empty``
    hook provides an output vector (thread, sim, inline, and process with
    the ``sharedmem`` transport) the blocks are consecutive views of it.

    Examples
    --------
    >>> import numpy as np
    >>> blocks = [np.arange(5), np.arange(5, 10)]
    >>> out_blocks, run = permute_distributed(blocks, seed=3)
    >>> sorted(np.concatenate(out_blocks).tolist())
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    """
    run, _ = _permute(blocks, machine, target_sizes, matrix_algorithm, method,
                      machine_options)
    return run.results, run


def random_permutation(
    values,
    n_procs: int = 4,
    *,
    machine: PROMachine | None = None,
    matrix_algorithm: str = "root",
    method: str = "auto",
    distribution: BlockDistribution | None = None,
    **machine_options,
) -> np.ndarray:
    """Uniformly permute an in-memory vector with the coarse-grained algorithm.

    The vector is cut into ``n_procs`` balanced blocks (or according to
    ``distribution``) and permuted by Algorithm 1 on a PRO machine.  This is
    the "just permute my array" entry point of the library.  The ranks
    assemble the result in place, each in its slice of one output vector
    from the backend's ``empty`` hook -- on the process backend with the
    ``sharedmem`` transport a shared segment, returned as is -- and only
    where the hook declines (``pickle`` transport, object dtypes) are the
    permuted blocks glued back together here.  ``machine_options`` are
    forwarded to
    :func:`~repro.pro.machine.resolve_machine`, which documents them.

    Examples
    --------
    >>> import numpy as np
    >>> out = random_permutation(np.arange(10), n_procs=3, seed=0)
    >>> sorted(out.tolist())
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"random_permutation expects a 1-D vector, got shape {arr.shape}")
    n_procs = check_positive_int(n_procs, "n_procs")
    if machine is not None:
        n_procs = machine.n_procs
    if distribution is None:
        distribution = BlockDistribution.balanced(arr.shape[0], n_procs)
    if distribution.total != arr.shape[0]:
        raise ValidationError(
            f"distribution covers {distribution.total} items but the vector has {arr.shape[0]}"
        )
    if distribution.n_blocks != n_procs:
        raise ValidationError(
            f"distribution has {distribution.n_blocks} blocks but n_procs is {n_procs}"
        )
    run, output = _permute(distribution.split(arr), machine, None, matrix_algorithm,
                           method, machine_options)
    if output is not None:
        return output
    blocks = run.results
    return BlockDistribution([len(b) for b in blocks]).concatenate(blocks).astype(
        arr.dtype, copy=False)


def random_permutation_indices(
    n: int,
    n_procs: int = 4,
    *,
    machine: PROMachine | None = None,
    matrix_algorithm: str = "root",
    **machine_options,
) -> np.ndarray:
    """Sample a uniform permutation of ``0..n-1`` with the parallel algorithm.

    Equivalent to ``random_permutation(np.arange(n), ...)``; this is the
    form the statistical uniformity tests consume.  ``machine_options`` are
    forwarded to :func:`~repro.pro.machine.resolve_machine`, which
    documents them.

    Examples
    --------
    >>> perm = random_permutation_indices(6, n_procs=2, seed=1)
    >>> sorted(perm.tolist())
    [0, 1, 2, 3, 4, 5]
    """
    n = check_nonnegative_int(n, "n")
    # method and distribution are pinned so that they stay out of this
    # driver's keywords (passing either raises TypeError).
    return random_permutation(
        np.arange(n, dtype=np.int64), n_procs, machine=machine,
        matrix_algorithm=matrix_algorithm, method="auto", distribution=None,
        **machine_options,
    )
