"""Parallel sampling of the communication matrix (Algorithms 5 and 6).

Both algorithms run as SPMD programs on a :class:`~repro.pro.PROMachine`
with ``p`` processors and produce, on every processor ``P_i``, the ``i``-th
row of a communication matrix drawn from the exact law of Problem 2.  They
differ in their per-processor cost:

``algorithm5_program``
    The paper's Algorithm 5.  The processor range is halved repeatedly; at
    every split the *head* of the range samples how the current column
    capacities divide between the two halves (one multivariate
    hypergeometric draw over a length-``p'`` vector) and ships the upper
    half's share to the new head.  Every split moves ``Theta(p')`` words and
    performs ``Theta(p')`` work on the head, and a processor participates in
    ``Theta(log p)`` splits, giving ``Theta(p log p)`` time, communication
    and ``h(,)`` calls per processor (Proposition 8) -- a log factor away
    from optimal.

``algorithm6_program``
    The paper's Algorithm 6.  The matrix is split along *alternating*
    dimensions (rows, then columns, then rows, ...) while the processor
    range is halved, so the marginal vectors a head handles shrink
    geometrically.  After ``log p`` rounds every processor owns the row- and
    column-marginals of a roughly ``sqrt(p) x sqrt(p)`` tile, samples that
    tile sequentially (Section 4) and a final redistribution hands row ``i``
    to processor ``P_i``.  Total cost ``Theta(p)`` per processor
    (Proposition 9) -- the optimal grain claimed by Theorem 2.

A root-based program (``root_scatter_program``) is also provided: processor
0 samples the whole matrix with Algorithm 3 and scatters the rows.  That is
what the paper's own experiments used (Section 6: "Part of the algorithms
(sequential sampling of the matrix, only) were implemented") and it is the
right choice when ``p^2`` is negligible compared to ``n/p``.
"""

from __future__ import annotations

import numpy as np

from repro.core import commmatrix, multivariate
from repro.core.engine import get_engine
from repro.pro.machine import PROMachine, ProcessorContext, RunResult, resolve_machine
from repro.util.errors import ValidationError
from repro.util.validation import check_marginals

__all__ = [
    "algorithm5_program",
    "algorithm6_program",
    "root_scatter_program",
    "final_tile_ranges",
    "column_prefixes",
    "sample_matrix_parallel",
    "resolve_tile_strategy",
    "MATRIX_ALGORITHMS",
    "TILE_STRATEGIES",
]

#: Recognised local-tile sampling strategies of alg6's step 3 and the root
#: program.  ``"auto"`` (the default) resolves to the vectorized batched
#: engine kernels whenever the requested hypergeometric method permits them
#: and to the sequential sampler otherwise.
TILE_STRATEGIES = ("auto", "sequential", "recursive", "batched")


def resolve_tile_strategy(tile_strategy: str, method: str) -> str:
    """Resolve ``"auto"`` to a concrete local-tile sampling strategy.

    The batched :class:`~repro.core.engine.SamplerEngine` kernels are the
    default hot path (``O(log p * log p')`` vectorized NumPy calls instead
    of ``p * p'`` scalar Python calls, same law -- the statistical suite is
    calibrated against them), but they always draw through NumPy's
    vectorized sampler; when the caller explicitly requests a scalar method
    (``"hin"``/``"hrua"``), ``"auto"`` falls back to the sequential tile
    sampler so that the request is honoured rather than rejected.
    """
    if tile_strategy not in TILE_STRATEGIES:
        raise ValidationError(
            f"unknown tile_strategy {tile_strategy!r}; choose from {TILE_STRATEGIES}"
        )
    if tile_strategy != "auto":
        return tile_strategy
    return "batched" if method in ("auto", "numpy") else "sequential"


def _validate_inputs(ctx: ProcessorContext, row_sums, col_sums) -> tuple[np.ndarray, np.ndarray]:
    rows, cols, _ = check_marginals(row_sums, col_sums)
    if rows.size != ctx.n_procs:
        raise ValidationError(
            f"row_sums must have one entry per processor ({ctx.n_procs}), got {rows.size}"
        )
    return rows, cols


def column_prefixes(ctx: ProcessorContext, row) -> np.ndarray:
    """Exclusive column scan of the matrix: entry ``j`` is ``sum_{k<rank} a_{k,j}``.

    That is where rank ``rank``'s piece lands in target block ``j`` when
    the pieces are laid out in source order (Algorithm 1's one-sided
    exchange).  Needs a square matrix (``p' = p``).  Each rank sends
    ``a_{rank,j}`` to the column owner ``j``, which scans its column and
    sends every rank its offset back: two rounds of one word to each
    remote rank, so ``2(p - 1)`` words and messages each way per rank.
    (:meth:`~repro.pro.communicator.Communicator.scan` gathers whole rows
    everywhere instead, ``Theta(p^2)`` words per rank.)
    """
    row = np.asarray(row, dtype=np.int64)
    if row.size != ctx.n_procs:
        raise ValidationError(
            f"column prefixes need one column per processor ({ctx.n_procs}), got {row.size}"
        )
    column = np.asarray(ctx.comm.alltoall([int(a) for a in row]), dtype=np.int64)
    offsets = np.cumsum(column) - column
    return np.asarray(ctx.comm.alltoall([int(o) for o in offsets]), dtype=np.int64)


# ----------------------------------------------------------------------------
# Algorithm 5: head-splitting with a log factor
# ----------------------------------------------------------------------------
def algorithm5_program(
    ctx: ProcessorContext, row_sums, col_sums, *, method: str = "auto",
    column_prefix: bool = False,
):
    """SPMD program: return row ``ctx.rank`` of a random communication matrix.

    Implements Algorithm 5 of the paper.  ``row_sums`` must have length
    ``ctx.n_procs`` (one source block per processor); ``col_sums`` may have
    any length ``p'``.  Only the *values* on processor ``ctx.rank`` are used
    for the processor's own decisions, but every processor is given the full
    (O(p)-sized) marginal vectors, as the PRO model permits.  The algorithm
    draws through the scalar samplers.  With ``column_prefix=True`` (``p' = p`` only) the program returns
    ``(row, column_prefixes(ctx, row))``.
    """
    rows, cols = _validate_inputs(ctx, row_sums, col_sums)
    engine = get_engine(method)
    rank, p = ctx.rank, ctx.n_procs

    beta = cols.copy() if rank == 0 else None
    low, high = 0, p
    iteration = 0
    while high - low > 1:
        mid = (low + high) // 2
        if rank == low:
            # Mass of the upper half of the processor range [mid, high).
            upper_mass = int(rows[mid:high].sum())
            to_up = multivariate._sequential(upper_mass, beta, ctx.rng, engine)
            ctx.comm.send(to_up, mid, tag=("alg5", iteration))
            beta = beta - to_up
            ctx.log_compute(beta.size)
        elif rank == mid:
            beta = ctx.comm.recv(low, tag=("alg5", iteration))
            ctx.log_compute(beta.size)
        if rank >= mid:
            low = mid
        else:
            high = mid
        iteration += 1

    # beta now holds the column capacities reserved for the singleton range
    # {rank}, i.e. the rank-th row of the matrix.
    if column_prefix:
        return beta, column_prefixes(ctx, beta)
    return beta


# ----------------------------------------------------------------------------
# Algorithm 6: alternating-dimension splitting, optimal grain
# ----------------------------------------------------------------------------
def final_tile_ranges(n_procs: int, n_rows: int, n_cols: int) -> list[tuple[int, int, int, int]]:
    """Tile ``(row_lo, row_hi, col_lo, col_hi)`` each processor ends up with.

    The splitting pattern of Algorithm 6 is deterministic (only the sampled
    *values* are random), so every processor can recompute everybody's final
    tile locally; the redistribution step uses this to know exactly whom to
    expect data from.
    """
    tiles = []
    for rank in range(n_procs):
        low, high = 0, n_procs
        dim_lo = [0, 0]
        dim_hi = [n_rows, n_cols]
        split_dim = 0
        while high - low > 1:
            mid = (low + high) // 2
            dim_mid = (dim_lo[split_dim] + dim_hi[split_dim]) // 2
            if rank >= mid:
                low = mid
                dim_lo[split_dim] = dim_mid
            else:
                high = mid
                dim_hi[split_dim] = dim_mid
            split_dim = 1 - split_dim
        tiles.append((dim_lo[0], dim_hi[0], dim_lo[1], dim_hi[1]))
    return tiles


def algorithm6_program(
    ctx: ProcessorContext,
    row_sums,
    col_sums,
    *,
    method: str = "auto",
    tile_strategy: str = "auto",
    column_prefix: bool = False,
):
    """SPMD program: return row ``ctx.rank`` of a random communication matrix.

    Implements Algorithm 6 of the paper: alternating-dimension splitting of
    the marginals (steps 1-2), sampling of the resulting tile (step 3) and
    redistribution of the rows to their owners (step 4).  ``tile_strategy``
    selects the step-3 sampler (``"auto"`` -- the default, resolving to the
    vectorized batched engine kernel, the hot path for large tiles --
    ``"sequential"``, ``"recursive"`` or ``"batched"``); all choices draw
    from the same law.  With ``column_prefix=True`` (``p' = p``
    only) the program returns ``(row, column_prefixes(ctx, row))``.
    """
    tile_strategy = resolve_tile_strategy(tile_strategy, method)
    rows, cols = _validate_inputs(ctx, row_sums, col_sums)
    engine = get_engine(method)
    rank, p = ctx.rank, ctx.n_procs

    # beta[d] is the marginal vector of dimension d (0 = rows, 1 = columns)
    # restricted to this processor's current range of that dimension; only
    # the head of a processor range holds actual data.
    beta: list[np.ndarray | None] = [None, None]
    if rank == 0:
        beta[0] = rows.copy()
        beta[1] = cols.copy()

    split_dim, other_dim = 0, 1  # the paper's Delta and Nabla
    low, high = 0, p
    dim_lo = [0, 0]
    dim_hi = [rows.size, cols.size]
    iteration = 0

    while high - low > 1:
        mid = (low + high) // 2
        dim_mid = (dim_lo[split_dim] + dim_hi[split_dim]) // 2
        if rank == low:
            offset = dim_mid - dim_lo[split_dim]
            upper_marginals = beta[split_dim][offset:]
            upper_mass = int(upper_marginals.sum())
            ctx.comm.send(upper_marginals, mid, tag=("alg6-delta", iteration))
            to_up = multivariate._sequential(upper_mass, beta[other_dim], ctx.rng, engine)
            ctx.comm.send(to_up, mid, tag=("alg6-nabla", iteration))
            beta[other_dim] = beta[other_dim] - to_up
            beta[split_dim] = beta[split_dim][:offset]
            ctx.log_compute(upper_marginals.size + to_up.size)
        elif rank == mid:
            beta[split_dim] = ctx.comm.recv(low, tag=("alg6-delta", iteration))
            beta[other_dim] = ctx.comm.recv(low, tag=("alg6-nabla", iteration))
            ctx.log_compute(beta[split_dim].size + beta[other_dim].size)
        if rank >= mid:
            low = mid
            dim_lo[split_dim] = dim_mid
        else:
            high = mid
            dim_hi[split_dim] = dim_mid
        split_dim, other_dim = other_dim, split_dim
        iteration += 1

    # Step 3: sample this processor's tile sequentially from its marginals.
    row_lo, row_hi = dim_lo[0], dim_hi[0]
    col_lo, col_hi = dim_lo[1], dim_hi[1]
    if beta[0] is None:
        beta[0] = np.zeros(row_hi - row_lo, dtype=np.int64)
    if beta[1] is None:
        beta[1] = np.zeros(col_hi - col_lo, dtype=np.int64)
    tile = commmatrix.sample_matrix(
        beta[0], beta[1], ctx.rng, method=method, strategy=tile_strategy
    )
    ctx.log_compute(tile.size)

    # Step 4: redistribute so that processor i receives the full row i.
    tiles = final_tile_ranges(p, rows.size, cols.size)
    for dest in range(row_lo, row_hi):
        ctx.comm.send(
            (col_lo, tile[dest - row_lo, :]), dest, tag=("alg6-redist", 0)
        )
    my_row = np.zeros(cols.size, dtype=np.int64)
    for owner, (r_lo, r_hi, c_lo, c_hi) in enumerate(tiles):
        if r_lo <= rank < r_hi:
            col_offset, piece = ctx.comm.recv(owner, tag=("alg6-redist", 0))
            my_row[col_offset:col_offset + piece.size] = piece
    if column_prefix:
        return my_row, column_prefixes(ctx, my_row)
    return my_row


# ----------------------------------------------------------------------------
# Root-based sampling (what the paper's experiments used)
# ----------------------------------------------------------------------------
def root_scatter_program(
    ctx: ProcessorContext,
    row_sums,
    col_sums,
    *,
    method: str = "auto",
    tile_strategy: str = "auto",
    column_prefix: bool = False,
):
    """SPMD program: processor 0 samples the whole matrix, rows are scattered.

    Per-processor cost ``O(p^2)`` on the root and ``O(p)`` elsewhere; fine as
    long as ``p^2`` is small compared with the local data size ``n / p``
    (exactly the regime of the paper's experiments).  ``tile_strategy``
    selects the root's sampler (``"auto"`` default -- the vectorized
    ``"batched"`` engine kernel -- ``"sequential"`` or ``"recursive"``).
    With ``column_prefix=True`` the root scatters ``(row, prefixes)``
    pairs -- the exclusive column sums of :func:`column_prefixes`, which
    it holds already -- and the program returns that pair: the same
    messages, ``p`` more words each.
    """
    tile_strategy = resolve_tile_strategy(tile_strategy, method)
    rows, cols = _validate_inputs(ctx, row_sums, col_sums)
    if ctx.rank == 0:
        matrix = commmatrix.sample_matrix(
            rows, cols, ctx.rng, method=method, strategy=tile_strategy
        )
        ctx.log_compute(matrix.size)
        row_payloads = [matrix[i, :] for i in range(ctx.n_procs)]
        if column_prefix:
            prefixes = np.cumsum(matrix, axis=0) - matrix
            row_payloads = list(zip(row_payloads, prefixes))
    else:
        row_payloads = None
    return ctx.comm.scatter(row_payloads, root=0)


MATRIX_ALGORITHMS = {
    "alg5": algorithm5_program,
    "alg6": algorithm6_program,
    "root": root_scatter_program,
}


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------
def sample_matrix_parallel(
    row_sums,
    col_sums=None,
    *,
    machine: PROMachine | None = None,
    algorithm: str = "alg6",
    method: str = "auto",
    tile_strategy: str = "auto",
    **machine_options,
) -> tuple[np.ndarray, RunResult]:
    """Sample a communication matrix on a PRO machine and assemble it.

    Parameters
    ----------
    row_sums:
        Source block sizes; their number fixes the number of processors
        (one source block per processor).
    col_sums:
        Target block sizes (defaults to ``row_sums``).
    machine:
        Optional pre-configured :class:`~repro.pro.PROMachine`; when omitted
        a machine with ``len(row_sums)`` processors is built from
        ``machine_options``.
    algorithm:
        ``"alg5"``, ``"alg6"`` (default) or ``"root"``.
    method:
        Hypergeometric sampling method forwarded to the samplers.
    tile_strategy:
        Local-tile sampler used by ``"alg6"`` (step 3) and ``"root"``:
        ``"auto"`` (default; the vectorized batched engine kernels whenever
        ``method`` permits them), ``"sequential"``, ``"recursive"`` or
        ``"batched"``.
    machine_options:
        Forwarded verbatim to :func:`~repro.pro.machine.resolve_machine`,
        which documents them.

    Returns
    -------
    (matrix, run_result):
        The assembled ``p x p'`` matrix and the
        :class:`~repro.pro.machine.RunResult` with per-processor costs.

    Examples
    --------
    >>> matrix, run = sample_matrix_parallel([6, 6, 6], seed=0)
    >>> matrix.sum(axis=1).tolist()
    [6, 6, 6]
    >>> run.n_procs
    3
    """
    rows, cols, _ = check_marginals(row_sums, row_sums if col_sums is None else col_sums)
    if algorithm not in MATRIX_ALGORITHMS:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(MATRIX_ALGORITHMS)}"
        )
    owns_machine = machine is None
    machine = resolve_machine(rows.size, machine=machine, **machine_options)
    if machine.n_procs != rows.size:
        raise ValidationError(
            f"machine has {machine.n_procs} processors but row_sums has {rows.size} entries"
        )
    program = MATRIX_ALGORITHMS[algorithm]
    if algorithm in ("alg6", "root"):
        resolve_tile_strategy(tile_strategy, method)  # reject unknown names early
        extra = {"tile_strategy": tile_strategy}
    elif tile_strategy not in ("auto", "sequential"):
        raise ValidationError(
            f"tile_strategy={tile_strategy!r} only applies to 'alg6' and 'root'; "
            "'alg5' samples no local tile"
        )
    else:
        extra = {}
    try:
        run = machine.run(program, rows, cols, method=method, **extra)
    finally:
        if owns_machine:
            # Releases call-private resources only: fleets borrowed from
            # the process-wide default pool cache stay warm for the next
            # call (repro.pro.backends.pool owns and reaps those).
            machine.close()
    matrix = np.vstack([np.asarray(row, dtype=np.int64) for row in run.results])
    return matrix, run
