"""High-level public API of the reproduction.

Most users need only three calls:

* :func:`repro.core.permutation.random_permutation` -- permute an in-memory
  vector uniformly at random with the coarse-grained algorithm;
* :func:`repro.core.permutation.permute_distributed` -- permute an already
  block-distributed vector, keeping it distributed;
* :func:`sample_communication_matrix` -- sample the communication matrix of
  Problem 2 on its own (the distribution studied in Section 3 of the paper),
  either sequentially or on a PRO machine.

Everything else (the individual samplers, the machine substrate, the
baselines, the statistics) is available from the corresponding subpackages.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.core import commmatrix
from repro.core.parallel_matrix import sample_matrix_parallel
from repro.pro.machine import PROMachine, resolve_machine
from repro.util.errors import ValidationError

__all__ = ["sample_communication_matrix"]


def sample_communication_matrix(
    row_sums,
    col_sums=None,
    *,
    parallel: bool = False,
    machine: PROMachine | None = None,
    algorithm: str | None = None,
    seed=None,
    rng=None,
    method: str = "auto",
    **machine_options,
) -> np.ndarray:
    """Sample a random communication matrix with the prescribed marginals.

    Parameters
    ----------
    row_sums, col_sums:
        Source and target block sizes (``col_sums`` defaults to
        ``row_sums``).  The matrix has ``len(row_sums)`` rows and
        ``len(col_sums)`` columns, row sums equal to ``row_sums`` and column
        sums equal to ``col_sums``, drawn from the exact law a uniform
        permutation induces (Problem 2 of the paper).
    parallel:
        When False (default) sample sequentially in the calling process
        (Algorithm 3 / 4 / the batched engine kernel according to
        ``algorithm``); when True run one of the parallel algorithms on a
        PRO machine.
    machine:
        Machine to use for the parallel path (one is created when omitted).
    algorithm:
        Sequential path: ``"sequential"`` (default), ``"recursive"`` or
        ``"batched"`` (vectorized :class:`~repro.core.engine.SamplerEngine`
        kernels; same law, fastest for large marginals).
        Parallel path: ``"alg5"``, ``"alg6"`` (default) or ``"root"``.
    seed, rng:
        Randomness source.  Precedence is explicit:

        * sequential path: ``rng`` (a generator, advanced in place) wins
          when given; otherwise a fresh generator is derived from ``seed``
          (``None`` means OS entropy).
        * parallel path: per-rank streams are always derived from ``seed``;
          a single shared ``rng`` cannot serve independent ranks, so passing
          ``rng`` with ``parallel=True`` raises
          :class:`~repro.util.errors.ValidationError`.
    method:
        Hypergeometric sampling method (``"auto"``, ``"hin"``, ``"hrua"``,
        ``"numpy"``).
    machine_options:
        ``backend``, ``schedule_seed``,
        ``retry`` and ``telemetry`` for the parallel path, forwarded with
        ``seed`` to
        :func:`~repro.pro.machine.resolve_machine`, which documents them.
        The sequential path runs no machine and rejects them, as it
        rejects ``machine``.

    Returns
    -------
    numpy.ndarray
        The sampled matrix (``int64``).

    Examples
    --------
    >>> matrix = sample_communication_matrix([4, 4, 4], seed=0)
    >>> matrix.sum(axis=0).tolist()
    [4, 4, 4]
    >>> parallel = sample_communication_matrix([4, 4, 4], parallel=True,
    ...                                        backend="thread", seed=0)
    >>> parallel.shape
    (3, 3)
    """
    if not parallel:
        strategy = algorithm or "sequential"
        if strategy not in ("sequential", "recursive", "batched"):
            raise ValidationError(
                "sequential sampling supports 'sequential', 'recursive' or "
                f"'batched', got {strategy!r}"
            )
        if machine_options:
            # A misspelled option raises TypeError, as on the parallel path.
            inspect.signature(resolve_machine).bind(0, **machine_options)
        given = [name for name, value in (("machine", machine), *machine_options.items())
                 if value is not None]
        if given:
            raise ValidationError(
                f"{', '.join(given)}: only for parallel=True (the sequential "
                "path runs in the calling process, on no machine)"
            )
        generator = rng if rng is not None else seed
        return commmatrix.sample_matrix(
            row_sums, col_sums if col_sums is not None else row_sums,
            generator, method=method, strategy=strategy,
        )
    if rng is not None:
        raise ValidationError(
            "rng= only applies to the sequential path; the parallel path derives "
            "independent per-rank streams from seed="
        )
    matrix, _ = sample_matrix_parallel(
        row_sums, col_sums, machine=machine, algorithm=algorithm or "alg6",
        method=method, seed=seed, **machine_options,
    )
    return matrix
