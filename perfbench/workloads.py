"""The benchmark's four workloads: inputs, the call, its check, its recovery.

Every workload is a closed loop driven by one caller: the next call starts
when the previous one has returned and been checked.  Permutation workloads
run Algorithm 1 on ``N_PROCS`` ranks; ``matrix-large`` samples one big
communication matrix sequentially in the caller.  Call ``i`` of phase ``k``
in a run with base seed ``s`` uses ``call_seed(s, k, i)``; the program only
sees those seeds and the generated inputs.  README.md says why each
workload exists and which layer metrics should move which end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Ranks of every permutation workload: one per core of the 2-core
#: reference host, so no workload runs more ranks than cores.
N_PROCS = 2

#: Seed namespaces of the phases of one run.
SETUP, WARMUP, MAIN, RECOVERY, METADATA = range(5)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Items permuted per call; for ``matrix-large`` the items whose
    #: redistribution one sampled matrix plans (blocks x block size).
    n_items: int
    #: Execution backend; ``None`` runs the sequential matrix sampler.
    backend: str | None
    matrix_algorithm: str | None = None
    #: Square matrix size of ``matrix-large``.
    matrix_blocks: int = 0
    #: Median ms of ``Generator.permutation(n_items)`` on the reference host
    #: (2-core Intel Xeon VM, Python 3.11.7, NumPy 2.4.6): the scale of the
    #: host-calibrated latencies (see ``run.py``).
    seq_reference_ms: float = 1.0
    #: Share of the measured time spent on crash-recovery calls.
    recovery_share: float = 0.0
    #: Calibrate recovery latency like call latency.  Off where recovery
    #: mostly waits out fixed timers, which do not scale with host speed.
    recovery_calibrated: bool = True
    #: Compare every k-th call with the thread backend (0: never).
    identity_every: int = 0

    @property
    def is_permutation(self) -> bool:
        return self.backend is not None


WORKLOADS = {w.name: w for w in (
    Workload("perm-large-thread", 2_000_000, "thread", "root",
             seq_reference_ms=27.97, recovery_share=0.3),
    Workload("perm-warm-process", 200_000, "process", "root",
             seq_reference_ms=2.784, recovery_share=0.4,
             recovery_calibrated=False, identity_every=8),
    Workload("matrix-large", 256 * 4000, None, matrix_blocks=256,
             seq_reference_ms=13.35),
)}

#: Sizes for the smoke check (``--tiny``): same code paths, small inputs.
#: The latency calibration keeps the full-size reference, so tiny runs
#: check that metrics are produced, not their scale.
TINY = {
    "perm-large-thread": {"n_items": 20_000},
    "perm-warm-process": {"n_items": 2_000},
    "matrix-large": {"n_items": 16 * 100, "matrix_blocks": 16},
}


def get_workload(name: str, *, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload


def call_seed(base: int, phase: int, index: int) -> int:
    """The seed of call ``index`` of ``phase`` in a run with seed ``base``."""
    state = np.random.SeedSequence([base, phase, index]).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


def make_input(w: Workload) -> np.ndarray:
    """The vector to permute, or the row sums of the matrix to sample."""
    if w.is_permutation:
        return np.arange(w.n_items, dtype=np.int64)
    return np.full(w.matrix_blocks, w.n_items // w.matrix_blocks, dtype=np.int64)


def call(w: Workload, inputs: np.ndarray, seed: int, *, telemetry=None, rng=None):
    """One call of the workload through the library's public drivers."""
    if w.is_permutation:
        from repro.core.permutation import random_permutation

        return random_permutation(
            inputs, n_procs=N_PROCS, backend=w.backend,
            matrix_algorithm=w.matrix_algorithm, seed=seed, telemetry=telemetry,
        )
    from repro.core.api import sample_communication_matrix

    if rng is not None:
        return sample_communication_matrix(inputs, algorithm="batched", rng=rng)
    return sample_communication_matrix(inputs, algorithm="batched", seed=seed)


def reference(w: Workload, inputs: np.ndarray, seed: int) -> np.ndarray:
    """The thread backend's output for ``seed``: what every backend must return."""
    from repro.core.permutation import random_permutation

    return random_permutation(inputs, n_procs=N_PROCS, backend="thread",
                              matrix_algorithm=w.matrix_algorithm, seed=seed)


class Checker:
    """Output checks, run outside the timed region."""

    def __init__(self, w: Workload, inputs: np.ndarray):
        self.w = w
        self.inputs = inputs
        self._seen = np.zeros(inputs.size, dtype=bool) if w.is_permutation else None

    def __call__(self, out) -> bool:
        if not self.w.is_permutation:
            from repro.core.commmatrix import is_valid_communication_matrix

            return is_valid_communication_matrix(out, self.inputs, self.inputs)
        # The input is 0..n-1, so "sorts back to its input" means: n int64
        # values, all in range, every value hit.
        n = self.inputs.size
        out = np.asarray(out)
        if out.shape != (n,) or out.dtype != self.inputs.dtype:
            return False
        if n and (out.min() < 0 or out.max() >= n):
            return False
        self._seen[:] = False
        self._seen[out] = True
        return bool(self._seen.all())


class Recovery:
    """Calls whose first attempt crashes a rank and is recovered by retry.

    ``CrashRank(rank=1, at_op=1, at_run=0)`` fails the first attempt at
    rank 1's second fabric operation; ``retry=2`` replays it.  On the
    process backend the crash hits a standing private pool, which heals by
    respawning the dead rank; the thread backend replays on fresh threads.
    """

    def __init__(self, w: Workload):
        self.w = w
        if w.backend == "process":
            from repro.pro.backends.registry import get_backend

            self._inner = get_backend("process", persistent=True)
        else:
            self._inner = w.backend

    def call(self, inputs: np.ndarray, seed: int) -> np.ndarray:
        from repro.core.permutation import random_permutation
        from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
        from repro.pro.machine import PROMachine

        faulty = FaultInjectingBackend(
            self._inner, [CrashRank(rank=1, at_op=1, at_run=0)])
        # Not closed: closing would tear down the shared standing pool.
        machine = PROMachine(N_PROCS, seed=seed, backend=faulty, retry=2)
        return random_permutation(inputs, machine=machine,
                                  matrix_algorithm=self.w.matrix_algorithm)

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def kernel_tiers(w: Workload, inputs: np.ndarray, seed: int) -> list:
    """The kernel tier each rank reported (``CostReport.kernel_tiers()``)."""
    if not w.is_permutation:
        from repro.core.kernels import resolve_kernels

        return [["caller", resolve_kernels(None).name]]
    from repro.core.blocks import BlockDistribution
    from repro.core.permutation import permute_distributed

    blocks = BlockDistribution.balanced(inputs.size, N_PROCS).split(inputs)
    _, run = permute_distributed(blocks, backend=w.backend,
                                 matrix_algorithm=w.matrix_algorithm, seed=seed)
    return [[rank, tier] for rank, (tier, _warmup) in
            enumerate(run.cost_report.kernel_tiers())]
