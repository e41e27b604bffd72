"""Cross-backend determinism: same seed => bit-identical results everywhere.

The per-rank random streams are derived in the parent machine and shipped to
wherever the rank executes, so the inline, thread, process and sim backends
must produce exactly the same matrices and permutations for a fixed seed.
These tests pin that contract (it is what makes each backend a drop-in
replacement rather than a different sampler) across every payload transport
(``pickle`` / ``sharedmem``), both persistence modes of the process backend
(cold one-epoch pool vs the standing worker pool), and the sim backend's
schedule seeds (interleavings must never change results; the exhaustive
schedule sweep lives in ``tests/simulation/``).

The CI determinism matrix runs this module once per OS runner and
persistence mode; set ``REPRO_PERSISTENT=0`` or ``1`` to narrow the
process-backend cells to one mode (unset runs both).
"""

import os

import numpy as np
import pytest

from repro.core.api import sample_communication_matrix
from repro.core.parallel_matrix import sample_matrix_parallel
from repro.core.permutation import random_permutation
from repro.pro.machine import PROMachine
from repro.util.errors import ValidationError

ALGORITHMS = ["alg5", "alg6", "root"]
MULTI_RANK_BACKENDS = ["thread", "process", "sim"]
ALL_BACKENDS = ["inline", "thread", "process", "sim"]


def _persistent_modes() -> list:
    forced = os.environ.get("REPRO_PERSISTENT")
    if forced is None or forced == "":
        return [False, True]
    return [forced not in ("0", "false", "no")]


#: Process-backend persistence modes exercised by this run (see module doc).
PERSISTENT_MODES = _persistent_modes()


class TestMatrixDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_backends_agree_at_p1(self, algorithm):
        matrices = [
            sample_matrix_parallel([12], [5, 7], algorithm=algorithm, backend=backend, seed=33)[0]
            for backend in ALL_BACKENDS
        ]
        for matrix in matrices[1:]:
            assert np.array_equal(matrices[0], matrix)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n_procs", [2, 4, 5])
    def test_multirank_backends_identical(self, algorithm, n_procs):
        row_sums = np.arange(1, n_procs + 1) * 3
        matrices = {}
        for backend in MULTI_RANK_BACKENDS:
            matrices[backend], _ = sample_matrix_parallel(
                row_sums, algorithm=algorithm, backend=backend, seed=101
            )
        for backend in MULTI_RANK_BACKENDS[1:]:
            assert np.array_equal(matrices["thread"], matrices[backend]), backend
        assert np.array_equal(matrices["thread"].sum(axis=1), row_sums)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("schedule_seed", [0, 1, 17])
    def test_sim_schedule_seeds_never_change_results(self, algorithm, schedule_seed):
        row_sums = np.arange(1, 5) * 4
        reference, _ = sample_matrix_parallel(row_sums, algorithm=algorithm,
                                              backend="thread", seed=246)
        matrix, _ = sample_matrix_parallel(
            row_sums, algorithm=algorithm, backend="sim",
            schedule_seed=schedule_seed, seed=246,
        )
        assert np.array_equal(reference, matrix)

    @pytest.mark.parametrize("tile_strategy", ["sequential", "batched"])
    def test_alg6_tile_strategies_backend_invariant(self, tile_strategy):
        matrices = [
            sample_matrix_parallel(
                [6, 6, 6, 6], algorithm="alg6", backend=backend, seed=7,
                tile_strategy=tile_strategy,
            )[0]
            for backend in MULTI_RANK_BACKENDS
        ]
        for matrix in matrices[1:]:
            assert np.array_equal(matrices[0], matrix)

    def test_api_level_acceptance(self):
        """sample_communication_matrix(..., backend=...) end-to-end parity."""
        reference = None
        for backend in MULTI_RANK_BACKENDS:
            matrix = sample_communication_matrix(
                [8, 8, 8, 8], parallel=True, backend=backend, seed=2003
            )
            if reference is None:
                reference = matrix
            else:
                assert np.array_equal(reference, matrix)
        inline = sample_communication_matrix([24], [8, 8, 8], parallel=True,
                                             backend="inline", seed=2003)
        assert inline.sum() == 24

    def test_backend_and_machine_mutually_exclusive(self):
        machine = PROMachine(2, seed=0)
        with pytest.raises(ValidationError):
            sample_matrix_parallel([4, 4], machine=machine, backend="process")

    def test_tile_strategy_rejected_for_alg5(self):
        with pytest.raises(ValidationError, match="alg5"):
            sample_matrix_parallel([4, 4], algorithm="alg5", seed=0,
                                   tile_strategy="batched")

    def test_rng_rejected_on_parallel_path(self):
        with pytest.raises(ValidationError, match="per-rank"):
            sample_communication_matrix(
                [4, 4], parallel=True, rng=np.random.default_rng(0)
            )

    def test_backend_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            sample_communication_matrix([4, 4], backend="process")


class TestTransportDeterminism:
    """pickle vs sharedmem payload transport: bit-identical for a fixed seed.

    The transports only move bytes; they never touch the per-rank random
    streams, so every (backend, transport) combination must agree exactly.
    """

    TRANSPORTS = ["pickle", "sharedmem"]

    def test_matrix_identical_across_transports(self):
        row_sums = np.arange(1, 5) * 7
        reference, _ = sample_matrix_parallel(row_sums, backend="thread", seed=404)
        for transport in self.TRANSPORTS:
            matrix, _ = sample_matrix_parallel(
                row_sums, backend="process", transport=transport, seed=404
            )
            assert np.array_equal(reference, matrix), transport

    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_permutation_identical_across_transports(self, matrix_algorithm):
        data = np.arange(4000, dtype=np.int64)
        outputs = [
            random_permutation(data, n_procs=4, backend="thread",
                               matrix_algorithm=matrix_algorithm, seed=77)
        ]
        outputs += [
            random_permutation(data, n_procs=4, backend="process",
                               transport=transport,
                               matrix_algorithm=matrix_algorithm, seed=77)
            for transport in self.TRANSPORTS
        ]
        for out in outputs[1:]:
            assert np.array_equal(outputs[0], out)
        assert sorted(outputs[0].tolist()) == list(range(4000))

    def test_transport_and_machine_mutually_exclusive(self):
        machine = PROMachine(2, seed=0)
        with pytest.raises(ValidationError):
            sample_matrix_parallel([4, 4], machine=machine, transport="sharedmem")

    def test_transport_rejected_for_thread_backend(self):
        with pytest.raises(ValidationError, match="does not accept"):
            sample_matrix_parallel([4, 4], backend="thread", transport="sharedmem")

    def test_api_level_transport_parity(self):
        matrices = [
            sample_communication_matrix([9, 9, 9], parallel=True, backend="process",
                                        transport=transport, seed=55)
            for transport in self.TRANSPORTS
        ]
        assert np.array_equal(matrices[0], matrices[1])

    def test_transport_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            sample_communication_matrix([4, 4], transport="sharedmem")


class TestPersistentDeterminism:
    """Standing worker pool vs cold runs: bit-identical for a fixed seed.

    Persistence only changes where the ranks live and how runs reach them
    (dispatch queue vs fork-per-run); the per-rank streams are still built
    in the parent for every run, so every {inline, thread, process} x
    {pickle, sharedmem} x {persistent, cold} combination must agree.
    """

    TRANSPORTS = ["pickle", "sharedmem"]

    @pytest.mark.parametrize("persistent", PERSISTENT_MODES,
                             ids=lambda v: "persistent" if v else "cold")
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_matrix_identical_across_persistence(self, transport, persistent):
        row_sums = np.arange(1, 5) * 6
        reference, _ = sample_matrix_parallel(row_sums, backend="thread", seed=321)
        matrix, _ = sample_matrix_parallel(
            row_sums, backend="process", transport=transport,
            persistent=persistent, seed=321,
        )
        assert np.array_equal(reference, matrix), (transport, persistent)

    @pytest.mark.parametrize("persistent", PERSISTENT_MODES)
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_permutation_identical_across_persistence(self, matrix_algorithm,
                                                      transport, persistent):
        data = np.arange(3000, dtype=np.int64)
        reference = random_permutation(data, n_procs=4, backend="thread",
                                       matrix_algorithm=matrix_algorithm, seed=88)
        out = random_permutation(data, n_procs=4, backend="process",
                                 transport=transport, persistent=persistent,
                                 matrix_algorithm=matrix_algorithm, seed=88)
        assert np.array_equal(reference, out), (transport, persistent)
        assert sorted(out.tolist()) == list(range(3000))

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_run_sequences_agree_between_modes(self, transport):
        """k runs on one standing pool == k cold runs, same seed."""
        if True not in PERSISTENT_MODES:
            pytest.skip("persistent cells disabled by REPRO_PERSISTENT")
        options = {"transport": transport}
        persistent = PROMachine(3, seed=17, backend="process",
                                backend_options=options, persistent=True)
        cold = PROMachine(3, seed=17, backend="process", backend_options=options)
        try:
            for iteration in range(3):
                a = random_permutation(np.arange(900), machine=persistent)
                b = random_permutation(np.arange(900), machine=cold)
                assert np.array_equal(a, b), iteration
        finally:
            persistent.close()

    def test_persistent_and_machine_mutually_exclusive(self):
        machine = PROMachine(2, seed=0)
        with pytest.raises(ValidationError):
            sample_matrix_parallel([4, 4], machine=machine, persistent=True)

    def test_persistent_rejected_for_thread_backend(self):
        with pytest.raises(ValidationError, match="does not accept"):
            sample_matrix_parallel([4, 4], backend="thread", persistent=True)

    def test_persistent_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            sample_communication_matrix([4, 4], persistent=True)

    def test_api_level_persistent_parity(self):
        if True not in PERSISTENT_MODES:
            pytest.skip("persistent cells disabled by REPRO_PERSISTENT")
        reference = sample_communication_matrix([7, 7, 7], parallel=True,
                                                backend="thread", seed=61)
        matrix = sample_communication_matrix([7, 7, 7], parallel=True,
                                             backend="process",
                                             persistent=True, seed=61)
        assert np.array_equal(reference, matrix)


class TestPermutationDeterminism:
    def test_multirank_backends_permute_identically(self):
        data = np.arange(60, dtype=np.int64)
        outputs = [
            random_permutation(data, n_procs=4, backend=backend, seed=11)
            for backend in MULTI_RANK_BACKENDS
        ]
        for out in outputs[1:]:
            assert np.array_equal(outputs[0], out)
        assert sorted(outputs[0].tolist()) == list(range(60))

    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_matrix_algorithm_choice_backend_invariant(self, matrix_algorithm):
        data = np.arange(30, dtype=np.int64)
        a = random_permutation(data, n_procs=3, backend="thread",
                               matrix_algorithm=matrix_algorithm, seed=5)
        for backend in MULTI_RANK_BACKENDS[1:]:
            b = random_permutation(data, n_procs=3, backend=backend,
                                   matrix_algorithm=matrix_algorithm, seed=5)
            assert np.array_equal(a, b), backend

    def test_schedule_seed_and_machine_mutually_exclusive(self):
        machine = PROMachine(2, seed=0, backend="sim")
        with pytest.raises(ValidationError):
            sample_matrix_parallel([4, 4], machine=machine, schedule_seed=3)

    def test_schedule_seed_rejected_for_thread_backend(self):
        with pytest.raises(ValidationError, match="does not accept"):
            sample_matrix_parallel([4, 4], backend="thread", schedule_seed=3)

    def test_schedule_seed_rejected_on_sequential_path(self):
        from repro.core.api import sample_communication_matrix

        with pytest.raises(ValidationError, match="parallel"):
            sample_communication_matrix([4, 4], schedule_seed=3)


class TestKernelTierDeterminism:
    """REPRO_KERNELS axis: kernel tiers never change what a seed produces.

    The compiled tier consumes raw words from the same per-rank bit
    generators the NumPy code would have used (see
    ``repro.core.kernels.wordstream``), so every backend x tier cell of the
    grid must agree bit for bit -- whether the tier is requested per call
    (``kernels=``) or process-wide (the ``REPRO_KERNELS`` environment
    variable).  The CI numba cell reruns this module with
    ``REPRO_KERNELS=numba`` to pin the compiled tier against these same
    seeds; without numba ``"auto"``/``"numba"`` degrade to the NumPy tier,
    which keeps the cells meaningful (equal by construction) rather than
    skipped.
    """

    KERNEL_TIERS = ["numpy", "auto", "numba"]

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.core.kernels import reset_kernels

        reset_kernels()
        yield
        reset_kernels()

    @pytest.mark.parametrize("kernels", KERNEL_TIERS)
    @pytest.mark.parametrize("backend", MULTI_RANK_BACKENDS)
    def test_matrix_identical_across_tiers_and_backends(self, backend, kernels):
        reference, _ = sample_matrix_parallel([5, 6, 7], backend="thread",
                                              seed=808, kernels="numpy")
        matrix, _ = sample_matrix_parallel([5, 6, 7], backend=backend,
                                           seed=808, kernels=kernels)
        assert np.array_equal(reference, matrix), (backend, kernels)

    @pytest.mark.parametrize("kernels", KERNEL_TIERS)
    def test_inline_backend_agrees_at_p1(self, kernels):
        reference, _ = sample_matrix_parallel([12], [5, 7], backend="inline",
                                              seed=808, kernels="numpy")
        matrix, _ = sample_matrix_parallel([12], [5, 7], backend="inline",
                                           seed=808, kernels=kernels)
        assert np.array_equal(reference, matrix), kernels

    @pytest.mark.parametrize("kernels", KERNEL_TIERS)
    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_permutation_identical_across_tiers(self, matrix_algorithm, kernels):
        data = np.arange(2000, dtype=np.int64)
        reference = random_permutation(data, n_procs=4, backend="thread",
                                       matrix_algorithm=matrix_algorithm,
                                       seed=909, kernels="numpy")
        out = random_permutation(data, n_procs=4, backend="thread",
                                 matrix_algorithm=matrix_algorithm,
                                 seed=909, kernels=kernels)
        assert np.array_equal(reference, out), kernels
        assert sorted(out.tolist()) == list(range(2000))

    @pytest.mark.parametrize("kernels", KERNEL_TIERS)
    def test_environment_variable_matches_explicit_request(self, kernels,
                                                           monkeypatch):
        explicit = random_permutation(np.arange(600), n_procs=3, seed=515,
                                      kernels=kernels)
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        from repro.core.kernels import reset_kernels

        reset_kernels()
        ambient = random_permutation(np.arange(600), n_procs=3, seed=515)
        assert np.array_equal(explicit, ambient), kernels

    def test_tier_repatriated_through_process_backend(self):
        _, run = sample_matrix_parallel(
            [6, 6, 6], seed=42, backend="process", persistent=False,
            kernels="numpy",
        )
        tiers = run.cost_report.kernel_tiers()
        assert [tier for tier, _ in tiers] == ["numpy"] * 3

    def test_kernels_and_machine_mutually_exclusive(self):
        machine = PROMachine(2, seed=0)
        try:
            with pytest.raises(ValidationError, match="kernels"):
                sample_matrix_parallel([4, 4], machine=machine, kernels="numpy")
        finally:
            machine.close()

    def test_api_level_tier_parity(self):
        matrices = [
            sample_communication_matrix([8, 8, 8], parallel=True,
                                        backend="thread", seed=626,
                                        kernels=kernels)
            for kernels in self.KERNEL_TIERS
        ]
        for matrix in matrices[1:]:
            assert np.array_equal(matrices[0], matrix)
        sequential = [
            sample_communication_matrix([8, 8, 8], algorithm="batched",
                                        seed=626, kernels=kernels)
            for kernels in self.KERNEL_TIERS
        ]
        for matrix in sequential[1:]:
            assert np.array_equal(sequential[0], matrix)


class TestWarmDriverDeterminism:
    """Warm-by-default drivers vs the forced-cold path: bit-identical.

    Driver calls with ``backend="process"`` reuse the process-wide default
    pool cache (``persistent=None`` means warm); ``persistent=False``
    forces the historic cold spawn.  Warmth changes where the ranks live,
    never what they draw, so a k-call sequence of warm driver calls must
    equal the same k cold calls seed by seed -- across both transports.
    """

    TRANSPORTS = ["pickle", "sharedmem"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_k_driver_calls_warm_equals_cold(self, transport):
        if True not in PERSISTENT_MODES:
            pytest.skip("persistent cells disabled by REPRO_PERSISTENT")
        from repro.pro.backends.pool import clear_default_pools, default_pools

        clear_default_pools()
        try:
            for k, seed in enumerate((301, 302, 303)):
                warm = random_permutation(np.arange(2500), n_procs=4,
                                          backend="process",
                                          transport=transport, seed=seed)
                cold = random_permutation(np.arange(2500), n_procs=4,
                                          backend="process",
                                          transport=transport, seed=seed,
                                          persistent=False)
                assert np.array_equal(warm, cold), (transport, k)
            assert len(default_pools()) == 1  # all warm calls shared one fleet
        finally:
            clear_default_pools()

    def test_warm_matrix_matches_thread_reference(self):
        if True not in PERSISTENT_MODES:
            pytest.skip("persistent cells disabled by REPRO_PERSISTENT")
        reference, _ = sample_matrix_parallel([5, 6, 7], backend="thread",
                                              seed=99)
        warm, _ = sample_matrix_parallel([5, 6, 7], backend="process", seed=99)
        assert np.array_equal(reference, warm)


class TestExploredScheduleReplay:
    """Explored-schedule replay axis: traces the explorer records replay
    bit-identically under ``SimBackend(schedule=...)``, with telemetry on
    and off.

    The explorer (``repro.pro.explore``) commits shrunk decision traces
    as reproducers; those files are only trustworthy if (a) replaying a
    recorded trace reproduces the recorded run exactly and (b) passive
    telemetry collection cannot perturb the schedule or the results.
    """

    SEED = 8128

    def _explored_traces(self):
        """Record a spread of distinct interleavings via PCT policies."""
        from repro.pro.explore import PCTPolicy

        traces = []
        for pct_seed in (0, 1, 2):
            machine = PROMachine(
                4, seed=self.SEED, backend="sim",
                backend_options={"policy": PCTPolicy(pct_seed)},
            )
            matrix, _ = sample_matrix_parallel(
                [5, 6, 7, 8], algorithm="alg5", machine=machine)
            traces.append((list(machine.backend.last_schedule), matrix))
        return traces

    def test_recorded_traces_replay_bit_identically(self):
        for trace, matrix in self._explored_traces():
            replay = PROMachine(4, seed=self.SEED, backend="sim",
                                backend_options={"schedule": trace})
            replayed, _ = sample_matrix_parallel(
                [5, 6, 7, 8], algorithm="alg5", machine=replay)
            assert np.array_equal(replayed, matrix)
            assert replay.backend.last_schedule == trace

    def test_replay_is_telemetry_invariant(self):
        from repro.pro.telemetry import Telemetry

        for trace, matrix in self._explored_traces():
            telemetry = Telemetry()
            watched = PROMachine(4, seed=self.SEED, backend="sim",
                                 backend_options={"schedule": trace},
                                 telemetry=telemetry)
            replayed, _ = sample_matrix_parallel(
                [5, 6, 7, 8], algorithm="alg5", machine=watched)
            assert np.array_equal(replayed, matrix)
            assert watched.backend.last_schedule == trace
            assert telemetry.last is not None  # collection actually ran

    def test_explorer_cell_replay_is_deterministic_end_to_end(self):
        from repro.pro.explore import replay_cell

        collect = {}
        first = replay_cell("alg6", 4, machine_seed=self.SEED, _collect=collect)
        again = replay_cell("alg6", 4, machine_seed=self.SEED,
                            schedule=collect["schedule"])
        assert first[0] == "ok"
        assert again == first
