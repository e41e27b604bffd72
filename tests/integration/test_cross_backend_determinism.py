"""Cross-backend determinism: same seed => bit-identical results everywhere.

The per-rank random streams are derived in the parent machine and shipped to
wherever the rank executes, so the inline, thread, process and sim backends
must produce exactly the same matrices and permutations for a fixed seed.
These tests pin that contract (it is what makes each backend a drop-in
replacement rather than a different sampler) across both ways payload bytes
cross (shared-memory segments, and the in-band degrade path of hosts
without shared memory), the process backend's fleets (private, borrowed
from the default pool cache, fresh or after earlier runs), and the sim
backend's schedule seeds (interleavings must never change results; the
exhaustive schedule sweep lives in ``tests/simulation/``).

The CI determinism matrix runs this module once per OS runner.
"""

import numpy as np
import pytest

from repro.core.api import sample_communication_matrix
from repro.core.commmatrix import sample_matrix
from repro.core.parallel_matrix import sample_matrix_parallel
from repro.core.permutation import random_permutation
from repro.pro.machine import PROMachine
from repro.pro.telemetry import Telemetry
from repro.util.errors import ValidationError

ALGORITHMS = ["alg5", "alg6", "root"]
MULTI_RANK_BACKENDS = ["thread", "process", "sim"]
ALL_BACKENDS = ["inline", "thread", "process", "sim"]


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

    def test_tile_strategy_rejected_for_alg5(self):
        with pytest.raises(ValidationError, match="alg5"):
            sample_matrix_parallel([4, 4], algorithm="alg5", seed=0,
                                   tile_strategy="batched")

    def test_rng_rejected_on_parallel_path(self):
        with pytest.raises(ValidationError, match="per-rank"):
            sample_communication_matrix(
                [4, 4], parallel=True, rng=np.random.default_rng(0)
            )


class TestDegradePath:
    """Hosts without shared memory: every payload in-band, bit-identical.

    With segment creation unavailable in every process of the run -- the
    module is gone before the ranks fork -- the transport sends every
    array inside its record and ``empty`` declines, so Algorithm 1 sends
    its pieces instead of writing them into a shared output vector.  The
    random streams never see the difference.
    """

    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_permutation_identical_to_thread(self, no_shared_memory,
                                             process_backend, matrix_algorithm):
        data = np.arange(40_000, dtype=np.int64)  # 80 KB pieces: bulk
        reference = random_permutation(data, n_procs=4, backend="thread",
                                       matrix_algorithm=matrix_algorithm, seed=77)
        assert process_backend.empty(4, np.int64) is None
        telemetry = Telemetry()
        machine = PROMachine(4, seed=77, backend=process_backend,
                             telemetry=telemetry)
        try:
            out = random_permutation(data, machine=machine,
                                     matrix_algorithm=matrix_algorithm)
        finally:
            machine.close()
        assert np.array_equal(reference, out)
        report = telemetry.last.to_dict()
        assert report["parent_transport"]["segments_created"] == 0
        for rank in report["ranks"]:
            assert rank["transport"]["encode_calls"] > 0
            assert rank["transport"]["segments_created"] == 0

    def test_matrix_identical_to_thread(self, no_shared_memory, process_backend):
        row_sums = np.arange(1, 5) * 7
        reference, _ = sample_matrix_parallel(row_sums, backend="thread", seed=404)
        machine = PROMachine(4, seed=404, backend=process_backend)
        try:
            matrix, _ = sample_matrix_parallel(row_sums, machine=machine)
        finally:
            machine.close()
        assert np.array_equal(reference, matrix)


class TestPersistentDeterminism:
    """Standing worker fleets: bit-identical for a fixed seed.

    A fleet only changes where the ranks live; the per-rank streams are
    still built in the parent for every run, so a fleet that served
    earlier runs must agree with a fresh one and with the thread backend,
    whether the fleet is private or borrowed from the default pool cache.
    """

    def test_matrix_identical_across_persistence(self, process_backend):
        row_sums = np.arange(1, 5) * 6
        reference, _ = sample_matrix_parallel(row_sums, backend="thread", seed=321)
        matrix, _ = sample_matrix_parallel(row_sums, backend=process_backend,
                                           seed=321)
        assert np.array_equal(reference, matrix)

    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_permutation_identical_across_persistence(self, matrix_algorithm,
                                                      process_backend):
        data = np.arange(3000, dtype=np.int64)
        reference = random_permutation(data, n_procs=4, backend="thread",
                                       matrix_algorithm=matrix_algorithm, seed=88)
        out = random_permutation(data, n_procs=4, backend=process_backend,
                                 matrix_algorithm=matrix_algorithm, seed=88)
        assert np.array_equal(reference, out)
        assert sorted(out.tolist()) == list(range(3000))

    def test_run_sequences_agree_between_modes(self, payload_path):
        """k runs on one standing fleet == k runs on a fleet closed after each."""
        standing = PROMachine(3, seed=17, backend="process")
        fresh = PROMachine(3, seed=17, backend="process")
        try:
            for iteration in range(3):
                a = random_permutation(np.arange(900), machine=standing)
                b = random_permutation(np.arange(900), machine=fresh)
                fresh.close()  # the next call spawns a fresh fleet
                assert np.array_equal(a, b), iteration
        finally:
            standing.close()

    def test_api_level_persistent_parity(self):
        reference = sample_communication_matrix([7, 7, 7], parallel=True,
                                                backend="thread", seed=61)
        matrix = sample_communication_matrix([7, 7, 7], parallel=True,
                                             backend="process", seed=61)
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

    def test_schedule_seed_rejected_for_thread_backend(self):
        with pytest.raises(ValidationError, match="does not accept"):
            sample_matrix_parallel([4, 4], backend="thread", schedule_seed=3)


class TestFixedSeedAcrossEntryPoints:
    """One seed, one result: across backends, repeated calls and entry points."""

    @pytest.mark.parametrize("backend", MULTI_RANK_BACKENDS)
    def test_matrix_identical_across_backends(self, backend):
        reference, _ = sample_matrix_parallel([5, 6, 7], backend="thread", seed=808)
        matrix, _ = sample_matrix_parallel([5, 6, 7], backend=backend, seed=808)
        assert np.array_equal(reference, matrix), backend

    def test_inline_backend_agrees_with_thread_at_p1(self):
        reference, _ = sample_matrix_parallel([12], [5, 7], backend="thread", seed=808)
        matrix, _ = sample_matrix_parallel([12], [5, 7], backend="inline", seed=808)
        assert np.array_equal(reference, matrix)

    @pytest.mark.parametrize("backend", MULTI_RANK_BACKENDS)
    @pytest.mark.parametrize("matrix_algorithm", ALGORITHMS)
    def test_permutation_identical_across_backends(self, matrix_algorithm, backend):
        data = np.arange(2000, dtype=np.int64)
        reference = random_permutation(data, n_procs=4, backend="thread",
                                       matrix_algorithm=matrix_algorithm, seed=909)
        out = random_permutation(data, n_procs=4, backend=backend,
                                 matrix_algorithm=matrix_algorithm, seed=909)
        assert np.array_equal(reference, out), backend
        assert sorted(out.tolist()) == list(range(2000))

    def test_default_backend_call_is_repeatable(self):
        first = random_permutation(np.arange(600), n_procs=3, seed=515)
        assert np.array_equal(first, random_permutation(np.arange(600), n_procs=3, seed=515))

    @pytest.mark.parametrize("value", ["numpy", "auto", "numba", "bogus"])
    def test_retired_kernels_variable_changes_nothing(self, value, monkeypatch):
        # REPRO_KERNELS once selected a compiled tier; nothing reads it now.
        reference = random_permutation(np.arange(600), n_procs=3, seed=515)
        matrix = sample_communication_matrix([8, 8, 8], algorithm="batched", seed=626)
        monkeypatch.setenv("REPRO_KERNELS", value)
        assert np.array_equal(reference,
                              random_permutation(np.arange(600), n_procs=3, seed=515))
        assert np.array_equal(matrix, sample_communication_matrix(
            [8, 8, 8], algorithm="batched", seed=626))

    def test_api_level_matches_the_drivers(self):
        parallel = sample_communication_matrix([8, 8, 8], parallel=True,
                                               backend="thread", seed=626)
        driver, _ = sample_matrix_parallel([8, 8, 8], backend="thread", seed=626)
        assert np.array_equal(parallel, driver)
        sequential = sample_communication_matrix([8, 8, 8], algorithm="batched", seed=626)
        direct = sample_matrix([8, 8, 8], [8, 8, 8], 626, strategy="batched")
        assert np.array_equal(sequential, direct)


class TestWarmDriverDeterminism:
    """Warm-by-default drivers vs a fresh fleet per call: bit-identical.

    Driver calls with ``backend="process"`` reuse the process-wide default
    pool cache.  Warmth changes where the ranks live, never what they
    draw, so a k-call sequence of warm driver calls must equal the same k
    calls on a fresh private machine, closed after each call, seed by
    seed.
    """

    def test_k_driver_calls_warm_equals_cold(self, payload_path):
        from repro.pro.backends.pool import clear_default_pools, default_pools

        clear_default_pools()
        try:
            for k, seed in enumerate((301, 302, 303)):
                warm = random_permutation(np.arange(2500), n_procs=4,
                                          backend="process", seed=seed)
                with PROMachine(4, seed=seed, backend="process") as fresh:
                    cold = random_permutation(np.arange(2500), n_procs=4,
                                              machine=fresh)
                assert np.array_equal(warm, cold), k
            assert len(default_pools()) == 1  # all warm calls shared one fleet
        finally:
            clear_default_pools()

    def test_warm_matrix_matches_thread_reference(self):
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
