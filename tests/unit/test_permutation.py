"""Unit tests for Algorithm 1 (parallel permutation) and its front ends."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.blocks import BlockDistribution
from repro.core.permutation import (
    local_shuffle,
    parallel_permutation_program,
    permute_distributed,
    random_permutation,
    random_permutation_indices,
)
from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
from repro.pro.machine import PROMachine
from repro.pro.resilience import RetryPolicy
from repro.util.errors import BackendError, ValidationError
from repro.util.timeouts import scale_timeout


class TestLocalShuffle:
    def test_preserves_multiset(self, rng):
        data = np.array([5, 5, 1, 2, 9])
        out = local_shuffle(data, rng)
        assert sorted(out.tolist()) == sorted(data.tolist())

    def test_does_not_modify_input(self, rng):
        data = np.arange(10)
        local_shuffle(data, rng)
        assert np.array_equal(data, np.arange(10))

    def test_empty_and_single(self, rng):
        assert local_shuffle(np.empty(0), rng).size == 0
        assert local_shuffle(np.array([7]), rng).tolist() == [7]


class _DrawingTier:
    """A kernel tier that serves ``permutation()``, as the compiled tier does."""

    name = "drawing"
    warmup_seconds = 0.0

    def __init__(self):
        self.calls = []

    def warm_up(self):
        return self

    def permutation(self, rng, n):
        self.calls.append(n)
        return rng.permutation(n)


class TestLocalShuffleInPlace:
    @pytest.mark.parametrize("kernels", [None, _DrawingTier()], ids=["numpy", "gather"])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_out_matches_the_copying_path(self, kernels, dtype):
        values = np.arange(257).astype(dtype)
        expected = local_shuffle(values, np.random.default_rng(5), kernels)
        out = np.empty_like(values)
        result = local_shuffle(values, np.random.default_rng(5), kernels, out=out)
        assert result is out
        assert np.array_equal(out, expected)
        assert np.array_equal(values, np.arange(257))  # the source is left alone

    @pytest.mark.parametrize("kernels", [None, _DrawingTier()], ids=["numpy", "gather"])
    def test_out_may_be_the_input(self, kernels):
        expected = local_shuffle(np.arange(257), np.random.default_rng(6), kernels)
        values = np.arange(257)
        result = local_shuffle(values, np.random.default_rng(6), kernels, out=values)
        assert result is values
        assert np.array_equal(values, expected)

    def test_gather_path_is_taken(self):
        tier = _DrawingTier()
        values = np.arange(257)
        local_shuffle(values, np.random.default_rng(7), tier, out=values)
        assert tier.calls == [257]

    def test_empty_and_single_in_place(self, rng):
        empty, single = np.empty(0), np.array([7])
        assert local_shuffle(empty, rng, out=empty) is empty
        assert local_shuffle(single, rng, out=single).tolist() == [7]


class TestPermuteDistributed:
    def test_preserves_items_and_sizes(self, machine4):
        blocks = [np.arange(i * 10, i * 10 + 6) for i in range(4)]
        out_blocks, run = permute_distributed(blocks, machine=machine4)
        assert [len(b) for b in out_blocks] == [6, 6, 6, 6]
        merged = np.concatenate(out_blocks)
        assert sorted(merged.tolist()) == sorted(np.concatenate(blocks).tolist())
        assert run.n_procs == 4

    def test_uneven_blocks(self, machine3):
        blocks = [np.arange(0, 3), np.arange(3, 10), np.arange(10, 12)]
        out_blocks, _ = permute_distributed(blocks, machine=machine3)
        assert [len(b) for b in out_blocks] == [3, 7, 2]
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(12))

    def test_explicit_target_sizes(self, machine3):
        blocks = [np.arange(0, 8), np.arange(8, 10), np.arange(10, 12)]
        out_blocks, _ = permute_distributed(blocks, machine=machine3, target_sizes=[4, 4, 4])
        assert [len(b) for b in out_blocks] == [4, 4, 4]
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(12))

    def test_target_sizes_must_sum(self, machine3):
        blocks = [np.arange(4), np.arange(4), np.arange(4)]
        with pytest.raises((ValidationError, BackendError)):
            permute_distributed(blocks, machine=machine3, target_sizes=[4, 4, 5])

    def test_target_sizes_wrong_length(self, machine3):
        blocks = [np.arange(4), np.arange(4), np.arange(4)]
        with pytest.raises((ValidationError, BackendError)):
            permute_distributed(blocks, machine=machine3, target_sizes=[6, 6])

    @pytest.mark.parametrize("matrix_algorithm", ["root", "alg5", "alg6"])
    def test_all_matrix_algorithms(self, matrix_algorithm):
        blocks = [np.arange(i * 5, (i + 1) * 5) for i in range(5)]
        out_blocks, _ = permute_distributed(
            blocks, matrix_algorithm=matrix_algorithm, seed=7
        )
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(25))

    def test_unknown_matrix_algorithm(self, machine2):
        blocks = [np.arange(3), np.arange(3)]
        with pytest.raises((ValidationError, BackendError)):
            permute_distributed(blocks, machine=machine2, matrix_algorithm="alg9")

    def test_empty_blocks_allowed(self, machine3):
        blocks = [np.arange(5), np.empty(0, dtype=np.int64), np.arange(5, 8)]
        out_blocks, _ = permute_distributed(blocks, machine=machine3)
        assert [len(b) for b in out_blocks] == [5, 0, 3]

    def test_no_blocks_rejected(self):
        with pytest.raises(ValidationError):
            permute_distributed([])

    def test_machine_size_mismatch(self, machine2):
        with pytest.raises(ValidationError):
            permute_distributed([np.arange(2)] * 3, machine=machine2)

    def test_object_payloads(self, machine2):
        blocks = [np.array(["a", "b", "c"], dtype=object), np.array(["d", "e"], dtype=object)]
        out_blocks, _ = permute_distributed(blocks, machine=machine2)
        assert sorted(np.concatenate(out_blocks).tolist()) == ["a", "b", "c", "d", "e"]

    def test_structured_payloads(self, machine2):
        dtype = [("key", np.int64), ("value", np.float64)]
        data = np.zeros(8, dtype=dtype)
        data["key"] = np.arange(8)
        data["value"] = np.arange(8) * 0.5
        blocks = [data[:5], data[5:]]
        out_blocks, _ = permute_distributed(blocks, machine=machine2)
        merged = np.concatenate(out_blocks)
        assert sorted(merged["key"].tolist()) == list(range(8))
        # records stay intact: value must still be key / 2
        assert np.allclose(np.sort(merged["value"]), np.arange(8) * 0.5)

    def test_work_is_balanced(self):
        blocks = [np.arange(i * 100, (i + 1) * 100) for i in range(4)]
        _, run = permute_distributed(blocks, seed=3)
        assert run.cost_report.imbalance("compute_ops") < 1.5
        assert run.cost_report.imbalance("words_sent") < 2.0


class TestRandomPermutation:
    def test_output_is_permutation_of_input(self):
        out = random_permutation(np.arange(100), n_procs=4, seed=0)
        assert sorted(out.tolist()) == list(range(100))

    def test_preserves_dtype(self):
        out = random_permutation(np.arange(50, dtype=np.int32), n_procs=3, seed=0)
        assert out.dtype == np.int32

    def test_accepts_lists(self):
        out = random_permutation([3, 1, 4, 1, 5, 9, 2, 6], n_procs=2, seed=0)
        assert sorted(out.tolist()) == [1, 1, 2, 3, 4, 5, 6, 9]

    def test_single_processor(self):
        out = random_permutation(np.arange(20), n_procs=1, seed=0)
        assert sorted(out.tolist()) == list(range(20))

    def test_more_processors_than_items(self):
        out = random_permutation(np.arange(3), n_procs=6, seed=0)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_empty_vector(self):
        assert random_permutation(np.empty(0, dtype=np.int64), n_procs=2, seed=0).size == 0

    def test_rejects_2d_input(self):
        with pytest.raises(ValidationError):
            random_permutation(np.zeros((3, 3)), n_procs=2)

    def test_custom_distribution(self):
        dist = BlockDistribution([7, 3])
        out = random_permutation(np.arange(10), n_procs=2, seed=1, distribution=dist)
        assert sorted(out.tolist()) == list(range(10))

    def test_distribution_total_mismatch(self):
        with pytest.raises(ValidationError):
            random_permutation(np.arange(10), n_procs=2, distribution=BlockDistribution([4, 4]))

    def test_distribution_block_count_mismatch(self):
        with pytest.raises(ValidationError):
            random_permutation(np.arange(10), n_procs=3, distribution=BlockDistribution([5, 5]))

    def test_machine_overrides_n_procs(self, machine3):
        out = random_permutation(np.arange(30), n_procs=99, machine=machine3)
        assert sorted(out.tolist()) == list(range(30))

    def test_different_seeds_give_different_orders(self):
        a = random_permutation(np.arange(200), n_procs=4, seed=1)
        b = random_permutation(np.arange(200), n_procs=4, seed=2)
        assert not np.array_equal(a, b)

    def test_actually_shuffles(self):
        out = random_permutation(np.arange(500), n_procs=4, seed=3)
        assert not np.array_equal(out, np.arange(500))


def _forbid_concatenate(monkeypatch):
    def forbidden(self, blocks):
        raise AssertionError("the driver glued the blocks back together")

    monkeypatch.setattr(BlockDistribution, "concatenate", forbidden)


def _count_concatenate(monkeypatch) -> list:
    calls = []
    original = BlockDistribution.concatenate

    def counting(self, blocks):
        calls.append(len(blocks))
        return original(self, blocks)

    monkeypatch.setattr(BlockDistribution, "concatenate", counting)
    return calls


class TestInPlaceAssembly:
    """Shared-memory ranks assemble the driver's output vector in place."""

    def test_thread_backend_never_concatenates(self, monkeypatch):
        data = np.arange(10_007)
        expected = random_permutation(data, n_procs=4, backend="sim", seed=9)
        _forbid_concatenate(monkeypatch)
        out = random_permutation(data, n_procs=4, backend="thread", seed=9)
        assert np.array_equal(out, expected)
        assert not np.shares_memory(out, data)
        assert np.array_equal(data, np.arange(10_007))

    def test_crashed_attempt_replays_into_the_same_buffer(self, monkeypatch):
        data = np.arange(5_003)
        clean = random_permutation(data, n_procs=2, backend="thread", seed=13)
        _forbid_concatenate(monkeypatch)
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=1, at_op=1, at_run=0)])
        machine = PROMachine(2, seed=13, backend=faulty, retry=2,
                             timeout=scale_timeout(10))
        recovered = random_permutation(data, machine=machine)
        assert faulty.runs_started == 2
        assert np.array_equal(recovered, clean)

    def test_fallback_into_another_address_space_concatenates(self, monkeypatch):
        data = np.arange(4_001)
        calls = _count_concatenate(monkeypatch)
        clean = random_permutation(data, n_procs=2, backend="thread", seed=21)
        assert calls == []
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=0, at_op=0)])
        policy = RetryPolicy(max_attempts=1, fallback=("process",))
        machine = PROMachine(2, seed=21, backend=faulty, retry=policy,
                             timeout=scale_timeout(10))
        degraded = random_permutation(data, machine=machine)
        assert calls == [2]
        assert degraded.dtype == data.dtype
        assert np.array_equal(degraded, clean)

    def test_uneven_target_sizes_land_in_one_vector(self):
        blocks = [np.arange(0, 9), np.arange(9, 10), np.arange(10, 16)]
        targets = [2, 11, 3]
        out_blocks, _ = permute_distributed(blocks, target_sizes=targets,
                                            backend="thread", seed=4)
        copied, _ = permute_distributed(blocks, target_sizes=targets,
                                        backend="process", seed=4)
        assert [len(b) for b in out_blocks] == targets
        assert all(b.base is out_blocks[0].base is not None for b in out_blocks)
        for ours, theirs in zip(out_blocks, copied):
            assert np.array_equal(ours, theirs)

    def test_object_and_structured_payloads_in_place(self):
        dtype = [("key", np.int64), ("value", np.float64)]
        records = np.zeros(9, dtype=dtype)
        records["key"] = np.arange(9)
        records["value"] = np.arange(9) * 0.5
        words = np.array(list("abcdefghi"), dtype=object)
        for data in (records, words):
            blocks = [data[:5], data[5:]]
            out_blocks, _ = permute_distributed(blocks, backend="thread", seed=8)
            copied, _ = permute_distributed(blocks, backend="process", seed=8)
            assert out_blocks[0].base is out_blocks[1].base is not None
            assert out_blocks[0].dtype == data.dtype
            for ours, theirs in zip(out_blocks, copied):
                assert np.array_equal(ours, theirs)

    def test_mixed_dtypes_keep_the_promoting_gather(self):
        blocks = [np.arange(4, dtype=np.int32), np.arange(4, 9, dtype=np.int64)]
        out_blocks, _ = permute_distributed(blocks, backend="thread", seed=2)
        assert all(b.dtype == np.int64 for b in out_blocks)
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(9))


class TestRandomPermutationIndices:
    def test_returns_permutation(self):
        perm = random_permutation_indices(16, n_procs=4, seed=5)
        assert sorted(perm.tolist()) == list(range(16))

    def test_zero_length(self):
        assert random_permutation_indices(0, n_procs=2, seed=0).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            random_permutation_indices(-1)


class TestProgramValidation:
    def test_wrong_block_count_inside_program(self, machine2):
        def program(ctx):
            return parallel_permutation_program(ctx, [np.arange(3)])
        with pytest.raises(BackendError):
            machine2.run(program)

    def test_supersteps_recorded(self):
        blocks = [np.arange(20), np.arange(20, 40)]
        _, run = permute_distributed(blocks, seed=0)
        # At least: shuffle barrier + exchange barrier.
        assert run.cost_report.n_supersteps() >= 3


def test_import_loads_the_rank_modules():
    """A rank forked from a parent that only imported the driver finds the
    engine, the kernel registry and its tiers already loaded, so a rank
    respawned by heal() imports nothing on its first epoch."""
    script = ("import sys, repro.core.permutation; "
              "missing = {'repro.core.engine', 'repro.core.kernels', "
              "'repro.core.kernels.numba_tier', 'repro.core.kernels.numpy_tier'}"
              " - set(sys.modules); "
              "assert not missing, missing")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=scale_timeout(60))
    assert proc.returncode == 0, proc.stderr
