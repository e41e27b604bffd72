"""Unit tests for Algorithm 1 (parallel permutation) and its front ends."""

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
from repro.util.errors import BackendError, ValidationError


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
