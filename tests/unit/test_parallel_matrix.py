"""Unit tests for the parallel matrix samplers (Algorithms 5 and 6)."""

import numpy as np
import pytest

from repro.core import commmatrix as cm
from repro.core.parallel_matrix import (
    MATRIX_ALGORITHMS,
    algorithm5_program,
    algorithm6_program,
    column_prefixes,
    final_tile_ranges,
    root_scatter_program,
    sample_matrix_parallel,
)
from repro.pro.machine import PROMachine
from repro.util.errors import BackendError, ValidationError


class TestFinalTileRanges:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_tiles_partition_the_matrix(self, p):
        tiles = final_tile_ranges(p, p, p)
        covered = np.zeros((p, p), dtype=int)
        for (r_lo, r_hi, c_lo, c_hi) in tiles:
            covered[r_lo:r_hi, c_lo:c_hi] += 1
        assert np.all(covered == 1)

    def test_every_processor_row_is_covered(self):
        p = 8
        tiles = final_tile_ranges(p, p, p)
        for rank in range(p):
            owners = [i for i, (r_lo, r_hi, _, _) in enumerate(tiles) if r_lo <= rank < r_hi]
            assert owners, f"no tile covers row {rank}"

    def test_rectangular_dimensions(self):
        tiles = final_tile_ranges(4, 4, 6)
        covered = np.zeros((4, 6), dtype=int)
        for (r_lo, r_hi, c_lo, c_hi) in tiles:
            covered[r_lo:r_hi, c_lo:c_hi] += 1
        assert np.all(covered == 1)

    def test_tile_sizes_are_balanced(self):
        p = 16
        tiles = final_tile_ranges(p, p, p)
        areas = [(r_hi - r_lo) * (c_hi - c_lo) for (r_lo, r_hi, c_lo, c_hi) in tiles]
        # Each tile should hold O(p) entries (Proposition 9 / equation (9)).
        assert max(areas) <= 2 * p

    def test_single_processor(self):
        assert final_tile_ranges(1, 1, 1) == [(0, 1, 0, 1)]


class TestPrograms:
    @pytest.mark.parametrize("algorithm", ["alg5", "alg6", "root"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_balanced_marginals(self, algorithm, p):
        rows = cols = [6] * p
        matrix, run = sample_matrix_parallel(rows, cols, algorithm=algorithm, seed=p)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)
        assert run.n_procs == p

    @pytest.mark.parametrize("algorithm", ["alg5", "alg6", "root"])
    def test_uneven_marginals(self, algorithm):
        rows = [3, 9, 0, 5, 7]
        cols = [6, 2, 8, 1, 7]
        matrix, _ = sample_matrix_parallel(rows, cols, algorithm=algorithm, seed=1)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    @pytest.mark.parametrize("algorithm", ["alg5", "alg6"])
    def test_rectangular_target_side(self, algorithm):
        rows = [4, 4, 4, 4]
        cols = [5, 5, 6]
        matrix, _ = sample_matrix_parallel(rows, cols, algorithm=algorithm, seed=2)
        assert matrix.shape == (4, 3)
        assert cm.is_valid_communication_matrix(matrix, rows, cols)

    def test_defaults_cols_to_rows(self):
        matrix, _ = sample_matrix_parallel([4, 4, 4], algorithm="root", seed=0)
        assert matrix.shape == (3, 3)

    def test_reuse_machine(self):
        machine = PROMachine(3, seed=9)
        a, _ = sample_matrix_parallel([5, 5, 5], machine=machine)
        b, _ = sample_matrix_parallel([5, 5, 5], machine=machine)
        assert not np.array_equal(a, b)  # fresh randomness on the second run

    def test_wrong_machine_size(self):
        machine = PROMachine(2, seed=0)
        with pytest.raises(ValidationError):
            sample_matrix_parallel([5, 5, 5], machine=machine)

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            sample_matrix_parallel([5, 5], algorithm="alg7")

    def test_mismatched_totals(self):
        with pytest.raises(ValidationError):
            sample_matrix_parallel([5, 5], [4, 4])

    def test_row_sums_must_match_processor_count(self):
        machine = PROMachine(2, seed=0)
        def program(ctx):
            return algorithm5_program(ctx, [1, 2, 3], [2, 2, 2])
        with pytest.raises(BackendError):
            machine.run(program)

    def test_registry_contains_all_algorithms(self):
        assert set(MATRIX_ALGORITHMS) == {"alg5", "alg6", "root"}
        assert MATRIX_ALGORITHMS["alg5"] is algorithm5_program
        assert MATRIX_ALGORITHMS["alg6"] is algorithm6_program
        assert MATRIX_ALGORITHMS["root"] is root_scatter_program


class TestTileStrategyResolution:
    def test_auto_resolves_to_batched_for_vector_methods(self):
        from repro.core.parallel_matrix import resolve_tile_strategy
        assert resolve_tile_strategy("auto", "auto") == "batched"
        assert resolve_tile_strategy("auto", "numpy") == "batched"

    def test_auto_falls_back_for_scalar_methods(self):
        from repro.core.parallel_matrix import resolve_tile_strategy
        assert resolve_tile_strategy("auto", "hin") == "sequential"
        assert resolve_tile_strategy("auto", "hrua") == "sequential"

    def test_explicit_strategies_pass_through(self):
        from repro.core.parallel_matrix import resolve_tile_strategy
        for strategy in ("sequential", "recursive", "batched"):
            assert resolve_tile_strategy(strategy, "auto") == strategy

    def test_unknown_strategy_rejected(self):
        from repro.core.parallel_matrix import resolve_tile_strategy
        with pytest.raises(ValidationError, match="tile_strategy"):
            resolve_tile_strategy("bogus", "auto")

    def test_default_auto_matches_explicit_batched(self):
        # The driver default (auto) must be the vectorized engine path.
        rows = [10, 10, 10, 10]
        default, _ = sample_matrix_parallel(rows, algorithm="alg6", seed=123)
        batched, _ = sample_matrix_parallel(rows, algorithm="alg6", seed=123,
                                            tile_strategy="batched")
        assert np.array_equal(default, batched)

    def test_scalar_method_still_works_with_auto(self):
        rows = [6, 6, 6, 6]
        matrix, _ = sample_matrix_parallel(rows, algorithm="alg6", seed=5,
                                           method="hin")
        assert np.array_equal(matrix.sum(axis=1), rows)

    def test_alg5_accepts_auto_and_sequential_only(self):
        matrix, _ = sample_matrix_parallel([4, 4], algorithm="alg5", seed=0,
                                           tile_strategy="auto")
        assert matrix.sum() == 8
        with pytest.raises(ValidationError, match="alg5"):
            sample_matrix_parallel([4, 4], algorithm="alg5", seed=0,
                                   tile_strategy="batched")


class TestCostStructure:
    def test_alg6_per_processor_words_are_linear_in_p(self):
        """Proposition 9: O(p) words per processor for Algorithm 6."""
        per_proc_words = {}
        for p in (4, 8, 16):
            rows = cols = [4] * p
            _, run = sample_matrix_parallel(rows, cols, algorithm="alg6", seed=p)
            per_proc_words[p] = run.cost_report.max_over_ranks("words_sent")
        # Doubling p should roughly double (not quadruple) the per-processor words.
        growth_small = per_proc_words[8] / max(per_proc_words[4], 1)
        growth_large = per_proc_words[16] / max(per_proc_words[8], 1)
        assert growth_large < 3.5
        assert per_proc_words[16] < 16 * 16  # far below the O(p^2) of a full matrix

    def test_alg5_head_processor_does_log_factor_more(self):
        """Proposition 8 vs 9: Algorithm 5 grows like p log p, Algorithm 6 like p."""
        words = {}
        for p in (16, 64):
            rows = cols = [4] * p
            _, run5 = sample_matrix_parallel(rows, cols, algorithm="alg5", seed=1)
            _, run6 = sample_matrix_parallel(rows, cols, algorithm="alg6", seed=1)
            words[("alg5", p)] = run5.cost_report.max_over_ranks("words_sent")
            words[("alg6", p)] = run6.cost_report.max_over_ranks("words_sent")
        growth5 = words[("alg5", 64)] / words[("alg5", 16)]
        growth6 = words[("alg6", 64)] / words[("alg6", 16)]
        # Quadrupling p multiplies alg5's per-processor communication by more
        # than alg6's (p log p versus p), and at p = 64 alg5 is already the
        # more expensive of the two.
        assert growth5 > growth6
        assert words[("alg5", 64)] > words[("alg6", 64)]

    def test_root_algorithm_concentrates_work_on_rank0(self):
        p = 8
        rows = cols = [4] * p
        _, run = sample_matrix_parallel(rows, cols, algorithm="root", seed=3)
        per_rank = run.cost_report.per_rank_totals()
        root_ops = per_rank[0]["compute_ops"]
        other_ops = max(r["compute_ops"] for r in per_rank[1:])
        assert root_ops >= other_ops
        assert root_ops >= p * p  # the O(p^2) matrix lives on the root


class TestColumnPrefixes:
    """``column_prefix=True``: each rank also gets sum_{k<rank} a_{k,j}."""

    @staticmethod
    def _run(algorithm, p, column_prefix, seed=5):
        rows = (np.arange(1, p + 1) * 3) % 7 + 2
        cols = rows[::-1].copy()

        def program(ctx):
            return MATRIX_ALGORITHMS[algorithm](ctx, rows, cols,
                                                column_prefix=column_prefix)

        return PROMachine(p, seed=seed).run(program)

    @pytest.mark.parametrize("algorithm", ["root", "alg5", "alg6"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_prefixes_are_the_exclusive_column_sums(self, algorithm, p):
        plain = self._run(algorithm, p, False)
        paired = self._run(algorithm, p, True)
        matrix = np.vstack(plain.results)
        assert np.array_equal(np.vstack([row for row, _ in paired.results]), matrix)
        expected = np.cumsum(matrix, axis=0) - matrix
        assert np.array_equal(np.vstack([pre for _, pre in paired.results]), expected)

    def test_scan_needs_one_column_per_processor(self):
        def program(ctx):
            return column_prefixes(ctx, [1, 2, 3])

        with pytest.raises(BackendError, match="one column per processor"):
            PROMachine(2, seed=0).run(program)
