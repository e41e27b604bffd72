"""Unit tests for the benchmark harness and the experiment drivers."""

import numpy as np
import pytest

from repro.bench.figure1 import figure1_layout, render_layout
from repro.bench.harness import BenchRecord, measure_seconds, paper_vs_measured_table
from repro.bench.paper_claims import PAPER_CLAIMS, PAPER_TABLE1_N_ITEMS, PAPER_TABLE1_SECONDS
from repro.bench.randoms import uniforms_per_h_call
from repro.bench.scaling import (
    ORIGIN_SCALING_MODEL,
    OriginScalingModel,
    crossover_processors,
    format_scaling_rows,
    measured_scaling_table,
    overhead_factor,
    predicted_scaling_table,
)
from repro.util.errors import ValidationError


class TestHarness:
    def test_measure_seconds_returns_result(self):
        out = measure_seconds(lambda x: x * 2, 21, repeats=2)
        assert out["result"] == 42
        assert out["best_seconds"] <= out["mean_seconds"] or out["repeats"] == 1
        assert out["repeats"] == 2

    def test_measure_seconds_validates_repeats(self):
        with pytest.raises(ValidationError):
            measure_seconds(lambda: None, repeats=0)

    def test_paper_vs_measured_table(self):
        records = [BenchRecord("overhead", "3-5", 4.6, unit="x"),
                   BenchRecord("crossover", 6, 6, unit="procs")]
        text = paper_vs_measured_table(records, title="T1")
        assert "overhead" in text and "crossover" in text and "T1" in text
        md = paper_vs_measured_table(records, markdown=True)
        assert md.startswith("| quantity |")


class TestPaperClaims:
    def test_table1_entries(self):
        assert PAPER_TABLE1_SECONDS[0] == 137.0
        assert PAPER_TABLE1_SECONDS[48] == 53.2
        assert PAPER_TABLE1_N_ITEMS == 480_000_000

    def test_all_experiment_ids_present(self):
        for key in ("T1", "E2", "E3", "E4", "E5", "E6", "E7", "F1"):
            assert key in PAPER_CLAIMS
            assert "statement" in PAPER_CLAIMS[key]


class TestScalingModel:
    def test_sequential_time_matches_calibration(self):
        t = ORIGIN_SCALING_MODEL.sequential_time(PAPER_TABLE1_N_ITEMS)
        assert t == pytest.approx(PAPER_TABLE1_SECONDS[0], rel=1e-6)

    def test_three_processor_time_matches_calibration(self):
        t = ORIGIN_SCALING_MODEL.parallel_time(PAPER_TABLE1_N_ITEMS, 3)
        assert t == pytest.approx(PAPER_TABLE1_SECONDS[3], rel=0.02)

    def test_predictions_within_15_percent_of_paper(self):
        """The calibrated model reproduces every row of the paper's table within 15%."""
        for p, seconds in PAPER_TABLE1_SECONDS.items():
            if p in (0, 3):
                continue  # calibration points
            predicted = ORIGIN_SCALING_MODEL.parallel_time(PAPER_TABLE1_N_ITEMS, p)
            assert abs(predicted - seconds) / seconds < 0.15, (p, predicted, seconds)

    def test_overhead_factor_in_paper_range(self):
        rows = predicted_scaling_table()
        factor = overhead_factor(rows)
        low, high = PAPER_CLAIMS["T1"]["overhead_factor_range"]
        assert low <= factor <= high

    def test_crossover_matches_paper(self):
        rows = predicted_scaling_table()
        assert crossover_processors(rows) == PAPER_CLAIMS["T1"]["crossover_processors"]

    def test_speedup_monotone_in_p(self):
        model = ORIGIN_SCALING_MODEL
        speedups = [model.speedup(PAPER_TABLE1_N_ITEMS, p) for p in (3, 6, 12, 24, 48)]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))

    def test_matrix_term_visible_at_huge_p(self):
        model = OriginScalingModel(
            seconds_per_item_sequential=1e-7, seconds_per_item_shuffle=1e-7,
            seconds_per_item_exchange=1e-7, memory_saturation=1e9,
            seconds_per_matrix_entry=1.0,
        )
        assert model.parallel_time(10, 100) > 100 * 100 * 0.5

    def test_invalid_processor_count(self):
        with pytest.raises(ValidationError):
            ORIGIN_SCALING_MODEL.parallel_time(100, 0)

    def test_predicted_table_structure(self):
        rows = predicted_scaling_table(n_items=1000, proc_counts=(2, 4))
        assert rows[0]["n_procs"] == 0
        assert rows[0]["paper_seconds"] is None  # not the paper's n
        assert len(rows) == 3

    def test_format_scaling_rows(self):
        rows = predicted_scaling_table()
        text = format_scaling_rows(rows, seconds_key="predicted_seconds", title="T1")
        assert "seq" in text and "48" in text

    def test_overhead_requires_parallel_rows(self):
        with pytest.raises(ValidationError):
            overhead_factor([{"n_procs": 0, "predicted_seconds": 1.0}])


class TestMeasuredScaling:
    def test_small_measured_table(self):
        rows = measured_scaling_table(20_000, proc_counts=(2, 4), repeats=1)
        assert rows[0]["n_procs"] == 0
        assert all(r["measured_seconds"] > 0 for r in rows)
        assert len(rows) == 3

    def test_crossover_helper_with_measured_key(self):
        rows = [
            {"n_procs": 0, "measured_seconds": 1.0},
            {"n_procs": 2, "measured_seconds": 2.0},
            {"n_procs": 4, "measured_seconds": 0.5},
        ]
        assert crossover_processors(rows, seconds_key="measured_seconds") == 4

    def test_crossover_none_when_never_faster(self):
        rows = [
            {"n_procs": 0, "measured_seconds": 1.0},
            {"n_procs": 2, "measured_seconds": 2.0},
        ]
        assert crossover_processors(rows, seconds_key="measured_seconds") is None


class TestRandomsDriver:
    def test_fields_and_paper_comparison(self):
        result = uniforms_per_h_call(8, 500, n_matrices=3, seed=1)
        assert result["n_calls"] == 3 * 8 * 8
        assert result["mean_uniforms"] > 0
        assert result["max_uniforms"] >= result["mean_uniforms"]
        # The qualitative claim: O(1) uniforms per call, bounded worst case.
        assert result["mean_uniforms"] < 5.0
        assert result["max_uniforms"] < 40

    def test_auto_dispatch_beats_forced_hrua(self):
        auto = uniforms_per_h_call(8, 50, n_matrices=3, method="auto", seed=2)
        hrua = uniforms_per_h_call(8, 50, n_matrices=3, method="hrua", seed=2)
        assert auto["mean_uniforms"] <= hrua["mean_uniforms"] + 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            uniforms_per_h_call(0, 10)


class TestFigure1:
    def test_layout_fields(self):
        layout = figure1_layout(60, 6, seed=1)
        assert layout["source_sizes"].sum() == 60
        assert layout["target_sizes"].sum() == 60
        assert layout["communication_matrix"].sum() == 60
        assert np.array_equal(layout["communication_matrix"].sum(axis=0), layout["target_sizes"])
        assert np.array_equal(layout["communication_matrix"].sum(axis=1), layout["source_sizes"])

    def test_balanced_variant(self):
        layout = figure1_layout(30, 6, seed=1, uneven=False)
        assert layout["source_sizes"].tolist() == [5] * 6

    def test_render_contains_both_rows(self):
        layout = figure1_layout(36, 6, seed=2)
        text = render_layout(layout)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("v ")
        assert lines[1].startswith("v'")


def _load_benchmark(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestKernelArtifactMerge:
    def test_merge_replaces_only_the_kernel_cells(self, tmp_path):
        import json

        artifact = tmp_path / "BENCH.json"
        artifact.write_text(json.dumps({"suite": "bench_backends", "schema": 6,
                                        "records": [{"kept": True}],
                                        "kernel_records": [{"stale": True}]}))
        cell = {"workload": "matrix_tree", "units": 1, "median_seconds": 0.5,
                "samples_per_second": 2}
        _load_benchmark("bench_kernels").merge_into_artifact(artifact, [cell])
        payload = json.loads(artifact.read_text())
        assert payload == {"suite": "bench_backends", "schema": 6,
                           "records": [{"kept": True}], "kernel_records": [cell]}

    def test_merge_into_a_missing_artifact(self, tmp_path):
        import json

        artifact = tmp_path / "BENCH.json"
        _load_benchmark("bench_kernels").merge_into_artifact(artifact, [])
        assert json.loads(artifact.read_text())["kernel_records"] == []


def test_cold_backend_cells_leave_no_warm_pool():
    """A cold process cell runs on a fresh machine instead of borrowing the
    default pool, so it measures a cold call and leaves no fleet behind."""
    from repro.pro.backends.pool import clear_default_pools, default_pools

    bench_backends = _load_benchmark("bench_backends")
    clear_default_pools()
    try:
        bench_backends.median_seconds("permutation", "process", 1000, 2, rounds=1)
        bench_backends.median_seconds("matrix", "process", 1000, 2, rounds=1)
        assert default_pools() == {}
    finally:
        clear_default_pools()
