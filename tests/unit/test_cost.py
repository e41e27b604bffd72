"""Unit tests for cost accounting and the analytic time model."""

import pytest

from repro.pro.cost import (
    LAPTOP_PYTHON_PARAMETERS,
    ORIGIN_2000_PARAMETERS,
    CostRecorder,
    CostReport,
    MachineParameters,
    SuperstepCost,
)
from repro.util.errors import ValidationError


class TestSuperstepCost:
    def test_merge_sums_fields(self):
        a = SuperstepCost(compute_ops=1, words_sent=2, words_received=3,
                          messages_sent=4, messages_received=5, random_variates=6)
        b = SuperstepCost(compute_ops=10, words_sent=20, words_received=30,
                          messages_sent=40, messages_received=50, random_variates=60)
        merged = a.merge(b)
        assert merged.compute_ops == 11
        assert merged.words_sent == 22
        assert merged.random_variates == 66

    def test_h_relation_is_max_of_directions(self):
        step = SuperstepCost(words_sent=10, words_received=25)
        assert step.h_relation == 25


class TestCostRecorder:
    def test_starts_with_one_superstep(self):
        rec = CostRecorder(0)
        assert rec.current_superstep == 0
        assert len(rec.supersteps) == 1

    def test_next_superstep_advances(self):
        rec = CostRecorder(0)
        rec.add_compute(5)
        rec.next_superstep()
        rec.add_compute(7)
        assert len(rec.supersteps) == 2
        assert rec.supersteps[0].compute_ops == 5
        assert rec.supersteps[1].compute_ops == 7

    def test_total_aggregates(self):
        rec = CostRecorder(0)
        rec.record_send(10)
        rec.next_superstep()
        rec.record_send(5)
        rec.record_receive(3)
        total = rec.total()
        assert total.words_sent == 15
        assert total.words_received == 3
        assert total.messages_sent == 2

    def test_memory_peak_tracking(self):
        rec = CostRecorder(0)
        rec.allocate(100)
        rec.allocate(50)
        rec.release(120)
        rec.allocate(30)
        assert rec.memory_words_peak == 150

    def test_release_never_goes_negative(self):
        rec = CostRecorder(0)
        rec.release(10)
        rec.allocate(5)
        assert rec.memory_words_peak == 5

    def test_as_dict_keys(self):
        d = CostRecorder(3).as_dict()
        assert d["rank"] == 3
        for key in ("compute_ops", "words_sent", "random_variates", "memory_words_peak"):
            assert key in d


class TestMachineParameters:
    def test_validation_rejects_negative(self):
        with pytest.raises(ValidationError):
            MachineParameters(seconds_per_op=-1).validate()

    def test_superstep_time_combines_terms(self):
        params = MachineParameters(
            seconds_per_op=1.0, seconds_per_word=10.0, seconds_per_message=100.0,
            seconds_per_variate=1000.0, hop_factor=0.0,
        )
        step = SuperstepCost(compute_ops=2, words_sent=3, words_received=1,
                             messages_sent=1, messages_received=1, random_variates=1)
        # 2*1 + max(3,1)*10 + 2*100 + 1*1000 = 1232
        assert params.superstep_time(step) == pytest.approx(1232.0)

    def test_hop_factor_increases_cost(self):
        params = MachineParameters(seconds_per_word=1.0, seconds_per_op=0, seconds_per_message=0,
                                   seconds_per_variate=0, hop_factor=0.5)
        step = SuperstepCost(words_sent=10)
        near = params.superstep_time(step, average_hops=1.0)
        far = params.superstep_time(step, average_hops=3.0)
        assert far > near

    def test_presets_are_valid(self):
        ORIGIN_2000_PARAMETERS.validate()
        LAPTOP_PYTHON_PARAMETERS.validate()


class TestCostReport:
    def _two_rank_report(self):
        rec0, rec1 = CostRecorder(0), CostRecorder(1)
        rec0.add_compute(100)
        rec0.record_send(10)
        rec1.add_compute(50)
        rec1.record_send(30)
        rec1.next_superstep()
        rec1.add_compute(50)
        return CostReport([rec0, rec1])

    def test_requires_recorders(self):
        with pytest.raises(ValidationError):
            CostReport([])

    def test_totals(self):
        report = self._two_rank_report()
        assert report.total("compute_ops") == 200
        assert report.total("words_sent") == 40

    def test_max_over_ranks(self):
        report = self._two_rank_report()
        assert report.max_over_ranks("compute_ops") == 100

    def test_imbalance(self):
        report = self._two_rank_report()
        assert report.imbalance("compute_ops") == pytest.approx(1.0)
        assert report.imbalance("words_sent") == pytest.approx(30 / 20)

    def test_imbalance_all_zero_is_one(self):
        report = CostReport([CostRecorder(0), CostRecorder(1)])
        assert report.imbalance("compute_ops") == 1.0

    def test_predicted_time_modes(self):
        report = self._two_rank_report()
        params = MachineParameters(seconds_per_op=1.0, seconds_per_word=0.0,
                                   seconds_per_message=0.0, seconds_per_variate=0.0)
        bsp = report.predicted_time(params, mode="bsp")
        optimistic = report.predicted_time(params, mode="max")
        # BSP: step0 max(100, 50) + step1 max(0, 50) = 150; max mode: max(100, 100) = 100
        assert bsp == pytest.approx(150.0)
        assert optimistic == pytest.approx(100.0)
        assert bsp >= optimistic

    def test_predicted_time_unknown_mode(self):
        with pytest.raises(ValidationError):
            self._two_rank_report().predicted_time(MachineParameters(), mode="average")

    def test_summary_table_mentions_all_ranks(self):
        table = self._two_rank_report().summary_table()
        assert "0" in table and "1" in table

    def test_as_dict(self):
        d = self._two_rank_report().as_dict()
        assert d["n_procs"] == 2
        assert d["compute_ops_total"] == 200

    def test_kernel_tiers_reads_numpy_per_rank(self):
        # The one path perfbench's host line still reads; see repro.core.kernels.
        from repro.core.kernels import resolve_kernels

        assert self._two_rank_report().kernel_tiers() == [("numpy", 0.0)] * 2
        assert resolve_kernels(None).name == "numpy"
