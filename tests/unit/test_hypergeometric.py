"""Unit tests for the hypergeometric distribution module."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core import hypergeometric as hg
from repro.rng.counting import CountingRNG
from repro.util.errors import ValidationError


class TestSupportAndMoments:
    def test_support_regular(self):
        assert hg.support(5, 10, 7) == (0, 5)

    def test_support_forced_lower(self):
        # drawing 8 from 4 white and 5 black: at least 3 whites
        assert hg.support(8, 4, 5) == (3, 4)

    def test_support_validation(self):
        with pytest.raises(ValidationError):
            hg.support(10, 4, 3)

    def test_mean_and_variance_match_scipy(self):
        t, w, b = 12, 30, 18
        dist = scipy_stats.hypergeom(w + b, w, t)
        assert hg.mean(t, w, b) == pytest.approx(dist.mean())
        assert hg.variance(t, w, b) == pytest.approx(dist.var())

    def test_mode_within_support(self):
        for (t, w, b) in [(5, 10, 7), (8, 4, 5), (1, 1, 1), (20, 3, 50)]:
            lo, hi = hg.support(t, w, b)
            assert lo <= hg.mode(t, w, b) <= hi

    def test_degenerate_empty_urn(self):
        assert hg.mean(0, 0, 0) == 0.0
        assert hg.variance(0, 0, 0) == 0.0


class TestPmf:
    @pytest.mark.parametrize("t,w,b", [(5, 10, 7), (3, 3, 3), (7, 2, 9), (10, 50, 50)])
    def test_matches_scipy(self, t, w, b):
        ks = np.arange(0, t + 1)
        ours = np.array([hg.pmf(int(k), t, w, b) for k in ks])
        scipys = scipy_stats.hypergeom.pmf(ks, w + b, w, t)
        assert np.allclose(ours, scipys, atol=1e-13)

    def test_sums_to_one(self):
        t, w, b = 6, 9, 4
        lo, hi = hg.support(t, w, b)
        total = sum(hg.pmf(k, t, w, b) for k in range(lo, hi + 1))
        assert total == pytest.approx(1.0)

    def test_outside_support_is_zero(self):
        assert hg.pmf(6, 5, 10, 10) == 0.0
        assert hg.pmf(-1, 5, 10, 10) == 0.0
        assert hg.log_pmf(6, 5, 10, 10) == float("-inf")

    def test_point_mass_cases(self):
        assert hg.pmf(0, 0, 5, 5) == 1.0
        assert hg.pmf(3, 3, 5, 0) == 1.0
        assert hg.pmf(5, 5, 5, 0) == 1.0


class TestTrivialSamples:
    def test_zero_draws(self):
        assert hg.sample(0, 10, 10, np.random.default_rng(0)) == 0

    def test_no_whites(self):
        assert hg.sample(4, 0, 10, np.random.default_rng(0)) == 0

    def test_no_blacks(self):
        assert hg.sample(4, 10, 0, np.random.default_rng(0)) == 4

    def test_draw_everything(self):
        assert hg.sample(15, 10, 5, np.random.default_rng(0)) == 10

    def test_trivial_cases_consume_no_randomness(self):
        rng = CountingRNG(0)
        hg.sample(0, 10, 10, rng)
        hg.sample(5, 0, 5, rng)
        hg.sample(5, 5, 0, rng)
        assert rng.total_variates == 0


class TestSamplers:
    @pytest.mark.parametrize("method", ["hin", "hrua", "auto", "numpy"])
    def test_samples_stay_in_support(self, method, rng):
        t, w, b = 12, 20, 15
        lo, hi = hg.support(t, w, b)
        samples = hg.sample_many(t, w, b, 300, rng, method=method)
        assert samples.min() >= lo and samples.max() <= hi

    @pytest.mark.parametrize("method", ["hin", "hrua", "auto"])
    @pytest.mark.parametrize("t,w,b", [(6, 11, 9), (40, 60, 55), (25, 12, 100)])
    def test_goodness_of_fit(self, method, t, w, b):
        rng = np.random.default_rng(hash((method, t, w, b)) % 2**32)
        samples = hg.sample_many(t, w, b, 3000, rng, method=method)
        lo, hi = hg.support(t, w, b)
        ks = np.arange(lo, hi + 1)
        probs = scipy_stats.hypergeom.pmf(ks, w + b, w, t)
        observed = np.array([(samples == k).sum() for k in ks], dtype=float)
        mask = probs * len(samples) >= 5
        chi2 = float((((observed - probs * len(samples)) ** 2 / (probs * len(samples)))[mask]).sum())
        p_value = scipy_stats.chi2.sf(chi2, int(mask.sum()) - 1)
        assert p_value > 1e-4

    def test_sample_means_close_to_expectation(self, rng):
        t, w, b = 50, 120, 80
        samples = hg.sample_many(t, w, b, 2000, rng)
        assert abs(samples.mean() - hg.mean(t, w, b)) < 0.5

    def test_seed_reproducibility(self):
        a = hg.sample_many(20, 30, 25, 10, np.random.default_rng(5))
        b = hg.sample_many(20, 30, 25, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            hg.sample(5, 5, 5, np.random.default_rng(0), method="magic")

    def test_validation_of_parameters(self):
        with pytest.raises(ValidationError):
            hg.sample(-1, 5, 5)
        with pytest.raises(ValidationError):
            hg.sample(11, 5, 5)

    def test_integer_seed_accepted(self):
        value = hg.sample(5, 10, 10, 1234)
        assert 0 <= value <= 5

    def test_sample_many_zero_size(self):
        assert hg.sample_many(5, 10, 10, 0).size == 0


class TestCountingAndRecorder:
    def test_hin_uses_at_most_t_uniforms(self):
        rng = CountingRNG(1)
        hg.sample_hin(8, 100, 120, rng)
        assert rng.uniforms_drawn <= 8

    def test_hrua_uses_even_number_of_uniforms(self):
        rng = CountingRNG(1)
        hg.sample_hrua(50, 70, 60, rng)
        assert rng.uniforms_drawn >= 2
        assert rng.uniforms_drawn % 2 == 0

    def test_sample_with_stats(self):
        params = [(20, 30, 25)] * 50 + [(0, 5, 5)] * 50
        samples, stats = hg.sample_with_stats(params, np.random.default_rng(3))
        assert samples.shape == (100,)
        assert stats.n_samples == 100
        assert stats.max_uniforms >= 1
        assert 0 < stats.mean_uniforms < 10

    def test_recorder_counts_calls(self):
        rng = CountingRNG(2)
        with hg.SampleRecorder() as rec:
            hg.sample(10, 20, 20, rng)
            hg.sample(0, 20, 20, rng)   # trivial, still counted as a call
        assert rec.n_calls == 2
        assert rec.total_uniforms == rng.uniforms_drawn
        assert rec.mean_uniforms == rec.total_uniforms / 2

    def test_recorder_per_call_detail(self):
        rng = CountingRNG(2)
        with hg.SampleRecorder(keep_per_call=True) as rec:
            hg.sample(5, 50, 50, rng)
            hg.sample(40, 50, 50, rng)
        assert len(rec.per_call) == 2
        assert sum(rec.per_call) == rec.total_uniforms

    def test_recorder_not_active_outside_context(self):
        rng = CountingRNG(2)
        with hg.SampleRecorder() as rec:
            hg.sample(10, 20, 20, rng)
        hg.sample(10, 20, 20, rng)
        assert rec.n_calls == 1

    def test_recorder_without_counting_rng_reports_zero_uniforms(self):
        with hg.SampleRecorder() as rec:
            hg.sample(10, 20, 20, np.random.default_rng(0))
        assert rec.n_calls == 1
        assert rec.total_uniforms == 0

    def test_nested_recorders_record_independently(self):
        rng = CountingRNG(4)
        with hg.SampleRecorder() as outer:
            hg.sample(12, 30, 30, rng)
            with hg.SampleRecorder() as inner:
                hg.sample(12, 30, 30, rng)
        assert outer.n_calls == 1
        assert inner.n_calls == 1


class TestSampleMany:
    """sample_many(size=k) is k calls of sample(), variate for variate."""

    @pytest.mark.parametrize(
        "t,w,b,method",
        [
            (5, 20, 30, "hin"),
            (12, 7, 40, "hin"),
            (3, 100, 2, "hin"),
            (40, 60, 50, "hrua"),
            (200, 150, 170, "hrua"),
            (90, 45, 50, "hrua"),
            (12, 30, 25, "auto"),
            (7, 9, 8, "auto"),
            (450, 300, 400, "auto"),
            (6, 10, 12, "numpy"),
        ],
    )
    def test_equals_repeated_sample(self, t, w, b, method):
        c1, c2 = CountingRNG(np.random.default_rng(11)), CountingRNG(np.random.default_rng(11))
        r1 = hg.SampleRecorder(keep_per_call=True)
        r2 = hg.SampleRecorder(keep_per_call=True)
        with r1:
            many = hg.sample_many(t, w, b, size=40, rng=c1, method=method)
        with r2:
            loop = [hg.sample(t, w, b, c2, method=method) for _ in range(40)]
        assert many.dtype == np.int64
        assert many.tolist() == loop
        assert (c1.uniforms_drawn, c1.calls) == (c2.uniforms_drawn, c2.calls)
        assert r1.per_call == r2.per_call
        assert np.array_equal(c1.random(8), c2.random(8))

    def test_plain_generator_records_zero_uniforms(self):
        with hg.SampleRecorder(keep_per_call=True) as rec:
            hg.sample_many(5, 20, 30, size=4, rng=np.random.default_rng(0))
        assert rec.per_call == [0, 0, 0, 0]
        assert rec.n_calls == 4

    def test_trivial_parameters_draw_nothing(self):
        rng = CountingRNG(np.random.default_rng(0))
        with hg.SampleRecorder(keep_per_call=True) as rec:
            out = hg.sample_many(0, 5, 5, size=3, rng=rng)
        assert out.tolist() == [0, 0, 0]
        assert rec.per_call == [0, 0, 0]
        assert rng.calls == 0


class TestLogBinomialMemoization:
    def test_repeated_parameters_hit_the_cache(self):
        hg._log_binomial.cache_clear()
        hg.pmf(3, 6, 10, 12)
        info_first = hg._log_binomial.cache_info()
        hg.pmf(3, 6, 10, 12)
        info_second = hg._log_binomial.cache_info()
        assert info_second.hits > info_first.hits
        assert info_second.misses == info_first.misses
