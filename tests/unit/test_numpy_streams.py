"""The samplers draw NumPy's random streams, variate for variate.

The paper's results are defined by the random streams of Algorithm 1 and
its matrix samplers, and in this package those streams are NumPy's: the
local shuffle is ``Generator.shuffle``, the engine's vectorized univariate
draws are ``Generator.hypergeometric``, and the scalar HIN/HRUA methods loop
over :func:`repro.core.hypergeometric.sample`.  These tests pin each sampler
against its NumPy reference on fixed grids: the result arrays *and* the
generator state afterwards (so calls can interleave on one stream), the
charges of a :class:`~repro.rng.counting.CountingRNG`, and every bit
generator NumPy ships, not just the default ``PCG64``.
``tests/property/test_property_numpy_streams.py`` sweeps the same contracts
over random parameters.
"""

import numpy as np
import pytest

from repro.core import hypergeometric as hg
from repro.core.engine import SamplerEngine
from repro.core.permutation import local_shuffle
from repro.rng.counting import CountingRNG

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64]


def _pair(seed, bit_generator=np.random.PCG64):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


def _assert_same_position(g1, g2):
    assert np.array_equal(g1.random(4), g2.random(4))


def _shuffle_into(values, rng, form):
    """``local_shuffle`` in one of its three forms: copy, ``out=``, in place."""
    if form == "copy":
        return local_shuffle(values, rng)
    if form == "out":
        return local_shuffle(values, rng, out=np.empty_like(values))
    return local_shuffle(values, rng, out=values)


class TestLocalShuffle:
    @pytest.mark.parametrize("form", ["copy", "out", "in_place"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 13, 64, 257, 1000])
    def test_matches_generator_shuffle(self, n, form):
        g1, g2 = _pair(100 + n)
        out = _shuffle_into(np.arange(n), g1, form)
        ref = np.arange(n)
        g2.shuffle(ref)
        assert np.array_equal(out, ref)
        _assert_same_position(g1, g2)

    @pytest.mark.parametrize("values", [
        np.linspace(0.0, 1.0, 90),
        np.array([f"item-{i}" for i in range(90)], dtype=object),
        np.array([(i, 2.0 * i) for i in range(90)], dtype=[("key", "i8"), ("val", "f8")]),
        np.arange(180).reshape(90, 2),
    ], ids=["float64", "object", "structured", "rows"])
    def test_payloads_follow_the_same_stream(self, values):
        g1, g2 = _pair(21)
        out = local_shuffle(values, g1)
        ref = values.copy()
        g2.shuffle(ref)
        assert np.array_equal(out, ref)
        _assert_same_position(g1, g2)

    @pytest.mark.parametrize("form", ["copy", "out", "in_place"])
    @pytest.mark.parametrize("n", [0, 1, 2, 200])
    def test_counting_rng_charged_n_minus_one_integers(self, n, form):
        rng = CountingRNG(np.random.default_rng(4))
        _shuffle_into(np.arange(n), rng, form)
        assert rng.integers_drawn == max(n - 1, 0)
        assert rng.uniforms_drawn == 0
        assert rng.calls == (1 if n > 1 else 0)

    def test_back_to_back_draws_interleave(self):
        """Shuffles and other draws on one generator stay on one stream."""
        g1, g2 = _pair(77)
        first = local_shuffle(np.arange(51), g1)
        ref_first = np.arange(51)
        g2.shuffle(ref_first)
        assert np.array_equal(first, ref_first)
        assert np.array_equal(g1.random(3), g2.random(3))
        third = local_shuffle(np.arange(17), g1)
        ref_third = np.arange(17)
        g2.shuffle(ref_third)
        assert np.array_equal(third, ref_third)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_every_bit_generator(self, bit_generator):
        g1, g2 = _pair(6, bit_generator)
        out = local_shuffle(np.arange(100), g1)
        ref = np.arange(100)
        g2.shuffle(ref)
        assert np.array_equal(out, ref)
        _assert_same_position(g1, g2)


# (w, b, t): white balls, black balls, sample size.
DRAW_GRID = [
    (30, 40, 20),    # HRUA region
    (500, 300, 11),  # inversion region (small sample)
    (8, 9, 4),       # tiny urn
    (60, 60, 110),   # sample close to the whole urn
    (1000, 3, 500),  # min(w, b) tiny
]


class TestDrawMany:
    @pytest.mark.parametrize("method", ["auto", "numpy"])
    @pytest.mark.parametrize("w,b,t", DRAW_GRID)
    def test_vector_methods_are_generator_hypergeometric(self, w, b, t, method):
        g1, g2 = _pair(1000 + t)
        out = SamplerEngine(method).draw_many(t, w, b, 64, g1)
        ref = g2.hypergeometric(w, b, t, 64)
        assert out.dtype == np.int64
        assert np.array_equal(out, ref)
        _assert_same_position(g1, g2)

    @pytest.mark.parametrize("method", ["hin", "hrua"])
    @pytest.mark.parametrize("w,b,t", DRAW_GRID)
    def test_scalar_methods_loop_over_sample(self, w, b, t, method):
        g1, g2 = _pair(2000 + t)
        out = SamplerEngine(method).draw_many(t, w, b, 16, g1)
        ref = [hg.sample(t, w, b, g2, method=method) for _ in range(16)]
        assert out.tolist() == ref
        _assert_same_position(g1, g2)

    def test_counting_rng_charged_like_the_vectorized_call(self):
        c1 = CountingRNG(np.random.default_rng(8))
        c2 = CountingRNG(np.random.default_rng(8))
        out = SamplerEngine("numpy").draw_many(70, 50, 60, 32, c1)
        ref = c2.hypergeometric(50, 60, 70, 32)
        assert np.array_equal(out, ref)
        assert (c1.uniforms_drawn, c1.calls) == (c2.uniforms_drawn, c2.calls) == (32, 1)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_every_bit_generator(self, bit_generator):
        g1, g2 = _pair(9, bit_generator)
        out = SamplerEngine().draw_many(400, 500, 300, 64, g1)
        assert np.array_equal(out, g2.hypergeometric(500, 300, 400, 64))
        _assert_same_position(g1, g2)


class TestSampleMany:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("method", ["hin", "hrua"])
    def test_every_bit_generator(self, method, bit_generator):
        g1, g2 = _pair(12, bit_generator)
        out = hg.sample_many(40, 60, 50, size=20, rng=g1, method=method)
        ref = [hg.sample(40, 60, 50, g2, method=method) for _ in range(20)]
        assert out.tolist() == ref
        _assert_same_position(g1, g2)
