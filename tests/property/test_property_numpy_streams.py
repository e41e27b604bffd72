"""Property tests: the samplers draw NumPy's random streams.

Randomized sweeps over the contract ``tests/unit/test_numpy_streams.py``
pins on fixed grids: for every (seed, parameters) pair, ``local_shuffle``
is ``Generator.shuffle``, the engine's vectorized ``draw_many`` is
``Generator.hypergeometric``, and ``sample_many`` under the scalar HIN and
HRUA methods is the loop over ``sample`` -- the same arrays, and the
generator left on the same stream position.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import hypergeometric as hg
from repro.core.engine import SamplerEngine
from repro.core.permutation import local_shuffle

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same_position(g1, g2):
    assert np.array_equal(g1.random(2), g2.random(2))


class TestShuffleProperties:
    @given(seed=seeds, n=st.integers(min_value=0, max_value=300), in_place=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_generator_shuffle(self, seed, n, in_place):
        g1, g2 = _pair(seed)
        values = np.arange(n)
        out = local_shuffle(values, g1, out=values if in_place else None)
        ref = np.arange(n)
        g2.shuffle(ref)
        assert np.array_equal(out, ref)
        _assert_same_position(g1, g2)


class TestDrawManyProperties:
    @given(
        seed=seeds,
        w=st.integers(min_value=0, max_value=400),
        b=st.integers(min_value=0, max_value=400),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_generator_hypergeometric(self, seed, w, b, data):
        t = data.draw(st.integers(min_value=0, max_value=w + b))
        size = data.draw(st.integers(min_value=1, max_value=30))
        g1, g2 = _pair(seed)
        out = SamplerEngine("auto").draw_many(t, w, b, size, g1)
        if 0 < t < w + b and w and b:
            ref = g2.hypergeometric(w, b, t, size)
        else:  # trivial parameters are resolved without drawing
            ref = np.full(size, hg.sample(t, w, b, g2))
        assert np.array_equal(out, ref)
        _assert_same_position(g1, g2)


class TestSampleManyProperties:
    @given(
        seed=seeds,
        w=st.integers(min_value=1, max_value=120),
        b=st.integers(min_value=1, max_value=120),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hin_matches_loop(self, seed, w, b, data):
        t = data.draw(st.integers(min_value=1, max_value=w + b - 1))
        g1, g2 = _pair(seed)
        out = hg.sample_many(t, w, b, size=12, rng=g1, method="hin")
        ref = [hg.sample(t, w, b, g2, method="hin") for _ in range(12)]
        assert out.tolist() == ref
        _assert_same_position(g1, g2)

    @given(
        seed=seeds,
        w=st.integers(min_value=12, max_value=200),
        b=st.integers(min_value=12, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hrua_matches_loop(self, seed, w, b, data):
        # HRUA's own validity region: 10 <= sample <= good + bad - 10.
        t = data.draw(st.integers(min_value=10, max_value=w + b - 10))
        g1, g2 = _pair(seed)
        out = hg.sample_many(t, w, b, size=12, rng=g1, method="hrua")
        ref = [hg.sample(t, w, b, g2, method="hrua") for _ in range(12)]
        assert out.tolist() == ref
        _assert_same_position(g1, g2)
