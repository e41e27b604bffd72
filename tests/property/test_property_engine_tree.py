"""Property tests: the array-form splitting trees equal the per-segment loops.

``SamplerEngine.multivariate_batch`` and ``sample_matrix_batched`` walk the
balanced splitting tree of Section 4 (Proposition 6) one level at a time,
holding every segment of a level in ``lo``/``hi`` arrays.  The reference
below is the straightforward formulation they replaced: a Python list of
segments, split one by one, with the next level's draw counts assembled by
``np.stack``.  Both must make the same ``hypergeometric`` calls on the same
parameter arrays, so for any urns, marginals and seed they agree on the
output, on the generator state afterwards and on the variates a
:class:`~repro.rng.counting.CountingRNG` is charged.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import SamplerEngine
from repro.rng.counting import CountingRNG

_ENGINE = SamplerEngine("auto")


def loop_block(rng, ngood, nbad, nsample):
    """Reference trivial-case masking: every mask built one at a time."""
    full = nsample >= ngood + nbad
    out = np.where(full, ngood, 0).astype(np.int64)
    forced_zero = (ngood == 0) | (nsample == 0)
    forced_all = (nbad == 0) & ~forced_zero & ~full
    out[forced_all] = nsample[forced_all]
    random_mask = ~(full | forced_zero | forced_all)
    if np.any(random_mask):
        out[random_mask] = rng.hypergeometric(
            ngood[random_mask], nbad[random_mask], nsample[random_mask]
        )
    return out


def loop_multivariate_batch(draws, sizes, rng):
    """Reference splitting tree: a list of segments, split one by one."""
    draws = np.asarray(draws, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_batch, n_classes = sizes.shape
    counts = np.zeros((n_batch, n_classes), dtype=np.int64)
    if n_classes == 0:
        return counts
    prefix = np.zeros((n_batch, n_classes + 1), dtype=np.int64)
    np.cumsum(sizes, axis=1, out=prefix[:, 1:])
    segments = [(0, n_classes)]
    seg_draws = draws.reshape(n_batch, 1)
    while any(hi - lo > 1 for lo, hi in segments):
        split_idx = [i for i, (lo, hi) in enumerate(segments) if hi - lo > 1]
        los = np.array([segments[i][0] for i in split_idx])
        his = np.array([segments[i][1] for i in split_idx])
        mids = (los + his) // 2
        split_draws = seg_draws[:, split_idx]
        into_left = loop_block(rng, prefix[:, mids] - prefix[:, los],
                               prefix[:, his] - prefix[:, mids], split_draws)
        new_segments, new_cols, j = [], [], 0
        for i, (lo, hi) in enumerate(segments):
            if hi - lo > 1:
                mid = (lo + hi) // 2
                new_segments += [(lo, mid), (mid, hi)]
                new_cols += [into_left[:, j], split_draws[:, j] - into_left[:, j]]
                j += 1
            else:
                new_segments.append((lo, hi))
                new_cols.append(seg_draws[:, i])
        segments = new_segments
        seg_draws = np.stack(new_cols, axis=1)
    for i, (lo, _hi) in enumerate(segments):
        counts[:, lo] = seg_draws[:, i]
    return counts


def loop_sample_matrix(rows, cols, rng):
    """Reference row tree: a list of row blocks, split one by one."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    matrix = np.zeros((rows.size, cols.size), dtype=np.int64)
    if rows.size == 0 or cols.size == 0:
        return matrix
    row_prefix = np.concatenate([[0], np.cumsum(rows)])
    blocks = [(0, rows.size)]
    caps = cols.reshape(1, -1)
    while any(hi - lo > 1 for lo, hi in blocks):
        split_idx = [i for i, (lo, hi) in enumerate(blocks) if hi - lo > 1]
        mids = np.array([(blocks[i][0] + blocks[i][1]) // 2 for i in split_idx])
        his = np.array([blocks[i][1] for i in split_idx])
        to_up = loop_multivariate_batch(row_prefix[his] - row_prefix[mids],
                                        caps[split_idx], rng)
        new_blocks, new_caps, j = [], [], 0
        for i, (lo, hi) in enumerate(blocks):
            if hi - lo > 1:
                mid = (lo + hi) // 2
                new_blocks += [(lo, mid), (mid, hi)]
                new_caps += [caps[i] - to_up[j], to_up[j]]
                j += 1
            else:
                new_blocks.append((lo, hi))
                new_caps.append(caps[i])
        blocks = new_blocks
        caps = np.stack(new_caps, axis=0)
    for i, (lo, _hi) in enumerate(blocks):
        matrix[lo, :] = caps[i]
    return matrix


@st.composite
def urns(draw):
    """(draws, sizes): B urns over L classes, with empty classes and urns."""
    n_batch = draw(st.integers(min_value=0, max_value=6))
    n_classes = draw(st.integers(min_value=0, max_value=11))
    size = st.one_of(st.just(0), st.integers(min_value=0, max_value=60))
    sizes = np.array(draw(st.lists(st.lists(size, min_size=n_classes, max_size=n_classes),
                                   min_size=n_batch, max_size=n_batch)),
                     dtype=np.int64).reshape(n_batch, n_classes)
    draws = []
    for total in sizes.sum(axis=1):
        draws.append(draw(st.one_of(st.just(0), st.just(int(total)),
                                    st.integers(min_value=0, max_value=int(total)))))
    return np.array(draws, dtype=np.int64), sizes


@st.composite
def marginals(draw):
    """(rows, cols) with equal totals, zero rows and columns, 1 x N to N x 1."""
    rows = draw(st.lists(st.one_of(st.just(0), st.integers(min_value=0, max_value=80)),
                         min_size=1, max_size=12))
    total = sum(rows)
    n_cols = draw(st.integers(min_value=1, max_value=12))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=total),
                                min_size=n_cols - 1, max_size=n_cols - 1)))
    cols = np.diff([0, *cuts, total])
    return np.array(rows, dtype=np.int64), cols.astype(np.int64)


def _pair(seed):
    return (CountingRNG(np.random.default_rng(seed)),
            CountingRNG(np.random.default_rng(seed)))


def _assert_same_stream(mine, ref):
    assert mine.total_variates == ref.total_variates
    assert mine.calls == ref.calls
    assert mine.generator.bit_generator.state == ref.generator.bit_generator.state


class TestArrayFormTree:
    @given(urn=urns(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_multivariate_batch_matches_loop(self, urn, seed):
        draws, sizes = urn
        mine, ref = _pair(seed)
        out = _ENGINE.multivariate_batch(draws, sizes, mine)
        expected = loop_multivariate_batch(draws, sizes, ref)
        assert out.dtype == np.int64
        assert np.array_equal(out, expected)
        _assert_same_stream(mine, ref)

    @given(margins=marginals(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_sample_matrix_matches_loop(self, margins, seed):
        rows, cols = margins
        mine, ref = _pair(seed)
        out = _ENGINE.sample_matrix_batched(rows, cols, mine)
        expected = loop_sample_matrix(rows, cols, ref)
        assert np.array_equal(out, expected)
        _assert_same_stream(mine, ref)

    def test_matrix_large_shape_matches_loop(self):
        rows = np.full(256, 4000, dtype=np.int64)
        mine, ref = _pair(11)
        out = _ENGINE.sample_matrix_batched(rows, rows, mine)
        assert np.array_equal(out, loop_sample_matrix(rows, rows, ref))
        _assert_same_stream(mine, ref)
        assert mine.total_variates == 255 * 255


class TestFixedGrids:
    """The same contract on hand-picked edge cases and every bit generator."""

    @pytest.mark.parametrize("draws,sizes", [
        ([14, 6], [[5, 0, 7, 3, 11], [2, 2, 2, 2, 2]]),
        ([1], [[1]]),
        ([0, 10], [[0, 4], [5, 5]]),
        ([200], [[50, 60, 40, 80]]),
    ], ids=["two-urns", "one-ball", "empty-draw", "full-draw"])
    def test_multivariate_batch_matches_loop(self, draws, sizes):
        mine, ref = _pair(4000 + len(sizes[0]))
        out = _ENGINE.multivariate_batch(draws, sizes, mine)
        assert np.array_equal(out, loop_multivariate_batch(draws, sizes, ref))
        _assert_same_stream(mine, ref)

    @pytest.mark.parametrize("rows,cols", [
        ([7, 5, 3, 9, 0, 12], [6, 6, 6, 6, 6, 6]),
        ([12], [5, 7]),
        ([3, 3], [6]),
        ([40, 30, 20, 10], [25, 25, 25, 25]),
    ], ids=["zero-row", "one-row", "one-column", "square"])
    def test_sample_matrix_matches_loop(self, rows, cols):
        mine, ref = _pair(5000 + len(rows))
        out = _ENGINE.sample_matrix_batched(rows, cols, mine)
        assert np.array_equal(out, loop_sample_matrix(rows, cols, ref))
        _assert_same_stream(mine, ref)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
        np.random.Philox, np.random.SFC64,
    ], ids=lambda bg: bg.__name__)
    def test_sample_matrix_on_every_bit_generator(self, bit_generator):
        mine = CountingRNG(np.random.Generator(bit_generator(9)))
        ref = CountingRNG(np.random.Generator(bit_generator(9)))
        out = _ENGINE.sample_matrix_batched([70, 50, 30], [60, 40, 50], mine)
        assert np.array_equal(out, loop_sample_matrix([70, 50, 30], [60, 40, 50], ref))
        # Some bit generators keep array state, so compare what they draw next.
        assert (mine.total_variates, mine.calls) == (ref.total_variates, ref.calls)
        assert np.array_equal(mine.generator.random(4), ref.generator.random(4))
