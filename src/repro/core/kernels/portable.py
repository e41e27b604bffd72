"""Portable kernel bodies of the compiled tier -- one source, two modes.

Every function in this module is written in the numba-compatible subset of
Python/NumPy (explicit loops, int64/float64 scalars, pre-allocated output
arrays, no Python objects) and is decorated with :data:`jit`:

* when numba is importable, ``jit`` is ``numba.njit(cache=True)`` and the
  functions compile to native code on first call (the registry's warm-up
  hook triggers and times that compile);
* when numba is absent -- or its import fails for any reason -- ``jit`` is
  the identity and the very same bodies run as plain Python.  That is what
  the equivalence test-suite executes on numpy-only installations, so the
  algorithms are pinned bit-exact everywhere and the numba CI cell merely
  re-checks the compiled lowering of code that is already proven.

Bit-exactness contract
----------------------
The kernels do not call back into ``numpy.random``.  They consume raw
``uint64`` words pre-drawn from the *same* ``BitGenerator`` the NumPy code
path would have used (see :mod:`repro.core.kernels.wordstream`), and
reproduce NumPy's own consumption rules exactly:

* ``next_double`` is ``(word >> 11) * 2**-53`` -- one word per double;
* ``next_uint32`` returns the **low** half of a fresh word and buffers the
  high half for the next call (the ``has_uint32``/``uinteger`` fields of
  the bit generator state), exactly like ``pcg64_next32``;
* bounded integers use NumPy's ``random_bounded_uint64``/``uint32`` masked
  rejection (``random_interval``), picking the 32-bit path iff the bound
  fits in 32 bits;
* ``Generator.hypergeometric`` is reproduced branch for branch: inversion
  when the (transformed) sample is within 10 of either end, Stadlober's
  HRUA* otherwise, including the 126-entry ``logfactorial`` table and its
  Stirling tail.

The word-stream cursor travels as a 3-element int64 array ``cur``:
``cur[0]`` is the index of the next unread word, ``cur[1]``/``cur[2]`` are
the ``has_uint32`` flag and the buffered half-word.  Every kernel returns
``0`` on success and ``-1`` when the pre-drawn buffer ran out -- the Python
driver then rewinds the generator and retries with a doubled buffer, so an
exhausted run consumes nothing.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "jit",
    "fill_hypergeometric",
    "fill_hyp_repeat",
    "fill_hin_repeat",
    "fill_hrua_repeat",
    "fill_permutation",
    "fill_multivariate_batch",
    "fill_matrix",
]

try:  # guarded import: any failure leaves the pure-Python mode
    from numba import njit as _njit

    HAVE_NUMBA = True

    def jit(func):
        return _njit(cache=True)(func)

except Exception:  # pragma: no cover - exercised on numba-free installs
    HAVE_NUMBA = False

    def jit(func):
        return func


# NumPy's logfactorial.c lookup table: correctly-rounded ln(k!) for
# k = 0..125.  A literal, since rebuilding it at import time through
# ``decimal`` cost ~20 ms; tests/unit/test_kernels.py regenerates it at 60
# digits and checks every entry bit for bit.
_LOGFACT = np.array([
    0.0, 0.0, 0.6931471805599453, 1.791759469228055, 3.1780538303479458,
    4.787491742782046, 6.579251212010101, 8.525161361065415,
    10.60460290274525, 12.801827480081469, 15.104412573075516,
    17.502307845873887, 19.987214495661885, 22.552163853123425,
    25.19122118273868, 27.89927138384089, 30.671860106080672,
    33.50507345013689, 36.39544520803305, 39.339884187199495,
    42.335616460753485, 45.38013889847691, 48.47118135183523,
    51.60667556776438, 54.78472939811232, 58.00360522298052,
    61.261701761002, 64.55753862700634, 67.88974313718154,
    71.25703896716801, 74.65823634883016, 78.0922235533153,
    81.55795945611504, 85.05446701758152, 88.58082754219768,
    92.1361756036871, 95.7196945421432, 99.33061245478743,
    102.96819861451381, 106.63176026064346, 110.32063971475739,
    114.0342117814617, 117.77188139974507, 121.53308151543864,
    125.3172711493569, 129.12393363912722, 132.95257503561632,
    136.80272263732635, 140.67392364823425, 144.5657439463449,
    148.47776695177302, 152.40959258449735, 156.3608363030788,
    160.3311282166309, 164.32011226319517, 168.32744544842765,
    172.3527971391628, 176.39584840699735, 180.45629141754378,
    184.53382886144948, 188.6281734236716, 192.7390472878449,
    196.86618167289, 201.00931639928152, 205.1681994826412,
    209.34258675253685, 213.53224149456327, 217.73693411395422,
    221.95644181913033, 226.1905483237276, 230.43904356577696,
    234.70172344281826, 238.97838956183432, 243.2688490029827,
    247.57291409618688, 251.8904022097232, 256.22113555000954,
    260.5649409718632, 264.9216497985528, 269.2910976510198,
    273.6731242856937, 278.0675734403661, 282.4742926876304,
    286.893133295427, 291.3239500942703, 295.76660135076065,
    300.22094864701415, 304.6868567656687, 309.1641935801469,
    313.65282994987905, 318.1526396202093, 322.66349912672615,
    327.1852877037752, 331.7178871969285, 336.26118197919845,
    340.815058870799, 345.37940706226686, 349.95411804077025,
    354.5390855194408, 359.1342053695754, 363.73937555556347,
    368.35449607240474, 372.979468885689, 377.61419787391867,
    382.25858877306, 386.91254912321756, 391.5759882173296,
    396.24881705179155, 400.93094827891576, 405.6222961611449,
    410.32277652693733, 415.03230672824964, 419.7508055995447,
    424.4781934182571, 429.21439186665157, 433.9593239950148,
    438.71291418612117, 443.47508812091894, 448.2457727453846,
    453.0248962384961, 457.81238798127816, 462.6081785268749,
    467.4121995716082, 472.2243839269806, 477.04466549258564,
    481.87297922988796,
], dtype=np.float64)
_HALFLN2PI = 0.9189385332046728
_INV53 = 1.0 / 9007199254740992.0  # 2**-53
# HRUA* constants 2*sqrt(2/e) and 3 - 2*sqrt(3/e) (same as NumPy's C).
_D1 = 1.7155277699214135
_D2 = 0.8989161620588988
_SH11 = np.uint64(11)
_SH32 = np.uint64(32)
_U32_MASK = np.uint64(0xFFFFFFFF)


@jit
def _logfactorial(k):
    # Port of NumPy's logfactorial(): table below 126, Stirling truncated
    # at the 1/k**3 term above, with the C expression's evaluation order.
    if k < 126:
        return _LOGFACT[k]
    kf = float(k)
    return (kf + 0.5) * math.log(kf) - kf + (
        _HALFLN2PI + (1.0 / kf) * (1.0 / 12.0 - 1.0 / (360.0 * kf * kf))
    )


@jit
def _next_double(words, cur):
    w = words[cur[0]]
    cur[0] += 1
    return (w >> _SH11) * _INV53


@jit
def _next_u32(words, cur):
    if cur[1] != 0:
        cur[1] = 0
        return cur[2]
    w = words[cur[0]]
    cur[0] += 1
    cur[1] = 1
    cur[2] = np.int64(w >> _SH32)
    return np.int64(w & _U32_MASK)


@jit
def _random_interval(words, cur, mx):
    """NumPy's ``random_interval``: masked rejection in [0, mx]; -1 = out of words."""
    if mx == 0:
        return np.int64(0)
    mask = mx
    mask |= mask >> 1
    mask |= mask >> 2
    mask |= mask >> 4
    mask |= mask >> 8
    mask |= mask >> 16
    mask |= mask >> 32
    n_words = words.shape[0]
    if mx <= 0xFFFFFFFF:
        # Bounds below 2**32 draw buffered uint32 halves (pcg64_next32).
        while True:
            if cur[1] == 0 and cur[0] >= n_words:
                return np.int64(-1)
            value = _next_u32(words, cur) & mask
            if value <= mx:
                return value
    umask = np.uint64(mask)
    while True:
        if cur[0] >= n_words:
            return np.int64(-1)
        w = words[cur[0]]
        cur[0] += 1
        value = np.int64(w & umask)
        if value <= mx:
            return value


@jit
def _hyp_inversion(words, cur, good, bad, sample):
    total = good + bad
    computed_sample = sample
    if sample > total // 2:
        computed_sample = total - sample
    remaining_total = total
    remaining_good = good
    while computed_sample > 0 and remaining_good > 0 and remaining_total > remaining_good:
        j = _random_interval(words, cur, remaining_total - 1)
        if j < 0:
            return np.int64(-1)
        if j < remaining_good:
            remaining_good -= 1
        computed_sample -= 1
        remaining_total -= 1
    if remaining_total == remaining_good:
        remaining_good -= computed_sample
    if sample > total // 2:
        return remaining_good
    return good - remaining_good


@jit
def _hyp_hrua(words, cur, good, bad, sample):
    popsize = good + bad
    computed_sample = min(sample, popsize - sample)
    mingoodbad = min(good, bad)
    maxgoodbad = max(good, bad)
    p = mingoodbad / popsize
    q = maxgoodbad / popsize
    mu = computed_sample * p
    a = mu + 0.5
    var = float(popsize - computed_sample) * computed_sample * p * q / (popsize - 1)
    c = math.sqrt(var + 0.5)
    h = _D1 * c + _D2
    m = np.int64(math.floor(float(computed_sample + 1) * (mingoodbad + 1) / (popsize + 2)))
    g = (
        _logfactorial(m)
        + _logfactorial(mingoodbad - m)
        + _logfactorial(computed_sample - m)
        + _logfactorial(maxgoodbad - computed_sample + m)
    )
    b = min(float(min(computed_sample, mingoodbad)) + 1.0, math.floor(a + 16.0 * c))
    n_words = words.shape[0]
    K = np.int64(0)
    while True:
        if cur[0] + 2 > n_words:
            return np.int64(-1)
        U = _next_double(words, cur)
        V = _next_double(words, cur)
        if U == 0.0:
            # The C division by zero makes X = +-inf, which the range test
            # rejects; skip explicitly so the pure-Python mode never divides
            # by zero.  Consumption (two words) is identical either way.
            continue
        X = a + h * (V - 0.5) / U
        if X < 0.0 or X >= b:
            continue
        K = np.int64(math.floor(X))
        gp = (
            _logfactorial(K)
            + _logfactorial(mingoodbad - K)
            + _logfactorial(computed_sample - K)
            + _logfactorial(maxgoodbad - computed_sample + K)
        )
        T = g - gp
        if U * (4.0 - U) - 3.0 <= T:
            break
        if U * (U - T) >= 1.0:
            continue
        if 2.0 * math.log(U) <= T:
            break
    if good > bad:
        K = computed_sample - K
    if computed_sample < sample:
        K = good - K
    return K


@jit
def _hyp(words, cur, good, bad, sample):
    # random_hypergeometric's dispatch: inversion within 10 of either end.
    if sample >= 10 and sample <= good + bad - 10:
        return _hyp_hrua(words, cur, good, bad, sample)
    return _hyp_inversion(words, cur, good, bad, sample)


@jit
def fill_hypergeometric(words, cur, ngood, nbad, nsample, out):
    """Elementwise ``Generator.hypergeometric`` with the engine's trivial masks.

    Degenerate entries are resolved without touching the word stream and the
    rest draw in flat index order -- exactly the consumption of
    ``SamplerEngine._hypergeometric_block`` on the flattened arrays.
    """
    for i in range(out.shape[0]):
        w = ngood[i]
        b = nbad[i]
        t = nsample[i]
        if t >= w + b:
            out[i] = w
        elif w == 0 or t == 0:
            out[i] = 0
        elif b == 0:
            out[i] = t
        else:
            r = _hyp(words, cur, w, b, t)
            if r < 0:
                return -1
            out[i] = r
    return 0


@jit
def fill_hyp_repeat(words, cur, good, bad, sample, out):
    """``size`` draws of one non-degenerate ``Generator.hypergeometric``."""
    for i in range(out.shape[0]):
        r = _hyp(words, cur, good, bad, sample)
        if r < 0:
            return -1
        out[i] = r
    return 0


@jit
def fill_permutation(words, cur, out):
    """Fisher-Yates of 0..n-1 with ``Generator.shuffle``'s draw sequence."""
    n = out.shape[0]
    for i in range(n):
        out[i] = i
    for i in range(n - 1, 0, -1):
        j = _random_interval(words, cur, i)
        if j < 0:
            return -1
        tmp = out[i]
        out[i] = out[j]
        out[j] = tmp
    return 0


@jit
def fill_multivariate_batch(words, cur, draws, sizes, out, stats):
    """Whole balanced splitting tree of ``SamplerEngine.multivariate_batch``.

    ``sizes`` is the (batch, classes) urn array, ``draws`` the per-row draw
    counts, ``out`` the (batch, classes) result.  Levels proceed exactly as
    the NumPy tier's segment bookkeeping, and within one level the draws run
    row-major over (batch row, splitting segment) -- the flat order NumPy's
    vectorized call consumes -- so a fixed seed yields identical output.

    ``stats[0]`` accumulates the number of non-degenerate draws and
    ``stats[1]`` the number of levels that drew at all (the CountingRNG
    charges of the NumPy tier: one vectorized call per non-empty level).
    """
    n_batch, n_classes = sizes.shape
    prefix = np.zeros((n_batch, n_classes + 1), dtype=np.int64)
    for bi in range(n_batch):
        acc = np.int64(0)
        for ci in range(n_classes):
            acc += sizes[bi, ci]
            prefix[bi, ci + 1] = acc
    seg_lo = np.empty(n_classes, dtype=np.int64)
    seg_hi = np.empty(n_classes, dtype=np.int64)
    seg_lo[0] = 0
    seg_hi[0] = n_classes
    n_seg = 1
    seg_draws = np.empty((n_batch, n_classes), dtype=np.int64)
    for bi in range(n_batch):
        seg_draws[bi, 0] = draws[bi]
    while True:
        n_split = 0
        for s in range(n_seg):
            if seg_hi[s] - seg_lo[s] > 1:
                n_split += 1
        if n_split == 0:
            break
        into_left = np.empty((n_batch, n_split), dtype=np.int64)
        level_draws = np.int64(0)
        for bi in range(n_batch):
            sj = 0
            for s in range(n_seg):
                lo = seg_lo[s]
                hi = seg_hi[s]
                if hi - lo <= 1:
                    continue
                mid = (lo + hi) // 2
                ngood = prefix[bi, mid] - prefix[bi, lo]
                nbad = prefix[bi, hi] - prefix[bi, mid]
                t = seg_draws[bi, s]
                if t >= ngood + nbad:
                    into_left[bi, sj] = ngood
                elif ngood == 0 or t == 0:
                    into_left[bi, sj] = 0
                elif nbad == 0:
                    into_left[bi, sj] = t
                else:
                    r = _hyp(words, cur, ngood, nbad, t)
                    if r < 0:
                        return -1
                    into_left[bi, sj] = r
                    level_draws += 1
                sj += 1
        stats[0] += level_draws
        if level_draws > 0:
            stats[1] += 1
        new_lo = np.empty(n_classes, dtype=np.int64)
        new_hi = np.empty(n_classes, dtype=np.int64)
        new_draws = np.empty((n_batch, n_classes), dtype=np.int64)
        n_new = 0
        sj = 0
        for s in range(n_seg):
            lo = seg_lo[s]
            hi = seg_hi[s]
            if hi - lo > 1:
                mid = (lo + hi) // 2
                new_lo[n_new] = lo
                new_hi[n_new] = mid
                new_lo[n_new + 1] = mid
                new_hi[n_new + 1] = hi
                for bi in range(n_batch):
                    new_draws[bi, n_new] = into_left[bi, sj]
                    new_draws[bi, n_new + 1] = seg_draws[bi, s] - into_left[bi, sj]
                n_new += 2
                sj += 1
            else:
                new_lo[n_new] = lo
                new_hi[n_new] = hi
                for bi in range(n_batch):
                    new_draws[bi, n_new] = seg_draws[bi, s]
                n_new += 1
        seg_lo = new_lo
        seg_hi = new_hi
        seg_draws = new_draws
        n_seg = n_new
    for s in range(n_seg):
        lo = seg_lo[s]
        for bi in range(n_batch):
            out[bi, lo] = seg_draws[bi, s]
    return 0


@jit
def fill_matrix(words, cur, rows, cols, out, stats):
    """Whole row tree of ``SamplerEngine.sample_matrix_batched``.

    Each row level batches its splitting blocks into one
    :func:`fill_multivariate_batch` call over the blocks' column capacities,
    mirroring the NumPy tier's single ``multivariate_batch`` call per level
    (same draw order, same CountingRNG charge structure through ``stats``).
    """
    n_rows = rows.shape[0]
    n_cols = cols.shape[0]
    row_prefix = np.zeros(n_rows + 1, dtype=np.int64)
    acc = np.int64(0)
    for ri in range(n_rows):
        acc += rows[ri]
        row_prefix[ri + 1] = acc
    blk_lo = np.empty(n_rows, dtype=np.int64)
    blk_hi = np.empty(n_rows, dtype=np.int64)
    blk_lo[0] = 0
    blk_hi[0] = n_rows
    n_blk = 1
    caps = np.empty((n_rows, n_cols), dtype=np.int64)
    for ci in range(n_cols):
        caps[0, ci] = cols[ci]
    while True:
        n_split = 0
        for s in range(n_blk):
            if blk_hi[s] - blk_lo[s] > 1:
                n_split += 1
        if n_split == 0:
            break
        upper = np.empty(n_split, dtype=np.int64)
        split_caps = np.empty((n_split, n_cols), dtype=np.int64)
        sj = 0
        for s in range(n_blk):
            lo = blk_lo[s]
            hi = blk_hi[s]
            if hi - lo <= 1:
                continue
            mid = (lo + hi) // 2
            upper[sj] = row_prefix[hi] - row_prefix[mid]
            for ci in range(n_cols):
                split_caps[sj, ci] = caps[s, ci]
            sj += 1
        to_up = np.empty((n_split, n_cols), dtype=np.int64)
        if fill_multivariate_batch(words, cur, upper, split_caps, to_up, stats) < 0:
            return -1
        new_lo = np.empty(n_rows, dtype=np.int64)
        new_hi = np.empty(n_rows, dtype=np.int64)
        new_caps = np.empty((n_rows, n_cols), dtype=np.int64)
        n_new = 0
        sj = 0
        for s in range(n_blk):
            lo = blk_lo[s]
            hi = blk_hi[s]
            if hi - lo > 1:
                mid = (lo + hi) // 2
                new_lo[n_new] = lo
                new_hi[n_new] = mid
                new_lo[n_new + 1] = mid
                new_hi[n_new + 1] = hi
                for ci in range(n_cols):
                    new_caps[n_new, ci] = caps[s, ci] - to_up[sj, ci]
                    new_caps[n_new + 1, ci] = to_up[sj, ci]
                n_new += 2
                sj += 1
            else:
                new_lo[n_new] = lo
                new_hi[n_new] = hi
                for ci in range(n_cols):
                    new_caps[n_new, ci] = caps[s, ci]
                n_new += 1
        blk_lo = new_lo
        blk_hi = new_hi
        caps = new_caps
        n_blk = n_new
    for s in range(n_blk):
        lo = blk_lo[s]
        for ci in range(n_cols):
            out[lo, ci] = caps[s, ci]
    return 0


@jit
def fill_hin_repeat(words, cur, t, w, b, out, used):
    """``size`` draws of the library's HIN sampler, one pre-drawn word per uniform.

    Mirrors :func:`repro.core.hypergeometric.sample_hin` exactly for
    non-degenerate parameters; ``used[i]`` reports the uniforms the i-th
    draw consumed (what the SampleRecorder and CountingRNG are charged).
    """
    n_words = words.shape[0]
    d1 = b + w - t
    d2 = float(min(b, w))
    for i in range(out.shape[0]):
        y = d2
        k = t
        n_used = np.int64(0)
        while y > 0.0:
            if cur[0] >= n_words:
                return -1
            u = _next_double(words, cur)
            n_used += 1
            y -= math.floor(u + y / (d1 + k))
            k -= 1
            if k == 0:
                break
        z = np.int64(d2 - y)
        if w > b:
            z = t - z
        out[i] = z
        used[i] = n_used
    return 0


@jit
def fill_hrua_repeat(words, cur, t, w, b, out, used):
    """``size`` draws of the library's HRUA* sampler from pre-drawn words.

    Mirrors :func:`repro.core.hypergeometric.sample_hrua` (the lgamma-based
    setup included) for non-degenerate parameters, consuming two words per
    rejection round like the ``rng.random()`` pair it replaces.
    """
    n_words = words.shape[0]
    popsize = w + b
    mingoodbad = min(w, b)
    maxgoodbad = max(w, b)
    m = min(t, popsize - t)
    d4 = mingoodbad / popsize
    d5 = 1.0 - d4
    d6 = m * d4 + 0.5
    d7 = math.sqrt((popsize - m) * t * d4 * d5 / (popsize - 1) + 0.5)
    d8 = _D1 * d7 + _D2
    d9 = np.int64(math.floor((m + 1) * (mingoodbad + 1) / (popsize + 2)))
    d10 = (
        math.lgamma(d9 + 1)
        + math.lgamma(mingoodbad - d9 + 1)
        + math.lgamma(m - d9 + 1)
        + math.lgamma(maxgoodbad - m + d9 + 1)
    )
    d11 = min(float(min(m, mingoodbad)) + 1.0, math.floor(d6 + 16.0 * d7))
    for i in range(out.shape[0]):
        n_used = np.int64(0)
        z = np.int64(0)
        while True:
            if cur[0] + 2 > n_words:
                return -1
            x = _next_double(words, cur)
            y = _next_double(words, cur)
            n_used += 2
            if x == 0.0:
                continue
            wv = d6 + d8 * (y - 0.5) / x
            if wv < 0.0 or wv >= d11:
                continue
            z = np.int64(math.floor(wv))
            tv = d10 - (
                math.lgamma(z + 1)
                + math.lgamma(mingoodbad - z + 1)
                + math.lgamma(m - z + 1)
                + math.lgamma(maxgoodbad - m + z + 1)
            )
            if x * (4.0 - x) - 3.0 <= tv:
                break
            if x * (x - tv) >= 1.0:
                continue
            if 2.0 * math.log(x) <= tv:
                break
        if w > b:
            z = m - z
        if m < t:
            z = w - z
        out[i] = z
        used[i] = n_used
    return 0
