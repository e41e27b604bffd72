"""Kernel registry, word stream and tier plumbing (see repro.core.kernels).

The bit-exactness of the kernels themselves is pinned in
``tests/unit/test_kernel_equivalence.py`` and the property suite; this module
covers the machinery around them: request normalization, the REPRO_KERNELS
environment variable, silent degrade to the NumPy tier, the raw-word stream
protocol (checkpoint / retry / rewind), the ``kernels=`` argument threading
through engine and machine, and the cost-record repatriation fields.
"""

import numpy as np
import pytest

from repro.core import hypergeometric as hg
from repro.core import kernels
from repro.core.engine import SamplerEngine, get_engine
from repro.core.kernels import (
    VALID_KERNELS,
    normalize_kernels,
    reset_kernels,
    resolve_kernels,
    wordstream,
)
from repro.core.kernels.numpy_tier import NumpyKernels
from repro.pro.cost import CostRecorder, CostReport
from repro.pro.machine import PROMachine, resolve_machine
from repro.rng.counting import CountingRNG
from repro.util.errors import ValidationError


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test resolves tiers from a clean cache (and leaves one behind)."""
    reset_kernels()
    yield
    reset_kernels()


class TestNormalize:
    @pytest.mark.parametrize("name", VALID_KERNELS)
    def test_valid_names_pass_through(self, name):
        assert normalize_kernels(name) == name

    def test_none_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert normalize_kernels(None) == "auto"

    def test_none_defers_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert normalize_kernels(None) == "numpy"

    def test_empty_environment_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "")
        assert normalize_kernels(None) == "auto"

    def test_invalid_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        with pytest.raises(ValidationError, match="cuda"):
            normalize_kernels(None)

    @pytest.mark.parametrize("bad", ["jit", "", 7, ["numpy"]])
    def test_invalid_request_raises(self, bad):
        with pytest.raises(ValidationError):
            normalize_kernels(bad)

    def test_tier_object_passes_through(self):
        tier = NumpyKernels()
        assert normalize_kernels(tier) is tier


class TestResolve:
    def test_numpy_resolves_to_numpy_tier(self):
        tier = resolve_kernels("numpy")
        assert tier.name == "numpy"
        assert tier.warmup_seconds == 0.0

    def test_resolution_is_cached(self):
        assert resolve_kernels("numpy") is resolve_kernels("numpy")

    def test_reset_drops_cache(self):
        first = resolve_kernels("numpy")
        reset_kernels()
        assert resolve_kernels("numpy") is not first

    def test_tier_object_short_circuits(self):
        tier = NumpyKernels()
        assert resolve_kernels(tier) is tier

    @pytest.mark.parametrize("request_name", ["auto", "numba"])
    def test_degrades_to_numpy_when_numba_build_fails(self, request_name, monkeypatch):
        from repro.core.kernels import numba_tier

        def boom():
            raise RuntimeError("no compiler on this host")

        monkeypatch.setattr(numba_tier, "build", boom)
        tier = resolve_kernels(request_name)
        assert tier.name == "numpy"

    def test_degrades_when_self_check_fails(self, monkeypatch):
        from repro.core.kernels import numba_tier, portable

        monkeypatch.setattr(portable, "HAVE_NUMBA", True)
        monkeypatch.setattr(
            numba_tier.NumbaKernels,
            "_verify",
            lambda self: (_ for _ in ()).throw(AssertionError("divergence")),
        )
        assert resolve_kernels("numba").name == "numpy"

    def test_environment_selects_tier_for_default_request(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_kernels(None).name == "numpy"


class TestNumpyTier:
    """The NumPy tier declines everything: kernels="numpy" is the old code."""

    def test_declines_all_capabilities(self):
        tier = NumpyKernels()
        rng = np.random.default_rng(0)
        assert tier.multivariate_batch(rng, [3], [[1, 2]]) is None
        assert tier.sample_matrix(rng, [3], [3]) is None
        assert tier.repeat_hypergeometric(rng, 5, 5, 3, 4) is None
        assert tier.permutation(rng, 8) is None

    def test_warm_up_is_free(self):
        tier = NumpyKernels()
        assert tier.warm_up() is tier
        assert tier.warmup_seconds == 0.0


class TestSupportedGenerator:
    def test_pcg64_is_supported(self):
        gen = np.random.default_rng(0)
        assert wordstream.supported_generator(gen) is gen

    def test_counting_rng_is_unwrapped(self):
        counting = CountingRNG(np.random.default_rng(0))
        assert wordstream.supported_generator(counting) is counting.generator

    def test_mt19937_is_rejected(self):
        gen = np.random.Generator(np.random.MT19937(0))
        assert wordstream.supported_generator(gen) is None

    @pytest.mark.parametrize("bitgen", ["PCG64DXSM", "Philox", "SFC64"])
    def test_other_64bit_generators_supported(self, bitgen):
        gen = np.random.Generator(getattr(np.random, bitgen)(0))
        assert wordstream.supported_generator(gen) is gen

    def test_duck_typed_rng_is_rejected(self):
        class FakeRng:
            def random(self):
                return 0.5

        assert wordstream.supported_generator(FakeRng()) is None


class TestRunKernel:
    def test_advances_stream_by_exactly_the_consumed_words(self):
        gen = np.random.default_rng(123)
        reference = np.random.default_rng(123)

        def invoke(words, cur):
            cur[0] = 3  # pretend the kernel consumed three words
            return 0

        consumed = wordstream.run_kernel(gen, 8, invoke)
        assert consumed == 3
        reference.bit_generator.random_raw(3)
        assert np.array_equal(gen.random(4), reference.random(4))

    def test_exhaustion_retries_with_doubled_buffer(self):
        gen = np.random.default_rng(7)
        reference = np.random.default_rng(7)
        sizes = []

        def invoke(words, cur):
            sizes.append(words.size)
            if words.size < 32:
                return -1  # no partial result, per the kernel contract
            cur[0] = 5
            return 0

        consumed = wordstream.run_kernel(gen, 8, invoke)
        assert consumed == 5
        assert sizes == [8, 16, 32]  # geometric growth from the estimate
        reference.bit_generator.random_raw(5)
        assert np.array_equal(gen.random(2), reference.random(2))

    def test_estimate_floor(self):
        gen = np.random.default_rng(1)
        seen = []

        def invoke(words, cur):
            seen.append(words.size)
            return 0

        wordstream.run_kernel(gen, 0, invoke)
        assert seen == [8]

    def test_half_word_buffer_is_patched_back(self):
        """A kernel ending mid-word leaves the generator's uint32 buffer set."""
        gen = np.random.default_rng(42)
        reference = np.random.default_rng(42)

        def invoke(words, cur):
            # Consume one 32-bit half of the first word, like an odd number
            # of bounded-integer draws would.
            from repro.core.kernels import portable

            portable._next_u32(words, cur)
            return 0

        wordstream.run_kernel(gen, 8, invoke)
        # A 2-element shuffle makes exactly one buffered 32-bit request.
        reference.shuffle(np.arange(2))
        assert gen.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(gen.random(4), reference.random(4))


class TestEngineKernelsArgument:
    def test_get_engine_caches_per_kernels_request(self):
        assert get_engine("auto", kernels="numpy") is get_engine("auto", kernels="numpy")
        assert get_engine("auto", kernels="numpy") is not get_engine("auto")

    def test_prebuilt_engine_rejects_kernels(self):
        engine = SamplerEngine("auto")
        with pytest.raises(ValidationError, match="pre-built"):
            get_engine(engine, kernels="numpy")

    def test_tier_object_builds_private_engine(self):
        tier = NumpyKernels()
        engine = get_engine("auto", kernels=tier)
        assert engine._resolve_tier() is tier
        assert engine is not get_engine("auto", kernels=tier)

    def test_invalid_kernels_name_raises_eagerly(self):
        with pytest.raises(ValidationError, match="cuda"):
            SamplerEngine("auto", kernels="cuda")

    def test_tier_resolution_is_lazy(self, monkeypatch):
        engine = SamplerEngine("auto", kernels="numpy")
        sentinel = NumpyKernels()
        monkeypatch.setitem(kernels._TIERS, "numpy", sentinel)
        assert engine._resolve_tier() is sentinel


class TestMachineKernelsArgument:
    def test_machine_records_the_request(self):
        machine = PROMachine(2, seed=0, kernels="numpy")
        try:
            assert machine.kernels == "numpy"
        finally:
            machine.close()

    def test_machine_rejects_invalid_request(self):
        with pytest.raises(ValidationError):
            PROMachine(2, seed=0, kernels="cuda")

    def test_resolve_machine_threads_kernels(self):
        machine = resolve_machine(2, seed=0, kernels="numpy")
        try:
            assert machine.kernels == "numpy"
        finally:
            machine.close()


class TestCostRepatriation:
    def test_recorder_defaults(self):
        rec = CostRecorder()
        assert rec.kernel_tier is None
        assert rec.kernel_warmup_seconds == 0.0
        totals = rec.as_dict()
        assert totals["kernel_tier"] is None
        assert totals["kernel_warmup_seconds"] == 0.0

    def test_note_kernel_tier(self):
        rec = CostRecorder()
        rec.note_kernel_tier("numba", warmup_seconds=0.25)
        assert rec.as_dict()["kernel_tier"] == "numba"
        assert rec.as_dict()["kernel_warmup_seconds"] == 0.25

    def test_report_lists_tiers_by_rank(self):
        recs = [CostRecorder(), CostRecorder()]
        recs[1].note_kernel_tier("numpy")
        report = CostReport(recs)
        assert report.kernel_tiers() == [(None, 0.0), ("numpy", 0.0)]

    def test_driver_repatriates_tier_per_rank(self):
        from repro.core.permutation import permute_distributed

        blocks = [np.arange(4), np.arange(4, 8)]
        _, run = permute_distributed(blocks, seed=5, kernels="numpy")
        tiers = run.cost_report.kernel_tiers()
        assert len(tiers) == 2
        assert all(tier == "numpy" for tier, _ in tiers)

    def test_matrix_driver_repatriates_tier(self):
        from repro.core.parallel_matrix import sample_matrix_parallel

        _, run = sample_matrix_parallel([4, 4, 4], seed=5, kernels="numpy")
        assert all(tier == "numpy" for tier, _ in run.cost_report.kernel_tiers())

    def test_tier_survives_the_process_backend(self):
        from repro.core.parallel_matrix import sample_matrix_parallel

        _, run = sample_matrix_parallel(
            [4, 4], seed=5, backend="process", persistent=False, kernels="numpy"
        )
        assert all(tier == "numpy" for tier, _ in run.cost_report.kernel_tiers())


class TestBlockedSampleMany:
    """sample_many's pre-drawn uniform block vs the scalar loop it replaced."""

    @pytest.mark.parametrize(
        "t,w,b,method",
        [
            (5, 20, 30, "hin"),
            (40, 60, 50, "hrua"),
            (7, 9, 8, "auto"),
            (450, 300, 400, "auto"),
        ],
    )
    def test_blocked_path_matches_scalar_loop(self, t, w, b, method, monkeypatch):
        blocked = hg.sample_many(t, w, b, size=40, rng=np.random.default_rng(11), method=method)
        monkeypatch.setattr(wordstream, "supported_generator", lambda rng: None)
        loop = hg.sample_many(t, w, b, size=40, rng=np.random.default_rng(11), method=method)
        assert np.array_equal(blocked, loop)

    def test_stream_position_matches_scalar_loop(self, monkeypatch):
        g1, g2 = np.random.default_rng(3), np.random.default_rng(3)
        hg.sample_many(12, 30, 25, size=25, rng=g1)
        monkeypatch.setattr(wordstream, "supported_generator", lambda rng: None)
        hg.sample_many(12, 30, 25, size=25, rng=g2)
        assert np.array_equal(g1.random(8), g2.random(8))

    def test_counting_and_recorder_parity(self, monkeypatch):
        c1 = CountingRNG(np.random.default_rng(9))
        c2 = CountingRNG(np.random.default_rng(9))
        r1 = hg.SampleRecorder(keep_per_call=True)
        r2 = hg.SampleRecorder(keep_per_call=True)
        with r1:
            a = hg.sample_many(40, 60, 50, size=30, rng=c1)
        monkeypatch.setattr(wordstream, "supported_generator", lambda rng: None)
        with r2:
            b = hg.sample_many(40, 60, 50, size=30, rng=c2)
        assert np.array_equal(a, b)
        assert (c1.uniforms_drawn, c1.calls) == (c2.uniforms_drawn, c2.calls)
        assert r1.per_call == r2.per_call
        assert r1.max_uniforms == r2.max_uniforms

    def test_plain_generator_records_zero_uniforms(self):
        with hg.SampleRecorder(keep_per_call=True) as rec:
            hg.sample_many(5, 20, 30, size=4, rng=np.random.default_rng(0))
        assert rec.per_call == [0, 0, 0, 0]
        assert rec.n_calls == 4

    def test_trivial_parameters_skip_the_kernels(self):
        out = hg.sample_many(0, 5, 5, size=3, rng=np.random.default_rng(0))
        assert out.tolist() == [0, 0, 0]

    def test_numpy_method_keeps_the_scalar_loop(self):
        g1, g2 = np.random.default_rng(2), np.random.default_rng(2)
        blocked = hg.sample_many(6, 10, 12, size=8, rng=g1, method="numpy")
        loop = np.array([hg.sample(6, 10, 12, g2, method="numpy") for _ in range(8)])
        assert np.array_equal(blocked, loop)


class TestLogBinomialMemoization:
    def test_repeated_parameters_hit_the_cache(self):
        hg._log_binomial.cache_clear()
        hg.pmf(3, 6, 10, 12)
        info_first = hg._log_binomial.cache_info()
        hg.pmf(3, 6, 10, 12)
        info_second = hg._log_binomial.cache_info()
        assert info_second.hits > info_first.hits
        assert info_second.misses == info_first.misses


class TestLogFactorialTable:
    def test_literal_table_matches_decimal_regeneration_bit_for_bit(self):
        # The portable tier ships ln(k!) for k = 0..125 as literals; they
        # must be the correctly-rounded doubles of the exact values.
        import decimal
        import math

        from repro.core.kernels.portable import _LOGFACT

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            expected = np.array(
                [float(decimal.Decimal(math.factorial(k)).ln())
                 for k in range(126)], dtype=np.float64)
        assert _LOGFACT.dtype == np.float64 and _LOGFACT.shape == (126,)
        assert np.array_equal(_LOGFACT.view(np.uint64), expected.view(np.uint64))

    def test_portable_import_does_not_load_decimal(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import sys; import repro.core.kernels.portable; "
                "print('decimal' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"
