"""Unit tests for the resilience layer (retry policies, deadlines, recovery).

Contract (see :mod:`repro.pro.resilience` and the resilience sub-contract in
:mod:`repro.pro.backends.registry`): only *transient* failures are retried,
replayed attempts reuse the per-rank streams captured at the first attempt
(recovered output is bit-identical to a fault-free run), deadlines surface
as a typed :class:`~repro.util.errors.DeadlineError` that is never retried,
and the fallback chain degrades across backends without changing results.
The cross-process half of the story (supervised worker pools respawning
dead ranks) lives in ``tests/integration/test_retry_fault_matrix.py``; this
module covers the policy/loop semantics on in-process backends.
"""

import time

import numpy as np
import pytest

from repro.core.permutation import random_permutation
from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
from repro.pro.cost import CostReport
from repro.pro.machine import PROMachine
from repro.pro.resilience import (
    Deadline,
    RetryPolicy,
    _skip_fallback,
    active_deadline,
    committed_chaos_plans,
    current_deadline,
)
from repro.util.errors import (
    BackendError,
    DeadlineError,
    TransientBackendError,
    ValidationError,
    is_transient_failure,
)
from repro.util.timeouts import scale_timeout


# Module-level programs: shared with the machines built by fallback runs.
def _draw_and_exchange(ctx):
    value = float(ctx.rng.random())
    totals = ctx.comm.alltoall([value] * ctx.comm.size)
    ctx.comm.barrier()
    return value, totals


def _fatal_program(ctx, calls):
    calls.append(ctx.rank)
    raise ValueError("deterministic program bug")


def _sleep_past_deadline(ctx):
    # Rank 0 stalls past the whole budget (scaled like the deadline in the
    # test, so the sleep always outlasts it); the sibling's barrier wait is
    # clamped to the remaining budget and fails fast.
    if ctx.rank == 0:
        time.sleep(scale_timeout(1.5))
    ctx.comm.barrier()
    return ctx.rank


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 2
        assert policy.backoff == 0.0
        assert policy.deadline is None
        assert policy.fallback == ()

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_rejects_bad_attempt_counts(self, bad):
        with pytest.raises(ValidationError, match="max_attempts"):
            RetryPolicy(max_attempts=bad)

    def test_rejects_bad_backoff_and_deadline(self):
        with pytest.raises(ValidationError, match="backoff"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValidationError, match="deadline"):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ValidationError, match="fallback"):
            RetryPolicy(fallback=("thread", ""))

    def test_fallback_normalised_to_tuple(self):
        assert RetryPolicy(fallback=["thread", "inline"]).fallback == ("thread", "inline")

    def test_resolve(self):
        assert RetryPolicy.resolve(None) is None
        policy = RetryPolicy(max_attempts=5)
        assert RetryPolicy.resolve(policy) is policy
        assert RetryPolicy.resolve(3) == RetryPolicy(max_attempts=3)
        with pytest.raises(ValidationError, match="retry"):
            RetryPolicy.resolve(True)  # a bool is not an attempt count
        with pytest.raises(ValidationError, match="retry"):
            RetryPolicy.resolve("twice")


class TestDeadline:
    def test_clamp_bounds_by_remaining_budget(self):
        deadline = Deadline(100.0)
        assert deadline.clamp(5.0) == 5.0  # plenty of budget: timeout wins
        assert 0.0 < Deadline(0.5).clamp(60.0) <= 0.5  # budget wins

    def test_clamp_never_returns_a_zero_wait(self):
        spent = Deadline(0.001)
        time.sleep(0.01)
        assert spent.expired
        assert spent.clamp(60.0) > 0.0  # floor: fail through the fabric

    def test_active_deadline_publishes_and_restores(self):
        assert current_deadline() is None
        outer, inner = Deadline(10.0), Deadline(5.0)
        with active_deadline(outer):
            assert current_deadline() is outer
            with active_deadline(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None


class TestErrorTaxonomy:
    def test_transient_classification(self):
        assert is_transient_failure(TransientBackendError("crash"))
        assert not is_transient_failure(BackendError("fatal"))
        assert not is_transient_failure(DeadlineError("too slow"))
        assert not is_transient_failure(ValueError("program bug"))

    def test_deadline_and_transient_are_backend_errors(self):
        # Existing except-BackendError sites keep catching both.
        assert issubclass(TransientBackendError, BackendError)
        assert issubclass(DeadlineError, BackendError)


class TestCostReportRetries:
    def test_note_retry_populates_report_and_dict(self):
        machine = PROMachine(2, seed=0, retry=2)
        result = machine.run(lambda ctx: ctx.rank)
        report = result.cost_report
        assert report.retries == 0 and report.degraded_to is None
        report.note_retry(1, 0.25, degraded_to="thread")
        assert report.retries == 1
        assert report.recovery_seconds == pytest.approx(0.25)
        assert report.degraded_to == "thread"
        as_dict = report.as_dict()
        assert as_dict["retries"] == 1
        assert as_dict["degraded_to"] == "thread"
        assert as_dict["recovery_seconds"] == pytest.approx(0.25)


class TestRetryWiring:
    def test_machine_normalises_retry(self):
        assert PROMachine(2, seed=0).retry_policy is None
        assert PROMachine(2, seed=0, retry=3).retry_policy.max_attempts == 3
        with pytest.raises(ValidationError):
            PROMachine(2, seed=0, retry=0)

    def test_committed_chaos_plans_are_first_attempt_faults(self):
        plans = committed_chaos_plans()
        assert set(plans) == {
            "crash-root-early", "crash-rank1-mid",
            "drop-first-0-to-1", "barrier-timeout-last-rank",
        }
        for faults in plans.values():
            assert all(fault.at_run == 0 for fault in faults)


class TestSkipFallback:
    def test_skips_the_failing_backend_and_its_fault_wrapper(self):
        plain = PROMachine(2, seed=0, backend="thread")
        wrapped = PROMachine(
            2, seed=0, backend=FaultInjectingBackend("thread", [CrashRank(rank=0)]))
        try:
            assert _skip_fallback("thread", plain)
            assert _skip_fallback("thread", wrapped)  # name is "faulty+thread"
            assert not _skip_fallback("sim", plain)
        finally:
            plain.close()
            wrapped.close()

    def test_inline_only_serves_single_rank_machines(self):
        wide, narrow = PROMachine(3, seed=0), PROMachine(1, seed=0)
        try:
            assert _skip_fallback("inline", wide)
            assert not _skip_fallback("inline", narrow)
        finally:
            wide.close()
            narrow.close()


class TestRecoveryLoop:
    def test_injected_crash_recovers_bit_identical(self):
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=1, at_op=1, at_run=0)])
        machine = PROMachine(4, seed=11, backend=faulty, retry=2,
                             timeout=scale_timeout(10))
        clean = PROMachine(4, seed=11, backend="thread")
        try:
            recovered = machine.run(_draw_and_exchange)
            reference = clean.run(_draw_and_exchange)
            assert recovered.results == reference.results
            assert faulty.runs_started == 2  # one failed attempt, one replay
            assert recovered.cost_report.retries == 1
            assert recovered.cost_report.recovery_seconds > 0.0
            assert recovered.cost_report.degraded_to is None
        finally:
            machine.close()
            clean.close()

    def test_fatal_program_errors_are_not_retried(self):
        calls = []
        machine = PROMachine(3, seed=0, backend="thread", retry=4)
        try:
            with pytest.raises(BackendError, match="rank"):
                machine.run(_fatal_program, calls)
        finally:
            machine.close()
        # One attempt only: a deterministic bug would fail identically again.
        assert calls.count(0) == 1

    def test_budget_exhaustion_raises_the_last_failure(self):
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=0, at_op=0)])
        machine = PROMachine(4, seed=3, backend=faulty, retry=2,
                             timeout=scale_timeout(10))
        try:
            with pytest.raises(TransientBackendError, match="rank 0"):
                machine.run(_draw_and_exchange)
        finally:
            machine.close()
        assert faulty.runs_started == 2  # every configured attempt was spent

    def test_fallback_chain_degrades_with_identical_results(self):
        # The fault fires on *every* run: the thread backend can never
        # succeed, so the run must degrade to sim -- same streams, same
        # output -- and record where it landed.
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=2, at_op=0)])
        policy = RetryPolicy(max_attempts=2, fallback=("thread", "sim"))
        machine = PROMachine(4, seed=29, backend=faulty, retry=policy,
                             timeout=scale_timeout(10))
        clean = PROMachine(4, seed=29, backend="sim")
        try:
            degraded = machine.run(_draw_and_exchange)
            reference = clean.run(_draw_and_exchange)
            assert degraded.results == reference.results
            assert degraded.cost_report.degraded_to == "sim"
            assert degraded.cost_report.retries == 2  # both thread attempts failed
        finally:
            machine.close()
            clean.close()

    def test_deadline_surfaces_as_typed_error_and_is_not_retried(self):
        policy = RetryPolicy(max_attempts=3, deadline=0.3, fallback=("sim",))
        machine = PROMachine(2, seed=0, backend="thread", retry=policy,
                             timeout=scale_timeout(10))
        started = time.monotonic()
        try:
            with pytest.raises(DeadlineError, match="deadline"):
                machine.run(_sleep_past_deadline)
        finally:
            machine.close()
        # Bounded: no second attempt, no sim fallback, no 10s fabric timeout.
        assert time.monotonic() - started < scale_timeout(1.5) + scale_timeout(1.0)

    def test_driver_threads_retry_through(self):
        out = random_permutation(
            np.arange(512), n_procs=4, backend="thread", seed=7, retry=2)
        clean = random_permutation(
            np.arange(512), n_procs=4, backend="thread", seed=7)
        assert np.array_equal(out, clean)
