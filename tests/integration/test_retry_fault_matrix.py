"""Retry x fault matrix: the committed recovery guarantees, end to end.

Every committed chaos plan (:func:`repro.pro.resilience.committed_chaos_plans`)
must recover on every backend cell under ``RetryPolicy(max_attempts=2)`` with
output bit-identical to a fault-free run -- including the process backend's
supervised standing fleets, where recovery keeps every rank that reported
its failure and respawns the whole fleet only when a rank died.  The suite
also
pins the contracts around recovery: retries disabled stays poison-and-raise,
worker tracebacks are chained into the caller's exception, deadlines surface
as a typed bounded error, degradation falls back across backends without
changing results, and healing leaks no shared-memory resources.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.permutation import random_permutation
from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
from repro.pro.machine import PROMachine
from repro.pro.resilience import RetryPolicy, committed_chaos_plans
from repro.pro.telemetry import event_seq, events_since
from repro.util.errors import (
    BackendError,
    DeadlineError,
    RemoteTraceback,
    TransientBackendError,
)
from repro.util.timeouts import scale_timeout

pytestmark = pytest.mark.subprocess  # most cells spawn worker fleets

SEED = 1729
P = 4  # the canonical rank count the committed chaos plans address

PLANS = committed_chaos_plans()

# Module-level programs: the process cells pickle them into the rank pipes.
def _chaos_program(ctx):
    # Exercises every fault surface the committed plans target: an rng
    # draw (stream parity under replay), an all-to-all (0->1 messages for
    # DropMessage, early fabric ops for CrashRank) and a barrier
    # (BarrierTimeout).
    value = float(ctx.rng.random())
    gathered = ctx.comm.alltoall([value * (j + 1) for j in range(ctx.comm.size)])
    ctx.comm.barrier()
    return value, gathered


def _rank_pid_program(ctx):
    return ctx.rank, os.getpid()


def _independent_rank_program(ctx):
    # A fabric op per rank (so CrashRank has something to fire on) with no
    # cross-rank dependency: siblings of a crashed rank still succeed.
    ctx.comm.send(ctx.rank, ctx.rank, tag="self")
    return ctx.comm.recv(ctx.rank, tag="self"), os.getpid()


def _siblings_receive_from_rank0(ctx):
    # Every sibling parks in a receive from rank 0, whose first send
    # CrashRank(rank=0, at_op=0) turns into a raise.
    if ctx.rank == 0:
        for dst in range(1, ctx.comm.size):
            ctx.comm.send(float(ctx.rng.random()), dst, tag="x")
        return None
    return ctx.comm.recv(0, tag="x"), float(ctx.rng.random())


def _raise_original_sin(ctx):
    if ctx.rank == 1:
        raise ValueError("original sin on rank 1")
    ctx.comm.barrier()
    return ctx.rank


def _raise_from_a_cause(ctx):
    if ctx.rank == 1:
        try:
            raise KeyError("the root cause on rank 1")
        except KeyError as cause:
            raise ValueError("the effect on rank 1") from cause
    ctx.comm.barrier()
    return ctx.rank


def _rank1_killed_once(ctx, marker):
    # SIGKILL, so no exit path runs: the first attempt loses rank 1.
    if ctx.rank == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    ctx.comm.barrier()
    return ctx.rank


def _rank0_stalls(ctx):
    if ctx.rank == 0:
        time.sleep(scale_timeout(8))
    ctx.comm.barrier()
    return ctx.rank


def _rank0_reports_late(ctx, delay):
    if ctx.rank == 0:
        time.sleep(delay)
        return np.arange(64_000)  # 512 KB: a segment of its own
    return None


def _faulty_machine(backend, faults, *, retry, timeout, **backend_options):
    """A p=4 machine whose backend acts out ``faults`` (name kept on wrapper)."""
    wrapper = FaultInjectingBackend(backend, faults, **backend_options)
    machine = PROMachine(P, seed=SEED, backend=wrapper, retry=retry, timeout=timeout)
    return machine, wrapper


def _clean_reference(backend, *, runs=1):
    """The fault-free results the recovered run must reproduce exactly."""
    machine = PROMachine(P, seed=SEED, backend=backend,
                         timeout=scale_timeout(20))
    try:
        results = [machine.run(_chaos_program).results for _ in range(runs)]
    finally:
        machine.close()
    return results


class TestChaosPlanMatrix:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_in_process_cells_recover_bit_identical(self, backend, plan):
        machine, wrapper = _faulty_machine(
            backend, PLANS[plan], retry=2, timeout=scale_timeout(3))
        try:
            recovered = machine.run(_chaos_program)
        finally:
            machine.close()
        assert wrapper.runs_started == 2  # first attempt faulted, replay clean
        assert recovered.cost_report.retries == 1
        assert recovered.results == _clean_reference(backend)[0]

    def test_process_cells_recover_from_crash(self, payload_path,
                                              process_backend):
        # A private fleet heals in place; a borrowed one is healed or
        # replaced by the default pool cache on the replay's lookup.
        machine, wrapper = _faulty_machine(
            process_backend, PLANS["crash-rank1-mid"], retry=2,
            timeout=scale_timeout(8))
        try:
            recovered = machine.run(_chaos_program)
            again = machine.run(_chaos_program)  # the healed fleet keeps serving
        finally:
            machine.close()
        reference = _clean_reference("process", runs=2)
        assert wrapper.runs_started == 3  # fault, replay, second run
        assert recovered.cost_report.retries == 1
        assert recovered.cost_report.recovery_seconds > 0.0
        assert recovered.results == reference[0]
        assert again.results == reference[1]  # stream parity survives healing

    @pytest.mark.slow
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_persistent_fleet_recovers_every_committed_plan(self, plan):
        machine, wrapper = _faulty_machine(
            "process", PLANS[plan], retry=2, timeout=scale_timeout(4))
        try:
            recovered = machine.run(_chaos_program)
        finally:
            machine.close()
        assert wrapper.runs_started == 2
        assert recovered.cost_report.retries == 1
        assert recovered.results == _clean_reference("process")[0]


class TestSupervisionMechanics:
    def test_raising_rank_keeps_its_process(self):
        # Rank 1's program raises in run 1; its siblings still finish the
        # epoch (no cross-rank dependency).  Every rank reported and none
        # died, so heal() respawns nothing: every process is kept, and the
        # next run on the kept fleet matches the thread backend's.
        machine, _wrapper = _faulty_machine(
            "process", [CrashRank(rank=1, at_op=0, at_run=1)], retry=None,
            timeout=scale_timeout(8))
        reference = PROMachine(P, seed=SEED, backend="thread")
        try:
            before = dict(machine.run(_rank_pid_program).results)  # run 0
            pool = machine.backend.backend._pools[P]  # unwrap the fault layer
            with pytest.raises(TransientBackendError, match="rank 1"):
                machine.run(_independent_rank_program)  # run 1 raises
            assert pool.poisoned
            seq = event_seq()
            assert pool.heal()
            heals = [e for e in events_since(seq) if e["kind"] == "pool-heal"]
            assert not pool.poisoned
            replay = machine.run(_chaos_program).results  # run 2
            after = dict(machine.run(_rank_pid_program).results)
        finally:
            machine.close()
        # A failed run draws its streams too: runs 0 and 1 are stand-ins.
        reference.run(_rank_pid_program)
        reference.run(_rank_pid_program)
        assert replay == reference.run(_chaos_program).results
        assert [e["respawned"] for e in heals] == [[]]
        assert after == before  # no rank died, so every rank kept its pid

    @pytest.mark.parametrize("p", [2, 4])
    def test_ranks_that_only_saw_the_poison_keep_their_process(self, p):
        # Rank 1 raises inside Algorithm 1; its siblings only see the
        # abort (a poison pill or the broken barrier).  Every rank reports
        # and keeps looping, so heal() respawns nothing, and the replay on
        # the kept fleet matches the thread backend.
        inputs = np.arange(20_000)
        wrapper = FaultInjectingBackend(
            "process", [CrashRank(rank=1, at_op=1, at_run=1)])
        machine = PROMachine(p, seed=SEED, backend=wrapper, retry=2,
                             timeout=scale_timeout(8))
        reference = PROMachine(p, seed=SEED, backend="thread")
        try:
            before = dict(machine.run(_rank_pid_program).results)  # run 0
            reference.run(_rank_pid_program)
            seq = event_seq()
            out = random_permutation(inputs, machine=machine)  # run 1 crashes
            heals = [e for e in events_since(seq) if e["kind"] == "pool-heal"]
            after = dict(machine.run(_rank_pid_program).results)
        finally:
            machine.close()
        expected = random_permutation(inputs, machine=reference)
        assert [e["respawned"] for e in heals] == [[]]
        assert after == before
        assert np.array_equal(out, expected)

    def test_only_the_failing_rank_pills_the_inboxes(self, monkeypatch):
        # Rank 0 raises and aborts: one pill per inbox.  Its three siblings
        # each consume theirs in a receive and fail too, but the pill
        # proves the abort happened, so they do not abort again (that left
        # 17-18 records at p=4 for heal to drain).  Only rank 0's own pill
        # is left, and the replay on the kept fleet stays bit-identical.
        machine, _wrapper = _faulty_machine(
            "process", [CrashRank(rank=0, at_op=0, at_run=1)], retry=None,
            timeout=scale_timeout(8))
        reference = PROMachine(P, seed=SEED, backend="thread")
        try:
            machine.run(_rank_pid_program)  # run 0
            pool = machine.backend.backend._pools[P]
            with pytest.raises(TransientBackendError, match="rank 0"):
                machine.run(_siblings_receive_from_rank0)  # run 1 raises
            drained = []
            monkeypatch.setattr(pool.fabric.transport, "dispose", drained.append)
            assert pool.heal()
            monkeypatch.undo()
            replay = machine.run(_siblings_receive_from_rank0).results  # run 2
        finally:
            machine.close()
        assert len(drained) <= 1, drained
        reference.run(_rank_pid_program)
        reference.run(_rank_pid_program)
        assert replay == reference.run(_siblings_receive_from_rank0).results

    def test_heal_after_every_rank_reported_does_not_wait(self):
        # Every rank reported (the crashed one raised), so the epoch is
        # fully accounted for and heal() has nothing to wait for.
        machine, _wrapper = _faulty_machine(
            "process", [CrashRank(rank=1, at_op=0)], retry=None,
            timeout=scale_timeout(8))
        try:
            machine.run(_rank_pid_program)
            pool = machine.backend.backend._pools[P]
            with pytest.raises(TransientBackendError, match="rank 1"):
                machine.run(_independent_rank_program)
            started = time.monotonic()
            assert pool.heal()
            elapsed = time.monotonic() - started
        finally:
            machine.close()
        assert elapsed < scale_timeout(0.1)

    def test_late_success_of_a_suspect_is_disposed(self):
        # Rank 0 misses the deadline, so it is a suspect, but it still
        # finishes and reports a success while heal() reaps it.  Its
        # result lives in a segment of its own, which only the straggler
        # sweep can unlink.
        shm = Path("/dev/shm")
        if not shm.is_dir():
            pytest.skip("no /dev/shm to inspect")
        before = set(os.listdir(shm))
        policy = RetryPolicy(max_attempts=1, deadline=scale_timeout(0.5))
        machine = PROMachine(
            2, seed=SEED, backend="process", retry=policy,
            timeout=scale_timeout(20))
        try:
            with pytest.raises(DeadlineError):
                machine.run(_rank0_reports_late, scale_timeout(1.0))
            pool = machine.backend._pools[2]
            assert pool._suspect_ranks == {0}
            assert pool.heal()
        finally:
            machine.close()
        left = {name for name in set(os.listdir(shm)) - before
                if name.startswith(("pro", "psm_"))}
        assert not left

    def test_retries_disabled_stays_poison_and_raise(self):
        machine, _wrapper = _faulty_machine(
            "process", [CrashRank(rank=0, at_op=0)], retry=None,
            timeout=scale_timeout(8))
        try:
            with pytest.raises(TransientBackendError, match="rank 0"):
                machine.run(_chaos_program)
            # Without a policy nobody heals: the fleet stays poisoned and
            # every later run refuses up front, exactly as before.
            with pytest.raises(TransientBackendError, match="poisoned"):
                machine.run(_chaos_program)
        finally:
            machine.close()

    def test_worker_traceback_is_chained_into_the_caller(self):
        machine = PROMachine(P, seed=SEED, backend="process",
                             timeout=scale_timeout(15))
        try:
            with pytest.raises(BackendError, match="rank 1") as excinfo:
                machine.run(_raise_original_sin)
        finally:
            machine.close()
        causes, exc = [], excinfo.value
        while exc is not None:
            causes.append(exc)
            exc = exc.__cause__
        remote = [c for c in causes if isinstance(c, RemoteTraceback)]
        assert remote, f"no RemoteTraceback in the cause chain: {causes!r}"
        text = str(remote[0])
        assert "original sin on rank 1" in text
        assert "Traceback (most recent call last)" in text

    def test_chained_worker_causes_reach_the_caller(self):
        machine = PROMachine(P, seed=SEED, backend="process",
                             timeout=scale_timeout(15))
        try:
            with pytest.raises(BackendError, match="rank 1") as excinfo:
                machine.run(_raise_from_a_cause)
        finally:
            machine.close()
        remote = excinfo.value.__cause__.__cause__
        assert isinstance(remote, RemoteTraceback)
        text = str(remote)
        # The worker's text, cause first, as traceback.format_exc() has it.
        cause = text.index("KeyError: 'the root cause on rank 1'")
        link = text.index("The above exception was the direct cause")
        effect = text.index("ValueError: the effect on rank 1")
        assert cause < link < effect
        assert text.count("Traceback (most recent call last)") == 2
        assert "raise KeyError(\"the root cause on rank 1\")" in text

    def test_a_respawned_rank_does_not_chain_the_callers_failure(self, tmp_path):
        # Rank 1 is killed mid-epoch, so heal forks the whole fleet while
        # the caller is recovering from the first attempt's failure.  That
        # failure must not become the context of the errors the new rank 1
        # raises later.
        machine = PROMachine(P, seed=SEED, backend="process",
                             retry=2, timeout=scale_timeout(8))
        try:
            pids = dict(machine.run(_rank_pid_program).results)
            seq = event_seq()
            # Killed once, healed, replayed.
            machine.run(_rank1_killed_once, str(tmp_path / "killed"))
            heals = [e for e in events_since(seq) if e["kind"] == "pool-heal"]
            assert [e["respawned"] for e in heals] == [list(range(P))]
            assert dict(machine.run(_rank_pid_program).results)[1] != pids[1]
            with pytest.raises(BackendError, match="rank 1") as excinfo:
                machine.run(_raise_original_sin)
        finally:
            machine.close()
        text = str(excinfo.value.__cause__.__cause__)
        assert "original sin on rank 1" in text
        assert "without reporting a result" not in text
        assert "During handling of the above exception" not in text

    def test_deadline_is_typed_and_bounded(self, process_backend):
        policy = RetryPolicy(max_attempts=1, deadline=1.0)
        machine = PROMachine(P, seed=SEED, backend=process_backend,
                             retry=policy, timeout=scale_timeout(30))
        started = time.monotonic()
        try:
            with pytest.raises(DeadlineError, match="deadline"):
                machine.run(_rank0_stalls)
            # Bounded by the budget, not by the 30s fabric timeout or the
            # 8s stall: the parent-side collect loop consults the deadline.
            # (close() is timed separately: reaping the stalled rank may
            # legitimately spend the shutdown grace.)
            elapsed = time.monotonic() - started
        finally:
            machine.close()
        assert elapsed < scale_timeout(5)

    def test_fallback_degrades_process_to_thread_bit_identical(self):
        # The crash fires on every run, so the process backend can never
        # succeed; the run must land on the thread backend with the same
        # per-rank streams and record the degradation.
        policy = RetryPolicy(max_attempts=1, fallback=("thread",))
        machine, _wrapper = _faulty_machine(
            "process", [CrashRank(rank=2, at_op=0)], retry=policy,
            timeout=scale_timeout(8))
        try:
            degraded = machine.run(_chaos_program)
        finally:
            machine.close()
        assert degraded.cost_report.degraded_to == "thread"
        assert degraded.cost_report.retries == 1
        assert degraded.results == _clean_reference("thread")[0]

    def test_driver_retry_matches_fault_free_driver(self):
        data = np.arange(20_000)
        recovered = random_permutation(
            data, n_procs=P, backend="process", seed=31,
            retry=RetryPolicy(max_attempts=2))
        clean = random_permutation(data, n_procs=P, backend="process", seed=31)
        assert np.array_equal(recovered, clean)


class TestHealLeaksNothing:
    def test_respawn_is_leak_free_under_warning_errors(self):
        """Crash -> heal -> replay -> close must trip neither ``-W error``
        nor the multiprocessing resource tracker (leaked segment warnings
        appear on stderr at interpreter exit, so check a subprocess)."""
        script = textwrap.dedent("""
            from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
            from repro.pro.backends.pool import clear_default_pools
            from repro.pro.machine import PROMachine
            from repro.util.timeouts import scale_timeout

            def program(ctx):
                value = float(ctx.rng.random())
                gathered = ctx.comm.alltoall([value] * ctx.comm.size)
                ctx.comm.barrier()
                return value, gathered

            faulty = FaultInjectingBackend(
                "process", [CrashRank(rank=1, at_op=1, at_run=0)])
            machine = PROMachine(4, seed=7, backend=faulty, retry=2,
                                 timeout=scale_timeout(8))
            recovered = machine.run(program).results
            again = machine.run(program).results

            clean = PROMachine(4, seed=7, backend="process",
                               timeout=scale_timeout(8))
            assert recovered == clean.run(program).results
            assert again == clean.run(program).results
            clean.close()
            machine.close()
            clear_default_pools()
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error",
             # ...but let the resource tracker print its leak warning,
             # which -W error would turn into a swallowed exception.
             "-W", "default::UserWarning:multiprocessing.resource_tracker",
             "-c", script],
            capture_output=True, text=True, env=env,
            timeout=scale_timeout(180),
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
