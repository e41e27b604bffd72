"""Lifecycle tests for the persistent worker pool of the process backend.

The pool's contract (see :mod:`repro.pro.backends.pool`): spawn once and
reuse across runs with bit-identical results for a fixed seed, poison the
fleet on any failure, idempotent close, and no shared-memory leaks over a
full lifecycle.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.permutation import random_permutation
from repro.pro.backends.pool import WorkerPool, pool
from repro.pro.machine import PROMachine
from repro.rng.counting import CountingRNG
from repro.util.errors import BackendError, TransientBackendError, ValidationError
from repro.util.timeouts import scale_timeout

pytestmark = pytest.mark.subprocess  # every test spawns a worker fleet


# Module-level programs: the dispatch queue pickles them, and unlike
# closures they stay picklable without cloudpickle.
def _rank_pid_program(ctx):
    return ctx.rank, os.getpid()


def _allreduce_program(ctx):
    return ctx.comm.allreduce(ctx.rank)


def _draw_program(ctx):
    return float(ctx.rng.random())


def _crash_program(ctx):
    if ctx.rank == 1:
        os._exit(23)  # hard kill: no exception, no report
    ctx.comm.barrier()
    return ctx.rank


def _sigkill_program(ctx):
    if ctx.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)  # no exit path runs at all
    ctx.comm.barrier()
    return ctx.rank


def _raise_program(ctx):
    if ctx.rank == 0:
        raise RuntimeError("boom on rank 0")
    ctx.comm.barrier()
    return ctx.rank


def _count_program(ctx):
    assert isinstance(ctx.rng, CountingRNG)
    ctx.rng.random(5)
    return None


def _send_unconsumed_program(ctx, value):
    # A legal (sends never block) program that completes successfully
    # while leaving a message in rank 1's inbox.
    if ctx.rank == 0:
        ctx.comm.send(value, 1, tag="stale")
    return ctx.rank


def _send_and_recv_program(ctx, value):
    if ctx.rank == 0:
        ctx.comm.send(value, 1, tag="stale")
        return None
    return ctx.comm.recv(0, tag="stale")


def _persistent_machine(n, **kwargs):
    kwargs.setdefault("timeout", scale_timeout(20))
    return PROMachine(n, backend="process", persistent=True, **kwargs)


class TestPoolReuse:
    def test_workers_survive_across_runs(self):
        machine = _persistent_machine(3, seed=0)
        try:
            first = machine.run(_rank_pid_program).results
            second = machine.run(_rank_pid_program).results
            third = machine.run(_rank_pid_program).results
            assert first == second == third
            pids = {pid for _rank, pid in first}
            assert len(pids) == 3 and os.getpid() not in pids
        finally:
            machine.close()

    def test_three_runs_seed_identical_to_fresh_machine(self):
        # Persistence must not change what the ranks draw: k runs of a
        # persistent machine replay exactly the k runs of a fresh
        # non-persistent machine built from the same seed.
        persistent = _persistent_machine(4, seed=2024)
        fresh = PROMachine(4, seed=2024, backend="process",
                           timeout=scale_timeout(20))
        try:
            for iteration in range(3):
                a = random_permutation(np.arange(3000), machine=persistent)
                b = random_permutation(np.arange(3000), machine=fresh)
                assert np.array_equal(a, b), iteration
        finally:
            persistent.close()

    def test_consecutive_runs_draw_fresh_randomness(self):
        machine = _persistent_machine(2, seed=5)
        try:
            first = machine.run(_draw_program).results
            second = machine.run(_draw_program).results
            assert first != second
        finally:
            machine.close()

    def test_stale_messages_never_cross_epochs(self):
        # Run 1 succeeds while leaving an unconsumed message (111) in
        # rank 1's inbox; run 2 sends 222 under the same tag and receives.
        # The standing fabric must deliver run 2's message, exactly like a
        # cold run's fresh fabric would -- message tags are epoch-scoped.
        machine = _persistent_machine(2, seed=0)
        try:
            machine.run(_send_unconsumed_program, 111)
            results = machine.run(_send_and_recv_program, 222).results
            assert results[1] == 222
        finally:
            machine.close()

    def test_collectives_and_accounting_through_pool(self):
        machine = _persistent_machine(3, seed=1, count_random_variates=True)
        try:
            assert machine.run(_allreduce_program).results == [3, 3, 3]
            report = machine.run(_count_program).cost_report
            assert report.total("random_variates") == 15
        finally:
            machine.close()

    def test_pool_context_manager(self):
        with pool(2, seed=9) as machine:
            assert machine.persistent
            assert machine.run(_allreduce_program).results == [1, 1]
        # exiting the context closed the fleet; the next run respawns it
        with pool(2, seed=9, transport="pickle") as machine:
            assert machine.backend.transport.name == "pickle"
            assert machine.run(_allreduce_program).results == [1, 1]


class TestPoolFailure:
    def test_worker_crash_poisons_pool(self):
        machine = _persistent_machine(2, seed=0)
        try:
            with pytest.raises(BackendError):
                machine.run(_crash_program)
            with pytest.raises(BackendError, match="poisoned"):
                machine.run(_rank_pid_program)
        finally:
            machine.close()

    @pytest.mark.parametrize("persistent", [True, False])
    def test_hard_killed_rank_surfaces_at_once(self, persistent):
        # The parent watches the worker sentinels, so the death is seen at
        # once; its sibling, parked in the barrier, is released by the
        # abort and reports.  Every rank is then accounted for, and the
        # run raises without waiting out any grace period.
        machine = PROMachine(2, seed=0, backend="process",
                             persistent=persistent, timeout=scale_timeout(20))
        try:
            if persistent:
                machine.run(_rank_pid_program)  # a standing, warm fleet
            started = time.monotonic()
            with pytest.raises(TransientBackendError, match="rank 1"):
                machine.run(_sigkill_program)
            elapsed = time.monotonic() - started
        finally:
            machine.close()
        assert elapsed < scale_timeout(0.5)

    def test_program_exception_poisons_pool(self):
        machine = _persistent_machine(3, seed=0)
        try:
            with pytest.raises(BackendError, match="rank 0"):
                machine.run(_raise_program)
            with pytest.raises(BackendError, match="poisoned"):
                machine.run(_rank_pid_program)
        finally:
            machine.close()

    def test_unpicklable_program_raises_without_poisoning(self):
        try:
            import cloudpickle  # noqa: F401
            pytest.skip("cloudpickle widens pickling to closures")
        except ImportError:
            pass
        machine = _persistent_machine(2, seed=0)
        try:
            captured = []
            with pytest.raises(BackendError, match="picklable"):
                machine.run(lambda ctx: captured)  # closure: not picklable
            # a dispatch-time failure must not poison the standing fleet
            assert machine.run(_allreduce_program).results == [1, 1]
        finally:
            machine.close()

    def test_unpicklable_argument_raises_cleanly(self):
        import threading

        machine = _persistent_machine(2, seed=0)
        try:
            with pytest.raises(BackendError, match="picklable"):
                machine.run(_rank_pid_program, threading.Lock())
            assert machine.run(_allreduce_program).results == [1, 1]
        finally:
            machine.close()


class TestPoolShutdown:
    def test_close_is_idempotent(self):
        machine = _persistent_machine(2, seed=0)
        machine.run(_allreduce_program)
        backend_pool = machine.backend._pools[2]
        machine.close()
        machine.close()
        backend_pool.close()  # pool-level close after machine close: no-op
        assert backend_pool.closed

    def test_run_after_close_respawns_fleet(self):
        machine = _persistent_machine(2, seed=0)
        first_pids = {pid for _r, pid in machine.run(_rank_pid_program).results}
        machine.close()
        second_pids = {pid for _r, pid in machine.run(_rank_pid_program).results}
        machine.close()
        assert first_pids.isdisjoint(second_pids)

    def test_direct_pool_run_validates_contexts(self):
        worker_pool = WorkerPool(2, timeout=scale_timeout(10))
        try:
            with pytest.raises(BackendError, match="contexts"):
                worker_pool.run([None], _allreduce_program, (), {})
        finally:
            worker_pool.close()

    def test_pool_validates_n_procs(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)

    def test_no_sharedmem_leak_warnings_over_full_lifecycle(self):
        """A run->reuse->close lifecycle must not trip -W error or the
        multiprocessing resource tracker (leaked segment warnings appear
        on stderr at interpreter exit, so check a subprocess)."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.pro.machine import PROMachine
            from repro.core.permutation import random_permutation

            machine = PROMachine(3, seed=1, backend="process", persistent=True)
            for _ in range(3):
                out = random_permutation(np.arange(20_000), machine=machine)
                assert out.shape == (20_000,)
            machine.close()
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True, text=True, env=env,
            timeout=scale_timeout(120),
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
