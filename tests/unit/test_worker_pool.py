"""Lifecycle tests for the standing worker pool of the process backend.

The pool's contract (see :mod:`repro.pro.backends.pool`): spawn once and
reuse across runs with bit-identical results for a fixed seed, poison the
fleet on any failure, idempotent close, and no shared-memory leaks over a
full lifecycle.
"""

import gc
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.core.permutation import random_permutation
from repro.pro.backends.pool import WorkerPool, clear_default_pools, pool
from repro.pro.machine import PROMachine
from repro.pro.telemetry import event_seq, events_since
from repro.rng.counting import CountingRNG
from repro.util.errors import BackendError, TransientBackendError, ValidationError
from repro.util.timeouts import scale_timeout

pytestmark = pytest.mark.subprocess  # every test spawns a worker fleet


# Module-level programs: the rank pipes carry them pickled, and unlike
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


def _system_exit_program(ctx):
    if ctx.rank == 1:
        raise SystemExit(3)
    ctx.comm.barrier()
    return ctx.rank


def _count_program(ctx):
    assert isinstance(ctx.rng, CountingRNG)
    ctx.rng.random(5)
    return None


def _sigkill_holding_inbox_program(ctx):
    if ctx.rank == 1:
        ctx.comm._fabric._inboxes[0]._wlock.acquire()
        os.kill(os.getpid(), signal.SIGKILL)
    ctx.comm.barrier()
    return ctx.rank


def _sigkill_mid_message_program(ctx):
    # Rank 1 streams a message larger than a pipe into rank 0's inbox and
    # dies once the pipe is full: rank 0 waits in the barrier and never
    # reads it, so the inbox stays full and its write lock held.
    if ctx.rank == 1:
        ctx.comm.send(b"x" * (1 << 18), 0, tag="big")
        writer = ctx.comm._fabric._inboxes[0]._writer.fileno()
        deadline = time.monotonic() + scale_timeout(10)
        while (select.select([], [writer], [], 0)[1]  # until the pipe is full
               and time.monotonic() < deadline):
            time.sleep(0.001)
        os.kill(os.getpid(), signal.SIGKILL)
    ctx.comm.barrier()
    return ctx.rank


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


def _src_env():
    """The environment of a scenario subprocess: this checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _running(pid):
    """True while ``pid`` runs: a zombie nobody has reaped yet has ended."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no procfs: trust the signal probe
        return True


def _process_machine(n, **kwargs):
    kwargs.setdefault("timeout", scale_timeout(20))
    return PROMachine(n, backend="process", **kwargs)


class TestPoolReuse:
    def test_workers_survive_across_runs(self):
        machine = _process_machine(3, seed=0)
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
        # A standing fleet must not change what the ranks draw: k runs on
        # one fleet replay exactly the k runs of a machine built from the
        # same seed whose fleet is closed after every run.
        standing = _process_machine(4, seed=2024)
        fresh = _process_machine(4, seed=2024)
        try:
            for iteration in range(3):
                a = random_permutation(np.arange(3000), machine=standing)
                b = random_permutation(np.arange(3000), machine=fresh)
                fresh.close()  # the next run spawns a fresh fleet
                assert np.array_equal(a, b), iteration
        finally:
            standing.close()

    def test_consecutive_runs_draw_fresh_randomness(self):
        machine = _process_machine(2, seed=5)
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
        # fresh fabric would -- message tags are epoch-scoped.
        machine = _process_machine(2, seed=0)
        try:
            machine.run(_send_unconsumed_program, 111)
            results = machine.run(_send_and_recv_program, 222).results
            assert results[1] == 222
        finally:
            machine.close()

    def test_collectives_and_accounting_through_pool(self):
        machine = _process_machine(3, seed=1, count_random_variates=True)
        try:
            assert machine.run(_allreduce_program).results == [3, 3, 3]
            report = machine.run(_count_program).cost_report
            assert report.total("random_variates") == 15
        finally:
            machine.close()

    def test_pool_context_manager(self):
        with pool(2, seed=9) as machine:
            assert machine.backend.pool_scope == "backend"  # a private fleet
            assert machine.run(_allreduce_program).results == [1, 1]
        # exiting the context closed the fleet; the next run respawns it
        with pool(2, seed=9) as machine:
            assert machine.run(_allreduce_program).results == [1, 1]


class TestPoolFailure:
    def test_worker_crash_poisons_pool(self):
        machine = _process_machine(2, seed=0)
        try:
            with pytest.raises(BackendError):
                machine.run(_crash_program)
            with pytest.raises(BackendError, match="poisoned"):
                machine.run(_rank_pid_program)
        finally:
            machine.close()

    @pytest.mark.parametrize("warm", [True, False])
    def test_hard_killed_rank_surfaces_at_once(self, warm):
        # The parent watches the worker sentinels, so the death is seen at
        # once; its sibling, parked in the barrier, is released by the
        # abort and reports.  Every rank is then accounted for, and the
        # run raises without waiting out any grace period -- on a fleet
        # that served a run before, and on the first run of a fresh one.
        machine = _process_machine(2, seed=0)
        try:
            if warm:
                machine.run(_rank_pid_program)  # a standing, warm fleet
            started = time.monotonic()
            with pytest.raises(TransientBackendError, match="rank 1"):
                machine.run(_sigkill_program)
            elapsed = time.monotonic() - started
        finally:
            machine.close()
        assert elapsed < scale_timeout(0.5)

    @pytest.mark.parametrize("warm", [True, False])
    def test_rank_killed_mid_result_surfaces_at_once(self, warm):
        # Rank 1 writes half of its 32 MB result record -- a bytes value,
        # which crosses in-band, inside the record -- and is then
        # SIGKILLed.  The parent must read the torn record as the end of
        # the rank's pipe and raise, not wait forever for the rest of it.
        # The scenario runs in its own process session, so that a hung
        # parent and the ranks it would leave behind can all be killed on
        # timeout.
        script = textwrap.dedent("""
            import multiprocessing
            import os
            import signal
            import sys
            import time
            from multiprocessing import connection

            from repro.pro.machine import PROMachine
            from repro.util.errors import TransientBackendError

            _send = connection.Connection._send

            def torn_send(self, buf):
                if len(buf) > 1 << 20:
                    _send(self, buf[:len(buf) // 2])
                    os.kill(os.getpid(), signal.SIGKILL)
                _send(self, buf)

            def warm(ctx):
                return ctx.rank

            def program(ctx):
                if ctx.rank == 1:
                    connection.Connection._send = torn_send
                return bytes(32_000_000)

            warm_first = sys.argv[1] == "True"
            machine = PROMachine(2, seed=0, backend="process", timeout=60.0)
            try:
                if warm_first:
                    machine.run(warm)
                started = time.monotonic()
                try:
                    machine.run(program)
                except TransientBackendError as exc:
                    print("raised", time.monotonic() - started, exc)
            finally:
                machine.close()
            print("children", len(multiprocessing.active_children()))
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(warm)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_src_env(), start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=scale_timeout(30))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the parent hung on the torn result record")
        assert proc.returncode == 0, err
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert "rank 1" in lines["raised"], out
        assert float(lines["raised"].split()[0]) < scale_timeout(10), out
        assert lines["children"] == "0", out
        # Nothing in the scenario's process group outlives it.
        deadline = time.monotonic() + scale_timeout(10)
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a rank outlived its parent"
            time.sleep(0.05)

    def test_ranks_exit_when_their_caller_is_killed(self):
        # The caller starts a warm fleet, prints its rank pids and
        # SIGKILLs itself, so no exit path of its own runs.  Each rank
        # must then read an end of file on its pipe and exit -- releasing
        # the caller's stdout, which it inherited.  The scenario runs in
        # its own process session, so that ranks left behind can all be
        # killed on timeout.
        script = textwrap.dedent("""
            import os
            import signal

            from repro.pro.machine import PROMachine

            def warm(ctx):
                return os.getpid()

            machine = PROMachine(2, seed=0, backend="process", timeout=60.0)
            print(*machine.run(warm).results, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=_src_env(),
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=scale_timeout(30))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the ranks outlived their killed caller")
        assert proc.returncode == -signal.SIGKILL
        ranks = [int(pid) for pid in out.split()]
        assert len(ranks) == 2, out
        deadline = time.monotonic() + scale_timeout(10)
        while any(_running(pid) for pid in ranks):
            assert time.monotonic() < deadline, "a rank outlived its caller"
            time.sleep(0.05)

    @pytest.mark.parametrize("program", [
        _sigkill_holding_inbox_program, _sigkill_mid_message_program,
    ], ids=["lock-held", "pipe-full"])
    def test_killed_rank_makes_heal_replace_the_whole_fleet(self, program):
        # Rank 1 dies by SIGKILL holding rank 0's inbox write lock, as a
        # rank killed while its queue feeder writes would -- with the
        # inbox's pipe empty, or full of the in-band message it was
        # writing.  Its siblings only see the broken barrier, so they
        # report and keep their processes; but a killed rank may leave any
        # inbox or the barrier wedged, so heal() must stop them too,
        # replace the inboxes and the barrier, and respawn every rank.
        # The stopped survivors' abort pills wait for the dead rank's lock
        # in their inbox feeders; they must exit at once on the shutdown
        # sentinel anyway, not be terminated after the shutdown grace.
        machine = _process_machine(3, seed=0, timeout=scale_timeout(5))
        try:
            before = machine.run(_rank_pid_program).results
            pool = machine.backend._pools[3]
            fabric = pool.fabric
            inboxes, barrier = list(fabric._inboxes), fabric._barrier
            with pytest.raises(TransientBackendError, match="rank 1"):
                machine.run(program)
            assert pool._suspect_ranks == {1}
            assert pool._workers[0].is_alive() and pool._workers[2].is_alive()
            # The parent's abort pills started a feeder thread for the
            # wedged inbox, which waits for the dead rank's lock.
            feeders = {inbox._thread for inbox in inboxes} - {None}
            assert inboxes[0]._thread in feeders
            stopped = list(pool._workers)
            seq = event_seq()
            started = time.monotonic()
            assert pool.heal()
            assert time.monotonic() - started < scale_timeout(1.0)
            assert [proc.exitcode for proc in stopped] == [0, -signal.SIGKILL, 0]
            heal = [e for e in events_since(seq) if e["kind"] == "pool-heal"]
            assert [e["respawned"] for e in heal] == [[0, 1, 2]]
            assert not set(fabric._inboxes) & set(inboxes)
            assert fabric._barrier is not barrier
            after = machine.run(_rank_pid_program).results
            assert not {pid for _, pid in after} & {pid for _, pid in before}
            # The replay sends into rank 0's inbox, which the dead rank
            # wedged: it reaches the result only through a fresh inbox.
            assert machine.run(_allreduce_program).results == [3, 3, 3]
            # No thread of the retired inboxes outlives the heal.
            deadline = time.monotonic() + scale_timeout(5)
            while feeders & set(threading.enumerate()):
                assert time.monotonic() < deadline, "a retired feeder is stuck"
                time.sleep(0.01)
        finally:
            machine.close()

    def test_rank_exiting_on_system_exit_makes_heal_replace_the_whole_fleet(self):
        # SystemExit is no Exception: rank 1 reports it and exits, so heal()
        # cannot keep the fleet around it and respawns every rank.
        machine = _process_machine(3, seed=0, timeout=scale_timeout(5))
        try:
            before = machine.run(_rank_pid_program).results
            pool = machine.backend._pools[3]
            with pytest.raises(SystemExit):
                machine.run(_system_exit_program)
            assert pool._suspect_ranks == {1}
            pool._workers[1].join(timeout=scale_timeout(5))
            assert pool._workers[1].exitcode is not None  # it exited
            seq = event_seq()
            assert pool.heal()
            heal = [e for e in events_since(seq) if e["kind"] == "pool-heal"]
            assert [e["respawned"] for e in heal] == [[0, 1, 2]]
            after = machine.run(_rank_pid_program).results
            assert not {pid for _, pid in after} & {pid for _, pid in before}
            assert machine.run(_allreduce_program).results == [3, 3, 3]
        finally:
            machine.close()

    def test_program_exception_poisons_pool(self):
        machine = _process_machine(3, seed=0)
        try:
            with pytest.raises(BackendError, match="rank 0"):
                machine.run(_raise_program)
            with pytest.raises(BackendError, match="poisoned"):
                machine.run(_rank_pid_program)
        finally:
            machine.close()

    def test_unpicklable_program_raises_without_poisoning(self, monkeypatch):
        # Without cloudpickle a closure cannot cross the rank pipes.
        import importlib

        # (the package re-exports the pool() context manager as "pool")
        pool_module = importlib.import_module("repro.pro.backends.pool")
        monkeypatch.setattr(pool_module, "_cloudpickle", None)
        machine = _process_machine(2, seed=0)
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

        machine = _process_machine(2, seed=0)
        try:
            with pytest.raises(BackendError, match="picklable"):
                machine.run(_rank_pid_program, threading.Lock())
            assert machine.run(_allreduce_program).results == [1, 1]
        finally:
            machine.close()


class TestPoolShutdown:
    def test_close_is_idempotent(self):
        machine = _process_machine(2, seed=0)
        machine.run(_allreduce_program)
        backend_pool = machine.backend._pools[2]
        machine.close()
        machine.close()
        backend_pool.close()  # pool-level close after machine close: no-op
        assert backend_pool.closed

    def test_run_after_close_respawns_fleet(self):
        machine = _process_machine(2, seed=0)
        first_pids = {pid for _r, pid in machine.run(_rank_pid_program).results}
        machine.close()
        second_pids = {pid for _r, pid in machine.run(_rank_pid_program).results}
        machine.close()
        assert first_pids.isdisjoint(second_pids)

    def test_dropped_machine_holds_no_processes(self):
        # A machine dropped without close() releases its private fleet as
        # soon as it is collected.
        machine = _process_machine(2, seed=0)
        machine.run(_allreduce_program)
        pids = machine.backend._pools[2].worker_pids()
        assert all(_running(pid) for pid in pids)
        del machine
        gc.collect()
        deadline = time.monotonic() + scale_timeout(5)
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "a dropped machine kept its ranks"
            time.sleep(0.05)

    def test_dropped_borrowing_machine_leaves_the_shared_fleet_warm(self):
        # The finalizer closes private fleets only: a fleet borrowed from
        # the default pool cache belongs to the cache, and a later machine
        # of the same key gets the same ranks.
        clear_default_pools()
        try:
            machine = _process_machine(2, seed=0,
                                       backend_options={"pool_scope": "process"})
            machine.run(_allreduce_program)
            pids = machine.backend._pools[2].worker_pids()
            del machine
            gc.collect()
            assert all(_running(pid) for pid in pids)
            again = _process_machine(2, seed=0,
                                     backend_options={"pool_scope": "process"})
            assert sorted(pid for _r, pid in again.run(_rank_pid_program).results) \
                == sorted(pids)
        finally:
            clear_default_pools()

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
        on stderr at interpreter exit, so check a subprocess).  The
        interpreter exits with an output segment parked and another one
        still held, and neither name may outlive it -- also when the
        program's first ``weakref.finalize`` predates the library, so the
        finalizers run after the pool cache's exit hook."""
        script = textwrap.dedent("""
            import os
            import weakref
            early = weakref.finalize(os, print)
            early.atexit = False  # registered, never called
            import numpy as np
            from repro.pro.machine import PROMachine
            from repro.core.permutation import random_permutation

            print(os.getpid())
            machine = PROMachine(3, seed=1, backend="process")
            for _ in range(3):
                out = random_permutation(np.arange(20_000), machine=machine)
                assert out.shape == (20_000,)
            del out  # parked
            machine.close()
            held = random_permutation(np.arange(10_000), n_procs=2,
                                      backend="process", seed=2)
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
            timeout=scale_timeout(120),
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        prefix = f"psm_{int(proc.stdout.split()[0]):x}_"
        assert not {name for name in _shm_names() if name.startswith(prefix)}

    def test_kept_rank_leaks_nothing_of_its_failed_epoch(self):
        """A rank whose program raised keeps its process; the heal, the
        replay and two more runs under ``sharedmem`` must match the thread
        backend bit for bit and leave no segment name and no
        ``resource_tracker`` warning behind (checked in a subprocess, as
        the tracker warns at interpreter exit)."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.core.permutation import random_permutation
            from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
            from repro.pro.backends.pool import clear_default_pools
            from repro.pro.machine import PROMachine
            from repro.pro.telemetry import event_seq, events_since

            data = np.arange(30_000)
            faulty = FaultInjectingBackend(
                "process", [CrashRank(rank=1, at_op=1, at_run=1)])
            machine = PROMachine(3, seed=4, backend=faulty, retry=2)
            reference = PROMachine(3, seed=4, backend="thread")
            seq = event_seq()
            for run in range(4):  # run 1 raises, heals and replays
                out = random_permutation(data, machine=machine)
                assert np.array_equal(
                    out, random_permutation(data, machine=reference)), run
            heals = [e["respawned"] for e in events_since(seq)
                     if e["kind"] == "pool-heal"]
            assert heals == [[]], heals
            del out
            machine.close()
            clear_default_pools()
        """)
        before = _shm_names()
        proc = subprocess.run(
            [sys.executable, "-W", "error",
             "-W", "default::UserWarning:multiprocessing.resource_tracker",
             "-c", script],
            capture_output=True, text=True, env=_src_env(),
            timeout=scale_timeout(120),
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert not _shm_names() - before


def _shm_names():
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        pytest.skip("no /dev/shm to inspect")


#: Segment names a rank attached (``sharedmem._map_byref`` calls).
_ATTACHES: list = []


def _fill_program(ctx, out):
    half = out.size // ctx.n_procs
    out[ctx.rank * half:(ctx.rank + 1) * half] = ctx.rank


def _held_segments_program(ctx):
    """The output segments this rank holds and the ones it has mapped."""
    from repro.pro.backends import sharedmem

    with open("/proc/self/maps") as maps:
        mapped = {line.split("/dev/shm/")[1].split()[0]
                  for line in maps if "/dev/shm/psm_" in line}
    return list(sharedmem._HELD), mapped, len(_ATTACHES)


def _echo_block_program(ctx, blocks):
    return blocks[ctx.rank]


def _sum_unless_failing_program(ctx, blocks, fail):
    if fail and ctx.rank == 1:
        raise RuntimeError("boom on rank 1")
    ctx.comm.barrier()
    return int(blocks[ctx.rank].sum())


class TestStagedDispatch:
    """A standing pool stages private bulk arguments in one segment per dispatch."""

    @pytest.mark.parametrize("p", [2, 4])
    def test_retried_run_is_thread_identical_and_leaves_no_name(self, p):
        from repro.pro.backends import sharedmem
        from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
        from repro.pro.backends.pool import clear_default_pools

        data = np.arange(50_000, dtype=np.int64)
        expected = random_permutation(data, machine=PROMachine(p, seed=5))
        before = _shm_names()
        faulty = FaultInjectingBackend(
            "process", [CrashRank(rank=1, at_op=1, at_run=0)])
        machine = PROMachine(p, seed=5, backend=faulty, retry=2)
        try:
            out = random_permutation(data, machine=machine)
            assert np.array_equal(out, expected)
            # Under a retry policy the input is not staged in the output
            # vector, so each of the two attempts staged its own copy.
            stats = faulty.backend.transport.stats
            assert stats.shared_encode_calls == 2
            assert stats.segments_created == 2
            # Every staging name of the run is gone; the output's stays
            # linked while the array lives.
            (name,) = _shm_names() - before
            assert sharedmem._byref_mapping(out)[0] == name
        finally:
            machine.close()
        assert _shm_names() - before == {name}
        assert np.array_equal(out, expected)  # the output outlives the pool
        del out
        gc.collect()
        # The failed first attempt named it: unlinked, never parked.
        assert not _shm_names() - before
        clear_default_pools()
        assert not _shm_names() - before
        assert not sharedmem._BYREF, sharedmem._BYREF

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc/self/maps")
    def test_a_rank_holds_its_last_two_output_segments(self, monkeypatch):
        from repro.pro.backends import sharedmem

        real_map = sharedmem._map_byref

        def counting_map(seg, creator, shared):  # inherited by the ranks
            _ATTACHES.append(seg.name)
            return real_map(seg, creator, shared)

        monkeypatch.setattr(sharedmem, "_map_byref", counting_map)
        machine = PROMachine(2, seed=0, backend="process")
        try:
            machine.run(_held_segments_program)  # spawn before allocating
            outs = [machine.backend.empty(size, np.int64)
                    for size in (4_000, 5_000, 6_000)]
            a, b, c = (sharedmem._byref_mapping(out)[0] for out in outs)

            def fill(out):
                machine.run(_fill_program, out)
                assert (out == np.repeat([0, 1], out.size // 2)).all()
                return machine.run(_held_segments_program).results

            expected = [[a], [a, b], [b, c]]
            for out, held in zip(outs, expected):
                for held_now, mapped, _ in fill(out):
                    assert held_now == held
                    assert mapped & {a, b, c} == set(held)  # a's is closed
            attaches = [count for *_, count in fill(outs[2])]
            # b is held: naming it again attaches nothing; a is not.
            assert [(held, count) for held, _, count in fill(outs[1])] == [
                ([c, b], n) for n in attaches]
            assert [(held, count) for held, _, count in fill(outs[0])] == [
                ([b, a], n + 1) for n in attaches]
        finally:
            machine.close()

    def test_returned_staged_block_outlives_the_default_pool(self):
        from repro.pro.backends.pool import clear_default_pools
        from repro.pro.machine import resolve_machine
        from repro.pro.telemetry import Telemetry

        blocks = [np.arange(20_000, dtype=np.int64) * (rank + 1)
                  for rank in range(2)]
        originals = [block.copy() for block in blocks]
        before = _shm_names()
        telemetry = Telemetry()
        clear_default_pools()
        machine = resolve_machine(2, backend="process", seed=0,
                                  telemetry=telemetry)
        try:
            results = machine.run(_echo_block_program, blocks).results
        finally:
            machine.close()
            clear_default_pools()
        # The blocks came back by reference to the staged copy: no rank
        # encoded a byte, and the caller's own arrays are not aliased.
        for rank_record in telemetry.last.to_dict()["ranks"]:
            assert rank_record["transport"]["bytes_encoded"] == 0
        for block in blocks:
            block[:] = -1
        for result, original in zip(results, originals):
            assert np.array_equal(result, original)
        assert not _shm_names() - before
        del results

    def test_heal_then_success_leaves_no_staging_name(self):
        blocks = [np.arange(20_000, dtype=np.int64) + rank for rank in range(2)]
        before = _shm_names()
        machine = PROMachine(2, seed=0, backend="process")
        try:
            with pytest.raises(BackendError, match="rank 1"):
                machine.run(_sum_unless_failing_program, blocks, True)
            # A failed run keeps its staging copy linked for a retry.
            assert _shm_names() - before
            assert machine.backend._pools[2].heal()
            assert machine.run(_sum_unless_failing_program, blocks,
                               False).results == [int(b.sum()) for b in blocks]
            assert not _shm_names() - before
        finally:
            machine.close()
        assert not _shm_names() - before
