"""Tests for the process-wide default pool cache (warm-by-default drivers).

Contract (see :mod:`repro.pro.backends.pool`): driver calls with
``backend="process"`` transparently reuse a keyed standing worker fleet
(pid-stable across calls), different configurations get different fleets,
a poisoned fleet is evicted and respawned, ``clear_default_pools()`` and
the interpreter-exit hook release everything leak-free, and warm calls
stay bit-identical to the cold path for a fixed seed.  Bulk dispatch
arguments are encoded once per *run*, not once per rank (one staging
segment), pinned here through the transport counters.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.parallel_matrix import sample_matrix_parallel
from repro.core.permutation import random_permutation
from repro.pro.backends.pool import (
    clear_default_pools,
    default_pools,
    get_default_pool,
)
from repro.pro.backends.transport import resolve_transport
from repro.pro.machine import resolve_machine
from repro.util.errors import BackendError
from repro.util.timeouts import scale_timeout

pytestmark = pytest.mark.subprocess  # every test may spawn a worker fleet


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty default pool cache."""
    clear_default_pools()
    yield
    clear_default_pools()


def _raise_program(ctx):
    raise RuntimeError("boom")


def _block_sum_program(ctx, blocks):
    return int(blocks[ctx.rank].sum())


def _slow_program(ctx):
    import time

    time.sleep(0.4)
    return ctx.rank


def _default_pool_pids():
    pools = default_pools()
    assert len(pools) == 1, f"expected exactly one cached pool, got {pools}"
    return next(iter(pools.values())).worker_pids()


class TestWarmDrivers:
    def test_driver_calls_reuse_one_fleet_pid_stable(self):
        out1 = random_permutation(np.arange(4000), n_procs=3,
                                  backend="process", seed=7)
        pids1 = _default_pool_pids()
        out2 = random_permutation(np.arange(4000), n_procs=3,
                                  backend="process", seed=7)
        pids2 = _default_pool_pids()
        assert pids1 == pids2  # the standing fleet survived both calls
        assert os.getpid() not in pids1
        assert np.array_equal(out1, out2)  # same seed, same machine build

    def test_matrix_driver_shares_the_cache(self):
        sample_matrix_parallel([8, 8, 8], backend="process", seed=1)
        pids1 = _default_pool_pids()
        sample_matrix_parallel([9, 9, 9], backend="process", seed=2)
        assert _default_pool_pids() == pids1  # same (p, transport) key

    def test_persistent_false_forces_cold_path(self):
        random_permutation(np.arange(1000), n_procs=2, backend="process",
                           seed=0, persistent=False)
        assert default_pools() == {}  # nothing cached: the call was cold

    def test_explicit_persistent_true_uses_the_shared_fleet(self):
        random_permutation(np.arange(1000), n_procs=2, backend="process",
                           seed=0, persistent=True)
        pids = _default_pool_pids()
        random_permutation(np.arange(1000), n_procs=2, backend="process",
                           seed=0)  # implicit warm default: same fleet
        assert _default_pool_pids() == pids

    def test_warm_calls_bit_identical_to_cold_k_call_sequence(self):
        # k warm driver calls == k cold driver calls, call by call: the
        # standing fleet changes where ranks live, never what they draw.
        for seed in (11, 12, 13):
            warm = random_permutation(np.arange(3000), n_procs=4,
                                      backend="process", seed=seed)
            cold = random_permutation(np.arange(3000), n_procs=4,
                                      backend="process", seed=seed,
                                      persistent=False)
            thread = random_permutation(np.arange(3000), n_procs=4,
                                        backend="thread", seed=seed)
            assert np.array_equal(warm, cold), seed
            assert np.array_equal(warm, thread), seed

    def test_args_encoded_once_per_run_not_per_rank(self):
        # The pool's dispatch stages one run's bulk arguments in one
        # by-reference segment: p ranks, but exactly one shared encode
        # and one staging segment per run.
        blocks = [np.arange(50_000) + rank for rank in range(4)]
        machine = resolve_machine(4, backend="process", seed=0)
        try:
            assert machine.run(_block_sum_program, blocks).results == [
                int(block.sum()) for block in blocks]
            stats = next(iter(default_pools().values())).fabric.transport.stats
            first = stats.snapshot()
            assert first["shared_encode_calls"] == 1
            assert first["segments_created"] == 1
            machine.run(_block_sum_program, blocks)
            second = stats.snapshot()
        finally:
            machine.close()
        assert second["shared_encode_calls"] == first["shared_encode_calls"] + 1
        assert (second["segments_created"]
                == first["segments_created"] + 1)

    def test_single_attempt_driver_call_creates_no_segment(self):
        # random_permutation stages its input in the shared output vector,
        # whose slices cross by reference: nothing is copied to dispatch.
        for _ in range(2):
            random_permutation(np.arange(50_000), n_procs=4,
                               backend="process", seed=0)
        stats = next(iter(default_pools().values())).fabric.transport.stats
        assert stats.shared_encode_calls == 2
        assert stats.segments_created == 0
        assert stats.bytes_encoded == 0


class TestKeyedIsolation:
    def test_different_rank_counts_get_different_fleets(self):
        random_permutation(np.arange(1000), n_procs=2, backend="process", seed=0)
        random_permutation(np.arange(1000), n_procs=3, backend="process", seed=0)
        pools = default_pools()
        assert len(pools) == 2
        sizes = sorted(pool.n_procs for pool in pools.values())
        assert sizes == [2, 3]

    def test_different_transports_get_different_fleets(self):
        random_permutation(np.arange(1000), n_procs=2, backend="process",
                           transport="sharedmem", seed=0)
        random_permutation(np.arange(1000), n_procs=2, backend="process",
                           transport="pickle", seed=0)
        pools = default_pools()
        assert len(pools) == 2
        names = sorted(pool.fabric.transport.name for pool in pools.values())
        assert names == ["pickle", "sharedmem"]

    def test_lru_cap_closes_coldest_fleet(self, monkeypatch):
        # The package's ``pool`` attribute is the context manager, so the
        # module holding the cap is reached through sys.modules.
        monkeypatch.setattr(sys.modules[get_default_pool.__module__], "_DEFAULT_POOL_CAP", 2)
        transport = resolve_transport("sharedmem")
        pools = [get_default_pool(p, timeout=scale_timeout(20),
                                  transport=transport) for p in (1, 2, 3)]
        assert pools[0].closed  # evicted as least recently used
        assert not pools[1].closed and not pools[2].closed
        assert len(default_pools()) == 2


class TestPoisonEviction:
    def test_poisoned_fleet_is_healed_in_place(self):
        # Built exactly as the drivers build theirs, so the poisoned
        # fleet lands under the same cache key the next driver call uses.
        machine = resolve_machine(2, backend="process", seed=0)
        with pytest.raises(BackendError):
            machine.run(_raise_program)
        poisoned = next(iter(default_pools().values()))
        assert poisoned.poisoned
        poisoned_pids = poisoned.worker_pids()
        # The next driver call heals the cache *in place*: the standing
        # fleet object survives under the same key, every rank reported
        # its failure and keeps its process (no pid changes), and the run
        # succeeds as if the fleet had never been poisoned.
        out = random_permutation(np.arange(1000), n_procs=2,
                                 backend="process", seed=5)
        fresh = next(iter(default_pools().values()))
        assert fresh is poisoned  # healed, not evicted
        assert not fresh.poisoned and not fresh.closed
        assert fresh.worker_pids() == poisoned_pids
        assert sorted(out.tolist()) == list(range(1000))

    def test_clear_default_pools_is_idempotent_and_respawns(self):
        random_permutation(np.arange(500), n_procs=2, backend="process", seed=0)
        pids = _default_pool_pids()
        clear_default_pools()
        clear_default_pools()
        assert default_pools() == {}
        random_permutation(np.arange(500), n_procs=2, backend="process", seed=0)
        assert set(_default_pool_pids()).isdisjoint(pids)


class TestSharing:
    def test_concurrent_threads_share_the_fleet_safely(self):
        # The default cache hands two threads the same fleet; WorkerPool
        # serialises the runs internally, so both calls must succeed with
        # correct (seed-exact) results instead of corrupting each other's
        # epochs on the shared rank pipes.
        import threading

        results: dict = {}
        errors: list = []

        def call(tid):
            try:
                results[tid] = random_permutation(
                    np.arange(5000), n_procs=2, backend="process",
                    seed=100 + tid)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append((tid, exc))

        random_permutation(np.arange(100), n_procs=2, backend="process",
                           seed=0)  # warm the fleet first
        threads = [threading.Thread(target=call, args=(tid,))
                   for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=scale_timeout(60))
        assert not errors, errors
        assert len(default_pools()) == 1
        for tid, out in results.items():
            cold = random_permutation(np.arange(5000), n_procs=2,
                                      backend="process", seed=100 + tid,
                                      persistent=False)
            assert np.array_equal(out, cold), tid

    def test_close_waits_for_an_inflight_run(self):
        # Eviction (LRU overflow, poison healing, clear_default_pools)
        # closes fleets that another thread may still be running on;
        # close() must serialise behind the in-flight run instead of
        # tearing the fabric down underneath it.
        import threading
        import time

        from repro.pro.machine import PROMachine

        machine = PROMachine(2, backend="process", persistent=True,
                             timeout=scale_timeout(20))
        outcome: dict = {}

        def runner():
            try:
                outcome["results"] = machine.run(_slow_program).results
            except Exception as exc:  # pragma: no cover - the failure mode
                outcome["error"] = exc

        try:
            machine.run(_slow_program)  # spawn the fleet before timing
            thread = threading.Thread(target=runner)
            thread.start()
            time.sleep(0.15)  # let the run dispatch and begin computing
            machine.backend._pools[2].close()  # what eviction would do
            thread.join(timeout=scale_timeout(30))
            assert "error" not in outcome, outcome["error"]
            assert outcome["results"] == [0, 1]
        finally:
            machine.close()

    def test_forked_child_does_not_reuse_the_parents_fleet(self):
        # A forked child inherits the cache and its pools but must not
        # drive (or at exit try to reap) the parent's worker processes:
        # it spawns its own fleet, and the parent's stays healthy.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        random_permutation(np.arange(2000), n_procs=2, backend="process",
                           seed=1)
        parent_pids = set(_default_pool_pids())
        held = []  # the child's copy keeps an output alive until it exits

        def child_main(conn):
            try:
                out = random_permutation(np.arange(2000), n_procs=2,
                                         backend="process", seed=1)
                held.append(random_permutation(np.arange(1000), n_procs=2,
                                               backend="process", seed=2))
                child_pids = set(_default_pool_pids())
                conn.send(("ok", sorted(child_pids), out.tolist()))
            except Exception as exc:  # pragma: no cover - the failure mode
                conn.send(("error", repr(exc), None))

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(target=child_main, args=(child_conn,))
        child.start()
        status, payload, child_out = parent_conn.recv()
        child.join(timeout=scale_timeout(60))
        assert status == "ok", payload
        assert child.exitcode == 0  # atexit in the child reaped cleanly
        if os.path.isdir("/dev/shm"):
            # Neither its parked output nor its live one outlives the child.
            prefix = f"psm_{child.pid:x}_"
            assert not {name for name in os.listdir("/dev/shm")
                        if name.startswith(prefix)}
        assert parent_pids.isdisjoint(payload)  # fresh fleet, not the parent's
        # the parent's fleet survived the child's lifecycle untouched
        out = random_permutation(np.arange(2000), n_procs=2,
                                 backend="process", seed=1)
        assert set(_default_pool_pids()) == parent_pids
        assert out.tolist() == child_out  # same seed, same machine build


class TestLifecycleHygiene:
    def test_atexit_teardown_leaks_nothing_under_w_error(self):
        """Warm driver calls left *without* explicit cleanup must be
        reaped by the atexit hook: no resource_tracker warnings, no
        leaked segments (checked in a subprocess because the warnings
        appear at interpreter exit)."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.core.permutation import random_permutation
            from repro.pro.backends.pool import default_pools

            for seed in range(3):
                out = random_permutation(np.arange(20_000), n_procs=3,
                                         backend="process", seed=seed)
                assert out.shape == (20_000,)
            assert len(default_pools()) == 1  # one warm fleet, never closed here
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

    def test_clear_default_pools_releases_segments_promptly(self):
        random_permutation(np.arange(30_000), n_procs=2, backend="process",
                           seed=0)
        clear_default_pools()
        leftovers = _shm_segments()
        assert not leftovers, f"segments survived clear_default_pools: {leftovers}"


def _shm_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("pro")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()
