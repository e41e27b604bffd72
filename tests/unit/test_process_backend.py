"""Unit tests for the process backend and its multiprocessing fabric."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.pro.backends.process import ProcessBackend, ProcessFabric
from repro.pro.backends.transport import walk_decode, walk_encode
from repro.pro.machine import PROMachine
from repro.rng.counting import CountingRNG
from repro.util.errors import BackendError, ValidationError
from repro.util.timeouts import scale_timeout

pytestmark = pytest.mark.subprocess  # every test forks rank processes


def _die_holding(lock):
    lock.acquire()
    os._exit(0)  # no cleanup runs: the lock stays held


def _roundtrip(payload):
    return walk_decode(walk_encode(payload))


class TestPayloadCodec:
    def test_array_roundtrip_preserves_dtype_shape_values(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = _roundtrip(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_decoded_arrays_are_writable_copies(self):
        arr = np.arange(5)
        out = _roundtrip(arr)
        out[0] = 99  # must not raise (frombuffer alone would be read-only)
        assert arr[0] == 0

    def test_nested_containers(self):
        payload = (3, [np.arange(2), {"k": np.ones(3)}], "text", None)
        out = _roundtrip(payload)
        assert out[0] == 3
        assert np.array_equal(out[1][0], np.arange(2))
        assert np.array_equal(out[1][1]["k"], np.ones(3))
        assert out[2] == "text"
        assert out[3] is None

    def test_non_contiguous_arrays_supported(self):
        arr = np.arange(20).reshape(4, 5)[:, ::2]
        out = _roundtrip(arr)
        assert np.array_equal(out, arr)


class TestProcessBackendRuns:
    def test_results_ordered_by_rank(self):
        machine = PROMachine(4, seed=0, backend="process")
        assert machine.run(lambda ctx: ctx.rank * 2).results == [0, 2, 4, 6]

    def test_collectives_and_p2p_work(self):
        machine = PROMachine(3, seed=0, backend="process")

        def program(ctx):
            ctx.comm.barrier()
            total = ctx.comm.allreduce(ctx.rank)
            gathered = ctx.comm.allgather(np.full(2, ctx.rank))
            return total, sum(int(g.sum()) for g in gathered)

        results = machine.run(program).results
        assert all(r == (3, 6) for r in results)

    def test_numpy_payloads_cross_ranks(self):
        machine = PROMachine(2, seed=0, backend="process")

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(np.arange(4, dtype=np.int32), 1)
                return None
            received = ctx.comm.recv(0)
            return received.dtype.str, received.tolist()

        results = machine.run(program).results
        assert results[1] == (np.dtype(np.int32).str, [0, 1, 2, 3])

    def test_cost_accounting_repatriated(self):
        machine = PROMachine(2, seed=0, backend="process")

        def program(ctx):
            ctx.log_compute(7)
            ctx.comm.send(np.arange(5), 1 - ctx.rank)
            ctx.comm.recv(1 - ctx.rank)
            return None

        report = machine.run(program).cost_report
        assert report.total("compute_ops") == 14
        assert report.total("words_sent") == 10
        assert report.total("words_received") == 10

    def test_random_variate_counting_repatriated(self):
        machine = PROMachine(2, seed=0, backend="process", count_random_variates=True)

        def program(ctx):
            assert isinstance(ctx.rng, CountingRNG)
            ctx.rng.random(10)
            return None

        result = machine.run(program)
        assert result.cost_report.total("random_variates") == 20

    def test_long_compute_survives_short_comm_timeout(self):
        # The fabric timeout bounds *blocked communication*, not compute:
        # a rank that crunches longer than the timeout must still finish.
        # Both sides scale with REPRO_TEST_TIMEOUT_FACTOR so the invariant
        # (sleep > timeout) survives slow CI runners.
        machine = PROMachine(2, seed=0, backend="process",
                             timeout=scale_timeout(0.5))
        nap = scale_timeout(1.2)

        def program(ctx):
            import time as _time
            _time.sleep(nap)  # longer than the fabric timeout
            return ctx.rank

        assert machine.run(program).results == [0, 1]

    def test_exception_in_rank_becomes_backend_error(self):
        def program(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom on rank 1")
            ctx.comm.barrier()

        before = set(multiprocessing.active_children())
        machine = PROMachine(3, seed=0, backend="process",
                             timeout=scale_timeout(15))
        with pytest.raises(BackendError, match="rank 1"):
            machine.run(program)
        # Closing the failed machine reaps every rank it spawned.
        machine.close()
        assert set(multiprocessing.active_children()) - before == set()

    def test_mismatched_fabric_rejected(self):
        backend = ProcessBackend()
        thread_machine = PROMachine(2, seed=0)
        contexts = thread_machine._build_contexts()  # wired to the in-process fabric
        with pytest.raises(BackendError, match="ProcessFabric"):
            backend.run(contexts, lambda ctx: None, (), {})

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValidationError):
            ProcessBackend(start_method="no-such-method")

    def test_persistent_keyword_is_a_perfbench_shim(self):
        # Only perfbench still passes persistent=True; there is no cold mode.
        from repro.pro.backends.registry import get_backend

        backend = get_backend("process", persistent=True)
        try:
            machine = PROMachine(2, seed=0, backend=backend)
            assert machine.run(lambda ctx: ctx.rank).results == [0, 1]
        finally:
            backend.close()
        with pytest.raises(ValidationError, match="retired"):
            ProcessBackend(persistent=False)


class TestProcessFabric:
    def test_out_of_order_tags_are_parked(self):
        machine = PROMachine(2, seed=0, backend="process")

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send("first", 1, tag=1)
                ctx.comm.send("second", 1, tag=2)
                return None
            second = ctx.comm.recv(0, tag=2)  # arrives after tag=1: parks it
            first = ctx.comm.recv(0, tag=1)
            return first, second

        assert machine.run(program).results[1] == ("first", "second")

    def test_fabric_validates_n_procs(self):
        with pytest.raises(ValidationError):
            ProcessFabric(0)

    def test_empty_inbox_drain_waits_one_timeout_not_one_per_inbox(self):
        # drain_timeout is one deadline for the whole drain: eight empty
        # inboxes must not wait it out eight times.
        fabric = ProcessFabric(8)
        timeout = scale_timeout(0.25)
        started = time.monotonic()
        fabric.shutdown(drain_timeout=timeout)
        assert time.monotonic() - started < 2 * timeout

    def test_heal_replaces_a_wedged_inbox_when_no_rank_survives(self):
        # A rank that dies while its queue feeder holds an inbox's write
        # lock leaves the lock held for good, so a send into that inbox
        # never arrives.  A heal that keeps the ranks keeps the inboxes
        # they use; one that respawns every rank replaces them.
        fork = multiprocessing.get_context("fork")
        fabric = ProcessFabric(2, timeout=scale_timeout(2.0), mp_context=fork)
        try:
            holder = fork.Process(target=_die_holding,
                                  args=(fabric._inboxes[1]._wlock,))
            holder.start()
            holder.join(scale_timeout(5.0))
            assert not fabric._inboxes[1]._wlock.acquire(timeout=0.05)
            kept = list(fabric._inboxes)
            fabric.heal(replace=False)
            assert fabric._inboxes == kept
            fabric.heal(replace=True)
            fabric.put(0, 1, "t", "after heal")
            assert fabric.get(0, 1, "t", []) == "after heal"
        finally:
            fabric.shutdown()
