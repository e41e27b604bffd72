"""Contract tests for the payload transports of the process backend.

Every transport must round-trip arbitrary payloads (arrays of any dtype,
nested containers, empty and huge arrays, plain objects), release
out-of-band resources for records that are never decoded (abort and
timeout paths), and never touch the random streams.  The shared-memory
transport additionally promises zero-copy receive views and a transparent
fallback to the pickle codec when segments cannot be created.
"""

import gc
import os
import queue

import numpy as np
import pytest

from repro.pro.backends import sharedmem as sharedmem_module
from repro.pro.backends.process import ProcessBackend, ProcessFabric
from repro.pro.backends.sharedmem import (
    SharedMemoryTransport,
    _SenderRing,
    shared_memory_available,
)
from repro.pro.backends.transport import (
    SHMRING,
    SHMSEG,
    PickleTransport,
    available_transports,
    get_transport,
    resolve_transport,
)
from repro.pro.machine import PROMachine
from repro.util.errors import BackendError, CommunicationError, ValidationError
from repro.util.timeouts import scale_timeout

TRANSPORTS = ["pickle", "sharedmem"]


def make_transport(name):
    if name == "sharedmem":
        # A tiny threshold so even small test arrays exercise the segments.
        return SharedMemoryTransport(min_bytes=16)
    return get_transport(name)


def shm_segments():
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


PAYLOADS = [
    np.arange(1000, dtype=np.int64),
    np.arange(12, dtype=np.float32).reshape(3, 4),
    np.empty(0, dtype=np.int64),
    np.array(3.5),  # 0-d
    np.arange(1_000_000, dtype=np.int64),  # huge: 8 MB
    {"key": np.ones(300), "nested": (1, [np.zeros(5, dtype=bool), "text"])},
    (None, 42, "plain"),
    [np.arange(64, dtype=np.int16)[::2]],  # non-contiguous view
]


class TestTransportRegistry:
    def test_builtins_registered(self):
        assert set(TRANSPORTS) <= set(available_transports())

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValidationError, match="unknown transport"):
            get_transport("carrier-pigeon")

    def test_resolve_none_gives_pickle(self):
        assert isinstance(resolve_transport(None), PickleTransport)

    def test_resolve_instance_passthrough(self):
        transport = SharedMemoryTransport()
        assert resolve_transport(transport) is transport

    def test_resolve_rejects_non_transport(self):
        with pytest.raises(ValidationError, match="encode"):
            resolve_transport(object())

    def test_min_bytes_validated(self):
        with pytest.raises(ValidationError):
            SharedMemoryTransport(min_bytes=0)


class TestRoundTrip:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    @pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
    def test_payload_roundtrip(self, transport_name, payload):
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(payload))

        def compare(a, b):
            if isinstance(a, np.ndarray):
                assert isinstance(b, np.ndarray)
                assert a.dtype == b.dtype
                assert a.shape == b.shape
                assert np.array_equal(a, b)
            elif isinstance(a, (list, tuple)):
                assert type(a) is type(b) and len(a) == len(b)
                for x, y in zip(a, b):
                    compare(x, y)
            elif isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    compare(a[k], b[k])
            else:
                assert a == b

        compare(payload, out)

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_structured_dtype_preserved(self, transport_name):
        dtype = np.dtype([("key", np.int64), ("value", np.float64)])
        data = np.zeros(400, dtype=dtype)
        data["key"] = np.arange(400)
        data["value"] = np.arange(400) * 0.5
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(data))
        assert out.dtype == dtype
        assert np.array_equal(out["key"], data["key"])
        assert np.allclose(out["value"], data["value"])

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_object_arrays_survive(self, transport_name):
        payload = np.array(["a", ("tuple",), None], dtype=object)
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(payload))
        assert out.dtype == object
        assert out.tolist() == payload.tolist()

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_decoded_arrays_are_writable_and_private(self, transport_name):
        original = np.arange(2048, dtype=np.int64)
        transport = make_transport(transport_name)
        out = transport.decode(transport.encode(original))
        out[0] = -99  # must not raise
        assert original[0] == 0


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestSharedMemoryLifecycle:
    def test_bulk_arrays_use_segments(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000, dtype=np.int64))
        assert record[0] == SHMSEG
        transport.dispose(record)

    def test_small_arrays_stay_inline(self):
        transport = SharedMemoryTransport(min_bytes=10**6)
        record = transport.encode(np.arange(100, dtype=np.int64))
        assert record[0] != SHMSEG

    def test_segment_unlinked_on_decode_and_freed_with_views(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = shm_segments()
        record = transport.encode(np.arange(5000, dtype=np.int64))
        assert shm_segments() - before  # the segment exists while in flight
        view = transport.decode(record)
        assert shm_segments() == before  # unlinked immediately on decode
        assert np.array_equal(view, np.arange(5000))
        del view
        gc.collect()

    def test_dispose_unlinks_undelivered_segments(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = shm_segments()
        record = transport.encode({"a": np.arange(4000), "b": np.ones(2000)})
        assert shm_segments() - before
        transport.dispose(record)
        assert shm_segments() == before

    def test_dispose_is_idempotent_and_ignores_inline_records(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000))
        transport.dispose(record)
        transport.dispose(record)  # already unlinked: must not raise
        transport.dispose(transport.encode("just a string"))

    def test_unavailable_falls_back_to_inline(self, monkeypatch):
        monkeypatch.setattr(sharedmem_module, "_PROBE", (os.getpid(), False))
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000, dtype=np.int64))
        assert record[0] != SHMSEG
        assert np.array_equal(transport.decode(record), np.arange(1000))

    def test_creation_failure_degrades_gracefully(self, monkeypatch):
        transport = SharedMemoryTransport(min_bytes=16)

        def boom(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(sharedmem_module._shm_module, "SharedMemory", boom)
        monkeypatch.setattr(sharedmem_module, "_PROBE", (os.getpid(), True))
        record = transport.encode(np.arange(1000, dtype=np.int64))
        assert record[0] != SHMSEG
        assert np.array_equal(PickleTransport().decode(record), np.arange(1000))


class TestFabricIntegration:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_put_get_roundtrip(self, transport_name):
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=make_transport(transport_name))
        try:
            payload = {"data": np.arange(3000, dtype=np.int64), "tag": "x"}
            fabric.put(0, 1, "t", payload)
            out = fabric.get(0, 1, "t", [])
            assert np.array_equal(out["data"], payload["data"])
            assert out["tag"] == "x"
        finally:
            fabric.shutdown()

    def test_shutdown_disposes_inflight_sharedmem(self):
        if not shared_memory_available():
            pytest.skip("no shared memory")
        before = shm_segments()
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=SharedMemoryTransport(min_bytes=16))
        fabric.put(0, 1, "never-received", np.arange(4000, dtype=np.int64))
        # Give the queue feeder a moment, then abort-style shutdown.  The
        # drain grace must stretch with REPRO_TEST_TIMEOUT_FACTOR: on an
        # oversubscribed runner the feeder may not have flushed in 0.5s.
        fabric.abort()
        fabric.shutdown(drain_timeout=scale_timeout(0.5))
        assert shm_segments() == before

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_self_message_is_a_private_copy_that_skips_the_inbox(
            self, transport_name):
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=make_transport(transport_name))
        try:
            payload = np.arange(3000, dtype=np.int64)
            fabric.put(1, 1, "self", payload)
            payload[:] = -1                 # the sender reuses its buffer
            with pytest.raises(queue.Empty):
                fabric._inboxes[1].get(timeout=scale_timeout(0.2))
            out = fabric.get(1, 1, "self", [])
            assert np.array_equal(out, np.arange(3000))
        finally:
            fabric.shutdown()

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_self_receive_survives_a_sibling_poison_pill(self, transport_name):
        # A failing sibling poisons every inbox, and its pill may reach an
        # inbox before the message the rank sent itself; that rank must
        # still receive its own message, while a receive from another rank
        # still fails fast.
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=make_transport(transport_name))
        try:
            fabric.epoch = 3
            fabric.poison_waits(3)
            fabric.put(1, 1, "self", np.arange(100, dtype=np.int64))
            out = fabric.get(1, 1, "self", [])
            assert np.array_equal(out, np.arange(100))
            with pytest.raises(CommunicationError, match="aborted"):
                fabric.get(0, 1, "other", [])
        finally:
            fabric.shutdown()

    def test_fabric_name_reports_transport(self):
        fabric = ProcessFabric(1, transport="pickle")
        try:
            assert fabric.transport.name == "pickle"
        finally:
            fabric.shutdown()


class TestBackendIntegration:
    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_machine_runs_with_transport(self, transport_name):
        machine = PROMachine(3, seed=4, backend="process",
                             backend_options={"transport": transport_name})
        assert machine.backend.transport.name == transport_name

        def program(ctx):
            gathered = ctx.comm.allgather(np.full(2000, ctx.rank, dtype=np.int64))
            return int(sum(g.sum() for g in gathered))

        assert machine.run(program).results == [6000, 6000, 6000]

    def test_abort_mid_transfer_leaves_no_segments(self):
        if not shared_memory_available():
            pytest.skip("no shared memory")
        before = shm_segments()
        machine = PROMachine(3, seed=0, backend="process",
                             timeout=scale_timeout(10))

        def program(ctx):
            if ctx.rank == 0:
                # Bulk payload nobody will ever receive, then crash.
                ctx.comm.send(np.arange(50_000, dtype=np.int64), 1, tag=9)
                raise RuntimeError("mid-transfer crash")
            ctx.comm.barrier()
            return ctx.rank

        with pytest.raises(BackendError, match="rank 0"):
            machine.run(program)
        assert shm_segments() - before == set()

    def test_unknown_transport_name_rejected(self):
        with pytest.raises(ValidationError):
            ProcessBackend(transport="bogus")

    def test_non_process_backend_rejects_transport_option(self):
        with pytest.raises(ValidationError, match="does not accept"):
            PROMachine(2, backend="thread", backend_options={"transport": "sharedmem"})

    def test_results_transported_through_sharedmem(self):
        machine = PROMachine(2, seed=1, backend="process",
                             backend_options={"transport": SharedMemoryTransport(min_bytes=16)})
        run = machine.run(lambda ctx: np.full(5000, ctx.rank, dtype=np.int64))
        assert np.array_equal(run.results[1], np.full(5000, 1))
        run.results[1][0] = 123  # zero-copy views must still be writable


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestRingWrapAround:
    """Receiver-acked ring slots: reclamation, wrap-around, fallback."""

    class _FakeShm:
        def __init__(self, size=256):
            self.size = size
            self.buf = memoryview(bytearray(size))

    def test_allocator_reclaims_acked_slots_in_order(self):
        ring = _SenderRing(self._FakeShm(256))
        assert ring.allocate(100) == (0, 128)    # 100 -> 128 aligned
        assert ring.allocate(100) == (128, 256)
        assert ring.allocate(100) is None        # full until acked
        ring.ack(256)                            # out of order: tail pinned
        assert ring.tail == 0
        ring.ack(128)                            # prefix complete: both free
        assert ring.tail == 256
        assert ring.reclaimed_bytes == 256

    def test_allocator_wraps_physically(self):
        ring = _SenderRing(self._FakeShm(256))
        first = ring.allocate(100)
        ring.ack(first[1])
        second = ring.allocate(100)
        ring.ack(second[1])
        third = ring.allocate(100)               # virtual 256: back to offset 0
        assert third == (0, 384)
        # a slot that would straddle the physical end skips to the boundary
        ring.ack(third[1])
        fourth = ring.allocate(160)              # phys 128 + 192 > 256: pad
        assert fourth[0] == 0
        assert ring.wraps == 1

    def test_allocator_rejects_oversize_and_duplicate_acks(self):
        ring = _SenderRing(self._FakeShm(256))
        assert ring.allocate(512) is None        # bigger than the ring
        slot = ring.allocate(64)
        ring.ack(slot[1])
        ring.ack(slot[1])                        # duplicate: ignored
        ring.ack(12345)                          # unknown: ignored
        assert ring.tail == 64

    def test_stale_receipts_after_a_wrap_are_ignored(self):
        ring = _SenderRing(self._FakeShm(256))
        first = ring.allocate(100)
        ring.ack(first[1])
        second = ring.allocate(200)              # straddles the end: wraps
        assert second == (0, 512) and ring.wraps == 1
        ring.ack(first[1])                       # stale pre-wrap receipt
        assert (ring.head, ring.tail) == (512, 256)
        ring.ack(second[1])
        assert ring.tail == 512

    def test_acked_traffic_never_degrades_to_segments(self):
        # 50 x 512-byte messages through a 4 KiB ring only stay on the
        # ring if acked slots are actually reclaimed (PR 2's ring, with
        # no wrap-around, fell back to dedicated segments after 8).
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-acked"
        receipts = []
        try:
            for i in range(50):
                record = transport.encode(np.full(64, i, dtype=np.int64),
                                          ring=ring_name)
                assert record[0] == SHMRING, (i, record[0])
                view = transport.decode(record, ack=receipts.append)
                assert np.array_equal(view, np.full(64, i))
                del view
                gc.collect()
                while receipts:
                    transport.ring_ack(receipts.pop())
        finally:
            transport.retire_rings([ring_name])

    def test_unacked_traffic_falls_back_to_segments(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-unacked"
        kinds = []
        try:
            for i in range(50):
                record = transport.encode(np.full(64, i, dtype=np.int64),
                                          ring=ring_name)
                kinds.append(record[0])
                transport.dispose(record)
        finally:
            transport.retire_rings([ring_name])
        assert kinds[0] == SHMRING
        assert SHMSEG in kinds  # ring exhausted without acks: graceful fallback

    def test_ack_fires_only_after_last_view_dies(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-lastview"
        receipts = []
        try:
            payload = {"a": np.arange(64, dtype=np.int64),
                       "b": np.arange(32, dtype=np.float64)}
            record = transport.encode(payload, ring=ring_name)
            assert record[0] == SHMRING
            out = transport.decode(record, ack=receipts.append)
            del out["a"]
            gc.collect()
            assert receipts == []  # "b" still alive: slot not released
            del out
            gc.collect()
            assert len(receipts) == 1
            transport.ring_ack(receipts[0])
        finally:
            transport.retire_rings([ring_name])

    def test_fabric_routes_acks_between_ranks(self):
        # Single-process fabric: rank 0 sends to rank 1, rank 1's views
        # die, and the ack record parked in rank 0's inbox is applied the
        # next time rank 0 reads its inbox.
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=transport)
        try:
            from repro.pro.backends.sharedmem import _SENDER_RINGS

            fabric.put(0, 1, "bulk", np.arange(512, dtype=np.int64))
            view = fabric.get(0, 1, "bulk", [])
            assert np.array_equal(view, np.arange(512))
            ring = _SENDER_RINGS[(os.getpid(), fabric._ring_names[0])]
            assert ring.tail == 0
            del view
            gc.collect()                    # ack lands in rank 0's inbox
            fabric.put(1, 0, "reply", "pong")
            assert fabric.get(1, 0, "reply", []) == "pong"
            assert ring.tail > 0            # ...and was applied on the read
        finally:
            fabric.shutdown()

    def test_self_messages_release_their_ring_slots(self):
        # A rank that only talks to itself (p=1) never reads an ack from
        # its inbox, so its self-message slots must be reclaimed locally:
        # 50 x 512-byte messages through a 4 KiB ring stay on the ring.
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        fabric = ProcessFabric(1, timeout=scale_timeout(5.0),
                               transport=transport)
        try:
            for i in range(50):
                fabric.put(0, 0, "self", np.full(64, i, dtype=np.int64))
                view = fabric.get(0, 0, "self", [])
                assert np.array_equal(view, np.full(64, i))
                del view
                gc.collect()
            assert transport.stats.oversize_fallbacks == 0
            with pytest.raises(queue.Empty):  # no ack records pile up
                fabric._inboxes[0].get(timeout=scale_timeout(0.2))
        finally:
            fabric.shutdown()

    def test_pickle_transport_ignores_ack_machinery(self):
        transport = PickleTransport()
        record = transport.encode(np.arange(10))
        assert np.array_equal(transport.decode(record, ack=lambda r: None),
                              np.arange(10))
        transport.ring_ack(("whatever", 0))  # must not raise


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestFixedRing:
    """The sender ring's capacity is the declared ``ring_bytes``, always."""

    def test_capacity_is_the_declared_ring_bytes(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=4096)
        ring_name = "testring-declared"
        try:
            from repro.pro.backends.sharedmem import _SENDER_RINGS

            record = transport.encode(np.arange(64, dtype=np.int64),
                                      ring=ring_name)
            assert record[0] == SHMRING
            ring = _SENDER_RINGS[(os.getpid(), ring_name)]
            assert ring.capacity == 4096
            transport.dispose(record)
        finally:
            transport.retire_rings([ring_name])

    def test_oversize_messages_fall_back_without_growing_the_ring(self):
        transport = SharedMemoryTransport(min_bytes=16, ring_bytes=1024)
        ring_name = "testring-oversize"
        payload = np.arange(512, dtype=np.int64)  # 4 KiB > 1 KiB ring
        try:
            from repro.pro.backends.sharedmem import _SENDER_RINGS

            for expected_fallbacks in (1, 2):
                record = transport.encode(payload, ring=ring_name)
                assert record[0] == SHMSEG        # a dedicated segment
                assert transport.stats.oversize_fallbacks == expected_fallbacks
                assert np.array_equal(transport.decode(record), payload)
            assert _SENDER_RINGS[(os.getpid(), ring_name)].capacity == 1024
        finally:
            transport.retire_rings([ring_name])

    @pytest.mark.parametrize("option",
                             ["ring_max_bytes", "ring_min_bytes", "adaptive_ring"])
    def test_adaptive_ring_options_are_gone(self, option):
        with pytest.raises(TypeError, match=option):
            SharedMemoryTransport(ring_bytes=4096, **{option: 1})


class TestMultiConsumerSegments:
    """encode_shared: one refcounted segment serves n independent receivers."""

    def _transport(self):
        return SharedMemoryTransport(min_bytes=16)

    def test_every_consumer_decodes_the_same_payload(self):
        transport = self._transport()
        payload = {"big": np.arange(512, dtype=np.int64), "tag": "x"}
        record = transport.encode_shared(payload, 3)
        from repro.pro.backends.transport import SHMMULTI

        assert record[0] == SHMMULTI
        for _ in range(3):
            out = transport.decode(record)
            assert np.array_equal(out["big"], payload["big"])
            assert out["tag"] == "x"
        transport.retire_shared()

    def test_unlinked_after_last_consumer_ack(self):
        transport = self._transport()
        before = shm_segments()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        name = record[1]
        assert name in shm_segments() - before
        receipts = []
        out1 = transport.decode(record, ack=receipts.append)
        assert len(receipts) == 1  # ack fires at attach time
        transport.ring_ack(receipts.pop())
        assert name in shm_segments()  # one consumer left: still linked
        out2 = transport.decode(record, ack=receipts.append)
        transport.ring_ack(receipts.pop())
        assert name not in shm_segments()  # last ack unlinked the name
        # mappings outlive the unlink: the views stay readable
        assert np.array_equal(out1, np.arange(512))
        assert np.array_equal(out2, np.arange(512))
        del out1, out2
        gc.collect()

    def test_dispose_releases_each_undelivered_copy(self):
        transport = self._transport()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        name = record[1]
        transport.dispose(record)
        assert name in shm_segments()   # one copy still undelivered
        transport.dispose(record)
        assert name not in shm_segments()

    def test_retire_shared_reaps_abandoned_segments(self):
        transport = self._transport()
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 4)
        name = record[1]
        assert name in shm_segments()
        transport.retire_shared()
        assert name not in shm_segments()
        transport.ring_ack((name, "multi"))  # late ack: ignored, no raise

    def test_small_payloads_stay_inband_and_reusable(self):
        transport = self._transport()
        record = transport.encode_shared((1, "two", np.arange(1)), 5)
        from repro.pro.backends.transport import SHMMULTI

        assert record[0] != SHMMULTI  # nothing bulk: plain in-band record
        for _ in range(5):
            assert transport.decode(record)[1] == "two"

    def test_pickle_transport_encode_shared_is_inband(self):
        transport = PickleTransport()
        record = transport.encode_shared(np.arange(100), 3)
        for _ in range(3):
            assert np.array_equal(transport.decode(record), np.arange(100))
        assert transport.stats.shared_encode_calls == 1

    def test_n_consumers_validated(self):
        with pytest.raises(ValidationError):
            self._transport().encode_shared(np.arange(10), 0)

