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
import re
import sys
import threading

import numpy as np
import pytest

from repro.pro.backends import sharedmem as sharedmem_module
from repro.pro.backends.pool import clear_default_pools
from repro.pro.backends.process import ProcessBackend, ProcessFabric
from repro.pro.backends.sharedmem import (
    SharedMemoryTransport,
    shared_memory_available,
)
from repro.pro.backends.transport import (
    SHMSEG,
    SHMVIEW,
    PickleTransport,
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
    return resolve_transport(name)


def shm_segments(prefix="psm_"):
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def own_segments():
    """Names of the by-reference segments this process has linked.

    Every by-reference segment is named ``psm_<pid hex>_...`` after the
    process that created it, so this listing is unaffected by segments
    other processes on the host create or unlink meanwhile.
    """
    return shm_segments(f"psm_{os.getpid():x}_")


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


class TestResolveTransport:
    @pytest.mark.parametrize("name, cls", [("pickle", PickleTransport),
                                           ("sharedmem", SharedMemoryTransport)])
    def test_names_build_fresh_builtins(self, name, cls):
        first, second = resolve_transport(name), resolve_transport(name)
        assert type(first) is cls and first.name == name
        assert first is not second  # one instance per resolution

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValidationError, match="unknown transport"):
            resolve_transport("carrier-pigeon")

    def test_resolve_none_gives_pickle(self):
        assert isinstance(resolve_transport(None), PickleTransport)

    def test_resolve_instance_passthrough(self):
        transport = SharedMemoryTransport()
        assert resolve_transport(transport) is transport

    def test_resolve_rejects_non_transport(self):
        with pytest.raises(ValidationError, match="PayloadTransport"):
            resolve_transport(object())

    def test_resolve_rejects_duck_typed_transport(self):
        class DuckTransport:
            name = "duck"

            def encode(self, payload, *, by_reference=False):
                return payload

            def decode(self, record):
                return record

        with pytest.raises(ValidationError, match="PayloadTransport"):
            resolve_transport(DuckTransport())
        with pytest.raises(ValidationError, match="PayloadTransport"):
            ProcessBackend(transport=DuckTransport())

    def test_min_bytes_validated(self):
        with pytest.raises(ValidationError):
            SharedMemoryTransport(min_bytes=0)

    @pytest.mark.parametrize("option", ["ring_bytes", "ring_max_bytes",
                                        "ring_min_bytes", "adaptive_ring"])
    def test_ring_options_are_gone(self, option):
        with pytest.raises(TypeError, match=option):
            SharedMemoryTransport(**{option: 1})

    @pytest.mark.parametrize("transport_name", TRANSPORTS)
    def test_contract_carries_no_acknowledgements(self, transport_name):
        transport = make_transport(transport_name)
        payload = np.arange(100, dtype=np.int64)
        with pytest.raises(TypeError, match="ring"):
            transport.encode(payload, ring=0)
        with pytest.raises(TypeError, match="ring"):
            transport.encode_shared(payload, 1, ring=0)
        record = transport.encode(payload)
        with pytest.raises(TypeError, match="ack"):
            transport.decode(record, ack=None)
        transport.dispose(record)  # never decoded: its segment must go
        assert not hasattr(transport, "ring_ack")
        assert not hasattr(transport, "retire_shared")


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
        # The bulk payload went in-band: the one fallback left to count.
        assert transport.stats.oversize_fallbacks == 1


def mapped_segments():
    """Names of the shared-memory segments this process has mapped."""
    with open("/proc/self/maps") as maps:
        return {line.split("/dev/shm/")[1].split()[0]
                for line in maps if "/dev/shm/psm_" in line}


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestPerMessageSegments:
    """A bulk fabric message travels in a segment of its own, with no ack."""

    @pytest.mark.parametrize("delta", [-8, 0, 8], ids=["below", "at", "above"])
    def test_min_bytes_threshold_is_inclusive(self, delta):
        transport = SharedMemoryTransport(min_bytes=4096)
        payload = np.zeros((4096 + delta) // 8, dtype=np.int64)
        record = transport.encode(payload)
        assert (record[0] == SHMSEG) == (delta >= 0)
        assert transport.stats.segments_created == int(delta >= 0)
        assert np.array_equal(transport.decode(record), payload)

    def test_each_message_gets_a_segment_of_its_own(self):
        transport = SharedMemoryTransport(min_bytes=16)
        records = [transport.encode(np.full(1000, i, dtype=np.int64))
                   for i in range(3)]
        names = {record[1] for record in records}
        assert len(names) == 3
        assert {name.lstrip("/") for name in names} <= shm_segments()
        assert transport.stats.segments_created == 3
        # Receivers may take them in any order; each unlinks its own.
        for i in (2, 0, 1):
            assert np.array_equal(transport.decode(records[i]),
                                  np.full(1000, i))
        assert not {name.lstrip("/") for name in names} & shm_segments()

    def test_one_segment_holds_every_bulk_array_of_a_message(self):
        transport = SharedMemoryTransport(min_bytes=16)
        payload = {"a": np.arange(10, dtype=np.int8),  # 10 bytes: inline
                   "b": np.arange(100, dtype=np.int16),
                   "c": np.arange(30, dtype=np.float64)}
        record = transport.encode(payload)
        assert record[0] == SHMSEG
        assert record[2] == (0, 256)  # 200 bytes of "b", padded to 64
        assert transport.stats.bytes_encoded == 256 + 256
        out = transport.decode(record)
        for key in payload:
            assert np.array_equal(out[key], payload[key])

    def test_decoding_a_disposed_record_fails_loudly(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000, dtype=np.int64))
        transport.dispose(record)
        with pytest.raises(CommunicationError, match="vanished"):
            transport.decode(record)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc/self/maps")
    def test_mapping_closes_after_the_last_view_dies(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode((np.arange(1000), np.ones(500)))
        name = record[1].lstrip("/")
        first, second = transport.decode(record)
        assert name in mapped_segments()
        del first
        gc.collect()
        assert name in mapped_segments()  # the other view still needs it
        assert np.array_equal(second, np.ones(500))
        del second
        gc.collect()
        assert name not in mapped_segments()

    def test_end_run_leaves_messages_to_their_receivers(self):
        transport = SharedMemoryTransport(min_bytes=16)
        record = transport.encode(np.arange(1000, dtype=np.int64))
        transport.end_run()  # only by-reference names are the run's
        assert np.array_equal(transport.decode(record), np.arange(1000))
        transport.end_run()  # idempotent


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

    def test_received_bulk_message_leaves_no_segment(self):
        if not shared_memory_available():
            pytest.skip("no shared memory")
        before = shm_segments()
        transport = SharedMemoryTransport(min_bytes=16)
        fabric = ProcessFabric(2, timeout=scale_timeout(5.0),
                               transport=transport)
        try:
            for i in range(4):
                fabric.put(0, 1, i, np.full(2000, i, dtype=np.int64))
            for i in range(4):
                assert np.array_equal(fabric.get(0, 1, i, []),
                                      np.full(2000, i))
            assert transport.stats.segments_created == 4
            assert shm_segments() == before
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
            fabric.abort()
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
class TestMultiConsumerSegments:
    """encode_shared: one staged by-reference copy serves n independent receivers."""

    def _transport(self):
        return SharedMemoryTransport(min_bytes=16)

    def test_every_consumer_decodes_the_same_payload(self):
        transport = self._transport()
        payload = {"big": np.arange(512, dtype=np.int64), "tag": "x"}
        record = transport.encode_shared(payload, 3)
        assert record[1]["big"][0] == SHMVIEW  # a reference to the staged copy
        for _ in range(3):
            out = transport.decode(record)
            assert np.array_equal(out["big"], payload["big"])
            assert out["tag"] == "x"
        transport.end_run()

    def test_staged_copy_stays_linked_until_end_run(self):
        transport = self._transport()
        before = shm_segments()
        payload = np.arange(512, dtype=np.int64)
        record = transport.encode_shared(payload, 2)
        staged = shm_segments() - before
        assert len(staged) == 1
        assert transport.stats.segments_created == 1
        assert transport.stats.bytes_encoded == payload.nbytes
        transport.dispose(record)  # undelivered copies hold no name
        out1 = transport.decode(record)
        out2 = transport.decode(record)  # e.g. the next attempt of a retry
        assert staged <= shm_segments()
        transport.end_run()
        assert not staged & shm_segments()
        # mappings outlive the unlink: the views stay readable
        assert np.array_equal(out1, payload)
        assert np.array_equal(out2, payload)
        del out1, out2
        gc.collect()

    def test_small_payloads_stay_inband_and_reusable(self):
        transport = self._transport()
        record = transport.encode_shared((1, "two", np.arange(1)), 5)
        assert transport.stats.segments_created == 0  # nothing bulk: in-band
        for _ in range(5):
            assert transport.decode(record)[1] == "two"

    def test_staging_failure_degrades_to_inband(self, monkeypatch):
        transport = self._transport()

        def boom(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(sharedmem_module._shm_module, "SharedMemory", boom)
        monkeypatch.setattr(sharedmem_module, "_PROBE", (os.getpid(), True))
        record = transport.encode_shared(np.arange(512, dtype=np.int64), 2)
        assert np.array_equal(PickleTransport().decode(record), np.arange(512))
        assert transport.stats.oversize_fallbacks == 1
        assert transport.stats.segments_created == 0

    def test_pickle_transport_encode_shared_is_inband(self):
        transport = PickleTransport()
        record = transport.encode_shared(np.arange(100), 3)
        for _ in range(3):
            assert np.array_equal(transport.decode(record), np.arange(100))
        assert transport.stats.shared_encode_calls == 1

    def test_n_consumers_validated(self):
        with pytest.raises(ValidationError):
            self._transport().encode_shared(np.arange(10), 0)


class TestByReferenceArrays:
    """Arrays inside an ``empty`` segment cross uncopied in dispatch and results."""

    def test_dispatch_references_instead_of_copying(self):
        transport = SharedMemoryTransport(min_bytes=16)
        out = transport.empty((1000,), np.int64)
        out[:] = np.arange(1000)
        record = transport.encode_shared((out[100:300], out[300:]), 2)
        assert [ref[0] for ref in record[1]] == [SHMVIEW, SHMVIEW]
        assert transport.stats.bytes_encoded == 0
        assert transport.stats.segments_created == 0
        head, tail = transport.decode(record)
        assert np.array_equal(head, np.arange(100, 300))
        head[0] = -1  # the decoded view is the owner's memory
        assert out[100] == -1
        transport.end_run()

    def test_messages_keep_copy_semantics(self):
        transport = SharedMemoryTransport(min_bytes=16)
        out = transport.empty(512, np.int64)
        out[:] = 7
        record = transport.encode(out[:256])
        received = transport.decode(record)
        received[0] = 0
        assert out[0] == 7
        assert transport.stats.bytes_encoded > 0
        transport.end_run()

    def test_end_run_keeps_the_name_while_the_array_lives(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = own_segments()
        out = transport.empty((4, 8), np.float64)
        created = own_segments() - before
        assert len(created) == 1
        record = transport.encode_shared({"out": out}, 1)
        transport.decode(record)
        transport.end_run()
        assert own_segments() - before == created  # linked while it lives
        out[:] = 1.5
        assert out.sum() == 48.0
        # A later dispatch of the same array still crosses by reference.
        record = transport.encode_shared(out, 1)
        assert record[0] == SHMVIEW
        assert transport.stats.bytes_encoded == 0
        transport.end_run()
        del out, record
        gc.collect()
        clear_default_pools()
        assert not own_segments() - before
        assert not sharedmem_module._BYREF

    def test_dropped_array_unlinks_and_unmaps(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = own_segments()
        out = transport.empty(100, np.int32)
        view = out[10:20]
        del out
        gc.collect()
        assert own_segments() - before  # a view keeps it alive
        del view
        gc.collect()
        assert not own_segments() - before
        assert not sharedmem_module._BYREF

    def test_declines_object_dtype_and_in_band_transports(self):
        assert SharedMemoryTransport().empty(4, object) is None
        assert PickleTransport().empty(4, np.int64) is None
        assert ProcessBackend(transport="pickle").empty(4, np.int64) is None

    def test_names_never_repeat(self):
        transport = SharedMemoryTransport(min_bytes=16)
        pattern = re.compile(f"psm_{os.getpid():x}_[0-9a-f]+")
        names = []
        for size in range(1, 13):  # every size new: nothing is recycled
            out = transport.empty(size, np.int64)
            names.append(segment_name(out))
            _returned_run(transport, out)
            del out
            gc.collect()
        clear_default_pools()
        assert len(set(names)) == len(names)
        assert all(pattern.fullmatch(name) for name in names), names


class _CollectsMidScan(dict):
    """A by-reference registry whose item and value scans let the collector
    run after the first item, as an allocation inside the scan can."""

    def items(self):
        return self._collect_after_first(dict.items(self))

    def values(self):
        return self._collect_after_first(dict.values(self))

    @staticmethod
    def _collect_after_first(view):
        for index, item in enumerate(view):
            yield item
            if index == 0:
                gc.collect()


class TestByReferenceRegistryScans:
    """A mapping's finalizer may run while the registry is being scanned."""

    @pytest.fixture
    def registry(self, monkeypatch):
        """Two registered mappings; only a garbage cycle keeps the second.

        The collector's next run fires the second mapping's finalizer,
        which deletes its entry from the registry.
        """
        transport = SharedMemoryTransport(min_bytes=16)
        gc.collect()
        gc.disable()  # only the scan's own collection may free the cycle
        try:
            kept = transport.empty(64, np.int64)
            dying = transport.empty(64, np.int64)
            names = {segment_name(kept), segment_name(dying)}
            cycle = [dying]
            cycle.append(cycle)
            del dying, cycle
            real = sharedmem_module._BYREF
            patched = _CollectsMidScan(
                {name: entry for name, entry in real.items() if name in names})
            monkeypatch.setattr(sharedmem_module, "_BYREF", patched)
            yield kept, patched
        finally:
            gc.enable()
            monkeypatch.undo()
            for name in names - set(patched):  # the finalizer ran on the copy
                sharedmem_module._BYREF.pop(name, None)
            del kept
            gc.collect()

    def test_lookup_survives_a_finalizer_mid_scan(self, registry):
        kept, patched = registry
        name, entry = sharedmem_module._byref_mapping(kept)
        assert patched[name] is entry
        gc.collect()
        assert list(patched) == [name]  # the dying mapping is gone

    def test_exit_hook_survives_a_finalizer_mid_scan(self, registry):
        kept, patched = registry
        sharedmem_module._at_exit()
        assert not any(entry.linked for entry in dict.values(patched))


def segment_name(array):
    """Name of the by-reference segment ``array`` lies in."""
    return sharedmem_module._byref_mapping(array)[0]


def _returned_run(transport, array):
    """Dispatch ``array`` by reference, receive it, and return the run."""
    transport.decode(transport.encode_shared(array, 1))
    transport.end_run()


def _parked_names():
    return [entry.seg.name for entry in sharedmem_module._PARKED]


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestParkedSegments:
    """An output segment whose run returned is recycled by the next ``empty``."""

    @pytest.fixture(autouse=True)
    def _drained(self):
        clear_default_pools()
        yield
        clear_default_pools()

    def test_same_size_takes_the_parked_segment(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = own_segments()
        out = transport.empty(1000, np.int64)
        name, address = segment_name(out), out.__array_interface__["data"][0]
        _returned_run(transport, out)
        del out
        gc.collect()
        assert _parked_names() == [name]
        assert own_segments() - before == {name}  # parked: still linked
        again = transport.empty((10, 100), np.int64)  # same byte size
        assert segment_name(again) == name
        assert again.__array_interface__["data"][0] == address
        assert not _parked_names()
        other = transport.empty(1000, np.int64)  # nothing parked: a new one
        assert segment_name(other) != name
        del other
        gc.collect()  # never dispatched: unlinked, not parked
        assert own_segments() - before == {name}
        _returned_run(transport, again)
        del again
        gc.collect()
        smaller = transport.empty(999, np.int64)  # another size: a new one
        assert segment_name(smaller) != name
        assert _parked_names() == [name]
        del smaller
        clear_default_pools()
        assert not own_segments() - before
        assert not sharedmem_module._BYREF

    def test_parking_unlinks_the_segment_parked_before(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = own_segments()
        first, second = (transport.empty(size, np.int64) for size in (64, 128))
        names = [segment_name(first), segment_name(second)]
        _returned_run(transport, (first, second))
        del first
        gc.collect()
        del second
        gc.collect()
        assert _parked_names() == names[1:]
        assert own_segments() - before == {names[1]}
        clear_default_pools()
        assert not own_segments() - before

    @pytest.mark.parametrize("retried", [False, True], ids=["shutdown", "retry"])
    def test_run_that_never_returned_is_not_parked(self, retried):
        transport = SharedMemoryTransport(min_bytes=16)
        before = own_segments()
        out = transport.empty(512, np.int64)
        transport.encode_shared(out, 2)  # the attempt fails: nothing decoded
        if retried:  # a retry re-dispatches the same vector and returns
            _returned_run(transport, out)
        else:  # the fabric shuts down after the failure
            transport.end_run()
        del out
        gc.collect()
        assert not _parked_names()
        assert not own_segments() - before

    def test_staging_segments_are_never_parked(self):
        transport = SharedMemoryTransport(min_bytes=16)
        before = own_segments()
        _returned_run(transport, np.arange(512))  # private: staged
        assert transport.stats.segments_created == 1
        assert not _parked_names()
        assert not own_segments() - before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_never_takes_the_parents_segment(self):
        transport = SharedMemoryTransport(min_bytes=16)
        out = transport.empty(512, np.int64)
        name = segment_name(out)
        _returned_run(transport, out)
        del out
        gc.collect()
        assert _parked_names() == [name]
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                child = transport.empty(512, np.int64)
                taken = segment_name(child) == name
                del child
                clear_default_pools()  # drops the parent's slot, no unlink
                code = 2 if taken else 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _parked_names() == [name]
        assert name in shm_segments()  # the child did not unlink it
        assert segment_name(transport.empty(512, np.int64)) == name

    def test_concurrent_callers_never_share_a_segment(self):
        # More threads than cores, a short switch interval: a segment
        # handed to two callers would show up as a clobbered fill.
        errors = []

        def caller(tag):
            transport = SharedMemoryTransport(min_bytes=16)
            try:
                for _ in range(60):
                    out = transport.empty(256, np.int64)
                    out[:] = tag
                    _returned_run(transport, out)
                    if not (out == tag).all():
                        errors.append(tag)
                    del out
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(tag,))
                       for tag in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=scale_timeout(60))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors


def _sharing(ctx, arrays):
    return [ctx.comm.is_shared(a) for a in arrays]


@pytest.mark.subprocess
class TestSharingPredicate:
    """A rank shares only memory in a by-reference segment of its parent."""

    @pytest.mark.parametrize("persistent", [False, True], ids=["cold", "warm"])
    def test_only_the_parents_segments_are_shared(self, persistent):
        backend = ProcessBackend(transport="sharedmem", persistent=persistent)
        out = backend.empty(2048, np.int64)
        private = np.zeros(2048, dtype=np.int64)  # forked or copied: private
        machine = PROMachine(2, seed=0, backend=backend)
        try:
            results = machine.run(_sharing, [out[:1024], out[1024:], private,
                                             out[:0]]).results
        finally:
            machine.close()
        assert results == [[True, True, False, True]] * 2

    def test_in_band_transport_shares_nothing(self):
        # A cold fork inherits the segment's mapping, but the pickle
        # fabric gives no sharing guarantee, so it answers no.
        out = ProcessBackend(transport="sharedmem").empty(2048, np.int64)
        machine = PROMachine(2, seed=0, backend="process",
                             backend_options={"transport": "pickle"})
        try:
            results = machine.run(_sharing, [out[:1024], out[1024:]]).results
        finally:
            machine.close()
        assert results == [[False, False]] * 2
