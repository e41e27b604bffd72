"""Property tests of the shared-memory transport's two byte-moving rules.

:mod:`repro.pro.backends.sharedmem` moves bulk bytes with no
acknowledgement travelling back, so every name it creates must be
unlinked exactly once by the side that owns it:

* a **fabric message** with bulk arrays is copied into one segment of its
  own, which its receiver unlinks on decode (or ``dispose`` on the
  shutdown path);
* **memory the parent allocated** crosses by reference, and a run's other
  bulk arguments are staged once in a by-reference segment of the parent
  that ``end_run`` unlinks.

Hypothesis drives random message sizes, in-flight windows and
decode/dispose orders and checks that payloads arrive bit-identical, that
the counters match the traffic, and that no name outlives its owner.
"""

import gc
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.pro.backends.sharedmem import (
    _ALIGN,
    SharedMemoryTransport,
    shared_memory_available,
)
from repro.pro.backends.transport import SHMSEG, SHMVIEW

pytestmark = pytest.mark.skipif(not shared_memory_available(),
                                reason="no shared memory")

#: Bytes at and above which an array leaves the queue record.
MIN_BYTES = 256


def _linked(names) -> set:
    """The subset of ``names`` still linked under /dev/shm."""
    return {name for name in names
            if os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))}


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _message(sizes, fill):
    """One message: a tuple of int32 arrays of the given item counts."""
    return tuple(np.arange(n, dtype=np.int32) + fill for n in sizes)


SIZES = st.lists(st.integers(min_value=0, max_value=400), min_size=1,
                 max_size=5)


class SegmentLifecycleMachine(RuleBasedStateMachine):
    """Random encode/decode/dispose traffic against one transport."""

    def __init__(self):
        super().__init__()
        self.transport = SharedMemoryTransport(min_bytes=MIN_BYTES)
        self.in_flight: list[tuple] = []  # (record, expected payload)
        self.delivered: list = []         # decoded payloads kept alive
        self.all_names: set = set()
        self.bulk_messages = 0
        self.fill = 0

    @rule(sizes=SIZES)
    def encode(self, sizes):
        self.fill += 1
        payload = _message(sizes, self.fill)
        record = self.transport.encode(payload)
        bulk = any(a.nbytes >= MIN_BYTES for a in payload)
        assert (record[0] == SHMSEG) == bulk
        if bulk:
            self.bulk_messages += 1
            self.all_names.add(record[1])
        self.in_flight.append((record, payload))

    @precondition(lambda self: self.in_flight)
    @rule(index=st.integers(min_value=0, max_value=100))
    def decode(self, index):
        record, payload = self.in_flight.pop(index % len(self.in_flight))
        out = self.transport.decode(record)
        for got, want in zip(out, payload):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        if record[0] == SHMSEG:
            assert not _linked([record[1]])  # the receiver unlinked it
        self.delivered.append((out, payload))

    @precondition(lambda self: self.in_flight)
    @rule(index=st.integers(min_value=0, max_value=100))
    def dispose(self, index):
        record, _ = self.in_flight.pop(index % len(self.in_flight))
        self.transport.dispose(record)
        if record[0] == SHMSEG:
            assert not _linked([record[1]])

    @precondition(lambda self: self.delivered)
    @rule()
    def drop_oldest_views(self):
        self.delivered.pop(0)
        gc.collect()

    @invariant()
    def only_undelivered_messages_hold_names(self):
        pending = {record[1] for record, _ in self.in_flight
                   if record[0] == SHMSEG}
        assert _linked(self.all_names) == pending

    @invariant()
    def one_segment_per_bulk_message(self):
        assert self.transport.stats.segments_created == self.bulk_messages

    @invariant()
    def delivered_views_stay_intact(self):
        # A later message must never land in an earlier one's memory.
        for out, payload in self.delivered:
            for got, want in zip(out, payload):
                assert np.array_equal(got, want)

    def teardown(self):
        for record, _ in self.in_flight:
            self.transport.dispose(record)
        assert not _linked(self.all_names)


SegmentLifecycleMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
)
TestSegmentLifecycle = SegmentLifecycleMachine.TestCase


@given(sizes=SIZES)
@settings(max_examples=60, deadline=None)
def test_segment_layout_is_aligned_and_disjoint(sizes):
    """Bulk arrays share one segment at 64-byte aligned, disjoint offsets."""
    transport = SharedMemoryTransport(min_bytes=MIN_BYTES)
    payload = _message(sizes, 0)
    record = transport.encode(payload)
    bulk = [a.nbytes for a in payload if a.nbytes >= MIN_BYTES]
    if not bulk:
        assert record[0] != SHMSEG
        assert transport.stats.bytes_encoded == 0
        return
    assert record[0] == SHMSEG
    offsets = record[2]
    assert len(offsets) == len(bulk)
    end = 0
    for offset, nbytes in zip(offsets, bulk):
        assert offset % _ALIGN == 0
        assert offset >= end  # no overlap with the previous slot
        end = offset + nbytes
    assert transport.stats.bytes_encoded == sum(_aligned(n) for n in bulk)
    transport.dispose(record)


@given(sizes=SIZES, attempts=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_staged_arguments_serve_every_attempt_until_end_run(sizes, attempts):
    """One staged copy decodes any number of times; end_run frees it."""
    transport = SharedMemoryTransport(min_bytes=MIN_BYTES)
    payload = _message(sizes, 5)
    record = transport.encode_shared(payload, 2)
    names = {ref[1] for ref in record[1] if ref[0] == SHMVIEW}
    bulk = any(a.nbytes >= MIN_BYTES for a in payload)
    assert len(names) == int(bulk)  # all bulk arguments in one staging copy
    assert transport.stats.segments_created == int(bulk)
    outs = []
    for _ in range(attempts):
        out = transport.decode(record)
        for got, want in zip(out, payload):
            assert np.array_equal(got, want)
        outs.append(out)
    assert _linked(names) == names
    transport.end_run()
    assert not _linked(names)
    for out in outs:  # mappings outlive the unlink
        for got, want in zip(out, payload):
            assert np.array_equal(got, want)


@given(cuts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                     max_size=4),
       private=SIZES)
@settings(max_examples=40, deadline=None)
def test_parent_memory_crosses_uncopied_beside_staged_copies(cuts, private):
    """Slices of ``empty`` memory are never copied; private arrays are."""
    transport = SharedMemoryTransport(min_bytes=MIN_BYTES)
    out = transport.empty(1000, np.int32)
    out[:] = np.arange(1000)
    bounds = sorted(set([0, 1000] + cuts))
    slices = [out[a:b] for a, b in zip(bounds, bounds[1:])]
    arrays = _message(private, 9)
    record = transport.encode_shared((slices, arrays), 1)
    copied = [a.nbytes for a in arrays if a.nbytes >= MIN_BYTES]
    assert transport.stats.bytes_encoded == sum(_aligned(n) for n in copied)
    got_slices, got_arrays = transport.decode(record)
    for got, want in zip(got_slices, slices):
        assert np.array_equal(got, want)
        if got.size:
            got[0] = -1  # a rank's write lands in the parent's array
            assert want[0] == -1
    for got, want in zip(got_arrays, arrays):
        assert np.array_equal(got, want)
    transport.end_run()
