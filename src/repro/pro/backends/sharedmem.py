"""Zero-copy shared-memory payload transport for the process backend.

The queue fabric of :class:`~repro.pro.backends.process.ProcessFabric`
keeps carrying small control records, but with this transport the *bytes*
of every bulk NumPy payload travel through a
``multiprocessing.shared_memory`` segment instead of the queue pipe:

* **Sender** (``encode``): all arrays of one payload that are at least
  ``min_bytes`` big are packed into a single fresh segment (one copy, at
  64-byte aligned offsets); the queue record only names the segment and the
  per-array ``(offset, dtype, shape)`` slots.  Small arrays and non-array
  values stay inline in the record via the pickle codec.
* **Receiver** (``decode``): attaches the segment, immediately *unlinks*
  its name (POSIX keeps the memory alive while mapped) and returns
  **zero-copy writable views** into the mapping.  The mapping is closed
  automatically once every returned view has been garbage collected
  (a :class:`weakref.finalize` per view), so receivers can hold results
  for as long as they like without leaking.

* **Multi-consumer dispatch** (``encode_shared``): the worker pool's bulk
  run arguments are written into **one refcounted segment per run** (not
  one copy per rank); every rank attaches it, acknowledges the attach
  through the pool's result channel, and the encoder unlinks the name
  after the last acknowledgement -- mappings (and hence the zero-copy
  views) stay valid until each receiver's views die.
* **By-reference arrays** (``empty``): the parent allocates an array in a
  segment of its own; arrays inside it cross in dispatched arguments and
  in returned results as ``(segment, offset, dtype, shape)`` references,
  with no copy at all.  Ranks write into the parent's memory and the
  parent gets its own array's slices back.

Lifecycle discipline
--------------------
CPython's ``resource_tracker`` pairs a *register* on segment creation with
an *unregister* inside :meth:`SharedMemory.unlink`; all fabric processes
share one tracker (the file descriptor is inherited by both ``fork`` and
``spawn`` children), so the invariant the transport maintains is simply
**exactly one unlink per segment**: the receiver unlinks on decode (the
*encoder* does, after the last consumer's ack, for multi-consumer
segments), and records that are never decoded are unlinked by ``dispose``
when the fabric drains its queues on shutdown/abort/timeout paths
(``retire_shared`` covers multi-consumer segments abandoned mid-run).  A
by-reference segment is unlinked by its creator only: by ``end_run`` once
the run that used it has returned, or when its array dies.  A segment
abandoned by a hard-crashed run is the one case left to the tracker's
exit-time cleanup (which is exactly what the tracker is for).

When shared memory is unavailable (no ``/dev/shm``, permissions, exotic
platforms) the transport degrades transparently to the pickle codec; the
probe runs once per process and is re-run after a ``fork``.
"""

from __future__ import annotations

import math
import os
import weakref

import numpy as np

from repro.pro.backends.transport import (
    SHMMULTI,
    SHMREF,
    SHMRING,
    SHMSEG,
    SHMVIEW,
    PayloadTransport,
    TransportStats,
    register_transport,
    walk_decode,
    walk_encode,
)
from repro.util.errors import CommunicationError, ValidationError

try:  # pragma: no cover - the stdlib module exists on all supported platforms
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover
    _shm_module = None

__all__ = ["SharedMemoryTransport", "shared_memory_available"]

#: Byte alignment of array slots inside a segment (cache-line sized).
_ALIGN = 64

# Per-process availability probe result, keyed by pid so that forked
# children re-probe instead of trusting the parent's cached answer.
_PROBE: tuple[int | None, bool] = (None, False)


def ensure_resource_tracker() -> None:
    """Start the resource tracker in *this* process (the fabric's parent).

    Must run before the rank processes fork so that every process of a run
    inherits one shared tracker: segment creation registers in the sending
    rank, the matching unregister happens inside ``unlink`` in the
    *receiving* rank, and the pair only balances when both land in the
    same tracker cache.  Without this, each rank lazily spawns its own
    tracker and every tracker warns about "leaked" segments at exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platforms without the tracker
        pass


def shared_memory_available() -> bool:
    """True when shared-memory segments can be created in this process."""
    global _PROBE
    pid = os.getpid()
    if _PROBE[0] != pid:
        ok = False
        if _shm_module is not None:
            try:
                seg = _shm_module.SharedMemory(create=True, size=1)
                seg.close()
                seg.unlink()
                ok = True
            except Exception:
                ok = False
        _PROBE = (pid, ok)
    return _PROBE[1]


class _SegmentLease:
    """Keep one attached segment mapped until all views into it are dead."""

    __slots__ = ("_seg", "_outstanding")

    def __init__(self, seg, n_views: int):
        self._seg = seg
        self._outstanding = int(n_views)

    def watch(self, view: np.ndarray) -> None:
        weakref.finalize(view, self._release)

    def _release(self) -> None:
        self._outstanding -= 1
        if self._outstanding <= 0 and self._seg is not None:
            seg, self._seg = self._seg, None
            try:
                seg.close()
            except Exception:  # pragma: no cover - interpreter shutdown races
                pass


# ----------------------------------------------------------------------------
# By-reference segments: memory both sides map, so arrays cross uncopied
# ----------------------------------------------------------------------------
class _ByRefSegment:
    """One mapped segment whose arrays cross the transport by reference.

    ``raw`` is a weak reference to the flat ``uint8`` array over the
    mapping; every array handed out is a view of it, so it -- and with it
    the mapping -- lives exactly as long as the last such view.  Only the
    creating process (``creator``) unlinks the name, once; ``linked``
    records whether it has not done so yet.
    """

    __slots__ = ("seg", "raw", "address", "nbytes", "creator", "linked")

    def __init__(self, seg, raw: np.ndarray, creator: int):
        self.seg = seg
        self.raw = weakref.ref(raw)
        self.address = raw.__array_interface__["data"][0]
        self.nbytes = raw.nbytes
        self.creator = creator
        self.linked = True

    def unlink(self) -> None:
        """Remove the name (the creator's job; mappings stay valid)."""
        if self.linked and self.creator == os.getpid():
            self.linked = False
            try:
                self.seg.unlink()
            except FileNotFoundError:  # pragma: no cover - unlinked elsewhere
                pass


#: segment name -> _ByRefSegment mapped in this process.  A forked child
#: inherits the parent's entries together with the mappings they describe.
_BYREF: dict = {}


def _release_byref(name: str, entry: _ByRefSegment) -> None:
    """Finalizer of a by-reference mapping: its last view has died."""
    if _BYREF.get(name) is entry:
        del _BYREF[name]
    entry.unlink()
    try:
        entry.seg.close()
    except Exception:  # pragma: no cover - interpreter shutdown races
        pass


def _map_byref(seg, creator: int) -> np.ndarray:
    """Register ``seg`` for by-reference encoding; return its flat array."""
    raw = np.ndarray((seg.size,), dtype=np.uint8, buffer=seg.buf)
    entry = _ByRefSegment(seg, raw, creator)
    _BYREF[seg.name] = entry
    weakref.finalize(raw, _release_byref, seg.name, entry)
    return raw


def _byref_mapping(arr: np.ndarray):
    """``(name, entry)`` of the registered mapping holding all of ``arr``, or None.

    Only contiguous arrays qualify: their bytes are ``[start, start +
    nbytes)``.
    """
    if not arr.flags.c_contiguous or not _BYREF:
        return None
    start = arr.__array_interface__["data"][0]
    for name, entry in list(_BYREF.items()):
        if entry.address <= start <= entry.address + entry.nbytes - arr.nbytes:
            return name, entry
    return None


def _byref_record(arr: np.ndarray, *, dispatch: bool):
    """A by-reference record of ``arr``, or ``None`` when it must be copied.

    ``arr`` must be contiguous and lie inside one registered mapping that
    the receiver can map: for a ``dispatch`` to ranks, a segment this
    process created whose name is still linked (the ranks attach it);
    for a rank's result, a segment the parent process created (it maps it
    already).
    """
    found = None if arr.nbytes == 0 else _byref_mapping(arr)
    if found is None:
        return None
    name, entry = found
    if dispatch:
        crosses = entry.creator == os.getpid() and entry.linked
    else:
        crosses = entry.creator == os.getppid()
    if not crosses:
        return None
    start = arr.__array_interface__["data"][0]
    return (SHMVIEW, name, entry.creator, start - entry.address,
            arr.dtype, arr.shape)


def _resolver(slot_view=None):
    """A ``walk_decode`` hook for one decoded record.

    SHMVIEW references resolve to views of this process's mapping of the
    named segment, attached at most once per record; SHMREF slots go to
    ``slot_view`` (the record's own segment).
    """
    raws: dict = {}

    def resolve(ref):
        if ref[0] != SHMVIEW:
            if slot_view is None:
                raise ValidationError(
                    "shared-memory reference record outside a shared-memory segment"
                )
            return slot_view(ref)
        _, name, creator, offset, dtype, shape = ref
        raw = raws.get(name)
        if raw is None:
            entry = _BYREF.get(name)
            raw = entry.raw() if entry is not None else None
            if raw is None:
                try:
                    seg = _shm_module.SharedMemory(name=name)
                except FileNotFoundError:
                    raise CommunicationError(
                        f"by-reference segment {name!r} vanished before the "
                        "record naming it was received"
                    ) from None
                raw = _map_byref(seg, creator)
            raws[name] = raw
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        return raw[offset:offset + nbytes].view(dtype).reshape(shape)

    return resolve


# ----------------------------------------------------------------------------
# Ring segments: one reusable circular buffer per sender, acked by receivers
# ----------------------------------------------------------------------------
# Creating, mapping and unlinking a fresh segment costs a handful of
# syscalls plus the kernel zeroing every page -- fine for megabyte
# payloads, but it cancels the zero-copy win for the ~100 KB pieces of a
# realistic irregular all-to-all.  A *ring segment* amortises all of that:
# the fabric names one buffer per sender rank, the sender creates it on
# first use and bump-allocates message slots from it, and every receiver
# attaches it once and caches the mapping, so the marginal cost of a
# message drops to a single memcpy plus a tiny queue record.
#
# The ring *wraps around*: receivers acknowledge a slot once every
# zero-copy view into it has been garbage collected (the ack receipt
# travels back to the sender on the fabric's control channel), and the
# allocator reclaims acked space, so long and repeated runs keep cycling
# through the same buffer instead of degrading to dedicated per-message
# segments.  The allocator works in *virtual* byte offsets that increase
# monotonically; ``head`` is the next write position, ``tail`` the oldest
# unacknowledged byte, and a slot is live while ``head - tail`` stays
# within the capacity.  Slots are physically contiguous: an allocation
# that would straddle the physical end of the buffer skips ahead to the
# next wrap boundary and the padding is reclaimed together with the slot.
# A message that cannot be placed (outstanding slots still cover the ring)
# falls back to a dedicated per-message segment, and the fabric retires
# the rings at shutdown (parent side), after which mappings live on only
# as long as undead views need them.

#: (pid, name) -> _SenderRing, private to the creating process.
_SENDER_RINGS: dict = {}
#: (pid, name) -> _RingAttachment, private to the attaching process.
_ATTACHED_RINGS: dict = {}
#: Second element of a multi-consumer attach receipt (distinguishes it
#: from a ring receipt, whose second element is an integer slot end).
_MULTI_TOKEN = "multi"


def _unlink_by_name(name: str) -> None:
    """Unlink the segment called ``name`` if it still exists (best effort)."""
    if _shm_module is None:  # pragma: no cover
        return
    try:
        seg = _shm_module.SharedMemory(name=name)
    except FileNotFoundError:
        return
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - double delivery race
        pass
    seg.close()


class _SenderRing:
    """The sender side of one ring segment: a circular slot allocator.

    The allocator cycles through the whole segment, whose size the
    transport declares (``ring_bytes``) and never changes.
    """

    __slots__ = ("shm", "capacity", "head", "tail", "_slots",
                 "reclaimed_bytes", "wraps")

    def __init__(self, shm):
        self.shm = shm
        # Physical offsets repeat modulo the capacity; keep it slot-aligned
        # so wrapped slots stay aligned too.
        if shm.size >= _ALIGN:
            self.capacity = shm.size - shm.size % _ALIGN
        else:
            self.capacity = shm.size
        self.head = 0  # virtual offset of the next write
        self.tail = 0  # virtual offset of the oldest unacked byte
        # Outstanding slots in allocation order: [virtual_end, acked].
        self._slots: list = []
        self.reclaimed_bytes = 0  # observability / tests
        self.wraps = 0

    def allocate(self, nbytes: int) -> tuple[int, int] | None:
        """Reserve ``nbytes`` contiguously; return (physical_start, receipt).

        The receipt is the slot's virtual end offset -- what the receiver
        echoes back through :meth:`ack` when its views are gone.  Returns
        ``None`` when the unacknowledged slots leave no room.
        """
        aligned = (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        if aligned > self.capacity:
            return None
        start = self.head
        position = start % self.capacity
        wrapped = position + aligned > self.capacity
        if wrapped:
            # The slot would straddle the physical end: skip to the wrap
            # boundary.  On an empty ring the skipped bytes are free to
            # reclaim immediately; otherwise the padding belongs to this
            # slot and is reclaimed with it.
            padded = start + (self.capacity - position)
            if self.tail == start:
                self.tail = padded
            start = padded
            position = 0
        end = start + aligned
        if end - self.tail > self.capacity:
            return None
        if wrapped:
            self.wraps += 1
        self.head = end
        self._slots.append([end, False])
        return position, end

    def ack(self, receipt: int) -> None:
        """Mark the slot ending at virtual offset ``receipt`` as consumed."""
        for slot in self._slots:
            if slot[0] == receipt:
                slot[1] = True
                break
        else:
            return  # unknown / duplicate receipt: ignore
        # Reclaim the contiguous acked prefix (slots free strictly in
        # allocation order, like a ring buffer's tail).
        while self._slots and self._slots[0][1]:
            end = self._slots.pop(0)[0]
            self.reclaimed_bytes += end - self.tail
            self.tail = end


class _RingAttachment:
    """The receiver side: one cached mapping plus live-view accounting."""

    __slots__ = ("shm", "_outstanding", "_retired")

    def __init__(self, shm):
        self.shm = shm
        self._outstanding = 0
        self._retired = False

    def watch(self, view: np.ndarray) -> None:
        self._outstanding += 1
        weakref.finalize(view, self._release)

    def retire(self) -> None:
        self._retired = True
        self._maybe_close()

    def _release(self) -> None:
        self._outstanding -= 1
        self._maybe_close()

    def _maybe_close(self) -> None:
        if self._retired and self._outstanding <= 0 and self.shm is not None:
            shm, self.shm = self.shm, None
            try:
                shm.close()
            except Exception:  # pragma: no cover - interpreter shutdown races
                pass


def _sender_ring(name: str, ring_bytes: int) -> "_SenderRing | None":
    """This process's sender ring called ``name``, created on first use."""
    key = (os.getpid(), name)
    ring = _SENDER_RINGS.get(key)
    if ring is None:
        try:
            shm = _shm_module.SharedMemory(name=name, create=True, size=ring_bytes)
        except Exception:
            return None
        ring = _SenderRing(shm)
        _SENDER_RINGS[key] = ring
    return ring


def _slot_release(ack, name: str, receipt: int, n_views: int):
    """Build the finalizer that acks one ring slot once its views are dead.

    Every zero-copy view of the slot's message registers the returned
    callable with ``weakref.finalize``; the last view to be garbage
    collected fires ``ack((name, receipt))``, which the fabric routes back
    to the sending process.  The callable must not reference the views
    themselves (that would keep them alive forever).
    """
    remaining = [int(n_views)]

    def release() -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            try:
                ack((name, receipt))
            except Exception:  # pragma: no cover - interpreter shutdown races
                pass

    return release


def _attached_ring(name: str) -> "_RingAttachment | None":
    """This process's cached attachment of the ring called ``name``."""
    key = (os.getpid(), name)
    attachment = _ATTACHED_RINGS.get(key)
    if attachment is None:
        sender = _SENDER_RINGS.get(key)
        try:
            if sender is not None and sender.shm is not None:
                # Self-delivery: reuse the sender mapping instead of a
                # second attach of our own segment.
                attachment = _RingAttachment(sender.shm)
            else:
                attachment = _RingAttachment(_shm_module.SharedMemory(name=name))
        except FileNotFoundError:
            return None
        _ATTACHED_RINGS[key] = attachment
    return attachment


class SharedMemoryTransport(PayloadTransport):
    """Ship bulk array payloads through shared-memory segments.

    Parameters
    ----------
    min_bytes:
        Arrays smaller than this stay inline in the queue record (the
        per-segment syscalls only pay off for bulk payloads).  The default
        of 8 KiB keeps control traffic on the fast path while every block
        of a realistically sized permutation goes zero-copy.
    ring_bytes:
        Size of one per-sender ring segment (default 32 MiB), declared
        once and fixed for the ring's lifetime.  The ring wraps around:
        receiver acknowledgements (flowing back on the fabric's control
        channel once the zero-copy views of a slot are garbage collected)
        let the allocator reclaim consumed slots, so sustained traffic
        cycles through the buffer indefinitely.  A message that cannot be
        placed -- bigger than the ring, or outstanding unacknowledged
        slots still cover it -- uses a dedicated per-message segment
        instead (counted in ``stats.oversize_fallbacks``).
    """

    name = "sharedmem"
    #: Tells the fabric to start the shared resource tracker pre-fork.
    uses_shared_memory = True

    def __init__(self, *, min_bytes: int = 8192, ring_bytes: int = 32 * 1024 * 1024):
        self.min_bytes = int(min_bytes)
        self.ring_bytes = int(ring_bytes)
        if self.min_bytes < 1:
            raise ValidationError(
                f"min_bytes must be >= 1, got {self.min_bytes}"
            )
        if self.ring_bytes < 1:
            raise ValidationError(
                f"ring_bytes must be >= 1, got {self.ring_bytes}"
            )
        #: Monotonic per-instance counters (see TransportStats); tests and
        #: the bench harness assert the once-per-run encode and the ring's
        #: fallback behaviour through these.
        self.stats = TransportStats()
        #: (creator pid, segment name) -> remaining consumer count of the
        #: multi-consumer segments this instance encoded (parent side).
        self._multi: dict = {}
        #: Names of the by-reference segments this instance allocated or
        #: dispatched and has not yet unlinked (see :meth:`end_run`).
        self._byref_names: set = set()

    def cache_key(self) -> tuple:
        return ("sharedmem", self.min_bytes, self.ring_bytes)

    # -- encoding -----------------------------------------------------------
    def empty(self, shape, dtype):
        """An array in a fresh segment of this process, crossing by reference.

        Arrays lying inside it travel as ``(segment, offset, dtype,
        shape)`` references in dispatched arguments and returned results
        instead of being copied.  The array's ``base`` owns the mapping:
        it is closed -- and the name unlinked, if :meth:`end_run` has not
        done so yet -- once the last view of it is garbage collected.
        Returns ``None`` for object dtypes (their items are pointers into
        this address space) and when shared memory is unavailable.
        """
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.ndim(shape) == 0 else tuple(int(s) for s in shape)
        if dtype.hasobject or not shared_memory_available():
            return None
        nbytes = math.prod(shape) * dtype.itemsize
        try:
            seg = _shm_module.SharedMemory(create=True, size=max(nbytes, 1))
        except Exception:
            return None
        raw = _map_byref(seg, os.getpid())
        # Forget names already gone: a backend whose fleet comes from the
        # default pool cache allocates here, but its own transport never
        # sees an end_run.
        self._byref_names = {name for name in self._byref_names
                             if name in _BYREF and _BYREF[name].linked}
        self._byref_names.add(seg.name)
        return raw[:nbytes].view(dtype).reshape(shape)

    def is_shared(self, array) -> bool:
        """True when ``array`` lies in a by-reference segment of this rank's parent.

        Every rank of a run maps such a segment -- the parent dispatched
        it by reference, or the ranks inherited the mapping through
        ``fork`` -- so one rank's writes into it are the others' reads.
        Any other memory of a rank is its own, even where it looks like a
        slice of one buffer: a ``fork`` hands each rank a copy-on-write
        image of the parent's private arrays.
        """
        found = _byref_mapping(np.asarray(array))
        return found is not None and found[1].creator == os.getppid()

    def end_run(self) -> None:
        """Unlink the by-reference segments of the run that just returned.

        Mappings -- the parent's array, and rank views not yet collected
        -- stay valid; only the names go, so nothing can attach them any
        more and a later dispatch of the same array copies it instead.
        """
        names, self._byref_names = self._byref_names, set()
        for name in names:
            entry = _BYREF.get(name)
            if entry is not None:
                entry.unlink()

    def _pack(self, payload, reference: str | None = None):
        """Walk ``payload`` claiming bulk arrays: (slabs, offsets, cursor, inner).

        ``reference`` (``"dispatch"`` or ``"result"``) lets arrays inside
        by-reference segments the receiver can map cross uncopied (see
        :func:`_byref_record`).
        """
        slabs: list[np.ndarray] = []
        offsets: list[int] = []
        cursor = 0

        def claim(arr: np.ndarray):
            nonlocal cursor
            if reference is not None:
                ref = _byref_record(arr, dispatch=reference == "dispatch")
                if ref is not None:
                    if reference == "dispatch":
                        self._byref_names.add(ref[1])
                    return ref
            if arr.nbytes < self.min_bytes:
                return None
            contiguous = np.ascontiguousarray(arr)
            slabs.append(contiguous)
            offset = cursor
            offsets.append(offset)
            cursor += (contiguous.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
            # ascontiguousarray promotes 0-d to 1-d; keep the caller's shape.
            return (SHMREF, len(slabs) - 1, contiguous.dtype, arr.shape)

        inner = walk_encode(payload, claim)
        return slabs, offsets, cursor, inner

    def _write_segment(self, slabs, offsets, cursor):
        """Copy the slabs into a fresh dedicated segment; return its name.

        Returns ``None`` when segment creation fails (e.g. /dev/shm filled
        up), in which case the caller degrades to the inline codec.
        """
        try:
            seg = _shm_module.SharedMemory(create=True, size=max(cursor, 1))
        except Exception:
            # Creation can start failing later; degrade to the inline
            # codec for this and future messages.
            global _PROBE
            _PROBE = (os.getpid(), False)
            return None
        try:
            for slab, offset in zip(slabs, offsets):
                dst = np.ndarray(slab.shape, dtype=slab.dtype,
                                 buffer=seg.buf, offset=offset)
                dst[...] = slab
                del dst
        except BaseException:
            seg.close()
            seg.unlink()
            raise
        name = seg.name
        seg.close()  # the sender's mapping is no longer needed
        self.stats.segments_created += 1
        return name

    def encode(self, payload, *, ring: str | None = None, by_reference: bool = False):
        """Encode one message; ``by_reference`` marks a rank's returned result.

        Only results cross by reference -- arrays inside a segment the
        receiving parent process created; ordinary messages are always
        copied.
        """
        self.stats.encode_calls += 1
        if not shared_memory_available():
            return walk_encode(payload, lambda arr: None)

        slabs, offsets, cursor, inner = self._pack(
            payload, "result" if by_reference else None)
        if not slabs:
            return inner
        self.stats.bytes_encoded += cursor

        if ring is not None:
            sender = _sender_ring(ring, self.ring_bytes)
            if sender is not None:
                alloc = sender.allocate(cursor)
                if alloc is not None:
                    base, receipt = alloc
                    for slab, offset in zip(slabs, offsets):
                        dst = np.ndarray(slab.shape, dtype=slab.dtype,
                                         buffer=sender.shm.buf, offset=base + offset)
                        dst[...] = slab
                        del dst
                    self.stats.ring_messages += 1
                    return (SHMRING, ring,
                            tuple(base + offset for offset in offsets),
                            receipt, inner)
                # The allocator refused (message bigger than the ring, or
                # unacked slots still cover it): fall through to a
                # dedicated segment.
                self.stats.oversize_fallbacks += 1
        name = self._write_segment(slabs, offsets, cursor)
        if name is None:
            return walk_encode(payload, lambda arr: None)
        return (SHMSEG, name, tuple(offsets), inner)

    def encode_shared(self, payload, n_consumers: int, *, ring: str | None = None):
        """Encode ``payload`` once for ``n_consumers`` independent receivers.

        Bulk arrays go into one dedicated segment whose refcount starts at
        ``n_consumers``; every receiver's :meth:`decode` attaches the
        segment (without unlinking) and acknowledges the attach, and the
        encoder's :meth:`ring_ack` unlinks the segment after the last
        acknowledgement (undelivered copies are released by
        :meth:`dispose`, abandoned ones by :meth:`retire_shared`).
        Arrays inside this process's by-reference segments (see
        :meth:`empty`) travel as references, not copies.  Payloads
        without bulk arrays to copy return the plain in-band record,
        which any number of consumers can decode.
        """
        if n_consumers < 1:
            raise ValidationError(
                f"n_consumers must be >= 1, got {n_consumers}"
            )
        self.stats.shared_encode_calls += 1
        if not shared_memory_available():
            return walk_encode(payload, lambda arr: None)
        slabs, offsets, cursor, inner = self._pack(payload, "dispatch")
        if not slabs:
            return inner
        self.stats.bytes_encoded += cursor
        name = self._write_segment(slabs, offsets, cursor)
        if name is None:
            return walk_encode(payload, lambda arr: None)
        self.stats.segments_created -= 1  # counted as multi instead
        self.stats.multi_segments_created += 1
        self._multi[(os.getpid(), name)] = int(n_consumers)
        return (SHMMULTI, name, tuple(offsets), inner)

    # -- decoding -----------------------------------------------------------
    def decode(self, record, *, ack=None):
        self.stats.decode_calls += 1
        if record[0] == SHMRING:
            return self._decode_ring(record, ack)
        if record[0] == SHMMULTI:
            return self._decode_multi(record, ack)
        if record[0] != SHMSEG:
            return walk_decode(record, _resolver())
        _, name, offsets, inner = record
        try:
            seg = _shm_module.SharedMemory(name=name)
        except FileNotFoundError:
            raise CommunicationError(
                f"shared-memory segment {name!r} vanished before it was "
                "received (the run was probably aborted)"
            ) from None
        try:
            seg.unlink()  # memory stays alive while mapped; the name goes now
        except FileNotFoundError:  # pragma: no cover - double delivery race
            pass
        lease = _SegmentLease(seg, len(offsets))

        def resolve(ref):
            _, index, dtype, shape = ref
            view = np.ndarray(shape, dtype=dtype, buffer=seg.buf,
                              offset=offsets[index])
            lease.watch(view)
            return view

        return walk_decode(inner, _resolver(resolve))

    def _decode_ring(self, record, ack=None):
        _, name, offsets, receipt, inner = record
        attachment = _attached_ring(name)
        if attachment is None:
            raise CommunicationError(
                f"ring segment {name!r} vanished before its message was "
                "received (the run was probably aborted)"
            )
        release = None if ack is None else _slot_release(ack, name, receipt,
                                                         len(offsets))

        def resolve(ref):
            _, index, dtype, shape = ref
            view = np.ndarray(shape, dtype=dtype, buffer=attachment.shm.buf,
                              offset=offsets[index])
            attachment.watch(view)
            if release is not None:
                weakref.finalize(view, release)
            return view

        return walk_decode(inner, _resolver(resolve))

    def _decode_multi(self, record, ack=None):
        """Decode one consumer's copy of a multi-consumer record.

        Attaches the segment *without unlinking it* (the encoder owns the
        name and unlinks after the last acknowledgement); the mapping is
        closed once every returned view has been garbage collected.  The
        acknowledgement fires at *attach* time -- POSIX keeps the memory
        alive while the mapping is open, so the encoder may unlink the
        name as soon as every consumer holds a mapping, well before the
        views die.
        """
        _, name, offsets, inner = record
        try:
            seg = _shm_module.SharedMemory(name=name)
        except FileNotFoundError:
            raise CommunicationError(
                f"multi-consumer segment {name!r} vanished before it was "
                "received (the run was probably aborted)"
            ) from None
        lease = _SegmentLease(seg, len(offsets))

        def resolve(ref):
            _, index, dtype, shape = ref
            view = np.ndarray(shape, dtype=dtype, buffer=seg.buf,
                              offset=offsets[index])
            lease.watch(view)
            return view

        payload = walk_decode(inner, _resolver(resolve))
        if ack is not None:
            try:
                ack((name, _MULTI_TOKEN))
            except Exception:  # pragma: no cover - acks are best effort
                pass
        return payload

    # -- acknowledgements ----------------------------------------------------
    def ring_ack(self, receipt) -> None:
        """Apply a receiver acknowledgement in the encoding process.

        ``receipt`` is what a receiver's ``decode`` handed to its ``ack``
        callback: the ``(ring name, virtual slot end)`` pair of a ring
        slot whose views are gone -- the named slot (and any contiguous
        acked predecessors) becomes reusable -- or the ``(segment name,
        token)`` attach receipt of a multi-consumer segment, which
        decrements its refcount and unlinks the segment after the last
        consumer.  Unknown receipts -- duplicate delivery, a ring that
        was already retired -- are ignored.
        """
        try:
            name, end = receipt
        except (TypeError, ValueError):
            return
        if end == _MULTI_TOKEN:
            self._multi_ack(name)
            return
        ring = _SENDER_RINGS.get((os.getpid(), name))
        if ring is not None:
            ring.ack(end)

    def _multi_ack(self, name: str) -> None:
        """One consumer released its share of a multi-consumer segment."""
        key = (os.getpid(), name)
        remaining = self._multi.get(key)
        if remaining is None:
            return
        if remaining <= 1:
            self._multi.pop(key, None)
            _unlink_by_name(name)
        else:
            self._multi[key] = remaining - 1

    # -- disposal -----------------------------------------------------------
    def dispose(self, record) -> None:
        """Release a record that will never be decoded.

        Dedicated segments are unlinked outright; a multi-consumer record
        releases one undelivered copy's share of the refcount (the caller
        disposes each queued copy separately).  Ring records need no
        per-message disposal -- the fabric retires whole rings via
        :meth:`retire_rings` at shutdown.
        """
        if not (isinstance(record, tuple) and record):
            return
        if record[0] == SHMMULTI:
            self._multi_ack(record[1])
            return
        if record[0] != SHMSEG:
            return
        _unlink_by_name(record[1])

    def retire_shared(self) -> None:
        """Unlink every outstanding multi-consumer segment of this process.

        Called during fabric shutdown: consumers that crashed before
        acknowledging leave the refcount above zero, and the names they
        never attached must not outlive the run.
        """
        pid = os.getpid()
        for key in [k for k in self._multi if k[0] == pid]:
            self._multi.pop(key, None)
            _unlink_by_name(key[1])

    # -- ring lifecycle -----------------------------------------------------
    def retire_rings(self, names) -> None:
        """Unlink the named ring segments and drop this process's handles.

        Called by the fabric (in the parent) at shutdown on every exit
        path.  Unlinking removes only the names; receiver mappings stay
        alive until the last zero-copy view into them is garbage
        collected.
        """
        if _shm_module is None:  # pragma: no cover
            return
        pid = os.getpid()
        for name in names:
            unlinked = False
            sender = _SENDER_RINGS.pop((pid, name), None)
            attachment = _ATTACHED_RINGS.pop((pid, name), None)
            shared_handle = (sender is not None and attachment is not None
                             and attachment.shm is sender.shm)
            if sender is not None:
                try:
                    sender.shm.unlink()
                except FileNotFoundError:
                    pass
                unlinked = True
                if not shared_handle:
                    try:
                        sender.shm.close()
                    except Exception:  # pragma: no cover - exported views
                        pass
            if attachment is not None:
                if not unlinked:
                    try:
                        attachment.shm.unlink()
                    except FileNotFoundError:
                        pass
                    unlinked = True
                attachment.retire()
            if not unlinked:
                # A ring created by a (now finished) worker that this
                # process never attached; unlink it by name.
                try:
                    seg = _shm_module.SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                seg.close()


register_transport("sharedmem", SharedMemoryTransport)
