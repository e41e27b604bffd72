"""Zero-copy shared-memory payload transport for the process backend.

The queue fabric of :class:`~repro.pro.backends.process.ProcessFabric`
keeps carrying small control records, but with this transport the *bytes*
of every bulk NumPy payload travel through a
``multiprocessing.shared_memory`` segment instead of the queue pipe.
Arrays smaller than ``min_bytes`` and non-array values stay inline in the
record via the pickle codec.  Bytes move under two rules:

* **Fabric messages** (``encode``): all bulk arrays of one message are
  copied once into a fresh segment of their own (at 64-byte aligned
  offsets); the queue record only names the segment and the per-array
  ``(offset, dtype, shape)`` slots.  The receiver (``decode``) attaches
  it, immediately *unlinks* its name (POSIX keeps the memory alive while
  mapped) and returns **zero-copy writable views**, each watched by a
  :class:`weakref.finalize` that closes the mapping after the last one
  dies.
* **Memory the parent allocated** crosses by reference.  ``empty`` puts
  an array in a segment of the parent's own; arrays inside it cross in
  dispatched arguments and in returned results as ``(segment, offset,
  dtype, shape)`` references, with no copy at all.  Ranks write into the
  parent's memory and the parent gets its own array's slices back.  A
  run's other bulk arguments (``encode_shared``) are copied once into a
  *staging* segment of the same kind, so every rank -- and every attempt
  of a retried run -- attaches the one copy.

The parent names its by-reference segments ``psm_<pid hex>_<counter
hex>``; a name is never reused while the parent lives, so a mapping kept
under a name always shows the segment that name was given to.

Lifecycle discipline
--------------------
CPython's ``resource_tracker`` pairs a *register* on segment creation with
an *unregister* inside :meth:`SharedMemory.unlink`; all fabric processes
share one tracker (the file descriptor is inherited by both ``fork`` and
``spawn`` children), so the invariant is **exactly one unlink per
segment**, and no acknowledgement travels back to make it:

1. a message segment is unlinked by its receiver on decode, or by
   ``dispose`` when the fabric drains an undelivered record on its
   shutdown, abort and timeout paths;
2. a by-reference segment is unlinked by its creator only, and its name
   stays linked while the creator maps it -- except a staging segment,
   whose name ``end_run`` unlinks once its run has returned.  An
   ``empty`` segment is unlinked when its array dies -- unless the run
   that last dispatched it returned, in which case it is *parked*:
   kept mapped and linked in a one-slot free list, from which the next
   ``empty`` of the same byte size takes it, pages already faulted in.
   Parking a segment unlinks the one parked before it;
   ``clear_default_pools()`` and the exit of the process -- interpreter
   exit, or the end of a ``multiprocessing`` child -- unlink the last
   one, and the exit unlinks the names of live outputs too.
   A segment named by a run that never returned (a failed attempt, a
   deadline, a poisoned pool), a staging segment and a segment another
   process created are never parked.

Recycled bytes never reach a result: every rank finishes its writes
before it reports, the parent parks a segment only after its own last
view died, and every run rewrites every output slot.

A rank keeps its mappings of the last :data:`_HOLD_DEPTH` output
segments its parent dispatched, so a dispatch that names one of them
again skips the attach, the ``mmap`` and the page faults.  A held
segment's memory lives until the rank drops it, even once the parent
has unlinked the name.

A hard-killed parent leaves its parked segment's name and the names of
its live outputs behind; the tracker's exit-time cleanup removes them,
as it does a segment abandoned by a hard-crashed run (which is exactly
what the tracker is for).

When shared memory is unavailable (no ``/dev/shm``, permissions, exotic
platforms) the transport degrades transparently to the pickle codec; the
probe runs once per process and is re-run after a ``fork``.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from collections import OrderedDict
from multiprocessing import util as _mp_util

import numpy as np

from repro.pro.backends.transport import (
    SHMREF,
    SHMSEG,
    SHMVIEW,
    PayloadTransport,
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

#: How many of its parent's output segments a rank keeps mapped between
#: epochs (see :func:`_hold`).
_HOLD_DEPTH = 2

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
    records whether it has not done so yet.  ``shared`` is False for a
    staging segment: the copy of a run's private arguments, which the
    ranks' sharing predicate does not count.  ``reusable`` is set
    when the run that last dispatched the segment returned; ``tainted``,
    once a run that named it did not return, keeps it False for good.
    """

    __slots__ = ("seg", "raw", "address", "nbytes", "creator", "shared",
                 "linked", "reusable", "tainted")

    def __init__(self, seg, raw: np.ndarray, creator: int, shared: bool):
        self.seg = seg
        self.raw = weakref.ref(raw)
        self.address = raw.__array_interface__["data"][0]
        self.nbytes = raw.nbytes
        self.creator = creator
        self.shared = shared
        self.linked = True
        self.reusable = False
        self.tainted = False

    def unlink(self) -> None:
        """Remove the name (the creator's job; mappings stay valid)."""
        if self.linked and self.creator == os.getpid():
            self.linked = False
            try:
                self.seg.unlink()
            except FileNotFoundError:  # pragma: no cover - unlinked elsewhere
                pass

    def discard(self) -> None:
        """Unlink the name and close this process's mapping."""
        self.unlink()
        try:
            self.seg.close()
        except Exception:  # pragma: no cover - interpreter shutdown races
            pass


#: segment name -> _ByRefSegment mapped in this process.  A forked child
#: inherits the parent's entries together with the mappings they describe.
_BYREF: dict = {}

#: The parked output segment (at most one): mapped, linked, no live view.
#: Only single list operations touch it -- atomic under the interpreter
#: lock -- because ``_park`` runs from the garbage collector, which may
#: fire inside ``_take_parked``, and a lock could be inherited held by a
#: forked child.
_PARKED: list = []

#: Counter of the by-reference segment names (see :func:`_create_byref`).
_NAME_SEQ = itertools.count()

#: The process that registered :func:`_at_exit` (see :func:`_create_byref`).
_EXIT_HOOK_PID: int | None = None

#: name -> flat array of the parent's output segments a rank keeps mapped.
_HELD: OrderedDict = OrderedDict()


def _park(entry: _ByRefSegment) -> None:
    """Keep ``entry`` for the next same-size ``empty``; drop the one before."""
    _PARKED.append(entry)
    while len(_PARKED) > 1:
        try:
            _PARKED.pop(0).discard()
        except IndexError:  # another thread trimmed it first
            break


def _take_parked(nbytes: int):
    """The parked segment if it has ``nbytes`` bytes and is this process's."""
    try:
        entry = _PARKED.pop()
    except IndexError:
        return None
    if entry.creator != os.getpid():
        entry.discard()  # a forked child never hands out its parent's segment
    elif entry.nbytes == nbytes:
        return entry
    else:
        _park(entry)
    return None


def release_parked() -> None:
    """Unlink the parked output segment, if any (pool teardown, exit)."""
    while _PARKED:
        try:
            _PARKED.pop().discard()
        except IndexError:  # pragma: no cover - another thread took it
            break


def _at_exit() -> None:
    """Unlink the names of this process's by-reference segments at exit.

    The parked segment goes, and so do the names of outputs still alive:
    a ``multiprocessing`` child ends without running ``atexit``, so the
    ``weakref`` finalizers that would unlink them never run there.  A
    segment whose name is gone is never parked again.
    """
    release_parked()
    for entry in _BYREF.copy().values():
        entry.unlink()


def _release_byref(name: str, entry: _ByRefSegment) -> None:
    """Finalizer of a by-reference mapping: its last view has died."""
    if _BYREF.get(name) is entry:
        del _BYREF[name]
    if entry.reusable and entry.linked and entry.creator == os.getpid():
        _park(entry)
    else:
        entry.discard()


def _map_byref(seg, creator: int, shared: bool) -> np.ndarray:
    """Register ``seg`` for by-reference encoding; return its flat array."""
    raw = np.ndarray((seg.size,), dtype=np.uint8, buffer=seg.buf)
    entry = _ByRefSegment(seg, raw, creator, shared)
    _BYREF[seg.name] = entry
    weakref.finalize(raw, _release_byref, seg.name, entry)
    return raw


def _create_byref(nbytes: int):
    """A new segment named ``psm_<pid hex>_<counter hex>``.

    The counter never repeats in this process, so a rank holding a
    mapping under a name can trust it shows that name's segment.
    """
    global _EXIT_HOOK_PID
    pid = os.getpid()
    if _EXIT_HOOK_PID != pid:
        # multiprocessing's exit function runs at interpreter exit and at
        # the end of a multiprocessing child; atexit covers only the first.
        _mp_util.Finalize(None, _at_exit, exitpriority=0)
        _EXIT_HOOK_PID = pid
    while True:
        name = f"psm_{pid:x}_{next(_NAME_SEQ):x}"
        try:
            return _shm_module.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # left behind by a dead process with this pid
            continue


def _hold(name: str, raw: np.ndarray) -> None:
    """Keep a rank's mapping of an output segment across epochs (LRU)."""
    _HELD[name] = raw
    _HELD.move_to_end(name)
    while len(_HELD) > _HOLD_DEPTH:
        _HELD.popitem(last=False)


def _byref_mapping(arr: np.ndarray):
    """``(name, entry)`` of the registered mapping holding all of ``arr``, or None.

    Only contiguous arrays qualify: their bytes are ``[start, start +
    nbytes)``.
    """
    if not arr.flags.c_contiguous or not _BYREF:
        return None
    start = arr.__array_interface__["data"][0]
    # dict.copy() allocates no object per item, so the garbage collector
    # cannot run a _release_byref finalizer midway through the snapshot.
    for name, entry in _BYREF.copy().items():
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
    return (SHMVIEW, name, entry.creator, entry.shared,
            start - entry.address, arr.dtype, arr.shape)


def _resolver(slot_view=None):
    """A ``walk_decode`` hook for one decoded record.

    SHMVIEW references resolve to views of this process's mapping of the
    named segment, attached at most once per record; a rank holds its
    parent's output segments (:func:`_hold`).  SHMREF slots go to
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
        _, name, creator, shared, offset, dtype, shape = ref
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
                raw = _map_byref(seg, creator, shared)
            if shared and creator == os.getppid():
                _hold(name, raw)
            raws[name] = raw
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        return raw[offset:offset + nbytes].view(dtype).reshape(shape)

    return resolve


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


class SharedMemoryTransport(PayloadTransport):
    """Ship bulk array payloads through shared-memory segments.

    Parameters
    ----------
    min_bytes:
        Arrays smaller than this stay inline in the queue record (the
        per-segment syscalls only pay off for bulk payloads).  The default
        of 8 KiB keeps control traffic on the fast path while every block
        of a realistically sized permutation goes zero-copy.
    """

    name = "sharedmem"
    #: Tells the fabric to start the shared resource tracker pre-fork.
    uses_shared_memory = True

    def __init__(self, *, min_bytes: int = 8192):
        super().__init__()
        self.min_bytes = int(min_bytes)
        if self.min_bytes < 1:
            raise ValidationError(
                f"min_bytes must be >= 1, got {self.min_bytes}"
            )
        #: Output segments dispatched since the last :meth:`end_run`.
        self._dispatched: set = set()
        #: Whether a result was decoded since the last dispatch.  The pool
        #: decodes results only for a run that returned; the fabric's
        #: shutdown also calls :meth:`end_run`, possibly after a failure.
        self._collected = False
        #: Staging arrays of the runs dispatched since the last
        #: :meth:`end_run`; holding them keeps their names linked.
        self._staged: list = []

    def cache_key(self) -> tuple:
        return ("sharedmem", self.min_bytes)

    # -- encoding -----------------------------------------------------------
    def empty(self, shape, dtype):
        """An array in a segment of this process, crossing by reference.

        Arrays lying inside it travel as ``(segment, offset, dtype,
        shape)`` references in dispatched arguments and returned results
        instead of being copied.  The segment is the parked one when its
        byte size matches, a fresh one otherwise.  The array's ``base``
        owns the mapping: once the last view of it is garbage collected
        the segment is parked, if the run that last dispatched it
        returned, or unlinked and closed.  Returns ``None`` for object
        dtypes (their items are pointers into this address space) and
        when shared memory is unavailable.
        """
        return self._byref_empty(shape, dtype, shared=True)

    def _byref_empty(self, shape, dtype, *, shared: bool):
        """:meth:`empty`; ``shared=False`` allocates a staging segment."""
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.ndim(shape) == 0 else tuple(int(s) for s in shape)
        if dtype.hasobject or not shared_memory_available():
            return None
        nbytes = math.prod(shape) * dtype.itemsize
        parked = _take_parked(max(nbytes, 1)) if shared else None
        if parked is not None:
            seg = parked.seg
        else:
            try:
                seg = _create_byref(max(nbytes, 1))
            except Exception:
                return None
        raw = _map_byref(seg, os.getpid(), shared)
        return raw[:nbytes].view(dtype).reshape(shape)

    def is_shared(self, array) -> bool:
        """True when ``array`` lies in a by-reference segment of this rank's parent.

        Every rank of a run maps such a segment -- the parent dispatched
        it by reference, or the ranks inherited the mapping through
        ``fork`` -- so one rank's writes into it are the others' reads.
        Any other memory of a rank is its own, even where it looks like a
        slice of one buffer: a ``fork`` hands each rank a copy-on-write
        image of the parent's private arrays.  A staged copy of the run's
        private arguments does not count either, so a rank's answer is
        the same on a cold run, where the arguments are its own.
        """
        found = _byref_mapping(np.asarray(array))
        return (found is not None and found[1].shared
                and found[1].creator == os.getppid())

    def end_run(self) -> None:
        """Settle the by-reference segments of the run that just returned.

        The output segments it dispatched become reusable: parked once
        their last view dies.  If no result was decoded since the
        dispatch -- the fabric shutting down after a failed run -- they
        are marked never to be parked instead.  The staging segments of
        the run's dispatches are unlinked; views of them stay valid.
        """
        self._settle(returned=self._collected)
        for staging in self._staged:
            _byref_mapping(staging)[1].unlink()
        self._staged.clear()

    def _settle(self, *, returned: bool) -> None:
        """Mark the dispatched output segments reusable, or never reusable."""
        for entry in self._dispatched:
            if returned and not entry.tainted:
                entry.reusable = True
            else:
                entry.tainted = True
        self._dispatched = set()
        self._collected = False

    def _pack(self, payload, reference: str | None = None, *, into=None):
        """Walk ``payload`` claiming bulk arrays: (slabs, offsets, cursor, inner).

        ``reference`` (``"dispatch"`` or ``"result"``) lets arrays inside
        by-reference segments the receiver can map cross uncopied (see
        :func:`_byref_record`).  Every other bulk array gets the next
        64-byte aligned slot: with ``into`` (a by-reference staging
        array) it is copied there and crosses as a reference to the copy;
        otherwise it is collected in ``slabs`` for the caller to write.
        """
        slabs: list[np.ndarray] = []
        offsets: list[int] = []
        cursor = 0

        def claim(arr: np.ndarray):
            nonlocal cursor
            if reference is not None:
                ref = _byref_record(arr, dispatch=reference == "dispatch")
                if ref is not None:
                    if reference == "dispatch" and ref[3]:  # an output segment
                        entry = _BYREF[ref[1]]
                        entry.reusable = False  # in flight until end_run
                        self._dispatched.add(entry)
                    return ref
            if arr.nbytes < self.min_bytes:
                return None
            contiguous = np.ascontiguousarray(arr)
            offset = cursor
            cursor += (contiguous.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
            if into is not None:
                staged = np.ndarray(contiguous.shape, dtype=contiguous.dtype,
                                    buffer=into, offset=offset)
                staged[...] = contiguous
                return _byref_record(staged.reshape(arr.shape), dispatch=True)
            slabs.append(contiguous)
            offsets.append(offset)
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

    def _in_band(self, payload):
        """The inline record of ``payload``: segment creation failed."""
        self.stats.oversize_fallbacks += 1
        return walk_encode(payload, lambda arr: None)

    def encode(self, payload, *, by_reference: bool = False):
        """Encode one message; ``by_reference`` marks a rank's returned result.

        Bulk arrays are copied once into a segment of their own, which
        the receiver unlinks on decode.  Only results cross by reference
        -- arrays inside a segment the receiving parent process created;
        ordinary messages are always copied.
        """
        self.stats.encode_calls += 1
        if not shared_memory_available():
            return walk_encode(payload, lambda arr: None)

        slabs, offsets, cursor, inner = self._pack(
            payload, "result" if by_reference else None)
        if not slabs:
            return inner
        self.stats.bytes_encoded += cursor
        name = self._write_segment(slabs, offsets, cursor)
        if name is None:
            return self._in_band(payload)
        return (SHMSEG, name, tuple(offsets), inner)

    def encode_shared(self, payload, n_consumers: int):
        """Encode one run's arguments once for ``n_consumers`` ranks.

        Arrays inside this process's by-reference segments (see
        :meth:`empty`) travel as references.  The other bulk arrays are
        copied once into a by-reference *staging* segment of this
        process, kept linked until :meth:`end_run`, and travel as
        references to the copy -- so every attempt of a retried run can
        attach it.  The record is safe to decode any number of times.
        Output segments still left from a dispatch with no
        :meth:`end_run` belong to a run that never returned: they are
        marked never to be parked.
        """
        if n_consumers < 1:
            raise ValidationError(
                f"n_consumers must be >= 1, got {n_consumers}"
            )
        self._settle(returned=False)
        self.stats.shared_encode_calls += 1
        if not shared_memory_available():
            return walk_encode(payload, lambda arr: None)
        slabs, _offsets, cursor, inner = self._pack(payload, "dispatch")
        if not slabs:
            return inner
        staging = self._byref_empty(cursor, np.uint8, shared=False)
        if staging is None:
            return self._in_band(payload)
        self._staged.append(staging)
        self.stats.segments_created += 1
        self.stats.bytes_encoded += cursor
        return self._pack(payload, "dispatch", into=staging)[3]

    # -- decoding -----------------------------------------------------------
    def decode(self, record):
        self.stats.decode_calls += 1
        self._collected = True
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

    # -- disposal -----------------------------------------------------------
    def dispose(self, record) -> None:
        """Release a record that will never be decoded.

        A per-message segment is unlinked outright.  By-reference records
        hold no name of their own: their segments' owners release those.
        """
        if isinstance(record, tuple) and record and record[0] == SHMSEG:
            _unlink_by_name(record[1])

