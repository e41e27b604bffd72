"""Payload transports: how message payloads cross the process boundary.

The :class:`~repro.pro.backends.process.ProcessFabric` separates *control*
from *data*: the multiprocessing queues always carry small control records
``(src, tag, encoded_payload)``, and a pluggable :class:`PayloadTransport`
decides how the payload bytes themselves travel.  Two transports ship with
the library:

``"pickle"`` (:class:`PickleTransport`)
    The buffer-based codec the process backend has always used: NumPy
    arrays become ``(dtype, shape, bytes)`` triples inside the queue
    message (nested containers are walked recursively), everything else is
    pickled by the queue.  Every array payload is copied at least three
    times (``tobytes``, the queue pipe write, the queue pipe read) before
    the receiver rebuilds it.

``"sharedmem"`` (:class:`~repro.pro.backends.sharedmem.SharedMemoryTransport`)
    Bulk array payloads travel through ``multiprocessing.shared_memory``
    segments: the sender copies a message's large arrays into a segment of
    its own exactly once and ships only ``(segment name, offset, dtype,
    shape)`` control records through the queue; the receiver attaches the
    segment and hands out **zero-copy** NumPy views.  Memory the parent
    allocated crosses by reference instead (see below).  Small arrays and
    non-array payloads fall back to the pickle codec, as does everything
    when shared memory is unavailable on the platform.

Transport contract
------------------
A transport is any object with

``name``
    A short identifier (``"pickle"``, ``"sharedmem"``, ...).
``encode(payload) -> record``
    Turn a payload into a picklable control record.  Called in the sending
    process; must not consume randomness or mutate the payload.
``decode(record) -> payload``
    Inverse of ``encode``; called exactly once per delivered record in the
    receiving process.  Arrays may be returned as views into transport
    owned buffers provided the buffer outlives every returned view.
    Nothing is acknowledged back to the sender.
``encode_shared(payload, n_consumers) -> record | None`` (optional)
    Encode once for ``n_consumers`` independent receivers: the same record
    is delivered to (and decoded by) every consumer, so persistent pools
    can ship one run's bulk dispatch arguments with a single encode
    instead of one per rank.  The shared-memory transport copies the bulk
    arguments once into a by-reference staging segment that stays linked
    until ``end_run``; returning ``None`` declines and the caller falls
    back to per-consumer ``encode``.
``dispose(record) -> None``
    Release any out-of-band resources (e.g. shared-memory segments) held
    by a record that will *never* be decoded -- the fabric calls this when
    draining undelivered messages on shutdown, abort and timeout paths.
``empty(shape, dtype) -> numpy.ndarray | None`` (optional)
    Allocate an array whose memory crosses this transport **by
    reference** (see below), or return ``None`` to decline -- which is
    what in-band transports do.  The process backend's ``empty`` hook
    delegates here, so Algorithm 1's drivers get their output vector from
    it.
``is_shared(array) -> bool`` (optional)
    Called in a rank: True when every rank of the run maps ``array``'s
    memory, so that one rank's writes are the others' reads.  The
    process fabric's sharing predicate delegates here; Algorithm 1 then
    writes its exchange pieces straight into the receivers' slices of
    the output vector instead of sending them.  In-band transports (and
    the base class) answer ``False``.
``end_run() -> None`` (optional)
    The run that dispatched by-reference arrays has returned: release its
    staging segments and let the shared-memory transport recycle its
    output segments once their arrays die.  Called by the worker pool
    after every successful run and by the fabric at shutdown (where the
    run may have failed, and its outputs are then never recycled); never
    between the attempts of a retried run, which re-dispatch the same
    arrays.
``cache_key() -> tuple | None`` (optional)
    Hashable configuration identity; equal keys mean two instances are
    interchangeable, which is what lets the process-wide default pool
    cache reuse one warm worker fleet across driver calls.
``uses_shared_memory`` (optional attribute)
    True when the transport creates shared-memory segments; the fabric
    then starts the ``multiprocessing`` resource tracker in the parent
    before the rank processes fork, so every process shares one tracker.

By-reference arrays
-------------------
An array that lies inside a segment returned by ``empty`` is not copied
when it crosses the shared-memory transport in either of two directions:
in the bulk arguments the parent dispatches (``encode_shared``), and in a
rank's returned result (``encode(..., by_reference=True)``, which the
fabric uses for results only).  The record then carries a ``(segment,
offset, dtype, shape)`` reference, and the receiver maps the segment --
once per decoded record -- and hands out views into it.  Lifetimes:

* the parent's array owns its mapping through its ``base``, so the
  array stays valid after the pool that filled it is closed.  The name
  stays linked while the array lives.  When the last view of it is
  garbage collected the segment is parked for the next ``empty`` of the
  same size -- if the run that last dispatched it returned -- or
  unlinked and closed.  ``clear_default_pools()`` and the exit of the
  process unlink the parked segment; a hard-killed parent leaves it and
  its live outputs to the resource tracker's exit-time cleanup;
* a staging segment is unlinked when its run returns (``end_run``);
* a rank's mapping is closed once its views die, except that a rank
  keeps its last two output segments mapped for later dispatches;
* ordinary fabric messages (``put``) keep copy semantics: a rank that
  sends a view into such a segment sends a copy.

Fabric messages -- control traffic (scatters, matrix rows, scan offsets)
and the bulk messages of programs that send them -- go through
``encode``/``decode``, a bulk one in a segment of its own.  Algorithm 1's
exchange pieces do not when its output vector is a by-reference segment:
``is_shared`` holds for every slice, so the senders write their pieces
into the receivers' slices directly and a single-attempt driver call
encodes no bulk byte.

Transports are deliberately independent of the random streams, so a fixed
machine seed produces bit-identical results on every transport (enforced by
``tests/integration/test_cross_backend_determinism.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.errors import ValidationError

__all__ = [
    "PayloadTransport",
    "PickleTransport",
    "TransportStats",
    "register_transport",
    "get_transport",
    "available_transports",
    "resolve_transport",
]

# Markers of the buffer-based payload encoding (shared by all transports).
_ND, _TUPLE, _LIST, _DICT, _RAW = "nd", "tuple", "list", "dict", "raw"
#: Marker of a zero-copy reference into a shared-memory segment.
SHMREF = "shmref"
#: Marker of a record whose bulk arrays live in one dedicated segment
#: (created per message, unlinked by the receiver on decode).
SHMSEG = "shmseg"
#: Marker of a *by-reference* array: ``(SHMVIEW, segment name, creator
#: pid, shared, byte offset, dtype, shape)`` names memory both sides map
#: (see ``PayloadTransport.empty``); nothing was copied to encode it.
#: ``shared`` is False for a staged copy of a run's private arguments.
SHMVIEW = "shmview"


class TransportStats:
    """Monotonic per-instance counters (observability, tests, bench gates).

    Every built-in transport exposes one as its ``stats`` attribute.  The
    interesting invariants they pin: persistent dispatch encodes bulk
    arguments **once per run** (``shared_encode_calls`` grows by one per
    ``run()``, not by ``p``), ``segments_created`` counts message and
    staging segments, and ``oversize_fallbacks`` counts the bulk
    payloads sent in-band because segment creation failed.
    """

    __slots__ = ("encode_calls", "shared_encode_calls", "decode_calls",
                 "segments_created", "oversize_fallbacks", "bytes_encoded")

    def __init__(self):
        self.encode_calls = 0
        self.shared_encode_calls = 0
        self.decode_calls = 0
        self.segments_created = 0
        self.oversize_fallbacks = 0
        self.bytes_encoded = 0

    def snapshot(self) -> dict:
        """Plain-dict copy of every counter (stable for test deltas)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"TransportStats({fields})"


def walk_encode(obj, array_hook: Callable[[np.ndarray], tuple | None]):
    """Encode ``obj`` recursively; ``array_hook`` may claim arrays first.

    ``array_hook(arr)`` returns a record to use for ``arr`` or ``None`` to
    fall through to the inline ``(dtype, shape, bytes)`` encoding.  Object
    dtype arrays always travel as plain pickles (their buffers hold
    pointers that are meaningless in another address space).
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return (_RAW, obj)
        record = array_hook(obj)
        if record is not None:
            return record
        arr = np.ascontiguousarray(obj)
        # ascontiguousarray promotes 0-d to 1-d; keep the caller's shape.
        return (_ND, arr.dtype, obj.shape, arr.tobytes())
    if isinstance(obj, tuple):
        return (_TUPLE, tuple(walk_encode(v, array_hook) for v in obj))
    if isinstance(obj, list):
        return (_LIST, [walk_encode(v, array_hook) for v in obj])
    if isinstance(obj, dict):
        return (_DICT, {k: walk_encode(v, array_hook) for k, v in obj.items()})
    return (_RAW, obj)


def walk_decode(enc, ref_hook: Callable[[tuple], np.ndarray] | None = None):
    """Inverse of :func:`walk_encode`; ``ref_hook`` resolves SHMREF/SHMVIEW records."""
    kind, value = enc[0], enc[1]
    if kind == _ND:
        _, dtype, shape, data = enc
        return np.frombuffer(data, dtype=np.dtype(dtype)).reshape(shape).copy()
    if kind == SHMREF or kind == SHMVIEW:
        if ref_hook is None:
            raise ValidationError(
                "shared-memory reference record outside a shared-memory segment"
            )
        return ref_hook(enc)
    if kind == _TUPLE:
        return tuple(walk_decode(v, ref_hook) for v in value)
    if kind == _LIST:
        return [walk_decode(v, ref_hook) for v in value]
    if kind == _DICT:
        return {k: walk_decode(v, ref_hook) for k, v in value.items()}
    return value


class PayloadTransport:
    """Base class for payload transports (subclassing is optional)."""

    name = "abstract"

    def encode(self, payload):
        """Turn ``payload`` into a picklable control record."""
        raise NotImplementedError

    def decode(self, record):
        """Rebuild the payload of a delivered control record."""
        raise NotImplementedError

    def encode_shared(self, payload, n_consumers: int):
        """Encode ``payload`` once for ``n_consumers`` independent receivers.

        Used by the worker pool to ship one run's bulk dispatch arguments:
        the same returned record is delivered to every rank, so the
        encoding must be safe to :meth:`decode` ``n_consumers`` times (the
        shared-memory transport stages the bulk arguments in one
        by-reference segment that stays linked until :meth:`end_run`).
        Returning ``None`` declines -- the caller falls back to
        per-consumer :meth:`encode` -- which is what this base
        implementation does.
        """
        return None

    def dispose(self, record) -> None:
        """Release out-of-band resources of a record that won't be decoded."""
        # In-band transports hold nothing outside the record itself.

    def empty(self, shape, dtype):
        """An array that crosses this transport by reference, or ``None``.

        ``None`` (this implementation) declines: the transport copies
        every array, so the caller should keep its own memory.
        """
        return None

    def end_run(self) -> None:
        """Settle the by-reference segments the last run used."""
        # In-band transports have no by-reference segments.

    def is_shared(self, array) -> bool:
        """True when every rank of the run maps ``array``'s memory.

        ``False`` (this implementation): an in-band transport gives each
        rank its own copy of everything.
        """
        return False

    def cache_key(self) -> tuple | None:
        """Hashable identity for pool-cache keying, or ``None``.

        Two transport instances with equal (non-``None``) keys are
        interchangeable: the process-wide default pool cache
        (:func:`repro.pro.backends.pool.get_default_pool`) reuses a warm
        worker fleet across driver calls only when the keys match.
        ``None`` (the default) opts out of sharing -- the backend then
        keeps a private fleet instead.
        """
        return None


class PickleTransport(PayloadTransport):
    """Queue-borne payloads: arrays as raw buffers, the rest pickled.

    This is the historic process-backend codec; receivers always get fresh
    writable copies.  It holds no out-of-band state, so :meth:`dispose` is
    a no-op.
    """

    name = "pickle"

    def __init__(self):
        self.stats = TransportStats()

    def encode(self, payload):
        self.stats.encode_calls += 1
        return walk_encode(payload, lambda arr: None)

    def encode_shared(self, payload, n_consumers: int):
        """One in-band record, safely decodable by any number of consumers."""
        self.stats.shared_encode_calls += 1
        return walk_encode(payload, lambda arr: None)

    def decode(self, record):
        self.stats.decode_calls += 1
        return walk_decode(record)

    def cache_key(self) -> tuple:
        return ("pickle",)


# ----------------------------------------------------------------------------
# Transport registry
# ----------------------------------------------------------------------------
_TRANSPORTS: dict[str, Callable[..., PayloadTransport]] = {}


def register_transport(name: str, factory: Callable[..., PayloadTransport],
                       *, overwrite: bool = False) -> None:
    """Register a transport factory (usually the class) under ``name``."""
    if not isinstance(name, str) or not name:
        raise ValidationError(f"transport name must be a non-empty string, got {name!r}")
    if name in _TRANSPORTS and not overwrite:
        raise ValidationError(
            f"transport {name!r} is already registered; pass overwrite=True to replace it"
        )
    _TRANSPORTS[name] = factory


def available_transports() -> tuple[str, ...]:
    """Sorted names of all registered transports."""
    return tuple(sorted(_TRANSPORTS))


def get_transport(name: str, **options) -> PayloadTransport:
    """Instantiate the transport registered under ``name``."""
    factory = _TRANSPORTS.get(name)
    if factory is None:
        raise ValidationError(
            f"unknown transport {name!r}; registered transports: "
            f"{', '.join(available_transports())}"
        )
    return factory(**options)


def resolve_transport(transport: str | PayloadTransport | None) -> PayloadTransport:
    """Turn a transport name, instance or ``None`` into a transport instance.

    ``None`` resolves to the default :class:`PickleTransport`; strings go
    through the registry; objects are accepted as-is provided they expose
    ``encode``/``decode`` (duck-typed custom transports remain supported).
    """
    if transport is None:
        return PickleTransport()
    if isinstance(transport, str):
        return get_transport(transport)
    if not (hasattr(transport, "encode") and hasattr(transport, "decode")):
        raise ValidationError(
            "a transport object must expose encode() and decode() methods"
        )
    return transport


register_transport("pickle", PickleTransport)

# The shared-memory transport registers itself on import; importing it here
# keeps the registry complete whenever any transport lookup is possible.
from repro.pro.backends import sharedmem as _sharedmem  # noqa: E402,F401  (self-registers)
