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
    segments: the sender copies each large array into a dedicated segment
    exactly once and ships only ``(segment name, offset, dtype, shape)``
    control records through the queue; the receiver attaches the segment
    and hands out **zero-copy** NumPy views.  Small arrays and non-array
    payloads fall back to the pickle codec, as does everything when shared
    memory is unavailable on the platform.

Transport contract
------------------
A transport is any object with

``name``
    A short identifier (``"pickle"``, ``"sharedmem"``, ...).
``encode(payload, *, ring=None) -> record``
    Turn a payload into a picklable control record.  Called in the sending
    process; must not consume randomness or mutate the payload.  ``ring``
    is an optional fabric-provided name of a reusable per-sender buffer
    (see the shared-memory transport's ring segments); transports may
    ignore it.
``decode(record, *, ack=None) -> payload``
    Inverse of ``encode``; called exactly once per delivered record in the
    receiving process.  Arrays may be returned as views into transport
    owned buffers provided the buffer outlives every returned view.
    ``ack`` is an optional fabric-provided callable; a transport that
    allocated reclaimable out-of-band space for the record (a ring slot)
    calls ``ack(receipt)`` once the receiver is done with the payload (all
    zero-copy views garbage collected), and the fabric routes the receipt
    back to the sending process, which applies it via :meth:`ring_ack`.
    Transports may ignore ``ack``; fabrics only pass it to transports
    whose ``decode`` signature accepts it.
``ring_ack(receipt) -> None`` (optional)
    Apply a receiver acknowledgement in the *sending* process: the space
    named by ``receipt`` may be reused for future messages.  This is what
    lets the shared-memory ring segments wrap around instead of degrading
    to per-message segments on long runs.
``encode_shared(payload, n_consumers, *, ring=None) -> record | None`` (optional)
    Encode once for ``n_consumers`` independent receivers: the same record
    is delivered to (and decoded by) every consumer, so persistent pools
    can ship one run's bulk dispatch arguments with a single encode
    instead of one per rank.  The shared-memory transport backs this with
    a *refcounted* segment unlinked after the last consumer's ack;
    returning ``None`` declines and the caller falls back to per-consumer
    ``encode``.
``dispose(record) -> None``
    Release any out-of-band resources (e.g. shared-memory segments) held
    by a record that will *never* be decoded -- the fabric calls this when
    draining undelivered messages on shutdown, abort and timeout paths.
    For a multi-consumer record, one ``dispose`` call releases one
    undelivered copy's share of the refcount.
``retire_rings(names) -> None`` (optional)
    Unlink/release the named ring buffers at the end of a fabric run;
    only called by fabrics that handed out ring names.
``retire_shared() -> None`` (optional)
    Unlink every outstanding multi-consumer segment this process still
    tracks; called during fabric shutdown so crashed or abandoned runs
    leak nothing.
``cache_key() -> tuple | None`` (optional)
    Hashable configuration identity; equal keys mean two instances are
    interchangeable, which is what lets the process-wide default pool
    cache reuse one warm worker fleet across driver calls.
``uses_shared_memory`` (optional attribute)
    True when the transport creates shared-memory segments; the fabric
    then starts the ``multiprocessing`` resource tracker in the parent
    before the rank processes fork, so every process shares one tracker.

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
#: Marker of a record whose bulk arrays live in a per-sender ring segment
#: (created once per fabric, reclaimed slot-by-slot through receiver
#: acknowledgements, retired by the fabric at shutdown).
SHMRING = "shmring"
#: Marker of a *multi-consumer* record: one refcounted segment read by
#: ``n_consumers`` independent receivers (the worker pool's bulk dispatch
#: arguments), unlinked by the encoder once the last consumer has
#: acknowledged its attach (see ``PayloadTransport.encode_shared``).
SHMMULTI = "shmmulti"


class TransportStats:
    """Monotonic per-instance counters (observability, tests, bench gates).

    Every built-in transport exposes one as its ``stats`` attribute.  The
    interesting invariants they pin: persistent dispatch encodes bulk
    arguments **once per run** (``shared_encode_calls`` grows by one per
    ``run()``, not by ``p``), and ``oversize_fallbacks`` counts the
    messages a sender ring could not place.
    """

    __slots__ = ("encode_calls", "shared_encode_calls", "decode_calls",
                 "segments_created", "multi_segments_created",
                 "ring_messages", "oversize_fallbacks", "bytes_encoded")

    def __init__(self):
        self.encode_calls = 0
        self.shared_encode_calls = 0
        self.decode_calls = 0
        self.segments_created = 0
        self.multi_segments_created = 0
        self.ring_messages = 0
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
    """Inverse of :func:`walk_encode`; ``ref_hook`` resolves SHMREF records."""
    kind, value = enc[0], enc[1]
    if kind == _ND:
        _, dtype, shape, data = enc
        return np.frombuffer(data, dtype=np.dtype(dtype)).reshape(shape).copy()
    if kind == SHMREF:
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

    def encode(self, payload, *, ring: str | None = None):
        """Turn ``payload`` into a picklable control record."""
        raise NotImplementedError

    def decode(self, record, *, ack=None):
        """Rebuild the payload of a delivered control record.

        ``ack``, when given, is called with a receipt once the receiver has
        released the record's reclaimable out-of-band space (if any).
        """
        raise NotImplementedError

    def encode_shared(self, payload, n_consumers: int, *, ring: str | None = None):
        """Encode ``payload`` once for ``n_consumers`` independent receivers.

        Used by the worker pool to ship one run's bulk dispatch arguments:
        the same returned record is delivered to every rank, so the
        encoding must be safe to :meth:`decode` ``n_consumers`` times (the
        shared-memory transport backs it with one *refcounted* segment
        unlinked after the last consumer's acknowledgement).  Returning
        ``None`` declines -- the caller falls back to per-consumer
        :meth:`encode` -- which is what this base implementation does.
        """
        return None

    def dispose(self, record) -> None:
        """Release out-of-band resources of a record that won't be decoded.

        For multi-consumer records this is called once per *undelivered
        copy* and must release that copy's share of the refcount.
        """
        # In-band transports hold nothing outside the record itself.

    def ring_ack(self, receipt) -> None:
        """Apply a receiver acknowledgement in the sending process."""
        # In-band transports have no reclaimable out-of-band space.

    def retire_rings(self, names) -> None:
        """Release the named per-sender ring buffers (end of a fabric run)."""
        # In-band transports have no rings.

    def retire_shared(self) -> None:
        """Unlink every outstanding multi-consumer segment of this process."""
        # In-band transports have no shared segments.

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
    a no-op and ``ring`` hints are ignored.
    """

    name = "pickle"

    def __init__(self):
        self.stats = TransportStats()

    def encode(self, payload, *, ring: str | None = None):
        self.stats.encode_calls += 1
        return walk_encode(payload, lambda arr: None)

    def encode_shared(self, payload, n_consumers: int, *, ring: str | None = None):
        """One in-band record, safely decodable by any number of consumers."""
        self.stats.shared_encode_calls += 1
        return walk_encode(payload, lambda arr: None)

    def decode(self, record, *, ack=None):
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
