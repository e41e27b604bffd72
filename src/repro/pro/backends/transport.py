"""The in-band payload codec and the transport counters.

The process backend's one payload transport,
:class:`~repro.pro.backends.sharedmem.SharedMemoryTransport`, moves bulk
NumPy arrays through shared-memory segments.  Everything else -- small
arrays, plain objects, and every array once segments cannot be created
(no ``/dev/shm``, a full one) -- travels *in-band*, inside the picklable
control record itself.  This module holds that in-band codec, which the
transport builds on: :func:`walk_encode` turns NumPy arrays into
``(dtype, shape, bytes)`` records (nested containers are walked
recursively; object arrays are pickled whole) and :func:`walk_decode`
rebuilds fresh writable copies.  Both take a hook that lets the
shared-memory transport claim arrays first.

The codec never touches the random streams, so a fixed machine seed
produces bit-identical results whichever path the bytes take (enforced by
``tests/integration/test_cross_backend_determinism.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.errors import ValidationError

__all__ = ["TransportStats", "walk_decode", "walk_encode"]

# Markers of the in-band payload encoding.
_ND, _TUPLE, _LIST, _DICT, _RAW = "nd", "tuple", "list", "dict", "raw"
#: Marker of a zero-copy reference into a shared-memory segment.
SHMREF = "shmref"
#: Marker of a record whose bulk arrays live in one dedicated segment
#: (created per message, unlinked by the receiver on decode).
SHMSEG = "shmseg"
#: Marker of a *by-reference* array: ``(SHMVIEW, segment name, creator
#: pid, shared, byte offset, dtype, shape)`` names memory both sides map
#: (see ``SharedMemoryTransport.empty``); nothing was copied to encode it.
#: ``shared`` is False for a staged copy of a run's private arguments.
SHMVIEW = "shmview"


class TransportStats:
    """Monotonic per-instance counters (observability, tests, bench gates).

    The transport exposes one as its ``stats`` attribute.  The
    interesting invariants they pin: pool dispatch encodes bulk
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


def walk_encode(obj, array_hook: Callable[[np.ndarray], tuple | None] | None = None):
    """Encode ``obj`` recursively; ``array_hook`` may claim arrays first.

    ``array_hook(arr)``, when given, returns a record to use for ``arr``
    or ``None`` to fall through to the inline ``(dtype, shape, bytes)``
    encoding.  Object dtype arrays always travel as plain pickles (their
    buffers hold pointers that are meaningless in another address space).
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return (_RAW, obj)
        record = None if array_hook is None else array_hook(obj)
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
