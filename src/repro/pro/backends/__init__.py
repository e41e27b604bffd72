"""Execution backends for the PRO machine.

A backend takes an SPMD program (a callable ``program(ctx, *args, **kwargs)``)
and executes one copy per virtual processor.  Backends are *pluggable*: they
live in a registry (:mod:`repro.pro.backends.registry`) keyed by name, and
everything above the machine layer -- the drivers, the CLI, the bench
harness -- selects one with ``backend="inline" | "thread" | "process"`` (or
any custom registered name).

Built-in backends:

* :class:`~repro.pro.backends.thread.ThreadBackend` (``"thread"``) -- one
  Python thread per rank; ranks run concurrently and communicate through the
  in-process message fabric.  This is the default; NumPy releases the GIL for
  the bulk work so threads do overlap, and it supports the blocking point-to-
  point patterns of Algorithms 5 and 6.
* :class:`~repro.pro.backends.process.ProcessBackend` (``"process"``) -- one
  OS process per rank with a multiprocessing-queue fabric; true hardware
  parallelism without a shared GIL.  Results are bit-identical to the other
  backends for a given machine seed.
* :class:`~repro.pro.backends.inline.InlineBackend` (``"inline"``) -- runs a
  *single* rank in the calling thread; used for ``p = 1`` runs (the
  sequential reference inside the same harness) and for micro-benchmarks
  where thread start-up costs would drown the signal.
* :class:`~repro.pro.backends.sim.SimBackend` (``"sim"``) -- all ``p`` ranks
  stepped *cooperatively* under a seedable, replayable deterministic
  schedule (``schedule_seed=`` / ``schedule=``); blocking never consults a
  wall clock, so deadlocks -- e.g. from an injected fault -- are proved and
  reported immediately.  The debugging and test-sweep backend.

Fault injection (:mod:`repro.pro.backends.faults`) works against *any* of
them: :class:`~repro.pro.backends.faults.FaultInjectingBackend` wraps a
backend so its runs act out a declarative plan of rank crashes, dropped or
delayed messages, barrier timeouts and mid-transfer aborts, and
:func:`~repro.pro.backends.faults.shrink_schedule` minimises a failing sim
interleaving to a short reproducer.

The process backend additionally takes a *payload transport*
(``transport="sharedmem" | "pickle"``, see
:mod:`repro.pro.backends.transport`): the queue fabric carries only small
control records while bulk NumPy payloads travel through shared-memory
segments (zero-copy on the receive side; one segment per bulk message,
and by reference for memory the parent allocated) or, with
``"pickle"``, through the queue pipe as raw buffers.  With
``persistent=True`` the backend runs on a standing
:class:`~repro.pro.backends.pool.WorkerPool` of long-lived daemon ranks,
amortising process spawn across runs (the module-level :func:`~repro.pro.backends.pool.pool`
context manager wraps the whole machine lifecycle).  Driver calls are
*warm by default*: with ``backend="process"`` they borrow a keyed fleet
from the process-wide default pool cache
(:func:`~repro.pro.backends.pool.get_default_pool`) unless
``persistent=False`` forces the cold path.

See :mod:`repro.pro.backends.registry` for the backend contract (fabric
semantics, error-propagation rules, transport sub-contract) and for how to
register your own.
"""

from repro.pro.backends.registry import (
    BackendCapabilities,
    BackendSpec,
    ExecutionBackend,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.pro.backends.thread import ThreadBackend
from repro.pro.backends.inline import InlineBackend
from repro.pro.backends.process import ProcessBackend, ProcessFabric
from repro.pro.backends.transport import (
    PayloadTransport,
    PickleTransport,
    available_transports,
    get_transport,
    register_transport,
    resolve_transport,
)
from repro.pro.backends.sharedmem import SharedMemoryTransport
from repro.pro.backends.pool import WorkerPool, pool
from repro.pro.backends.sim import SimBackend, SimFabric
from repro.pro.backends.faults import (
    AbortTransfer,
    BarrierTimeout,
    CrashRank,
    DelayMessage,
    DropMessage,
    FaultInjectingBackend,
    FaultPlan,
    InjectedFault,
    shrink_schedule,
)

__all__ = [
    "WorkerPool",
    "pool",
    "SimBackend",
    "SimFabric",
    "AbortTransfer",
    "BarrierTimeout",
    "CrashRank",
    "DelayMessage",
    "DropMessage",
    "FaultInjectingBackend",
    "FaultPlan",
    "InjectedFault",
    "shrink_schedule",
    "BackendCapabilities",
    "BackendSpec",
    "ExecutionBackend",
    "ThreadBackend",
    "InlineBackend",
    "ProcessBackend",
    "ProcessFabric",
    "PayloadTransport",
    "PickleTransport",
    "SharedMemoryTransport",
    "available_backends",
    "available_transports",
    "backend_capabilities",
    "get_backend",
    "get_transport",
    "register_backend",
    "register_transport",
    "resolve_backend",
    "resolve_transport",
]
