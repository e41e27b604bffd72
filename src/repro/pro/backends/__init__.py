"""Execution backends for the PRO machine.

A backend takes an SPMD program (a callable ``program(ctx, *args, **kwargs)``)
and executes one copy per virtual processor.  Backends are *pluggable*: they
live in a registry (:mod:`repro.pro.backends.registry`) keyed by name, and
everything above the machine layer -- the drivers, the CLI, the bench
harness -- selects one with ``backend="inline" | "thread" | "process"`` (or
any custom registered name).

The registry knows the built-in backends by name and module path and
imports a built-in's module on the first lookup of its name, so a caller
loads only what it uses: importing this package loads the registry and the
thread and inline backends, and a thread or matrix caller never loads the
process stack (``multiprocessing``, shared memory, the worker pool).  The
package's other names (:class:`ProcessBackend`, :class:`SimBackend`, the
transport, the pool and the fault classes) load their module on first
access.  Third-party backends still register when their module is imported.

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

The process backend's queue fabric carries only small control records
while bulk NumPy payloads travel through shared-memory segments
(:class:`~repro.pro.backends.sharedmem.SharedMemoryTransport`: zero-copy
on the receive side, one segment per bulk message, and by reference for
memory the parent allocated), or in-band in the record where segments
cannot be created.  The
backend runs every run on a standing
:class:`~repro.pro.backends.pool.WorkerPool` of long-lived daemon ranks,
amortising process spawn across runs (the module-level :func:`~repro.pro.backends.pool.pool`
context manager wraps the whole machine lifecycle).  Driver calls with
``backend="process"`` borrow a keyed fleet from the process-wide default
pool cache (:func:`~repro.pro.backends.pool.get_default_pool`), so they
are warm from the second call on.

See :mod:`repro.pro.backends.registry` for the backend contract (fabric
semantics, error-propagation rules, payload rules) and for how to
register your own.
"""

import sys
import types
from importlib import import_module

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

# Every other public name loads its module on first access (PEP 562), so
# importing the package does not load the process stack.
_LAZY = {
    "ProcessBackend": "process",
    "ProcessFabric": "process",
    "SharedMemoryTransport": "sharedmem",
    "WorkerPool": "pool",
    "SimBackend": "sim",
    "SimFabric": "sim",
    "AbortTransfer": "faults",
    "BarrierTimeout": "faults",
    "CrashRank": "faults",
    "DelayMessage": "faults",
    "DropMessage": "faults",
    "FaultInjectingBackend": "faults",
    "FaultPlan": "faults",
    "InjectedFault": "faults",
    "shrink_schedule": "faults",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


class _Package(types.ModuleType):
    """Keeps ``pool`` the context manager of :mod:`repro.pro.backends.pool`.

    Importing that submodule binds the package attribute ``pool`` to the
    module; this property, which takes precedence over the module's
    namespace, answers with the function instead.
    """

    @property
    def pool(self):
        value = self.__dict__.get("pool")
        if value is None or isinstance(value, types.ModuleType):
            from repro.pro.backends.pool import pool as value
        return value

    @pool.setter
    def pool(self, value):
        self.__dict__["pool"] = value


sys.modules[__name__].__class__ = _Package

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
    "SharedMemoryTransport",
    "available_backends",
    "backend_capabilities",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
