"""Execution-backend registry: the pluggable substrate of the PRO machine.

The machine layer (:class:`~repro.pro.machine.PROMachine`), the drivers
(:func:`~repro.core.parallel_matrix.sample_matrix_parallel`,
:func:`~repro.core.permutation.permute_distributed`), the CLI and the bench
harness all select their execution substrate by *name* through this module,
so a new backend becomes available everywhere by registering it once.

Backend contract
----------------
A backend is an instance of a subclass of :class:`ExecutionBackend`;
:func:`resolve_backend` rejects any other object.  A subclass sets
``name`` and ``capabilities`` and overrides :meth:`~ExecutionBackend.run`;
every other hook has a default in the base class that is right for a
backend whose ranks share the caller's address space and that keeps
nothing across runs:

``name``
    A short identifier (``"inline"``, ``"thread"``, ``"process"``, ...).
``capabilities``
    A :class:`BackendCapabilities` record the machine uses for validation
    (e.g. a backend with ``multirank=False`` is rejected for ``p > 1``).
``run(contexts, program, args, kwargs)``
    Execute ``program(ctx, *args, **kwargs)`` once per context and return
    the per-rank results ordered by rank.  The only hook without a
    default.
``create_fabric(n_procs, *, timeout)``
    Build the message fabric the ranks of one run communicate through:
    ``put`` / ``get`` / ``barrier_wait`` / ``abort`` / ``is_shared`` plus
    ``n_procs`` and ``timeout`` attributes.  Default: the in-process
    :class:`~repro.pro.communicator.MessageFabric`.  ``is_shared(array)``
    is the rank-side sharing predicate: True only when every rank of the
    run sees a rank's writes to ``array`` (in-process and sim fabrics:
    always; the process fabric: arrays in a by-reference segment of the
    ranks' parent, per its transport).  Algorithm 1 writes its exchange
    pieces straight into the receivers' output slices when it holds for
    all of them.
``empty(shape, dtype)``
    Allocate an array the ranks can fill in place when it is passed to
    them as an argument, or return ``None`` when they cannot.  Default:
    ``np.empty`` (the ranks share the caller's memory); the process
    backend asks its transport, whose ``sharedmem`` segment arrays cross
    by reference and whose ``pickle`` declines.  Algorithm 1's drivers
    allocate their output vector here and keep it only if every rank's
    result occupies exactly the slice it was handed.
``persistent``
    True when the backend keeps a standing worker fleet across runs
    (default ``False``; see the persistence sub-contract).
``transport``
    The :class:`~repro.pro.backends.transport.PayloadTransport` of an
    out-of-address-space backend, read by telemetry; default ``None``.
``close()``
    Release what the backend holds across runs; idempotent.  Default: a
    no-op.
``heal() -> bool``
    Restore standing state between the attempts of a retried run (see
    the resilience sub-contract).  Default: ``True`` -- a backend that
    keeps nothing across runs gets a fresh fabric per attempt anyway.

Error-propagation rules (all backends mirror the thread backend):

* when any rank raises, the fabric's barrier is aborted so sibling ranks
  blocked in ``barrier()`` or a blocking receive fail fast instead of
  timing out;
* after all ranks have stopped, the *root cause* is re-raised in the
  caller's thread: the first rank (by rank order) that failed with a real
  error is preferred over ranks that merely observed the broken barrier
  (a :class:`~repro.util.errors.CommunicationError`);
* plain exceptions are wrapped in :class:`~repro.util.errors.BackendError`
  with the rank recorded in the message; ``KeyboardInterrupt`` and friends
  propagate unchanged where the backend can preserve them.

Backends that execute ranks outside the calling address space (the process
backend) must additionally ship each rank's :class:`~repro.pro.cost.
CostRecorder` state and random-variate counts back to the caller and fold
them into the contexts before ``run`` returns, so that cost reports stay
backend-independent.

Transport sub-contract (out-of-address-space backends)
------------------------------------------------------
How payload bytes cross the address-space gap is itself pluggable: such a
backend should accept a ``transport=`` option (``"sharedmem"``,
``"pickle"`` or a :class:`~repro.pro.backends.transport.PayloadTransport`
instance, resolved through
:func:`~repro.pro.backends.transport.resolve_transport`) and honour three
rules:

* the queue/control channel carries only small records -- bulk array bytes
  go through the transport (``"sharedmem"`` ships them through
  ``multiprocessing.shared_memory`` segments with zero-copy receive views,
  ``"pickle"`` keeps the historic in-band buffer codec);
* transports never touch the random streams, so a fixed machine seed stays
  bit-identical across transports as well as across backends;
* every record that is *not* decoded (abort, timeout, crash) must be
  handed to ``transport.dispose`` during fabric shutdown so out-of-band
  resources are released (see ``ProcessFabric.shutdown``).

Persistence sub-contract (standing worker fleets)
-------------------------------------------------
A backend that can amortise its rank start-up across runs should accept a
``persistent=True`` factory option (the machine's ``persistent=True``
kwarg forwards it) and honour three rules, modelled by the process
backend's :class:`~repro.pro.backends.pool.WorkerPool`:

* per-rank RNG streams are still built by the machine in the parent for
  *every* run, so a fixed seed stays bit-identical between persistent and
  cold execution (the process backend runs a cold run as a one-epoch
  ``WorkerPool``, so both share one execution path);
* a failed run poisons the standing fleet (subsequent runs raise
  :class:`~repro.util.errors.BackendError`) rather than silently reusing
  communication state that may hold stray messages; a *supervised* fleet
  overrides ``heal()`` (see the resilience sub-contract) to lift the
  poison explicitly -- poison-by-default stays the contract;
* the backend overrides the idempotent ``close()`` (wired to
  ``PROMachine.close`` and an ``atexit`` hook) to release every
  out-of-band resource the fleet held, and sets ``persistent``.

A backend may additionally accept ``pool_scope="process"`` to borrow its
fleets from the process-wide default pool cache
(:func:`repro.pro.backends.pool.get_default_pool`) instead of keeping
private ones -- this is what makes the drivers' repeated
``backend="process"`` calls warm by default.  Shared fleets survive the
backend's ``close()`` (the cache owns them: poison-on-failure eviction,
LRU cap, ``clear_default_pools()`` plus an ``atexit`` hook), and the
transport's ``cache_key()`` decides which configurations may share one.

Resilience sub-contract (retry, deadlines, self-healing)
--------------------------------------------------------
Backends do not orchestrate retries themselves -- that is the machine's
resilience layer (:mod:`repro.pro.resilience`, enabled by the machine's
``retry=`` kwarg).  What a backend must (and may) provide for the layer to
work:

* **Error taxonomy.**  Raise sites use
  :func:`~repro.util.errors.wrap_rank_failure`, which classifies the
  caller-side error as :class:`~repro.util.errors.TransientBackendError`
  when the root cause is a substrate failure (a dead rank, a broken
  barrier, a timed-out wait -- anything with a truthy ``transient``
  attribute) and as the plain, fatal
  :class:`~repro.util.errors.BackendError` for deterministic program
  bugs, which a bit-identical replay would simply reproduce.  Only
  transient failures are retried.
* **Deterministic replay.**  Because per-rank streams are built by the
  machine in the parent for every attempt (from the *same* captured
  seed-sequence children), a backend that ships streams correctly makes
  retried epochs bit-identical to a fault-free run automatically -- no
  backend code is involved.
* **Deadlines.**  The machine clamps the fabric timeout it passes to
  ``create_fabric`` to the attempt's remaining deadline budget, so a
  stuck barrier or receive surfaces as a typed error within bound; a
  backend whose parent-side collection loop can outlive the fabric
  timeout should additionally consult
  :func:`~repro.pro.resilience.current_deadline` and raise
  :class:`~repro.util.errors.DeadlineError` when it expires.
* **Self-healing.**  A backend with standing state overrides
  ``heal() -> bool``, called between attempts: return True once the next
  run can proceed on a clean substrate (the process backend keeps every
  rank of its poisoned pools that reported its failure, and respawns the
  whole fleet when a rank died -- see ``WorkerPool.heal``), or False
  to make the resilience layer fall through to its degradation chain
  (``fallback=("thread", "inline")``-style) instead of retrying.  The
  base class's ``heal()`` returns True: a backend without
  standing state is retried on the fresh fabric the machine builds per
  attempt.

Kernel-tier sub-contract (sampling hot paths)
---------------------------------------------
Orthogonal to *where* ranks execute, the programs they run select a
sampling **kernel tier** through :mod:`repro.core.kernels` (the machine's
``kernels=`` kwarg rides into the programs; ``REPRO_KERNELS`` is the
ambient default).  Backends never interpret the request -- they only have
to preserve two properties that make it backend-invariant:

* tiers draw raw words from the rank's own bit generator (see
  :mod:`repro.core.kernels.wordstream`), so a backend that ships per-rank
  streams correctly gets tier bit-exactness for free: a fixed seed is
  identical across every backend x transport x persistence x tier cell;
* each rank notes the tier it actually ran (and its one-time JIT warm-up
  cost) on its :class:`~repro.pro.cost.CostRecorder`
  (``note_kernel_tier``), so backends that repatriate recorder state --
  which out-of-address-space backends must do anyway, see above -- also
  repatriate the per-rank tier choice for ``CostReport.kernel_tiers()``.

Telemetry/repatriation sub-contract (fleet observability)
---------------------------------------------------------
The machine's ``telemetry=`` kwarg (a
:class:`~repro.pro.telemetry.Telemetry` recorder) merges one
:class:`~repro.pro.telemetry.FleetReport` per run from data the backends
repatriate.  The vehicle is the cost contract above: anything attached to
a rank's :class:`~repro.pro.cost.CostRecorder` crosses the address-space
gap with the existing result record, with no wire-format change.  Rules:

* an out-of-address-space backend snapshots each rank's transport
  counters onto ``ctx.cost.telemetry``
  (:func:`~repro.pro.telemetry.capture_rank_telemetry`) just before the
  rank's result record is queued -- cold and persistent runs alike;
* in-address-space backends (inline/thread/sim) attach nothing; the
  parent reports a **zeroed** transport section for their ranks rather
  than omitting it, so the report schema is backend-invariant;
* parent-side lifecycle is *event-sourced*, not repatriated: the pool
  supervisor and the resilience layer call
  :func:`~repro.pro.telemetry.record_event` (spawn/heal/poison/evict,
  retry/degraded/deadline-clamp) and the machine attributes each run the
  events observed during its window;
* collection is passive -- it never touches the per-rank random streams,
  so a fixed seed is bit-identical with telemetry on or off (guarded by
  the determinism grid in ``tests/unit/test_telemetry.py``), and the
  warm-dispatch overhead is gated at <= 1.05x in
  ``benchmarks/check_bench_regression.py``.

Exploration sub-contract (schedule coverage)
--------------------------------------------
A backend whose rank interleaving is fully determined by its
configuration is a *model checker's substrate*, and :mod:`repro.pro.explore` drives it through four
surfaces the sim backend defines: a replayable decision trace published on
``last_schedule`` after **every** run -- completed, failed or interrupted,
reset to ``None`` when a new run starts so stale traces cannot masquerade
as current; a ``last_decisions`` log of ``(runnable ranks, their pending
fabric ops, choice)`` per decision, which is what lets the explorer flip
prefixes and prune flips between independent operations; a
``last_op_log`` of completed fabric operations in occurrence order (the
raw material of trace fingerprints); and the ``policy=`` /
``max_decisions=`` options -- a pluggable ``choose(step, runnable,
pending)`` scheduling policy (e.g. the PCT sampler) and a decision bound
that turns would-be hangs into immediate
:class:`~repro.pro.backends.sim.ScheduleLimitExceeded` failures.  Any
future deterministic backend (e.g. a recorded-schedule MPI harness)
should implement the same four surfaces to plug into ``repro explore``
unchanged.

Registering a backend
---------------------
A backend subclasses :class:`ExecutionBackend`; the registry and the
machine accept nothing else::

    from repro.pro.backends.registry import (
        BackendCapabilities, ExecutionBackend, register_backend,
    )

    class MyBackend(ExecutionBackend):
        name = "my-backend"
        capabilities = BackendCapabilities(multirank=True, ...)
        def run(self, contexts, program, args, kwargs):
            ...

    register_backend("my-backend", MyBackend,
                     description="one rank per <whatever>")

    PROMachine(4, backend="my-backend")

The built-in backends are not registered this way: the registry knows
them by name and module path and imports a built-in's module at the first
lookup of its name, so a caller loads only the backends it uses.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.pro.communicator import MessageFabric
from repro.util.errors import ValidationError

__all__ = [
    "BackendCapabilities",
    "BackendSpec",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "backend_capabilities",
    "available_backends",
    "resolve_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution backend can and cannot do.

    Attributes
    ----------
    multirank:
        The backend can execute programs with more than one rank.  Backends
        without it (inline) are rejected by the machine for ``p > 1``.
    shared_address_space:
        Ranks share the caller's address space: programs may close over
        arbitrary objects and mutate shared state, including buffers the
        caller owns and passes as arguments.  A backend that copies its
        arguments before calling the program must declare ``False``;
        Algorithm 1's drivers then copy their input into the output
        vector from ``empty`` (single-attempt runs only), since handing
        the ranks the caller's own blocks would cost a copy anyway.
        Backends without it (process)
        require picklable programs/arguments and ship results, cost
        records and variate counts back explicitly.
    """

    multirank: bool = True
    shared_address_space: bool = True


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry: how to build a backend and what it promises."""

    name: str
    factory: Callable[..., "ExecutionBackend"]
    capabilities: BackendCapabilities
    description: str = ""


class ExecutionBackend:
    """Base class of every execution backend (see the backend contract).

    Subclasses override :meth:`run`, and the other hooks when the
    defaults here -- in-process fabric, ``np.empty``, no standing state
    -- do not fit.
    """

    name = "abstract"
    capabilities = BackendCapabilities()
    #: True when the backend keeps a standing worker fleet across runs.
    persistent = False
    #: The payload transport of an out-of-address-space backend.
    transport = None

    def create_fabric(self, n_procs: int, *, timeout: float) -> MessageFabric:
        """Build the message fabric one run's ranks communicate through."""
        return MessageFabric(n_procs, timeout=timeout)

    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Execute ``program`` once per context; return per-rank results."""
        raise NotImplementedError

    def empty(self, shape, dtype):
        """An array the ranks can fill in place (see the backend contract)."""
        return np.empty(shape, dtype=dtype)

    def close(self) -> None:
        """Release resources held across runs (idempotent)."""

    def heal(self) -> bool:
        """Restore standing state between retry attempts; True when ready."""
        return True


# ----------------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------------
# The built-in backends by name: the module that defines each, its factory
# and its description.  A built-in's module is imported on the first lookup
# of its name, so a caller loads only the backends it uses (a thread or
# matrix caller never loads the process stack: multiprocessing, shared
# memory, the worker pool).  Third-party backends register at import time
# through register_backend; a name registered that way, built-in or not,
# takes precedence over the table.
_BUILTINS: dict[str, tuple[str, str, str]] = {
    "inline": ("repro.pro.backends.inline", "InlineBackend",
               "single rank in the calling thread (p == 1 only)"),
    "thread": ("repro.pro.backends.thread", "ThreadBackend",
               "one Python thread per rank sharing the caller's address space"),
    "process": ("repro.pro.backends.process", "ProcessBackend",
                "one OS process per rank; true parallelism, queue fabric with "
                "pluggable payload transport (sharedmem default, pickle)"),
    "sim": ("repro.pro.backends.sim", "SimBackend",
            "all ranks stepped cooperatively under a seedable, "
            "replayable deterministic schedule (single execution baton)"),
}
_REGISTRY: dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    factory: Callable[..., ExecutionBackend],
    *,
    capabilities: BackendCapabilities | None = None,
    description: str = "",
    overwrite: bool = False,
) -> BackendSpec:
    """Register ``factory`` (usually the backend class) under ``name``.

    ``capabilities`` defaults to those of ``factory`` when it is an
    :class:`ExecutionBackend` subclass.  Re-registering an existing name, a built-in one included,
    raises unless ``overwrite=True`` (useful in tests that stub a backend).
    """
    if not isinstance(name, str) or not name:
        raise ValidationError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise ValidationError(f"backend factory for {name!r} must be callable")
    if (name in _REGISTRY or name in _BUILTINS) and not overwrite:
        raise ValidationError(
            f"backend {name!r} is already registered; pass overwrite=True to replace it"
        )
    if capabilities is None and isinstance(factory, type) and issubclass(factory, ExecutionBackend):
        capabilities = factory.capabilities
    if not isinstance(capabilities, BackendCapabilities):
        raise ValidationError(
            f"backend {name!r} needs BackendCapabilities (given, or those of "
            "the ExecutionBackend subclass it registers)"
        )
    spec = BackendSpec(
        name=name, factory=factory, capabilities=capabilities, description=description
    )
    _REGISTRY[name] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a registered backend (intended for test clean-up).

    A built-in name falls back to its built-in backend at the next lookup.
    """
    _REGISTRY.pop(name, None)


def _spec(name: str) -> BackendSpec:
    """The registry entry for ``name``, loading a built-in on its first lookup."""
    spec = _REGISTRY.get(name)
    if spec is None and name in _BUILTINS:
        module, attribute, description = _BUILTINS[name]
        factory = getattr(importlib.import_module(module), attribute)
        # setdefault: a stub registered meanwhile keeps the name.
        spec = _REGISTRY.setdefault(
            name, BackendSpec(name, factory, factory.capabilities, description)
        )
    if spec is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered backends: {', '.join(available_backends())}"
        )
    return spec


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    ``options`` are forwarded to the factory (e.g.
    ``get_backend("process", start_method="spawn")``).
    """
    return _spec(name).factory(**options)


def backend_capabilities(name: str) -> BackendCapabilities:
    """Capability flags of the backend registered under ``name``."""
    return _spec(name).capabilities


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends, built-ins not yet loaded included."""
    return tuple(sorted(_REGISTRY.keys() | _BUILTINS.keys()))


def resolve_backend(backend: str | ExecutionBackend, **options) -> ExecutionBackend:
    """Turn a backend name or instance into a validated backend instance.

    This is what :class:`~repro.pro.machine.PROMachine` calls: strings go
    through the registry (with ``options`` forwarded to the factory, e.g.
    ``transport="sharedmem"`` for the process backend), and
    :class:`ExecutionBackend` instances are accepted as-is.  Any other
    object -- given, or built by a registered factory -- and options that
    a backend's factory does not understand are rejected with a
    :class:`~repro.util.errors.ValidationError`.
    """
    if isinstance(backend, str):
        name = backend
        try:
            backend = get_backend(name, **options)
        except TypeError as exc:
            if not options:
                raise  # a factory-internal TypeError propagates as-is
            raise ValidationError(
                f"backend {name!r} does not accept the options "
                f"{sorted(options)}: {exc}"
            ) from None
    elif options:
        raise ValidationError(
            "backend options (e.g. transport=) only apply when the backend is "
            "given by name; configure a backend instance directly instead"
        )
    if not isinstance(backend, ExecutionBackend):
        raise ValidationError(
            f"a backend must be a registered name or an ExecutionBackend "
            f"instance, got {type(backend).__name__}"
        )
    return backend
