"""Execution-backend registry: the pluggable substrate of the PRO machine.

The machine layer (:class:`~repro.pro.machine.PROMachine`), the drivers
(:func:`~repro.core.parallel_matrix.sample_matrix_parallel`,
:func:`~repro.core.permutation.permute_distributed`), the CLI and the bench
harness all select their execution substrate by *name* through this module,
so a new backend becomes available everywhere by registering it once.

Backend contract
----------------
A backend is any object with

``name``
    A short identifier (``"inline"``, ``"thread"``, ``"process"``, ...).
``capabilities``
    A :class:`BackendCapabilities` record the machine uses for validation
    (e.g. a backend with ``multirank=False`` is rejected for ``p > 1``).
``create_fabric(n_procs, *, timeout)``
    Build the message fabric the ranks of one run communicate through.  The
    returned object must implement the :class:`~repro.pro.communicator.
    MessageFabric` interface (``put`` / ``get`` / ``barrier_wait`` /
    ``abort`` plus ``n_procs`` and ``timeout`` attributes); the default of
    :class:`ExecutionBackend` returns the in-process fabric shared by the
    inline and thread backends.  The fabric may also offer the rank-side
    sharing predicate ``is_shared(array)``: True only when every rank of
    the run sees a rank's writes to ``array`` (in-process and sim fabrics:
    always; the process fabric: arrays in a by-reference segment of the
    ranks' parent, per its transport).  Algorithm 1 writes its exchange
    pieces straight into the receivers' output slices when it holds for
    all of them.  A fabric without it shares nothing.
``run(contexts, program, args, kwargs)``
    Execute ``program(ctx, *args, **kwargs)`` once per context and return
    the per-rank results ordered by rank.
``empty(shape, dtype)`` (optional)
    Allocate an array the ranks can fill in place when it is passed to
    them as an argument, or return ``None`` when they cannot.  The default
    of :class:`ExecutionBackend` returns ``np.empty`` (the ranks share the
    caller's memory); the process backend asks its transport, whose
    ``sharedmem`` segment arrays cross by reference and whose ``pickle``
    declines.  Algorithm 1's drivers allocate their output vector here and
    keep it only if every rank's result occupies exactly the slice it was
    handed.

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
backend should accept a ``transport=`` option (a name resolved through
:mod:`repro.pro.backends.transport` or a duck-typed object with
``encode``/``decode``/``dispose``) and honour three rules:

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
  may additionally offer ``heal()`` (see the resilience sub-contract) to
  lift the poison explicitly -- poison-by-default stays the contract;
* the backend exposes an idempotent ``close()`` (wired to
  ``PROMachine.close`` and an ``atexit`` hook) that releases every
  out-of-band resource the fleet held.

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
* **Self-healing (optional).**  A backend with standing state may expose
  ``heal() -> bool``, called between attempts: return True once the next
  run can proceed on a clean substrate (the process backend respawns only
  the dead ranks of its poisoned pools into the standing fabric,
  re-handshaking their transports -- see ``WorkerPool.heal``), or False
  to make the resilience layer fall through to its degradation chain
  (``fallback=("thread", "inline")``-style) instead of retrying.  Set
  ``self_healing=True`` in :class:`BackendCapabilities` when provided.
  Backends without the hook are retried on a best-effort basis (the
  machine rebuilds cold fabrics per attempt anyway).

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
A backend that advertises ``deterministic_schedule=True`` is a *model
checker's substrate*, and :mod:`repro.pro.explore` drives it through four
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
::

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
"""

from __future__ import annotations

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
    blocking_p2p:
        Ranks may block in ``recv``/``barrier`` waiting for one another
        (required by the head/worker protocols of Algorithms 5 and 6).
    true_parallelism:
        Ranks run on separate OS schedulable entities that are not
        serialised by the CPython GIL for pure-Python work.
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
    deterministic_schedule:
        The interleaving of rank execution is fully determined by the
        backend's configuration (sim, and trivially inline): two identical
        runs step their ranks in the identical order, so schedule-dependent
        failures replay exactly.  Backends whose ranks are scheduled by the
        OS (thread, process) cannot promise this.
    self_healing:
        The backend exposes a ``heal()`` hook that recovers its standing
        state (poisoned worker fleets) between retry attempts, per the
        resilience sub-contract above.  Backends without it are still
        retryable -- cold substrates are rebuilt per attempt -- but a
        failed heal cannot be distinguished from "nothing to heal".
    """

    multirank: bool = True
    blocking_p2p: bool = True
    true_parallelism: bool = False
    shared_address_space: bool = True
    deterministic_schedule: bool = False
    self_healing: bool = False


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry: how to build a backend and what it promises."""

    name: str
    factory: Callable[..., "ExecutionBackend"]
    capabilities: BackendCapabilities
    description: str = ""


class ExecutionBackend:
    """Base class for execution backends (subclassing is optional).

    Provides the default in-process message fabric; subclasses override
    :meth:`run` and, when ranks live outside the calling address space,
    :meth:`create_fabric` as well.
    """

    name = "abstract"
    capabilities = BackendCapabilities()

    def create_fabric(self, n_procs: int, *, timeout: float) -> MessageFabric:
        """Build the message fabric one run's ranks communicate through."""
        return MessageFabric(n_procs, timeout=timeout)

    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Execute ``program`` once per context; return per-rank results."""
        raise NotImplementedError

    def empty(self, shape, dtype):
        """An array the ranks can fill in place (see the backend contract)."""
        return np.empty(shape, dtype=dtype)


# ----------------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------------
# The built-in backends register themselves at import time (each module
# calls register_backend at its bottom), and importing this module always
# executes the repro.pro.backends package __init__ first, which imports all
# three -- so by the time any lookup below can run, the builtins are there.
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

    ``capabilities`` defaults to the factory's class-level ``capabilities``
    attribute.  Re-registering an existing name raises unless
    ``overwrite=True`` (useful in tests that stub a backend).
    """
    if not isinstance(name, str) or not name:
        raise ValidationError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise ValidationError(f"backend factory for {name!r} must be callable")
    if name in _REGISTRY and not overwrite:
        raise ValidationError(
            f"backend {name!r} is already registered; pass overwrite=True to replace it"
        )
    if capabilities is None:
        capabilities = getattr(factory, "capabilities", None)
    if not isinstance(capabilities, BackendCapabilities):
        raise ValidationError(
            f"backend {name!r} needs BackendCapabilities (given or as a factory attribute)"
        )
    spec = BackendSpec(
        name=name, factory=factory, capabilities=capabilities, description=description
    )
    _REGISTRY[name] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a registered backend (intended for test clean-up)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    ``options`` are forwarded to the factory (e.g.
    ``get_backend("process", start_method="spawn")``).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered backends: {', '.join(available_backends())}"
        )
    return spec.factory(**options)


def backend_capabilities(name: str) -> BackendCapabilities:
    """Capability flags of the backend registered under ``name``."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered backends: {', '.join(available_backends())}"
        )
    return spec.capabilities


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(backend: str | ExecutionBackend, **options) -> ExecutionBackend:
    """Turn a backend name or instance into a validated backend instance.

    This is what :class:`~repro.pro.machine.PROMachine` calls: strings go
    through the registry (with ``options`` forwarded to the factory, e.g.
    ``transport="sharedmem"`` for the process backend), objects are
    accepted as-is provided they expose a ``run()`` method (duck-typed
    custom backends remain supported).  Options that a backend's factory
    does not understand are rejected with a
    :class:`~repro.util.errors.ValidationError` rather than silently
    ignored.
    """
    if isinstance(backend, str):
        if not options:
            return get_backend(backend)
        try:
            return get_backend(backend, **options)
        except TypeError as exc:
            # Only a call with options can fail on an unexpected keyword;
            # factory-internal TypeErrors without options propagate as-is.
            raise ValidationError(
                f"backend {backend!r} does not accept the options "
                f"{sorted(options)}: {exc}"
            ) from None
    if options:
        raise ValidationError(
            "backend options (e.g. transport=) only apply when the backend is "
            "given by name; configure a backend instance directly instead"
        )
    if not hasattr(backend, "run"):
        raise ValidationError("a backend object must expose a run() method")
    return backend
