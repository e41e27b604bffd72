"""The PRO machine: run SPMD programs on ``p`` virtual processors.

A *program* is an ordinary Python callable ``program(ctx, *args, **kwargs)``
executed once per virtual processor.  The :class:`ProcessorContext` it
receives bundles everything a coarse-grained algorithm needs:

``ctx.rank`` / ``ctx.n_procs``
    The processor id and the machine size.
``ctx.comm``
    A :class:`~repro.pro.communicator.Communicator` for message passing.
``ctx.rng``
    An independent per-processor random stream (optionally a
    :class:`~repro.rng.counting.CountingRNG` when the machine is created
    with ``count_random_variates=True``).
``ctx.cost``
    The processor's :class:`~repro.pro.cost.CostRecorder`.

Example
-------
>>> from repro.pro import PROMachine
>>> def hello(ctx):
...     return ctx.comm.allreduce(ctx.rank)
>>> machine = PROMachine(4, seed=0)
>>> machine.run(hello).results
[6, 6, 6, 6]
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.pro.backends.registry import ExecutionBackend, resolve_backend
from repro.pro.communicator import Communicator
from repro.pro.cost import CostRecorder, CostReport, MachineParameters
from repro.pro.resilience import RetryPolicy, active_deadline, run_with_recovery
from repro.pro.topology import Topology, topology_from_name
from repro.rng.counting import CountingRNG
from repro.rng.streams import StreamFactory
from repro.util.errors import ValidationError
from repro.util.validation import check_positive_int

__all__ = ["ProcessorContext", "RunResult", "PROMachine", "resolve_machine"]


@dataclass
class ProcessorContext:
    """Everything one virtual processor sees during a run."""

    rank: int
    n_procs: int
    comm: Communicator
    rng: Any
    cost: CostRecorder

    @property
    def is_root(self) -> bool:
        """True on rank 0 (the conventional root of rooted collectives)."""
        return self.rank == 0

    def log_compute(self, ops: int) -> None:
        """Charge ``ops`` basic operations to this processor's account."""
        self.cost.add_compute(ops)

    def log_random_variates(self, count: int) -> None:
        """Charge ``count`` random variates to this processor's account."""
        self.cost.add_random_variates(count)


@dataclass
class RunResult:
    """Per-rank return values plus the aggregated resource report of one run."""

    results: list
    cost_report: CostReport
    wall_clock_seconds: float
    n_procs: int

    def result(self, rank: int = 0):
        """Return value of one rank (rank 0 by default)."""
        return self.results[rank]

    def predicted_time(self, params: MachineParameters, **kwargs) -> float:
        """Predicted wall-clock on a machine described by ``params``.

        Convenience forwarding to
        :meth:`repro.pro.cost.CostReport.predicted_time`.
        """
        return self.cost_report.predicted_time(params, **kwargs)


class PROMachine:
    """A coarse-grained parallel machine with ``n_procs`` virtual processors.

    Parameters
    ----------
    n_procs:
        Number of virtual processors ``p``.
    seed:
        Seed (or ``numpy.random.SeedSequence``) from which the independent
        per-processor streams are derived.  Two machines built with the same
        seed and the same ``n_procs`` produce identical runs.
    backend:
        A backend name from the registry -- ``"thread"`` (default),
        ``"process"`` (one OS process per rank), ``"sim"`` (all ranks
        stepped cooperatively under a deterministic, seedable schedule;
        see :mod:`repro.pro.backends.sim`) or ``"inline"`` (only for
        ``n_procs == 1``) -- or an
        :class:`~repro.pro.backends.registry.ExecutionBackend` instance
        (see :mod:`repro.pro.backends.registry` for the contract).  For a
        fixed ``seed`` the per-rank streams, and hence the results, are
        identical across backends.
    backend_options:
        Extra keyword arguments forwarded to the backend factory when
        ``backend`` is a name, e.g.
        ``backend="process", backend_options={"transport": "sharedmem"}``.
        Rejected (``ValidationError``) when ``backend`` is an instance or
        when the factory does not understand an option.
    topology:
        Interconnect model used by the analytic time predictions; a
        :class:`~repro.pro.topology.Topology` instance or a name
        (``"fully-connected"``, ``"ring"``, ``"mesh"``, ``"hypercube"``).
    count_random_variates:
        When True each rank's stream is wrapped in a
        :class:`~repro.rng.counting.CountingRNG` and the consumed variates
        are transferred into the cost report at the end of the run.
    timeout:
        Seconds a blocking receive or barrier waits before declaring a
        deadlock.
    persistent:
        When True the machine runs on a *standing* worker fleet instead of
        paying backend start-up per run -- currently supported by the
        process backend, whose :class:`~repro.pro.backends.pool.WorkerPool`
        keeps ``p`` daemon ranks alive across ``run()`` calls.  Results stay bit-identical to the
        non-persistent machine for a fixed seed, because the per-rank
        streams are still derived in the parent on every run.  Requires a
        backend *name* (the flag is forwarded as the factory option
        ``persistent=True``; backends without the option reject it), and
        programs/arguments must be picklable.  Call :meth:`close` (or use
        the machine as a context manager, or the module-level
        :func:`repro.pro.backends.pool.pool` helper) to release the
        workers; they are also reaped by an ``atexit`` hook.

        The fleet is private to this machine by default; pass
        ``backend_options={"pool_scope": "process"}`` to borrow the
        process-wide default pool cache instead (what the drivers do for
        their warm-by-default calls; such fleets survive :meth:`close`
        and are released by
        :func:`repro.pro.backends.pool.clear_default_pools` or at
        interpreter exit).
    kernels:
        Kernel-tier request for the sampling hot paths
        (``"auto"``/``"numba"``/``"numpy"``; ``None`` defers to the
        ``REPRO_KERNELS`` environment variable).  The machine itself only
        validates and stores it; the drivers forward :attr:`kernels` into
        the programs they run, where each rank resolves it against
        :mod:`repro.core.kernels`.  Bit-identical across tiers for a
        fixed seed.
    retry:
        Recovery policy for transient backend failures: ``None`` (default)
        keeps today's fail-fast behaviour, an ``int`` gives that many
        total attempts, a :class:`~repro.pro.resilience.RetryPolicy` adds
        backoff, a wall-clock ``deadline`` and a ``fallback`` chain of
        degraded backends.  Every attempt replays the *same* per-rank
        streams (the seed-sequence children are spawned once per
        ``run()``), so a recovered run is bit-identical to a fault-free
        one; see :mod:`repro.pro.resilience` for the contract.
    telemetry:
        A :class:`~repro.pro.telemetry.Telemetry` recorder (or ``None``,
        the default, for no collection).  Every completed ``run()``
        appends one :class:`~repro.pro.telemetry.FleetReport` merging the
        per-rank transport counters repatriated on the
        cost recorders with the pool/resilience events observed during
        the run.  Collection is passive: results and RNG accounting stay
        bit-identical with telemetry on or off.
    """

    def __init__(
        self,
        n_procs: int,
        *,
        seed=None,
        backend: str | ExecutionBackend = "thread",
        backend_options: dict | None = None,
        topology: str | Topology = "fully-connected",
        count_random_variates: bool = False,
        timeout: float = 60.0,
        persistent: bool = False,
        kernels: str | None = None,
        retry: int | RetryPolicy | None = None,
        telemetry=None,
    ):
        self.n_procs = check_positive_int(n_procs, "n_procs")
        self._stream_factory = StreamFactory(seed)
        self.count_random_variates = bool(count_random_variates)
        self.timeout = float(timeout)
        self.retry_policy = RetryPolicy.resolve(retry)
        if telemetry is not None and not hasattr(telemetry, "record"):
            raise ValidationError(
                "telemetry must be a repro.pro.telemetry.Telemetry recorder "
                "(an object with a record(report) method) or None"
            )
        self.telemetry = telemetry
        if kernels is not None:
            # Validate the request eagerly (unknown names fail at machine
            # construction, not mid-run on a worker); resolution to an
            # actual tier happens per rank inside the programs.
            from repro.core.kernels import normalize_kernels

            kernels = normalize_kernels(kernels)
        self.kernels = kernels
        if persistent:
            if not isinstance(backend, str):
                raise ValidationError(
                    "persistent=True only applies when the backend is given by "
                    "name; configure a backend instance with persistent=True "
                    "directly instead"
                )
            backend_options = {**(backend_options or {}), "persistent": True}

        if isinstance(topology, Topology):
            if topology.n_nodes != self.n_procs:
                raise ValidationError(
                    f"topology has {topology.n_nodes} nodes but the machine has {self.n_procs}"
                )
            self.topology = topology
        else:
            self.topology = topology_from_name(str(topology), self.n_procs)

        self.backend = resolve_backend(backend, **(backend_options or {}))
        if not self.backend.capabilities.multirank and self.n_procs != 1:
            raise ValidationError(
                f"the {self.backend.name} backend requires n_procs == 1"
            )

    # -- running programs -------------------------------------------------------
    def _build_contexts(self, children=None, *, timeout: float | None = None) -> list[ProcessorContext]:
        timeout = self.timeout if timeout is None else float(timeout)
        fabric = self.backend.create_fabric(self.n_procs, timeout=timeout)
        if children is None:
            streams = self._stream_factory.processor_streams(self.n_procs)
        else:
            # Replay path: rebuild fresh, unadvanced generators from the
            # immutable children this run() call spawned, so every retry
            # attempt draws exactly what the first attempt drew.
            streams = self._stream_factory.streams_from_children(children)
        contexts = []
        for rank in range(self.n_procs):
            cost = CostRecorder(rank)
            rng = CountingRNG(streams[rank]) if self.count_random_variates else streams[rank]
            comm = Communicator(fabric, rank, cost)
            contexts.append(ProcessorContext(rank=rank, n_procs=self.n_procs, comm=comm, rng=rng, cost=cost))
        return contexts

    def _attempt(self, program: Callable, args: tuple, kwargs: dict,
                 children, *, deadline=None) -> RunResult:
        """One execution of ``program`` on freshly rebuilt contexts.

        ``children`` are the seed-sequence children of the owning ``run()``
        call; ``deadline`` (a :class:`~repro.pro.resilience.Deadline`)
        clamps the fabric timeout and is published thread-locally so
        deadline-aware layers (the worker pool's dispatch loop) can bound
        their own waits.
        """
        timeout = self.timeout if deadline is None else deadline.clamp(self.timeout)
        contexts = self._build_contexts(children, timeout=timeout)
        start = time.perf_counter()
        with active_deadline(deadline):
            results = self.backend.run(contexts, program, args, kwargs)
        elapsed = time.perf_counter() - start

        if self.count_random_variates:
            for ctx in contexts:
                ctx.cost.add_random_variates(ctx.rng.total_variates)

        report = CostReport([ctx.cost for ctx in contexts])
        return RunResult(
            results=results,
            cost_report=report,
            wall_clock_seconds=elapsed,
            n_procs=self.n_procs,
        )

    def run(self, program: Callable, *args, **kwargs) -> RunResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every virtual processor.

        Returns a :class:`RunResult` with the per-rank return values (ordered
        by rank), the aggregated :class:`~repro.pro.cost.CostReport` and the
        measured wall-clock time of the whole run.  With a ``retry`` policy
        configured, transient backend failures are retried (and optionally
        degraded to fallback backends) with bit-identical streams; see
        :mod:`repro.pro.resilience`.

        .. note::
           Each call spawns fresh per-processor random streams derived from
           the machine seed, so *consecutive* runs of the same machine see
           different randomness while two machines created with the same seed
           replay identical sequences of runs.
        """
        if not callable(program):
            raise ValidationError("program must be callable: program(ctx, *args, **kwargs)")
        children = self._stream_factory.spawn(self.n_procs)
        if self.telemetry is None:
            if self.retry_policy is None:
                return self._attempt(program, args, kwargs, children)
            return run_with_recovery(self, program, args, kwargs, children)

        from repro.pro.telemetry import FleetReport, event_seq, events_since

        window_start = event_seq()
        if self.retry_policy is None:
            result = self._attempt(program, args, kwargs, children)
        else:
            result = run_with_recovery(self, program, args, kwargs, children)
        self.telemetry.record(
            FleetReport.from_run(self, result, events_since(window_start))
        )
        return result

    # -- lifecycle ----------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        """True when the machine's backend keeps a standing worker fleet."""
        return self.backend.persistent

    def close(self) -> None:
        """Release backend resources held across runs (idempotent).

        Only persistent backends hold any (the process backend's standing
        worker pools); for every other configuration this is a no-op.
        Running a persistent machine again after ``close`` simply spawns a
        fresh fleet -- but a *poisoned* fleet (a worker crashed) is not
        replaced: every later run raises
        :class:`~repro.util.errors.BackendError` until the machine is
        rebuilt.
        """
        self.backend.close()

    def __enter__(self) -> "PROMachine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- convenience --------------------------------------------------------------
    def map_blocks(self, func: Callable, blocks: Sequence[np.ndarray]) -> list:
        """Apply ``func(ctx, block)`` with block ``i`` on rank ``i`` (helper for examples).

        ``blocks`` must have exactly ``n_procs`` entries.
        """
        if len(blocks) != self.n_procs:
            raise ValidationError(
                f"map_blocks needs {self.n_procs} blocks, got {len(blocks)}"
            )

        def program(ctx):
            return func(ctx, blocks[ctx.rank])

        return self.run(program).results

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PROMachine(n_procs={self.n_procs}, backend={self.backend.name!r}, "
            f"topology={type(self.topology).__name__})"
        )


def resolve_machine(
    n_procs: int,
    *,
    machine: PROMachine | None = None,
    backend: str | object | None = None,
    seed=None,
    transport: str | object | None = None,
    persistent: bool | None = None,
    schedule_seed: int | None = None,
    kernels: str | None = None,
    retry: int | RetryPolicy | None = None,
    telemetry=None,
) -> PROMachine:
    """Return ``machine``, or build one with ``n_procs`` ranks from the machine options.

    This is the one home of the driver-level machine options.  Every driver
    (:func:`~repro.core.permutation.permute_distributed`,
    :func:`~repro.core.permutation.random_permutation`,
    :func:`~repro.core.permutation.random_permutation_indices`,
    :func:`~repro.core.parallel_matrix.sample_matrix_parallel` and
    :func:`~repro.core.api.sample_communication_matrix` with
    ``parallel=True``) forwards its ``**machine_options`` here verbatim, so
    this signature is the allow-list (a misspelled option raises
    ``TypeError``) and the options are:

    ``backend``
        A registered backend name -- ``"thread"`` (the default),
        ``"process"``, ``"sim"`` or ``"inline"`` (``n_procs == 1`` only) --
        or a backend instance.
    ``seed``
        Seed of the per-rank streams.  A fixed seed is bit-identical across
        every combination of the other options, retried, degraded and
        telemetry-collected runs included.
    ``transport``
        Payload transport of the process backend (``"sharedmem"`` or
        ``"pickle"``); rejected for backends without the option.
    ``persistent``
        Tri-state standing-fleet control of the process backend.  The
        default (``None``) already runs **warm**: the machine borrows a keyed
        standing fleet from the process-wide default pool cache
        (:func:`repro.pro.backends.pool.get_default_pool`), so repeated
        driver calls stop paying ``p`` process spawns each.  ``False``
        forces a cold spawn per call; ``True`` makes the warm request
        explicit and is rejected by backends without the option.
    ``schedule_seed``
        Rank-interleaving seed of the sim backend; every schedule yields the
        same results.  Rejected for backends without the option.
    ``kernels``
        Kernel tier of the sampling hot path (``"auto"``/``"numba"``/
        ``"numpy"``; ``None`` defers to ``REPRO_KERNELS``), forwarded by the
        drivers into their programs.
    ``retry``
        Transient-failure recovery: an attempt count or a
        :class:`~repro.pro.resilience.RetryPolicy`.  The run is replayed
        with the same per-rank streams, after dead ranks are respawned.
    ``telemetry``
        A :class:`~repro.pro.telemetry.Telemetry` recorder; every run
        appends one :class:`~repro.pro.telemetry.FleetReport`.

    A pre-configured ``machine`` already fixes all of them, so passing it
    together with any option that is not ``None`` raises
    :class:`~repro.util.errors.ValidationError` naming the options (build
    the machine with them instead).

    Examples
    --------
    >>> from repro.pro.machine import resolve_machine
    >>> machine = resolve_machine(2, seed=0)          # thread backend
    >>> machine.n_procs
    2
    >>> resolve_machine(4, backend="process").persistent  # warm by default
    True
    >>> resolve_machine(4, backend="process", persistent=False).persistent
    False
    """
    if machine is not None:
        given = [name for name, value in (
            ("backend", backend), ("seed", seed), ("transport", transport),
            ("persistent", persistent), ("schedule_seed", schedule_seed),
            ("kernels", kernels), ("retry", retry), ("telemetry", telemetry),
        ) if value is not None]
        if given:
            raise ValidationError(
                f"pass either a pre-configured machine or {', '.join(given)}, "
                "not both (build the machine with them instead)"
            )
        return machine
    options = {}
    if transport is not None:
        options["transport"] = transport
    if schedule_seed is not None:
        options["schedule_seed"] = schedule_seed
    name = "thread" if backend is None else backend
    # Warm-by-default: unless the caller forces the cold path, process
    # machines built by the drivers share the process-wide default pool
    # cache instead of spawning p ranks per call.
    warm = (name == "process") if persistent is None else bool(persistent)
    if warm and name == "process":
        options["pool_scope"] = "process"
    return PROMachine(
        n_procs, seed=seed, backend=name,
        backend_options=options, persistent=warm, kernels=kernels,
        retry=retry, telemetry=telemetry,
    )
