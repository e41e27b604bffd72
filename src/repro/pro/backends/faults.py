"""Schedule-driven fault injection for every execution backend.

The permutation and matrix algorithms are only trustworthy if the whole
backend matrix fails *cleanly*: a crashed rank, a dropped message or a
broken barrier must surface as a :class:`~repro.util.errors.BackendError`
in the caller, with siblings failing fast and every out-of-band resource
(shared-memory segment) released.  This module makes those
failures injectable on demand, against *any* backend, by wrapping the
fabric each rank sees:

* a **fault plan** is a list of declarative fault records --
  :class:`CrashRank`, :class:`DropMessage`, :class:`DelayMessage`,
  :class:`BarrierTimeout`, :class:`AbortTransfer` -- addressed by rank and
  by per-rank operation / message counters, so a plan is itself a
  deterministic schedule of failures;
* :class:`FaultInjectingBackend` wraps a registered backend (by name or
  instance).  It does not touch the backend's fabric construction -- the
  process backend keeps its real :class:`~repro.pro.backends.process.
  ProcessFabric` -- it only wraps the *program*: on entry each rank
  rebinds its communicator to a :class:`_RankFaultView` proxy that counts
  the rank's fabric operations and fires the plan's faults at the right
  moment.  The wrapper and the plan are picklable, so injection works
  unchanged through the process backend and the persistent worker pool;
* under the sim backend a fault that stalls a receiver is *proved* as a
  deadlock instantly instead of burning the communication timeout, which
  is what makes fault sweeps affordable in unit-test time.

Reproducing and shrinking a failing interleaving
------------------------------------------------
A failure found by sweeping sim schedules is replayed by passing the
recorded decision trace back to the backend
(``SimBackend(schedule=trace)``), and :func:`shrink_schedule` minimises
that trace with a ddmin-style deletion pass: because a sim schedule's
every prefix is itself a valid schedule (divergence falls back to
run-to-block order), deleting decisions keeps the replay well defined and
the shrinker converges on a short reproducer.

Example
-------
::

    from repro.pro.backends.faults import DropMessage, FaultInjectingBackend
    from repro.pro.machine import PROMachine

    backend = FaultInjectingBackend("sim", [DropMessage(src=0, dst=1)])
    PROMachine(2, seed=1, backend=backend).run(program)   # BackendError
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.pro.backends.registry import ExecutionBackend, resolve_backend
from repro.util.errors import CommunicationError, ReproError, ValidationError

__all__ = [
    "InjectedFault",
    "CrashRank",
    "DropMessage",
    "DelayMessage",
    "BarrierTimeout",
    "AbortTransfer",
    "FaultPlan",
    "FaultInjectingBackend",
    "shrink_schedule",
]


class InjectedFault(ReproError):
    """An artificial failure raised inside a rank by a fault plan.

    Deliberately *not* a :class:`~repro.util.errors.CommunicationError`:
    backends prefer non-communication failures as the root cause when
    picking which rank's error to re-raise, exactly as a real rank crash
    would be preferred over the barrier breakage it provokes.  It *is*
    transient (see :func:`~repro.util.errors.is_transient_failure`):
    injected faults model substrate failures, so retry policies treat a
    faulted run as recoverable -- which is exactly what lets chaos plans
    exercise the recovery paths of :mod:`repro.pro.resilience`.
    """

    transient = True


# ----------------------------------------------------------------------------
# Fault records (declarative, picklable, addressed by per-rank counters)
# ----------------------------------------------------------------------------
@dataclass(frozen=True)
class CrashRank:
    """Raise :class:`InjectedFault` on ``rank``'s ``at_op``-th fabric call.

    Operation indices count every ``put`` / ``get`` / ``barrier_wait`` the
    rank performs, starting at 0; ``at_op=0`` crashes the rank at its very
    first communication.

    Every fault record carries an optional ``at_run``: ``None`` (default)
    fires on every run the plan is applied to, an integer restricts the
    fault to that zero-based run of the wrapping
    :class:`FaultInjectingBackend` -- with ``at_run=0`` a retried epoch
    replays fault-free, which is how the chaos suites assert recovery.
    """

    rank: int
    at_op: int = 0
    at_run: int | None = None


@dataclass(frozen=True)
class DropMessage:
    """Silently discard the ``nth`` message ``src`` sends to ``dst``.

    The receiver never sees it: a blocking receive for it deadlocks --
    proved instantly under the sim backend, a communication timeout under
    the thread/process backends -- and surfaces as ``BackendError``.
    """

    src: int
    dst: int
    nth: int = 0
    at_run: int | None = None


@dataclass(frozen=True)
class DelayMessage:
    """Defer the ``nth`` message ``src`` -> ``dst`` by ``by`` operations.

    The message is withheld and re-injected after the sender has performed
    ``by`` further fabric operations (or at its next ``barrier_wait``,
    whichever comes first -- a barrier is a superstep boundary and the
    algorithms' correctness only assumes delivery within the superstep).
    Because receives match on tags and park strays, a delayed-but-delivered
    message must not change any result; a message still undelivered when
    its sender finishes behaves like a drop.
    """

    src: int
    dst: int
    nth: int = 0
    by: int = 1
    at_run: int | None = None


@dataclass(frozen=True)
class BarrierTimeout:
    """Time out ``rank``'s ``nth`` barrier entry (breaking it for everyone).

    Mirrors a real ``Barrier.wait(timeout=...)`` expiry: the barrier is
    aborted -- siblings parked in it fail fast with
    :class:`~repro.util.errors.CommunicationError` -- and the faulted rank
    raises the timeout error itself.
    """

    rank: int
    nth: int = 0
    at_run: int | None = None


@dataclass(frozen=True)
class AbortTransfer:
    """Abort the run mid-transfer: the ``nth`` ``src`` -> ``dst`` send
    breaks the barrier, is never delivered, and raises in the sender.

    Earlier in-flight messages are left undelivered in the fabric, which
    is exactly what exercises the transport-disposal shutdown path of
    out-of-address-space backends (no leaked segments under ``-W error``).
    """

    src: int
    dst: int
    nth: int = 0
    at_run: int | None = None


_FAULT_TYPES = (CrashRank, DropMessage, DelayMessage, BarrierTimeout, AbortTransfer)


class FaultPlan:
    """An immutable, picklable collection of fault records."""

    def __init__(self, faults: Sequence):
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, _FAULT_TYPES):
                raise ValidationError(
                    f"unknown fault record {fault!r}; use "
                    f"{', '.join(t.__name__ for t in _FAULT_TYPES)}"
                )
        self.faults = faults

    def for_run(self, run_index: int) -> "FaultPlan":
        """The sub-plan active on the ``run_index``-th run of the wrapper.

        Records with ``at_run=None`` are active on every run; records
        pinned to a run only fire there, so a chaos plan of ``at_run=0``
        faults yields an *empty* plan for the retry attempt.
        """
        return FaultPlan(
            fault for fault in self.faults
            if getattr(fault, "at_run", None) in (None, run_index)
        )

    def owned_by(self, rank: int) -> tuple:
        """The records acted out by ``rank`` (crashes, sends, barriers)."""
        return tuple(
            fault for fault in self.faults
            if getattr(fault, "rank", getattr(fault, "src", None)) == rank
        )

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultPlan({list(self.faults)!r})"


# ----------------------------------------------------------------------------
# The per-rank fabric proxy
# ----------------------------------------------------------------------------
class _RankFaultView:
    """Fabric proxy for one rank: counts its operations, fires its faults.

    Wraps whatever fabric the backend built (in-process, sim, process) and
    forwards the :class:`~repro.pro.communicator.MessageFabric` protocol;
    each rank gets its own view (rebinding ``ctx.comm._fabric`` is
    rank-local because every rank owns its communicator), so the counters
    are per-rank even when the underlying fabric object is shared.
    """

    def __init__(self, inner, plan: FaultPlan, rank: int):
        self._inner = inner
        self._rank = rank
        self._ops = 0
        self._barriers = 0
        self._sent: dict[int, int] = {}
        self._delayed: list[list] = []  # [countdown, dst, tag, payload]
        mine = plan.owned_by(rank)
        self._crashes = tuple(f for f in mine if isinstance(f, CrashRank))
        self._barrier_faults = tuple(f for f in mine if isinstance(f, BarrierTimeout))
        self._send_faults: dict[int, list] = {}
        for fault in mine:
            if isinstance(fault, (DropMessage, DelayMessage, AbortTransfer)):
                self._send_faults.setdefault(fault.dst, []).append(fault)

    # -- contract attributes -------------------------------------------------
    @property
    def n_procs(self) -> int:
        return self._inner.n_procs

    @property
    def timeout(self) -> float:
        return self._inner.timeout

    # -- fault machinery -----------------------------------------------------
    def _tick(self) -> None:
        op = self._ops
        self._ops += 1
        for fault in self._crashes:
            if fault.at_op == op:
                raise InjectedFault(
                    f"rank {self._rank} crashed by fault injection at its "
                    f"fabric operation #{op}"
                )
        self._advance_delayed()

    def _advance_delayed(self, *, flush: bool = False) -> None:
        still = []
        for entry in self._delayed:
            entry[0] -= 1
            if flush or entry[0] <= 0:
                self._inner.put(self._rank, entry[1], entry[2], entry[3])
            else:
                still.append(entry)
        self._delayed = still

    # -- MessageFabric protocol ----------------------------------------------
    def put(self, src: int, dst: int, tag, payload) -> None:
        self._tick()
        index = self._sent.get(dst, 0)
        self._sent[dst] = index + 1
        for fault in self._send_faults.get(dst, ()):
            if fault.nth != index:
                continue
            if isinstance(fault, DropMessage):
                return  # the receiver never hears about it
            if isinstance(fault, DelayMessage):
                self._delayed.append([fault.by, dst, tag, payload])
                return
            # AbortTransfer: break the run mid-flight, message undelivered.
            try:
                self._inner.abort()
            except Exception:
                pass
            raise InjectedFault(
                f"transfer {src} -> {dst} (message #{index}) aborted "
                "mid-flight by fault injection"
            )
        self._inner.put(src, dst, tag, payload)

    def get(self, src: int, dst: int, tag, pending: list):
        self._tick()
        return self._inner.get(src, dst, tag, pending)

    def barrier_wait(self) -> None:
        self._tick()
        # A barrier closes the superstep: anything still delayed is due.
        self._advance_delayed(flush=True)
        index = self._barriers
        self._barriers += 1
        for fault in self._barrier_faults:
            if fault.nth == index:
                try:
                    self._inner.abort()  # a real timeout breaks it for everyone
                except Exception:
                    pass
                raise CommunicationError(
                    f"rank {self._rank} timed out in barrier #{index} "
                    "(injected fault; barrier broken for all ranks)"
                )
        self._inner.barrier_wait()

    def abort(self) -> None:
        self._inner.abort()

    def is_shared(self, array) -> bool:
        return self._inner.is_shared(array)


class _FaultedProgram:
    """Picklable program wrapper installing the per-rank fault view."""

    def __init__(self, program: Callable, plan: FaultPlan):
        self._program = program
        self._plan = plan

    def __call__(self, ctx, *args, **kwargs):
        ctx.comm._fabric = _RankFaultView(ctx.comm._fabric, self._plan, ctx.rank)
        return self._program(ctx, *args, **kwargs)


class FaultInjectingBackend(ExecutionBackend):
    """Wrap any execution backend so its runs act out a fault plan.

    Parameters
    ----------
    backend:
        A registered backend name (``"sim"``, ``"thread"``, ``"process"``,
        ...) or a backend instance.
    faults:
        A :class:`FaultPlan` or a sequence of fault records.
    **backend_options:
        Forwarded to the backend factory when ``backend`` is a name (e.g.
        ``transport="pickle"`` or ``schedule_seed=7``).

    The wrapper leaves fabric construction to the inner backend (so the
    process backend keeps its real fabric, transports, pools) and only
    wraps the dispatched program; every other hook of the backend
    contract -- capabilities, ``persistent``, ``transport``, ``empty``,
    ``close()``, ``heal()`` -- is delegated, as is any other public
    attribute (a sim backend's ``last_schedule``, say).  Pass an instance
    of this class as ``PROMachine(..., backend=...)``.
    """

    def __init__(self, backend, faults, **backend_options):
        self._backend = resolve_backend(backend, **backend_options)
        self.plan = faults if isinstance(faults, FaultPlan) else FaultPlan(faults)
        #: How many ``run()`` calls this wrapper has dispatched; fault
        #: records pinned with ``at_run=k`` fire on the k-th one only.
        #: A retry policy's second attempt is a fresh ``run()``, so
        #: ``at_run=0`` plans replay fault-free on retry.
        self.runs_started = 0

    @property
    def name(self) -> str:
        return f"faulty+{self._backend.name}"

    @property
    def capabilities(self):
        return self._backend.capabilities

    @property
    def persistent(self) -> bool:
        return self._backend.persistent

    @property
    def transport(self):
        return self._backend.transport

    @property
    def backend(self):
        """The wrapped backend (e.g. to read ``last_schedule`` off a sim)."""
        return self._backend

    def create_fabric(self, n_procs: int, *, timeout: float):
        return self._backend.create_fabric(n_procs, timeout=timeout)

    def empty(self, shape, dtype):
        return self._backend.empty(shape, dtype)

    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        run_index = self.runs_started
        self.runs_started += 1
        return self._backend.run(
            contexts, _FaultedProgram(program, self.plan.for_run(run_index)), args, kwargs
        )

    def close(self) -> None:
        self._backend.close()

    def heal(self) -> bool:
        return self._backend.heal()

    def __getattr__(self, item):
        # Delegate everything else (last_schedule, start_method...).
        # Private names are never delegated: that keeps the lookup of
        # self._backend itself from recursing while __init__ is underway.
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self._backend, item)


# ----------------------------------------------------------------------------
# Schedule shrinking
# ----------------------------------------------------------------------------
def shrink_schedule(still_fails: Callable[[list[int]], bool],
                    schedule: Sequence[int], *,
                    max_probes: int = 2000) -> list[int]:
    """Minimise a failing sim schedule to a short reproducer (ddmin).

    ``still_fails(candidate)`` replays ``candidate`` (e.g. by running the
    machine with ``SimBackend(schedule=candidate)``) and returns True when
    the failure still occurs.  The input ``schedule`` must itself fail.
    Deletion is sound because sim replay treats any prefix/subsequence as
    a valid schedule: exhausted or diverging decisions fall back to
    deterministic run-to-block order.

    The classic delta-debugging deletion pass: remove chunks of
    geometrically shrinking size while the failure persists, stopping
    after ``max_probes`` replays.  Returns the shortest failing schedule
    found (1-minimal when the probe budget suffices).
    """
    current = [int(choice) for choice in schedule]
    if not still_fails(list(current)):
        raise ValidationError(
            "shrink_schedule needs a failing schedule to start from "
            "(still_fails(schedule) returned False)"
        )
    probes = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            if probes >= max_probes:
                return current
            candidate = current[:index] + current[index + chunk:]
            probes += 1
            if still_fails(list(candidate)):
                current = candidate  # keep the deletion, retry same index
            else:
                index += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return current
