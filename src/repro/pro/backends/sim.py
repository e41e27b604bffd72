"""Deterministic multi-rank simulation backend (``"sim"``).

The thread and process backends exercise ``p > 1`` rank interleavings with
real concurrency: fast, but the interleaving changes from run to run, a
failure that depends on a particular schedule is irreproducible, and a
debugger session is ruined by ranks racing each other.  The sim backend
removes the nondeterminism instead of the concurrency: all ``p`` ranks of a
run step *cooperatively*, exactly one rank executing at any instant, and
every context switch happens at an explicit **yield point** -- a fabric
operation (``put`` / ``get`` / ``barrier_wait``).  Which runnable rank runs
next is decided by a seedable scheduler, so

* ``schedule_seed=None`` (default) gives *run-to-block* order: the lowest
  runnable rank executes until it blocks -- the "multi-rank inline
  scheduler" mode, ideal for single-step debugging of Algorithms 5/6;
* ``schedule_seed=k`` draws a pseudo-random interleaving from seed ``k``:
  two runs with the same seed replay the identical schedule, different
  seeds explore different interleavings (the scenario-diversity engine of
  ``tests/simulation/``);
* ``schedule=[...]`` replays a previously recorded schedule (the decision
  trace of every run is kept in :attr:`SimBackend.last_schedule`); a
  truncated or diverging schedule falls back to run-to-block order, which
  is what lets :func:`~repro.pro.backends.faults.shrink_schedule` minimise
  a failing interleaving.

Because execution is fully serialised, blocking never needs a wall clock:
when no rank can make progress the scheduler has *proved* a deadlock and
immediately injects :class:`~repro.util.errors.CommunicationError` into
every blocked rank -- the situation where the thread and process backends
would sit out their timeout.  A dropped message or a crashed sibling
therefore surfaces in microseconds instead of seconds, which is what makes
sweeping hundreds of interleavings per test affordable.

Determinism contract: the per-rank RNG streams are built by the machine
exactly as for every other backend, and the fabric preserves per-``(src,
dst)`` FIFO order under every schedule, so for a fixed machine seed the
*results* are bit-identical to the inline, thread and process backends --
under every schedule seed (``tests/integration/
test_cross_backend_determinism.py`` and ``tests/simulation/`` pin this).

Implementation note: each rank runs on a *carrier thread* that serves as a
suspendable continuation (plain generators cannot suspend an arbitrary call
stack mid-``recv``), but carriers hold the single execution baton one at a
time -- the scheduler wakes exactly one and waits for it to yield back, so
execution is logically single-threaded, schedules are exactly reproducible,
and ``pdb`` sessions see one active rank.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Callable, Sequence

from repro.pro.backends.registry import BackendCapabilities, ExecutionBackend
from repro.util.errors import BackendError, CommunicationError, ValidationError

__all__ = ["SimBackend", "SimFabric", "ScheduleLimitExceeded"]


class ScheduleLimitExceeded(BackendError):
    """A sim run exceeded its ``max_decisions`` scheduling budget.

    Raised by the cooperative scheduler when a run keeps hitting yield
    points past the configured bound -- the deterministic analogue of a
    livelock (ranks that spin *without* fabric operations never yield and
    cannot be bounded this way).  The partial decision trace is still
    recorded on :attr:`SimBackend.last_schedule`, so the hang replays.
    """

#: Rank lifecycle states of the cooperative scheduler.
_RUNNABLE, _BLOCKED_RECV, _BLOCKED_BARRIER, _DONE, _FAILED = range(5)
_BLOCKED = (_BLOCKED_RECV, _BLOCKED_BARRIER)


class _RankState:
    """One rank's continuation: carrier thread, state and handshake events."""

    __slots__ = ("rank", "state", "resume", "yielded", "inject", "error",
                 "result", "wait_src", "pending_op")

    def __init__(self, rank: int):
        self.rank = rank
        self.state = _RUNNABLE
        self.resume = threading.Event()   # scheduler -> rank: you hold the baton
        self.yielded = threading.Event()  # rank -> scheduler: baton returned
        self.inject = None                # exception to raise at the resume point
        self.error = None
        self.result = None
        self.wait_src = None              # source rank a blocked receive waits on
        self.pending_op = None            # fabric op this rank is about to perform


class _SimScheduler:
    """Cooperative rank stepper: one baton, explicit yield points.

    Exactly one of {scheduler, some carrier} executes at any instant --
    the scheduler wakes one carrier and blocks until it yields -- so all
    scheduler/fabric state is mutated under mutual exclusion without
    locks, and the sequence of decisions (``trace``) fully determines the
    interleaving.
    """

    def __init__(self, n_procs: int, *, schedule_seed=None, schedule=None,
                 policy=None, max_decisions=None):
        self._ranks = [_RankState(rank) for rank in range(n_procs)]
        self._rng = None if schedule_seed is None else random.Random(schedule_seed)
        self._replay = [int(choice) for choice in schedule] if schedule else []
        self._replay_pos = 0
        self._policy = policy
        self._max_decisions = max_decisions
        self.trace: list[int] = []
        #: One entry per decision: (runnable ranks, their pending ops, choice).
        #: The pending ops let an explorer prune prefix flips between
        #: independent operations (see repro.pro.explore).
        self.decision_log: list[tuple] = []
        #: Completed fabric operations in occurrence order, each a
        #: ``(kind, src, dst)`` tuple (barriers use ``("barrier", r, r)``).
        self.op_log: list[tuple] = []
        self._ident_to_rank: dict[int, int] = {}

    # -- rank side (runs on carrier threads) --------------------------------
    def current_rank(self) -> int:
        """The rank whose carrier thread is calling (fabric ops need it)."""
        rank = self._ident_to_rank.get(threading.get_ident())
        if rank is None:
            raise BackendError(
                "sim fabric operations may only be performed by ranks inside "
                "a PROMachine.run on the sim backend"
            )
        return rank

    def _park(self, state: _RankState) -> None:
        """Hand the baton back and wait to be scheduled again."""
        state.yielded.set()
        state.resume.wait()
        state.resume.clear()
        if state.inject is not None:
            exc, state.inject = state.inject, None
            raise exc

    def yield_point(self, rank: int, op: tuple | None = None) -> None:
        """A scheduling opportunity: the rank stays runnable.

        ``op`` names the fabric operation the rank is about to perform,
        as a ``(kind, src, dst)`` tuple; it is surfaced to scheduling
        policies and recorded in :attr:`decision_log`.
        """
        state = self._ranks[rank]
        state.state = _RUNNABLE
        if op is not None:
            state.pending_op = op
        self._park(state)

    def record_op(self, op: tuple) -> None:
        """A fabric operation completed: append it to the occurrence log."""
        self.op_log.append(op)

    def block_on_recv(self, dst: int, src: int) -> None:
        """Block ``dst`` until a message from ``src`` arrives (or deadlock)."""
        state = self._ranks[dst]
        state.state = _BLOCKED_RECV
        state.wait_src = src
        self._park(state)

    def block_on_barrier(self, rank: int) -> None:
        """Block until the barrier completes (or is broken / deadlocked)."""
        state = self._ranks[rank]
        state.state = _BLOCKED_BARRIER
        self._park(state)

    def notify_message(self, dst: int, src: int) -> None:
        """A message ``src -> dst`` was deposited: wake a matching receive."""
        state = self._ranks[dst]
        if state.state == _BLOCKED_RECV and state.wait_src == src:
            state.state = _RUNNABLE
            state.wait_src = None

    def release_barrier(self) -> None:
        """The last rank arrived: every rank parked in the barrier resumes."""
        for state in self._ranks:
            if state.state == _BLOCKED_BARRIER:
                state.state = _RUNNABLE

    def break_barrier(self, message: str) -> None:
        """Abort: ranks parked in the barrier resume with an error."""
        for state in self._ranks:
            if state.state == _BLOCKED_BARRIER:
                state.inject = CommunicationError(message)
                state.state = _RUNNABLE

    def release_stragglers(self) -> None:
        """Tear-down path: resume every unfinished carrier with an error.

        Only reached when :meth:`drive` itself was interrupted (e.g. a
        ``KeyboardInterrupt`` delivered to the driving thread); on a
        completed run every rank is already DONE or FAILED and this is a
        no-op.  All stragglers are resumed at once -- the single-baton
        invariant is deliberately abandoned, each carrier raises at its
        park point and exits immediately.
        """
        for state in self._ranks:
            if state.state in (_RUNNABLE, *_BLOCKED):
                state.inject = CommunicationError(
                    "the sim run was torn down before this rank finished"
                )
                state.state = _RUNNABLE
                state.resume.set()

    def _carrier(self, rank: int, ctx, program, args, kwargs) -> None:
        """Body of one rank's carrier thread."""
        state = self._ranks[rank]
        self._ident_to_rank[threading.get_ident()] = rank
        state.resume.wait()
        state.resume.clear()
        try:
            if state.inject is not None:
                exc, state.inject = state.inject, None
                raise exc
            state.result = program(ctx, *args, **kwargs)
            state.state = _DONE
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            state.error = exc
            state.state = _FAILED
            try:
                # Break the barrier so parked siblings fail fast, exactly
                # like the thread backend's failing rank does.
                ctx.comm._fabric.abort()
            except Exception:
                pass
        finally:
            state.yielded.set()

    # -- scheduler side (runs on the calling thread) ------------------------
    def _choose(self, runnable: list[int]) -> int:
        if self._replay_pos < len(self._replay):
            wanted = self._replay[self._replay_pos]
            self._replay_pos += 1
            if wanted in runnable:
                return wanted
            # The replayed schedule diverged (shrunk/edited trace): fall
            # back deterministically so every prefix is a valid schedule.
            return runnable[0]
        if self._policy is not None:
            pending = {r: self._ranks[r].pending_op for r in runnable}
            choice = self._policy.choose(len(self.trace), runnable, pending)
            if choice in runnable:
                return choice
            return runnable[0]  # a confused policy degrades, never wedges
        if self._rng is not None:
            return runnable[self._rng.randrange(len(runnable))]
        return runnable[0]  # run-to-block: lowest runnable rank

    def drive(self, fabric: "SimFabric") -> None:
        """Step ranks until all are done or failed, resolving deadlocks."""
        while True:
            if (self._max_decisions is not None
                    and len(self.trace) >= self._max_decisions):
                raise ScheduleLimitExceeded(
                    f"sim run still scheduling after {self._max_decisions} "
                    "decisions: treating it as a hang (raise max_decisions "
                    "if the program legitimately needs more yield points)"
                )
            runnable = [s.rank for s in self._ranks if s.state == _RUNNABLE]
            if not runnable:
                blocked = [s for s in self._ranks if s.state in _BLOCKED]
                if not blocked:
                    return  # every rank is DONE or FAILED
                # No rank can make progress: this is a *proved* deadlock,
                # the situation real backends only discover by timeout.
                fabric._broken = True
                for state in blocked:
                    if state.state == _BLOCKED_RECV:
                        state.inject = CommunicationError(
                            f"rank {state.rank} deadlocked waiting for a "
                            f"message from rank {state.wait_src} (deterministic "
                            "deadlock: no rank can make progress; a real "
                            f"backend would time out after {fabric.timeout}s)"
                        )
                    else:
                        state.inject = CommunicationError(
                            f"rank {state.rank} deadlocked in barrier_wait: "
                            "the barrier can never complete (deterministic "
                            "deadlock; a real backend would time out after "
                            f"{fabric.timeout}s)"
                        )
                    state.state = _RUNNABLE
                continue
            ordered = sorted(runnable)
            choice = self._choose(ordered)
            self.decision_log.append((
                tuple(ordered),
                tuple(self._ranks[r].pending_op for r in ordered),
                choice,
            ))
            self.trace.append(choice)
            state = self._ranks[choice]
            state.resume.set()
            state.yielded.wait()
            state.yielded.clear()


class SimFabric:
    """Message fabric of the sim backend: mailboxes plus cooperative blocking.

    Speaks the :class:`~repro.pro.communicator.MessageFabric` protocol
    (``put`` / ``get`` / ``barrier_wait`` / ``abort``, ``n_procs``,
    ``timeout``) but never waits on a wall clock: blocking operations park
    the calling rank in the scheduler, and impossible waits surface as
    immediate :class:`~repro.util.errors.CommunicationError` (see the
    module docstring).  ``timeout`` is kept for contract compatibility and
    error messages only.
    """

    def __init__(self, n_procs: int, *, timeout: float = 60.0):
        if n_procs < 1:
            raise ValidationError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs
        self.timeout = timeout
        # _queues[dst][src] holds (tag, payload) pairs in sending order.
        self._queues = [
            [deque() for _ in range(n_procs)] for _ in range(n_procs)
        ]
        self._arrived: set[int] = set()
        self._broken = False
        self._scheduler: _SimScheduler | None = None

    def _sched(self) -> _SimScheduler:
        if self._scheduler is None:
            raise BackendError(
                "the sim fabric is only usable while PROMachine.run is "
                "driving its ranks on the sim backend"
            )
        return self._scheduler

    def put(self, src: int, dst: int, tag, payload) -> None:
        """Deposit a message; never blocks (mailboxes are unbounded)."""
        scheduler = self._sched()
        scheduler.yield_point(src, ("put", src, dst))
        self._queues[dst][src].append((tag, payload))
        scheduler.record_op(("put", src, dst))
        scheduler.notify_message(dst, src)

    def get(self, src: int, dst: int, tag, pending: list):
        """Fetch the next ``src -> dst`` message carrying ``tag``.

        Messages with other tags that arrive first are parked in
        ``pending`` (owned by the receiving communicator) and served to
        later receives, exactly like the in-process fabric.
        """
        scheduler = self._sched()
        scheduler.yield_point(dst, ("get", src, dst))
        queue = self._queues[dst][src]
        while True:
            for idx, (msg_tag, payload) in enumerate(pending):
                if msg_tag == tag:
                    pending.pop(idx)
                    scheduler.record_op(("get", src, dst))
                    return payload
            matched = None
            while queue:
                msg_tag, payload = queue.popleft()
                if msg_tag == tag:
                    matched = payload
                    break
                pending.append((msg_tag, payload))
            if matched is not None:
                scheduler.record_op(("get", src, dst))
                return matched
            scheduler.block_on_recv(dst, src)  # raises on proved deadlock

    def barrier_wait(self) -> None:
        """Block until all ranks arrive; fail fast on abort or deadlock."""
        scheduler = self._sched()
        rank = scheduler.current_rank()
        scheduler.yield_point(rank, ("barrier", rank, rank))
        if self._broken:
            raise CommunicationError(
                "barrier broken or aborted (a rank crashed or the run "
                "deadlocked); the sim backend fails fast instead of timing "
                f"out after {self.timeout}s"
            )
        self._arrived.add(rank)
        scheduler.record_op(("barrier", rank, rank))
        if len(self._arrived) == self.n_procs:
            self._arrived.clear()
            scheduler.release_barrier()
            return
        scheduler.block_on_barrier(rank)  # raises when broken or deadlocked

    def is_shared(self, array) -> bool:
        """True: the sim ranks are threads of the caller's process."""
        return True

    def abort(self) -> None:
        """Break the barrier so surviving ranks fail fast after a crash."""
        self._broken = True
        if self._scheduler is not None:
            self._scheduler.break_barrier(
                "barrier broken or aborted (a rank crashed or the run "
                "deadlocked); the sim backend fails fast instead of timing "
                f"out after {self.timeout}s"
            )


class SimBackend(ExecutionBackend):
    """Run all ranks cooperatively in one schedulable step sequence.

    Parameters
    ----------
    schedule_seed:
        ``None`` (default) for deterministic run-to-block order, or any
        int: the scheduler draws the interleaving from this seed, and the
        same seed replays the same interleaving.  Results (not schedules)
        are bit-identical across seeds *and* across backends for a fixed
        machine seed.
    schedule:
        An explicit decision trace to replay (e.g. a failing run's
        :attr:`last_schedule`, possibly shrunk by
        :func:`~repro.pro.backends.faults.shrink_schedule`).  Exhausted or
        diverging entries fall back to run-to-block order (or to
        ``schedule_seed`` when given), so any prefix of a recorded trace
        is itself a valid schedule.
    policy:
        An object with ``choose(step, runnable, pending) -> rank`` that
        decides scheduling once any explicit ``schedule`` prefix is
        exhausted (e.g. :class:`repro.pro.explore.PCTPolicy`).  ``pending``
        maps each runnable rank to the ``(kind, src, dst)`` fabric op it
        is about to perform (``None`` before its first op).  Mutually
        exclusive with ``schedule_seed``.
    max_decisions:
        Abort the run with :class:`ScheduleLimitExceeded` after this many
        scheduling decisions -- bounded-time hang surfacing for explorers.
        ``None`` (default) never aborts.

    After every run -- including failed or interrupted ones -- the
    (possibly partial) decision trace, decision log and fabric-op
    occurrence log of that run are published on :attr:`last_schedule`,
    :attr:`last_decisions` and :attr:`last_op_log`; all three are reset to
    ``None`` when a new run starts, so a stale trace can never masquerade
    as the failing one.
    """

    name = "sim"
    capabilities = BackendCapabilities(
        multirank=True,
        shared_address_space=True,
    )

    def __init__(self, *, schedule_seed: int | None = None, schedule=None,
                 policy=None, max_decisions: int | None = None):
        if schedule_seed is not None and not isinstance(schedule_seed, int):
            raise ValidationError(
                f"schedule_seed must be an int or None, got {schedule_seed!r}"
            )
        if schedule is not None:
            try:
                schedule = [int(choice) for choice in schedule]
            except (TypeError, ValueError):
                raise ValidationError(
                    "schedule must be a sequence of rank ids (a recorded "
                    f"last_schedule), got {schedule!r}"
                ) from None
        if policy is not None:
            if schedule_seed is not None:
                raise ValidationError(
                    "policy and schedule_seed are mutually exclusive: both "
                    "decide scheduling after the replay prefix is exhausted"
                )
            if not callable(getattr(policy, "choose", None)):
                raise ValidationError(
                    "policy must expose choose(step, runnable, pending), "
                    f"got {policy!r}"
                )
        if max_decisions is not None and (
                not isinstance(max_decisions, int) or max_decisions < 1):
            raise ValidationError(
                f"max_decisions must be a positive int or None, got "
                f"{max_decisions!r}"
            )
        self.schedule_seed = schedule_seed
        self.schedule = schedule
        self.policy = policy
        self.max_decisions = max_decisions
        #: Decision trace of the most recent run (also set on failure):
        #: pass it back as ``schedule=`` to replay that exact interleaving.
        self.last_schedule: list[int] | None = None
        #: (runnable, pending ops, choice) tuples of the most recent run.
        self.last_decisions: list[tuple] | None = None
        #: Completed fabric ops of the most recent run in occurrence order.
        self.last_op_log: list[tuple] | None = None

    def create_fabric(self, n_procs: int, *, timeout: float) -> SimFabric:
        """Build the cooperative fabric one run's ranks communicate through."""
        return SimFabric(n_procs, timeout=timeout)

    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Step ``program(ctx, ...)`` over all ranks under one schedule.

        Mirrors the thread backend's error propagation: the first rank (in
        rank order) that failed with a real error is preferred over ranks
        that merely observed the broken barrier or a deadlock, and plain
        exceptions are wrapped in :class:`~repro.util.errors.BackendError`
        with the rank in the message.
        """
        n = len(contexts)
        # Reset before any validation so a rejected or crashed run can
        # never leave a previous run's trace looking current.
        self.last_schedule = None
        self.last_decisions = None
        self.last_op_log = None
        fabric = contexts[0].comm._fabric
        if not isinstance(fabric, SimFabric):
            raise BackendError(
                "the sim backend needs contexts wired to its SimFabric; "
                "create the machine with backend='sim' instead of passing "
                "contexts built for another backend"
            )
        scheduler = _SimScheduler(
            n, schedule_seed=self.schedule_seed, schedule=self.schedule,
            policy=self.policy, max_decisions=self.max_decisions,
        )
        fabric._scheduler = scheduler
        carriers = [
            threading.Thread(
                target=scheduler._carrier,
                args=(rank, contexts[rank], program, args, kwargs),
                name=f"sim-rank-{rank}",
                daemon=True,
            )
            for rank in range(n)
        ]
        for thread in carriers:
            thread.start()
        try:
            scheduler.drive(fabric)
        finally:
            self.last_schedule = list(scheduler.trace)
            self.last_decisions = list(scheduler.decision_log)
            self.last_op_log = list(scheduler.op_log)
            # If drive() was interrupted (KeyboardInterrupt in the driving
            # thread), parked carriers would otherwise never resume and
            # leak with their contexts; wake them into an error and give
            # them a bounded window to exit.  On a completed run this
            # releases nothing and the joins return immediately.
            scheduler.release_stragglers()
            for thread in carriers:
                thread.join(timeout=5.0)
            fabric._scheduler = None

        failed = [(state.rank, state.error) for state in scheduler._ranks
                  if state.error is not None]
        if failed:
            primary = next(
                ((rank, exc) for rank, exc in failed
                 if not isinstance(exc, CommunicationError)),
                failed[0],
            )
            rank, exc = primary
            if isinstance(exc, Exception):
                from repro.util.errors import wrap_rank_failure

                raise wrap_rank_failure(rank, exc) from exc
            raise exc  # KeyboardInterrupt and friends propagate unchanged
        return [state.result for state in scheduler._ranks]
