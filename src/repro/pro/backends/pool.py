"""Worker pool: the process backend's one execution path.

Every process-backend run executes on a :class:`WorkerPool`.  The paper's
coarse-grained model (like the PRO model it builds on) assumes the
parallel machine is a *standing* resource whose setup is paid once; a
standing pool makes the backend behave that way:

* ``p`` long-lived daemon ranks are spawned **once**, inheriting the
  fabric (queues, barrier) that every later run reuses;
* each ``run()`` dispatches one lightweight *run-epoch record* per rank
  -- the rank's freshly built random stream and cost recorder plus the
  (pickled) program and arguments -- through a per-rank task queue;
* results, cost records and variate counts flow back through one result
  queue per rank, so cost reports stay backend-independent;
* the per-rank RNG streams are still built *in the parent* for every run
  (by the machine), so a fixed machine seed is bit-identical to a cold
  run -- and to every other backend and transport.

A *cold* run (``persistent=False``) is a pool that lives for one epoch
(:meth:`WorkerPool._one_epoch`): it adopts the fabric the backend built
for the run's contexts, spawns its ranks inside :meth:`WorkerPool.run`
with the epoch in their spawn arguments, collects through the same
:meth:`WorkerPool._collect` and is closed right after.  Under ``fork``
the ranks inherit program and arguments without pickling, so cold runs
accept closures.  Standing and one-epoch pools share one worker entry
point and one collect, poison and failure path.

Determinism contract
--------------------
``PROMachine(seed=s, persistent=True)`` run ``k`` times produces exactly
the same ``k`` results as ``PROMachine(seed=s)`` (cold) run ``k`` times:
persistence changes *where* the ranks live, never what they draw.
``tests/integration/test_cross_backend_determinism.py`` and the pool
lifecycle tests pin this.

Serialisation
-------------
A standing pool's programs and arguments cross the dispatch queue, so
they must be picklable even on ``fork`` platforms (a cold run inherits
them through the fork instead).  All the library's SPMD programs are
module-level functions and qualify; when ``cloudpickle`` is installed it
is used as a fallback serialiser, which widens support to closures and
lambdas.  An unserialisable program raises
:class:`~repro.util.errors.BackendError` *before* anything is dispatched.

Bulk arguments are encoded through the payload transport's
``encode_shared`` once **per run**, into one record every rank decodes:
the default ``sharedmem`` stages them in one by-reference segment that
every rank attaches -- one memcpy total, unlinked by ``end_run`` once the
run has returned -- and the in-band ``pickle`` encodes them once into
the record itself.  A fork still inherits the arguments for free, so with the
in-band ``pickle`` transport large-argument workloads can be slower
than cold fork -- prefer ``sharedmem``, or keep huge constant state out
of the per-run arguments.

Crash semantics and supervision
-------------------------------
A rank that raises, or a worker process that dies mid-run, **poisons**
the pool: the current ``run()`` raises ``BackendError`` (a
:class:`~repro.util.errors.TransientBackendError` when the root cause is
a substrate failure), every later ``run()`` raises immediately, and only
``close()`` (idempotent, also registered with ``atexit``) releases the
resources.  Poisoning is deliberate -- after a broken barrier or an
interrupted exchange the fabric may hold stray messages, and silently
reusing it could corrupt a later run's results.

The poison can be lifted *explicitly* through :meth:`WorkerPool.heal`,
the supervision hook the resilience layer (:mod:`repro.pro.resilience`)
calls between retry attempts: the pool stops and reaps exactly the
suspect ranks (those that failed, died or never reported in the poisoned
epoch), drains their task queues and sweeps the poisoned epoch's
straggler results without waiting (disposing out-of-band records),
restores the standing fabric
(:meth:`~repro.pro.backends.process.ProcessFabric.heal`: inbox drain,
barrier reset, or fresh inboxes and barrier when no rank survives) and
respawns **only the dead ranks** into it.  Survivor ranks keep their
processes, their warm transports and their PIDs.  Because per-rank
streams are rebuilt by the machine for every attempt, the replayed epoch
is bit-identical to a fault-free run.

``close()`` drains and disposes undelivered records and releases the
staging segments of the fleet's runs; by-reference outputs are unlinked
when their arrays die or, once parked for reuse, by
:func:`clear_default_pools`.  So a full lifecycle leaks no segments and
no ``resource_tracker`` warnings.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from multiprocessing.connection import wait as _wait
from typing import Callable, Sequence

from repro.pro.backends.process import ProcessFabric, finishes_within
from repro.pro.backends.sharedmem import release_parked
from repro.pro.backends.transport import resolve_transport
from repro.pro.communicator import Communicator
from repro.pro.resilience import current_deadline
from repro.pro.telemetry import capture_rank_telemetry, record_event
from repro.util.errors import (
    BackendError,
    CommunicationError,
    DeadlineError,
    TransientBackendError,
    ValidationError,
    is_transient_failure,
    wrap_rank_failure,
)
from repro.util.timeouts import scale_timeout

try:  # optional: widens program serialisation to closures/lambdas
    import cloudpickle as _cloudpickle
except ImportError:  # pragma: no cover - exercised where cloudpickle is absent
    _cloudpickle = None

__all__ = ["WorkerPool", "pool", "get_default_pool", "clear_default_pools",
           "default_pools"]

def _dumps(obj) -> bytes:
    """Serialise ``obj`` for the dispatch queue (cloudpickle fallback)."""
    try:
        return pickle.dumps(obj)
    except Exception:
        if _cloudpickle is None:
            raise
        return _cloudpickle.dumps(obj)


class _VariateCount:
    """Stand-in for a remote rank's CountingRNG after the run has finished."""

    def __init__(self, total_variates: int):
        self.total_variates = int(total_variates)


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a summarising BackendError.

    Either way the worker-side traceback travels along as a plain
    ``remote_traceback`` string attribute (it rides in the exception's
    ``__dict__`` through pickling), so the parent's
    :func:`~repro.util.errors.wrap_rank_failure` can chain the remote
    stack into the caller-side error.  The unpicklable fallback keeps the
    original's transient/fatal classification.
    """
    tb = traceback.format_exc()
    try:
        exc.remote_traceback = tb
    except Exception:  # pragma: no cover - exotic __slots__ exceptions
        pass
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        cls = TransientBackendError if is_transient_failure(exc) else BackendError
        summary = cls(f"{type(exc).__name__}: {exc}")
        summary.remote_traceback = tb
        return summary


def _rank_main(rank: int, fabric: ProcessFabric, task_queue, result_queue,
               epoch_task) -> None:
    """Main loop of one rank (module-level for spawn support).

    A standing rank (``epoch_task`` is ``None``) blocks on its task queue;
    ``None`` is the shutdown sentinel.  Each task carries one pickled
    run-epoch: the rank's fresh context pieces, the pickled program and
    the encoded arguments.
    A rank of a one-epoch pool gets its single epoch as ``epoch_task``
    instead -- the program and ``(args, kwargs)`` as plain objects,
    inherited through ``fork`` -- and exits after it.  A failing epoch
    aborts the shared barrier (siblings fail fast), reports the failure
    and *exits* -- the pool is poisoned either way, and a worker that kept
    looping on a broken barrier could only produce corrupt runs.
    """
    while True:
        task = epoch_task
        if task is None:
            raw = task_queue.get()
            if raw is None:
                return
            task = pickle.loads(raw)
        epoch, rng, cost, program, args_record, wait_timeout = task
        # Scope this run's message tags to its epoch and drop anything a
        # previous run parked but never consumed: stale messages must not
        # satisfy a later run's receive.
        fabric.epoch = epoch
        # Every dispatch re-stamps the fabric wait budget: runs under a
        # resilience deadline clamp it so a stuck receive/barrier surfaces
        # inside the remaining budget instead of the standing default.
        fabric.timeout = wait_timeout
        fabric._parked.clear()
        try:
            if epoch_task is None:
                program = pickle.loads(program)
                # Bulk arguments travel out-of-band through the payload
                # transport (the control record above stays small); with
                # the shared-memory transport the worker gets zero-copy
                # views of the parent's segments.
                args, kwargs = fabric.transport.decode(args_record)
            else:
                args, kwargs = args_record
            # Rebuild the context around the fabric: communicator state
            # (parked messages, collective counters) starts fresh every
            # epoch.
            from repro.pro.machine import ProcessorContext

            ctx = ProcessorContext(
                rank=rank, n_procs=fabric.n_procs,
                comm=Communicator(fabric, rank, cost), rng=rng, cost=cost,
            )
            value = program(ctx, *args, **kwargs)
            variates = getattr(ctx.rng, "total_variates", None)
            # A result may cross by reference when it lies in memory the
            # parent owns (see the transport contract).
            encoded = fabric.transport.encode(value, by_reference=True)
            # Counters accumulate across epochs in a standing worker; the
            # snapshot repatriates the running totals with this epoch's
            # result record (the parent reports the latest view).
            ctx.cost.telemetry = capture_rank_telemetry(fabric)
            result_queue.put((epoch, rank, True, (encoded, ctx.cost, variates)))
            # Views of by-reference segments must not outlive the epoch:
            # dropping them closes this rank's mappings now, except the
            # few output segments the transport holds for later epochs.
            del args, kwargs, value
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            try:
                fabric.abort()
            except Exception:
                pass
            try:
                # Siblings parked in queue receives fail fast too (the
                # barrier abort alone cannot reach them) and exit through
                # their own clean error paths -- which is what lets heal()
                # join them instead of terminating readers mid-lock.
                fabric.poison_waits(epoch)
            except Exception:
                pass
            result_queue.put((epoch, rank, False, _portable_exception(exc)))
            return
        if epoch_task is not None:
            return


class WorkerPool:
    """``p`` daemon ranks sharing one fabric: a standing fleet or one cold run.

    Parameters
    ----------
    n_procs:
        Number of ranks; fixed for the pool's lifetime.
    timeout:
        Communication timeout of the standing fabric (seconds).
    mp_context:
        The ``multiprocessing`` context to spawn workers from (the
        backend passes its configured start method's context).
    transport:
        Payload transport instance shared by the fabric and the result
        path (see :mod:`repro.pro.backends.transport`).
    shutdown_grace:
        Seconds :meth:`close` waits for workers to exit before
        terminating them.

    The constructor spawns a standing fleet; a cold run builds its pool
    with :meth:`_one_epoch` instead.
    """

    def __init__(self, n_procs: int, *, timeout: float = 60.0, mp_context=None,
                 transport=None, shutdown_grace: float = 5.0):
        if n_procs < 1:
            raise ValidationError(f"n_procs must be >= 1, got {n_procs}")
        import multiprocessing

        mp = mp_context if mp_context is not None else multiprocessing.get_context()
        self._adopt(ProcessFabric(n_procs, timeout=timeout, mp_context=mp,
                                  transport=transport), mp, shutdown_grace)
        self._task_queues = [mp.Queue() for _ in range(n_procs)]
        self._workers = [self._spawn(rank) for rank in range(self.n_procs)]
        record_event("pool-spawn", n_procs=self.n_procs, epoch=self._epoch)
        atexit.register(self.close)

    @classmethod
    def _one_epoch(cls, fabric: ProcessFabric, mp_context,
                   shutdown_grace: float) -> "WorkerPool":
        """A pool for one cold run over ``fabric``, already wired to its contexts.

        It has no task queues: :meth:`run` spawns the ranks with the epoch
        in their spawn arguments.  It records no lifecycle events and
        registers no ``atexit`` hook -- the backend closes it as soon as
        the run returns.
        """
        one_epoch = cls.__new__(cls)
        one_epoch._adopt(fabric, mp_context, shutdown_grace)
        return one_epoch

    def _adopt(self, fabric: ProcessFabric, mp, shutdown_grace: float) -> None:
        """Initialise the state every pool keeps around its ``fabric``."""
        self.fabric = fabric
        self.n_procs = int(fabric.n_procs)
        self.timeout = float(fabric.timeout)
        self.shutdown_grace = float(shutdown_grace)
        #: Process that spawned the fleet: only it may run or reap the
        #: workers (a forked child inherits this object but must not
        #: touch the parent's processes -- see :meth:`run`/:meth:`close`).
        self._owner_pid = os.getpid()
        #: One run at a time: the fleet shares its result queues and one
        #: epoch counter, so concurrent ``run()`` calls (e.g. two threads
        #: hitting the same default-cache fleet) serialise here instead
        #: of corrupting each other's dispatch.
        self._run_lock = threading.Lock()
        self._mp = mp  # kept for heal(): replacements spawn from the same context
        #: Per-rank dispatch queues of a standing fleet; ``None`` on a
        #: one-epoch pool, whose ranks get their epoch as spawn arguments.
        self._task_queues: list | None = None
        self._workers: list = []
        #: One result queue per rank: a rank killed while its feeder
        #: thread writes can orphan the queue's write lock or leave a
        #: half-written record, and only its own queue -- which heal()
        #: replaces -- is hurt, never a sibling's report.
        self._result_queues = [mp.Queue() for _ in range(self.n_procs)]
        self._epoch = 0
        self._poison_reason: str | None = None
        #: Ranks implicated in the poisoned epoch (failed, died, or never
        #: reported): exactly the set heal() stops and respawns.
        self._suspect_ranks: set = set()
        self._closed = False

    def _spawn(self, rank: int, epoch_task=None):
        """Start (and return) the worker process of ``rank``."""
        task_queue = None if self._task_queues is None else self._task_queues[rank]
        proc = self._mp.Process(
            target=_rank_main,
            args=(rank, self.fabric, task_queue, self._result_queues[rank],
                  epoch_task),
            name=f"pro-pool-{rank}",
            daemon=True,
        )
        proc.start()
        return proc

    # -- state --------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def poisoned(self) -> bool:
        """True after a failed run; every later run raises ``BackendError``."""
        return self._poison_reason is not None

    def _poison(self, reason: str) -> None:
        if self._poison_reason is None:
            self._poison_reason = reason
            if self._task_queues is not None:  # standing fleets only
                record_event("pool-poison", reason=reason, epoch=self._epoch)

    @property
    def in_owner_process(self) -> bool:
        """True in the process that spawned (and may drive) the fleet."""
        return self._owner_pid == os.getpid()

    def worker_pids(self) -> list[int]:
        """PIDs of the standing ranks (stable across runs; for tests)."""
        return [proc.pid for proc in self._workers]

    # -- running ------------------------------------------------------------
    def run(self, contexts: Sequence, program: Callable, args: tuple,
            kwargs: dict) -> list:
        """Run one epoch on the pool's ranks and collect results.

        Serialised by a per-pool lock: the fleet shares its result queues
        and one epoch counter, so exactly one run is in flight at a time (a
        second thread's call queues behind the first -- relevant now that
        driver calls share fleets through the default cache).
        """
        if not self.in_owner_process:
            raise BackendError(
                f"this worker pool belongs to process {self._owner_pid}; a "
                "forked process must build its own machine (the default "
                "pool cache does this automatically)"
            )
        with self._run_lock:
            return self._run_locked(contexts, program, args, kwargs)

    def _run_locked(self, contexts: Sequence, program: Callable, args: tuple,
                    kwargs: dict) -> list:
        if self._closed:
            raise BackendError("the worker pool is closed; build a new machine")
        if self._poison_reason is not None:
            # Transient: heal() can lift the poison, so retry policies may
            # treat a poisoned standing fleet as recoverable substrate.
            raise TransientBackendError(
                f"the worker pool is poisoned ({self._poison_reason}); "
                "build a new machine to continue"
            )
        n = len(contexts)
        if n != self.n_procs:
            raise BackendError(
                f"this pool runs {self.n_procs} ranks but {n} contexts were given"
            )
        dead = [rank for rank, proc in enumerate(self._workers)
                if not proc.is_alive()]
        if dead:
            self._suspect_ranks.update(dead)
            self._poison(f"worker rank {dead[0]} died between runs")
            raise TransientBackendError(
                f"the worker pool is poisoned ({self._poison_reason}); "
                "build a new machine to continue"
            )
        self._epoch += 1
        epoch = self._epoch
        run_deadline = current_deadline()
        wait_timeout = (self.timeout if run_deadline is None
                        else run_deadline.clamp(self.timeout))
        if self._task_queues is None:
            # One-epoch pool: the epoch rides the ranks' spawn arguments,
            # so under fork program and arguments are inherited, never
            # pickled.
            for rank, ctx in enumerate(contexts):
                self._workers.append(self._spawn(rank, (
                    epoch, ctx.rng, ctx.cost, program, (args, kwargs),
                    wait_timeout)))
        else:
            self._dispatch(epoch, contexts, program, args, kwargs,
                           wait_timeout)

        outcomes = self._collect(epoch, n)
        failed = []
        for rank in range(n):
            entry = outcomes.get(rank)
            if entry is None:
                proc = self._workers[rank]
                state = ("exited (code {})".format(proc.exitcode)
                         if not proc.is_alive() else "stopped responding")
                failed.append((rank, CommunicationError(
                    f"rank {rank} {state} without reporting a result"
                )))
            elif not entry[0]:
                failed.append((rank, entry[1]))
        if failed:
            self._poison(f"rank {failed[0][0]} failed during run {epoch}")
            # A failing rank exits its main loop by contract, and a rank
            # that never reported is dead or wedged: both are suspects for
            # heal() to reap and respawn.  Ranks that reported success are
            # alive and keep looping on their task queues.
            self._suspect_ranks.update(
                rank for rank in range(n)
                if outcomes.get(rank) is None or outcomes[rank][0] is not True
            )
            for rank in range(n):  # undecoded successes may hold segments
                entry = outcomes.get(rank)
                if entry is not None and entry[0]:
                    try:
                        self.fabric.transport.dispose(entry[1][0])
                    except Exception:
                        pass
            # Blame a real error first, then a rank that died silently,
            # and only then the symptoms its siblings saw (broken barrier,
            # poisoned receive); rank order breaks ties.
            rank, exc = min(failed, key=lambda item: (
                isinstance(item[1], CommunicationError), item[0] in outcomes))
            if isinstance(exc, Exception):
                raise wrap_rank_failure(rank, exc) from exc
            raise exc  # KeyboardInterrupt and friends propagate unchanged

        results: list = [None] * n
        for rank in range(n):
            encoded_value, cost, variates = outcomes[rank][1]
            results[rank] = self.fabric.transport.decode(encoded_value)
            # Fold the worker-side accounting back into the caller's
            # context: the parent's recorder/rng never advanced.
            contexts[rank].cost = cost
            if variates is not None:
                contexts[rank].rng = _VariateCount(variates)
        # Every rank has attached what the run dispatched by reference
        # or staged, so the staging names can go and the output segments
        # may be recycled (a failed run keeps them for the retry that
        # re-dispatches the same arrays).
        self.fabric.transport.end_run()
        return results

    def _dispatch(self, epoch: int, contexts: Sequence, program: Callable,
                  args: tuple, kwargs: dict, wait_timeout: float) -> None:
        """Queue one pickled run-epoch record per standing rank."""
        n = len(contexts)
        # Serialise the whole epoch *eagerly* in the parent: a task that
        # cannot be pickled must raise here, as a clear BackendError,
        # before any rank has been dispatched (handing raw objects to the
        # queue would defer pickling to its feeder thread, turning the
        # same failure into a hang).  Bulk array arguments travel
        # out-of-band through the payload transport, encoded once **per
        # run** into one record every rank decodes (``encode_shared``).
        args_record = None
        task_blobs: list = []
        try:
            program_blob = _dumps(program)
            args_record = self.fabric.transport.encode_shared((args, kwargs), n)
            for rank in range(n):
                ctx = contexts[rank]
                task_blobs.append(_dumps(
                    (epoch, ctx.rng, ctx.cost, program_blob,
                     args_record, wait_timeout)
                ))
        except Exception as exc:
            if args_record is not None:
                try:
                    self.fabric.transport.dispose(args_record)
                except Exception:
                    pass
            raise BackendError(
                "persistent process runs dispatch the program and its "
                "arguments through a queue, so they must be picklable "
                "(module-level functions work; installing cloudpickle widens "
                f"this to closures): {type(exc).__name__}: {exc}"
            ) from exc
        for rank in range(n):
            self._task_queues[rank].put(task_blobs[rank])

    def _collect(self, epoch: int, n: int) -> dict:
        """Gather this epoch's per-rank outcomes, watching worker liveness.

        The epoch is complete once every rank is *accounted for*: its
        outcome is in, or its process is dead.  A dead rank's records are
        already in its result pipe (a queue flushes on exit), so one sweep
        after the death is seen settles whether it reported.  The loop
        sleeps in :func:`multiprocessing.connection.wait` on the result
        pipes and the sentinels of the ranks still running, so a result or
        a death wakes it at once, and it sweeps only the ranks that woke
        it.

        There is no overall wall-clock deadline: healthy ranks may compute
        for as long as they like, and blocked communication times out
        inside the workers.  A worker that dies without reporting breaks
        the run: the parent aborts the shared barrier so surviving ranks
        fail fast, then gives the ranks still alive a short grace period
        to report their (Communication)errors.
        """
        outcomes: dict = {}
        running = set(range(n))
        grace_until = None
        run_deadline = current_deadline()
        while running:
            timeouts = []
            if grace_until is not None:
                timeouts.append(grace_until - time.monotonic())
                if timeouts[-1] <= 0:
                    break
            if run_deadline is not None:
                if run_deadline.expired:
                    self._raise_expired(epoch, n, outcomes, run_deadline)
                timeouts.append(run_deadline.remaining())
            handles = {}
            for rank in running:
                handles[self._result_queues[rank]._reader] = rank
                handles[self._workers[rank].sentinel] = rank
            lost = False
            for handle in _wait(list(handles),
                                timeout=min(timeouts) if timeouts else None):
                rank = handles[handle]
                if rank not in running:
                    continue  # its pipe and its sentinel were both ready
                # A ready sentinel means the rank has exited, so the sweep
                # after it sees every record the rank wrote.
                self._sweep_results(rank, epoch, outcomes)
                if rank in outcomes:
                    running.discard(rank)
                elif handle == self._workers[rank].sentinel:
                    running.discard(rank)
                    lost = True
            if lost and grace_until is None:
                try:
                    self.fabric.abort()
                except Exception:
                    pass
                try:
                    # A hard-crashed rank never ran its own failure path:
                    # unblock siblings parked in receives so they report
                    # (and exit joinably) within grace.
                    self.fabric.poison_waits(epoch)
                except Exception:
                    pass
                grace_until = (time.monotonic()
                               + scale_timeout(max(self.shutdown_grace, 1.0)))
        return outcomes

    def _raise_expired(self, epoch: int, n: int, outcomes: dict,
                       run_deadline) -> None:
        """Raise ``DeadlineError`` for an epoch with ranks still outstanding.

        The resilience deadline ran out while ranks were still running
        (workers hung outside fabric waits, or the clamped fabric timeout
        has not fired yet): poison, break the barrier, release what did
        arrive and surface the typed error -- deliberately not transient.
        """
        self._suspect_ranks.update(
            rank for rank in range(n)
            if outcomes.get(rank) is None or outcomes[rank][0] is not True
        )
        self._poison(f"run {epoch} exceeded its deadline")
        try:
            self.fabric.abort()
        except Exception:
            pass
        try:
            self.fabric.poison_waits(epoch)
        except Exception:
            pass
        for entry in outcomes.values():
            if entry[0] is True:
                try:
                    self.fabric.transport.dispose(entry[1][0])
                except Exception:
                    pass
        if self._task_queues is None:
            # A one-epoch pool is closed right after this run: stop its
            # ranks now, so the error surfaces within the deadline instead
            # of after close()'s join grace.
            for proc in self._workers:
                if proc.is_alive():
                    proc.terminate()
        raise DeadlineError(
            f"run {epoch} exceeded its {run_deadline.seconds:g}s deadline "
            f"with {n - len(outcomes)} rank(s) still outstanding"
        )

    def _sweep_results(self, rank: int, epoch: int | None = None,
                       outcomes: dict | None = None) -> None:
        """Take every record already in ``rank``'s result pipe, without waiting.

        A record of ``epoch`` lands in ``outcomes``; any other success
        record is a straggler -- of an earlier failed epoch, or swept by
        heal or close -- whose undecoded value is disposed.
        """
        result_queue = self._result_queues[rank]
        while not result_queue.empty():  # the parent is the only reader
            try:
                e, _rank, ok, payload = result_queue.get()
            except Exception:  # pragma: no cover - truncated pickle after a kill
                continue
            if outcomes is not None and e == epoch:
                outcomes[rank] = (ok, payload)
            elif ok:
                try:
                    self.fabric.transport.dispose(payload[0])
                except Exception:
                    pass

    def _sweep_stopped(self, ranks, terminated) -> None:
        """Sweep the result pipes of stopped ranks, without waiting.

        Nothing is still in flight once a rank has exited.  A rank that had
        to be terminated may have died halfway through writing a record,
        which a read would block on forever, so its pipe is swept on an
        abandonable thread; callers replace or close that queue either way.
        """
        for rank in ranks:
            if rank in terminated:
                finishes_within(lambda rank=rank: self._sweep_results(rank),
                                scale_timeout(2.0), name="pro-pool-sweep")
            else:
                self._sweep_results(rank)

    # -- supervision --------------------------------------------------------
    def heal(self) -> bool:
        """Lift the poison by respawning exactly the dead ranks (supervision).

        Returns True when the fleet is ready to run again, False when it
        cannot be recovered (closed, inherited across a fork, or a suspect
        worker refused to die) -- the caller should fall back to a fresh
        pool or another backend.  A live, unpoisoned pool heals trivially.

        Recovery steps, in order:

        1. every *suspect* rank -- implicated in the poisoned epoch or
           found dead -- is joined, and terminated only if it does not
           exit within the shutdown grace (survivors that reported
           success are still blocked on their task queues and are left
           untouched: they keep their processes, transports and PIDs);
        2. straggler results of the poisoned epoch are swept from the
           suspects' result queues, disposing undecoded values.  The
           sweep does not wait: every suspect has exited and every
           survivor has reported, so nothing is still in flight;
        3. the suspects' task queues are drained (an undelivered epoch
           holds encoded argument records), and both of their queues are
           replaced by fresh ones;
        4. the standing fabric is healed
           (:meth:`~repro.pro.backends.process.ProcessFabric.heal`):
           inboxes drained and disposed, barrier reset -- or inboxes
           and barrier replaced, when every rank is a suspect;
        5. replacement workers are spawned for the suspect ranks only.

        Determinism is untouched: the machine rebuilds every rank's stream
        per attempt, so the replayed epoch -- on the mixed fleet of
        survivors and replacements -- is bit-identical to a fault-free
        run.
        """
        if not self.in_owner_process:
            return False
        locked = self._run_lock.acquire(timeout=scale_timeout(2.0 * self.shutdown_grace))
        if not locked:
            return False
        try:
            return self._heal_locked()
        finally:
            self._run_lock.release()

    def _heal_locked(self) -> bool:
        if self._closed:
            return False
        suspects = set(self._suspect_ranks)
        suspects.update(rank for rank, proc in enumerate(self._workers)
                        if not proc.is_alive())
        if self._poison_reason is None and not suspects:
            return True
        started = time.perf_counter()
        grace = scale_timeout(self.shutdown_grace)
        # Let suspects exit on their own first: poison pills reach ranks
        # parked in receives, the aborted barrier the rest, and the
        # shutdown sentinel a rank that finishes its epoch late.  A clean
        # exit releases the inbox reader lock a terminate() could orphan.
        # Only then terminate genuinely wedged workers.
        try:
            self.fabric.poison_waits(self._epoch)
        except Exception:  # pragma: no cover - queues already broken
            pass
        for rank in sorted(suspects):
            try:
                self._task_queues[rank].put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        join_until = time.monotonic() + grace
        for rank in sorted(suspects):
            proc = self._workers[rank]
            proc.join(timeout=max(join_until - time.monotonic(), 0.1))
        terminated = set()
        for rank in sorted(suspects):
            proc = self._workers[rank]
            if proc.is_alive():
                terminated.add(rank)
                proc.terminate()
                proc.join(timeout=grace)
            if proc.is_alive():
                return False  # unkillable worker: this fleet is lost
        # Every suspect has exited and every survivor reported, so the
        # poisoned epoch's stragglers are all in the suspects' pipes.
        self._sweep_stopped(sorted(suspects), terminated)
        for rank in sorted(suspects):
            old_queue = self._task_queues[rank]
            while True:  # undelivered epochs hold encoded argument records
                try:
                    raw = old_queue.get_nowait()
                except Exception:
                    break
                if raw is None:
                    continue
                try:
                    self.fabric.transport.dispose(pickle.loads(raw)[4])
                except Exception:
                    pass
            for stale in (old_queue, self._result_queues[rank]):
                try:
                    stale.close()
                    stale.cancel_join_thread()
                except Exception:  # pragma: no cover - queue already broken
                    pass
            # A worker killed mid-get or mid-put can leave an old queue's
            # pipe in a torn state; the replacement gets pristine ones.
            self._task_queues[rank] = self._mp.Queue()
            self._result_queues[rank] = self._mp.Queue()
        respawned = sorted(suspects)
        self.fabric.heal(respawned)
        for rank in respawned:
            self._workers[rank] = self._spawn(rank)
        self._suspect_ranks.clear()
        self._poison_reason = None
        record_event("pool-heal", respawned=respawned,
                     heal_ms=round((time.perf_counter() - started) * 1e3, 3),
                     epoch=self._epoch)
        return True

    # -- shutdown -----------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release every fabric resource (idempotent).

        Serialises with :meth:`run`: an eviction from the default cache
        (LRU overflow, poison healing, ``clear_default_pools``) must not
        tear the fabric down under a run another thread still has in
        flight.  The wait is bounded -- if the in-flight run does not
        finish within the grace window (e.g. a hung fleet at interpreter
        exit), teardown proceeds anyway rather than hanging shutdown.

        In a forked copy of the owning process this only marks the local
        handle closed: joining or terminating the workers (and draining
        the queues) is the owner's job, and CPython refuses to join
        another process's children anyway.
        """
        if self._closed:
            return
        locked = self._run_lock.acquire(timeout=scale_timeout(2.0 * self.shutdown_grace))
        try:
            if self._closed:
                return
            self._closed = True
            if self._task_queues is not None:  # standing fleets only
                record_event("pool-close", n_procs=self.n_procs,
                             epoch=self._epoch)
            atexit.unregister(self.close)
            if not self.in_owner_process:
                return  # inherited handle: the owner reaps the resources
            self._close_resources()
        finally:
            if locked:
                self._run_lock.release()

    def _close_resources(self) -> None:
        """Teardown body of :meth:`close` (runs in the owner process)."""
        task_queues = self._task_queues or []
        for task_queue in task_queues:
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        grace = scale_timeout(self.shutdown_grace)
        for proc in self._workers:
            proc.join(timeout=grace)
        terminated = set()
        for rank, proc in enumerate(self._workers):
            if proc.is_alive():
                terminated.add(rank)
                proc.terminate()
                proc.join(timeout=grace)
        # Dispose undelivered tasks (a rank that died before picking its
        # task up leaves it queued) and results (a poisoned pool may
        # leave some): their out-of-band argument/value segments must be
        # unlinked, not leaked.
        for task_queue in task_queues:
            while True:
                try:
                    raw = task_queue.get_nowait()
                except Exception:
                    break
                if raw is None:
                    continue
                try:
                    self.fabric.transport.dispose(pickle.loads(raw)[4])
                except Exception:
                    pass
        self._sweep_stopped(range(self.n_procs), terminated)
        # Unlink in-flight and by-reference segments on the fabric.
        self.fabric.shutdown(
            drain_timeout=scale_timeout(0.25) if self.poisoned else 0.0)
        for task_queue in task_queues:
            task_queue.close()
            task_queue.cancel_join_thread()
        for result_queue in self._result_queues:
            result_queue.close()
            result_queue.cancel_join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = ("closed" if self._closed
                 else "poisoned" if self.poisoned else "live")
        return f"WorkerPool(n_procs={self.n_procs}, {state})"


# ----------------------------------------------------------------------------
# Process-wide default pool cache: warm-by-default drivers
# ----------------------------------------------------------------------------
# The driver layer (sample_matrix_parallel, permute_distributed,
# random_permutation(_indices), sample_communication_matrix) builds a fresh
# machine per call; with backend="process" that used to mean p process
# spawns per call.  The default cache below makes repeated driver calls
# warm *by default*: machines whose process backend is created with
# pool_scope="process" borrow a keyed standing fleet from here instead of
# spawning their own, and the fleet outlives the call.  Keys capture
# everything that makes two fleets interchangeable -- rank count,
# transport configuration (via transport.cache_key()), communication
# timeout and multiprocessing start method.  Determinism is untouched:
# per-rank streams are still built by each machine per run, so a fixed
# seed is bit-identical warm or cold.

#: key -> WorkerPool, in least-recently-used order (front = coldest).
_DEFAULT_POOLS: "OrderedDict[tuple, WorkerPool]" = OrderedDict()
#: Guards the cache dict itself; each pool's run() has its own lock.
_DEFAULT_POOLS_LOCK = threading.Lock()
#: Standing fleets kept warm at once; the least recently used fleet is
#: closed when the cache grows past this.
_DEFAULT_POOL_CAP = 4


def get_default_pool(n_procs: int, *, timeout: float = 60.0, mp_context=None,
                     transport=None, shutdown_grace: float = 5.0,
                     start_method: str | None = None) -> "WorkerPool":
    """The process-wide warm :class:`WorkerPool` for this configuration.

    Returns the cached standing fleet when one exists for the key
    ``(n_procs, transport.cache_key(), timeout, start_method)``.  A
    *poisoned* cached fleet is first healed in place
    (:meth:`WorkerPool.heal`: only the dead ranks respawn, survivors stay
    warm); when healing fails -- or the fleet is closed or inherited
    across a fork -- it is evicted, closed and replaced by a fresh spawn,
    so a crashed run degrades one call and the cache recovers itself
    either way.

    The cache holds at most ``_DEFAULT_POOL_CAP`` (4) fleets; the least
    recently used one is closed on overflow.  All cached fleets
    are released by :func:`clear_default_pools`, which also runs at
    interpreter exit.

    Examples
    --------
    >>> from repro.core.permutation import random_permutation
    >>> import numpy as np
    >>> out = random_permutation(np.arange(64), n_procs=2, backend="process",
    ...                          seed=0)   # first call spawns the fleet...
    >>> out = random_permutation(np.arange(64), n_procs=2, backend="process",
    ...                          seed=0)   # ...later calls reuse it warm
    >>> from repro.pro.backends.pool import clear_default_pools
    >>> clear_default_pools()              # explicit teardown (atexit does too)
    """
    transport = resolve_transport(transport)
    key = (int(n_procs), transport.cache_key(), float(timeout), start_method)
    evicted: list = []
    with _DEFAULT_POOLS_LOCK:
        pool = _DEFAULT_POOLS.get(key)
        if (pool is not None and pool.in_owner_process
                and not pool.closed and not pool.poisoned):
            _DEFAULT_POOLS.move_to_end(key)
            return pool
        if (pool is not None and pool.in_owner_process
                and not pool.closed and pool.poisoned):
            # Heal in place before evict-and-respawn: only the dead ranks
            # are replaced, so the warm survivors (and their transports)
            # are kept.  Healing under the cache lock is acceptable --
            # poison is rare, and the bounded reap beats a full respawn.
            try:
                healed = pool.heal()
            except Exception:  # pragma: no cover - healing is best effort
                healed = False
            if healed:
                _DEFAULT_POOLS.move_to_end(key)
                return pool
        if pool is not None:
            # Closed, poisoned, or inherited across a fork (this process
            # does not own those workers): drop the handle and respawn.
            _DEFAULT_POOLS.pop(key, None)
            record_event("pool-evict", n_procs=pool.n_procs,
                         reason="unhealable")
            evicted.append(pool)
        pool = WorkerPool(n_procs, timeout=timeout, mp_context=mp_context,
                          transport=transport, shutdown_grace=shutdown_grace)
        _DEFAULT_POOLS[key] = pool
        while len(_DEFAULT_POOLS) > _DEFAULT_POOL_CAP:
            _key, coldest = _DEFAULT_POOLS.popitem(last=False)
            record_event("pool-evict", n_procs=coldest.n_procs, reason="lru")
            evicted.append(coldest)
    # Teardown happens outside the cache lock: closing a fleet waits for
    # (and may grace-join) its workers, and no other driver call should
    # stall on the global lock behind that.
    for old in evicted:
        try:
            old.close()  # no-op beyond bookkeeping in a forked child
        except Exception:  # pragma: no cover - eviction is best effort
            pass
    return pool


def clear_default_pools() -> None:
    """Close every fleet in the process-wide default pool cache.

    Idempotent, registered with ``atexit``, and safe to call between
    measurements or tests to force the next driver call back onto the
    cold path.  Fleets currently borrowed by a live machine are closed
    too (their next ``run()`` raises ``BackendError``); build a new
    machine -- or just call the driver again -- to respawn.  In a forked
    child the inherited handles are only dropped -- the owning process
    reaps the actual workers.  The shared-memory transport's parked
    output segment is unlinked too.
    """
    drained: list = []
    with _DEFAULT_POOLS_LOCK:
        while _DEFAULT_POOLS:
            drained.append(_DEFAULT_POOLS.popitem()[1])
    for pool in drained:
        try:
            pool.close()
        except Exception:  # pragma: no cover - teardown is best effort
            pass
    release_parked()


def default_pools() -> dict:
    """Snapshot of the default pool cache (key -> pool; for tests/tools)."""
    with _DEFAULT_POOLS_LOCK:
        return dict(_DEFAULT_POOLS)


atexit.register(clear_default_pools)


@contextmanager
def pool(n_procs: int, *, transport=None, **machine_options):
    """Context manager: a persistent process machine, closed on exit.

    ::

        from repro.pro.backends.pool import pool

        with pool(4, seed=42) as machine:
            for _ in range(100):
                machine.run(program)   # spawn paid once, not 100 times

    ``transport`` selects the fleet's payload transport; every other
    keyword argument is forwarded to :class:`~repro.pro.machine.PROMachine`
    (e.g. ``seed=``, ``timeout=``, ``retry=`` to heal and replay transient
    failures, ``telemetry=`` for one
    :class:`~repro.pro.telemetry.FleetReport` per run, or
    ``count_random_variates=True``); the backend is always the persistent
    process backend.
    """
    from repro.pro.machine import PROMachine

    backend_options = machine_options.pop("backend_options", {})
    if transport is not None:
        backend_options = {**backend_options, "transport": transport}
    machine = PROMachine(
        n_procs, backend="process", persistent=True,
        backend_options=backend_options, **machine_options,
    )
    try:
        yield machine
    finally:
        machine.close()
