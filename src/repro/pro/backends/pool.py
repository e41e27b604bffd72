"""Worker pool: the process backend's one execution path.

Every process-backend run executes on a :class:`WorkerPool`.  The paper's
coarse-grained model (like the PRO model it builds on) assumes the
parallel machine is a *standing* resource whose setup is paid once; a
standing pool makes the backend behave that way:

* ``p`` long-lived daemon ranks are spawned **once**, inheriting the
  fabric (inbox queues, barrier) that every later run reuses;
* each rank has one duplex pipe to the parent: each ``run()`` sends one
  lightweight *run-epoch record* down it -- the rank's freshly built
  random stream and cost recorder plus the (pickled) program and
  arguments -- and the rank's result, cost record and variate count come
  back up it, so cost reports stay backend-independent;
* the per-rank RNG streams are still built *in the parent* for every run
  (by the machine), so a fixed machine seed is bit-identical on every
  fleet -- and on every other backend.

The parent closes a rank's end of the pipe right after the spawn, so the
rank is the pipe's only writer towards the parent: a rank that dies
halfway through writing a record leaves an end of file, which the parent
reads as "no result", never a read that waits forever.

Determinism contract
--------------------
A machine with seed ``s`` run ``k`` times produces exactly the same ``k``
results whether its fleet is fresh for every call, private to the
machine or borrowed from the default pool cache after any number of
earlier runs: where the ranks live never changes what they draw.
``tests/integration/test_cross_backend_determinism.py`` and the pool
lifecycle tests pin this.

Serialisation
-------------
Programs and arguments cross the rank's pipe, so they must be picklable
even on ``fork`` platforms.  All the library's SPMD programs are
module-level functions and qualify; when ``cloudpickle`` is installed it
is used as a fallback serialiser, which widens support to closures and
lambdas.  An unserialisable program raises
:class:`~repro.util.errors.BackendError` *before* anything is dispatched.

Bulk arguments are encoded through the payload transport's
``encode_shared`` once **per run**, into one record every rank decodes:
it stages them in one by-reference segment that every rank attaches --
one memcpy total, unlinked by ``end_run`` once the run has returned --
or, where segments cannot be created, encodes them once in-band into the
record itself.

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

The failing rank aborts the fabric, so its siblings fail fast with a
:class:`~repro.util.errors.CommunicationError`.  A standing rank whose
epoch ended in any ``Exception`` -- its own code's, or such a symptom of
a sibling's failure -- keeps its process: it reports the exception,
drops the epoch's views and waits on its pipe again.  Only a rank that
raised a ``BaseException`` outside ``Exception`` (``SystemExit``,
``KeyboardInterrupt``) reports and exits.

The poison can be lifted *explicitly* through :meth:`WorkerPool.heal`,
the supervision hook the resilience layer (:mod:`repro.pro.resilience`)
calls between retry attempts.  Its suspects are the ranks that were
killed, wedged, silent or exited in the poisoned epoch.  With
no suspect, every rank is idle on its pipe and holds no lock of the
fabric's, so every process, pipe, warm transport and inbox is kept and
the fabric is restored around them
(:meth:`~repro.pro.backends.process.ProcessFabric.heal`: inbox drain,
barrier reset).  Any suspect may have left an inbox or the barrier
locked, so heal stops every rank, sweeping the poisoned epoch's
straggler results from their pipes without waiting (disposing
out-of-band records), replaces the inboxes and the barrier, and
respawns all ranks.  Because per-rank streams are rebuilt by the machine
for every attempt, the replayed epoch is bit-identical to a fault-free
run, whichever processes served it.

Standing ranks never outlive the pool's process: a forked rank drops its
copies of every rank pipe's parent end as it starts, so when the parent
dies -- even by ``SIGKILL`` -- each rank reads an end of file on its pipe
and exits.

``close()`` stops every rank the same way, disposes undelivered results
and releases the staging segments of the fleet's runs; by-reference
outputs are unlinked
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
from multiprocessing import util as _mp_util
from multiprocessing.connection import wait as _wait
from typing import Callable, Sequence

from repro.pro.backends.process import ProcessFabric
from repro.pro.backends.sharedmem import release_parked, transport_or_default
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

#: Held from a rank pipe's creation until the parent has closed the rank's
#: end: a fork in between (another pool spawning on another thread) would
#: inherit that end and keep the pipe open after the rank died.
_SPAWN_LOCK = threading.Lock()


def _dumps(obj) -> bytes:
    """Serialise ``obj`` for a rank's pipe (cloudpickle fallback)."""
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

    Either way the worker-side traceback travels along as a
    ``remote_traceback`` attribute (it rides in the exception's
    ``__dict__`` through pickling), so the parent's
    :func:`~repro.util.errors.wrap_rank_failure` can chain the remote
    stack into the caller-side error.  It is a
    :class:`traceback.TracebackException` captured without source lines:
    the parent reads those from the same files when the text is first
    rendered, so formatting stays off the rank's failure path.  The
    unpicklable fallback carries the rendered text instead, and keeps the
    original's transient/fatal classification.
    """
    tb = traceback.TracebackException.from_exception(exc, lookup_lines=False)
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
        summary.remote_traceback = "".join(tb.format())
        return summary


#: Status of a rank's result record ``(epoch, status, payload)``.
#: ``_DONE``: the payload is ``(encoded value, cost, variates)``.
#: ``_KEPT``: the rank's epoch raised the payload ``Exception``
#: -- its own code's, or a sibling's failure seen as a
#: :class:`CommunicationError` -- and the rank keeps its process.
#: ``_EXITS``: the rank exits after reporting the payload exception.
_DONE, _EXITS, _KEPT = "done", "exits", "kept"


def _run_epoch(rank: int, fabric: ProcessFabric, pipe, task) -> None:
    """Run one epoch's program on ``rank`` and send its ``_DONE`` record."""
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
    program = pickle.loads(program)
    # Bulk arguments travel out-of-band through the payload transport
    # (the control record above stays small); with the shared-memory
    # transport the worker gets zero-copy views of the parent's segments.
    args, kwargs = fabric.transport.decode(args_record)
    # Rebuild the context around the fabric: communicator state (parked
    # messages, collective counters) starts fresh every epoch.
    from repro.pro.machine import ProcessorContext

    ctx = ProcessorContext(
        rank=rank, n_procs=fabric.n_procs,
        comm=Communicator(fabric, rank, cost), rng=rng, cost=cost,
    )
    value = program(ctx, *args, **kwargs)
    variates = getattr(ctx.rng, "total_variates", None)
    # A result may cross by reference when it lies in memory the parent
    # owns (see the transport contract).
    encoded = fabric.transport.encode(value, by_reference=True)
    # Counters accumulate across a rank's epochs; the snapshot
    # repatriates the running totals with this epoch's result record (the
    # parent reports the latest view).
    ctx.cost.telemetry = capture_rank_telemetry(fabric)
    pipe.send((epoch, _DONE, (encoded, ctx.cost, variates)))
    # Returning drops this epoch's views of by-reference segments, after
    # the send: that closes the rank's mappings off the caller's critical
    # path, except the few output segments the transport holds for later
    # epochs.


def _rank_main(rank: int, fabric: ProcessFabric, pipe) -> None:
    """Main loop of one rank (module-level for spawn support).

    The rank blocks on its pipe; an empty message, or an end of file, is
    the shutdown sentinel.  The end of file comes when the pool's process
    has died: a forked rank holds no copy of any rank pipe's parent end
    (an after-fork hook that :meth:`WorkerPool._spawn` registers closes
    them as it starts), so ranks never outlive their parent.  Each task
    carries one pickled run-epoch: the rank's fresh context pieces, the
    pickled program and the encoded arguments.

    A failing epoch aborts the fabric (siblings fail fast) and reports the
    failure -- unless the rank's receive consumed a poison pill of the
    epoch: that pill proves an abort already broke the barrier and pilled
    every inbox, so a second one would only leave ``p`` more pills for
    heal to drain.  A rank whose epoch ended in any ``Exception`` --
    raised by its program, or a
    :class:`~repro.util.errors.CommunicationError` that a sibling's
    failure caused -- reports ``_KEPT``, drops the epoch's views and
    goes back to its pipe, keeping its process: the next epoch rebuilds
    everything it uses.  A rank that raised a ``BaseException`` outside
    ``Exception`` reports ``_EXITS`` and *exits*; heal() replaces the
    whole fleet after such an exit.  A rank that leaves on the sentinel or
    an end of file stops waiting for its inbox feeders first
    (:func:`_leave`).
    """
    while True:
        try:
            raw = pipe.recv_bytes()
        except EOFError:
            raw = b""  # the pool's process is gone
        if not raw:
            _leave(fabric)
            return
        task = pickle.loads(raw)
        try:
            _run_epoch(rank, fabric, pipe, task)
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            if fabric.pilled_epoch != task[0]:
                try:
                    # Siblings blocked in the barrier or in a receive fail
                    # fast and report through their own error paths.
                    fabric.abort()
                except Exception:
                    pass
            stays = isinstance(exc, Exception)
            try:
                pipe.send((task[0], _KEPT if stays else _EXITS,
                           _portable_exception(exc)))
            except OSError:
                return  # the pool's process is gone
            if not stays:
                return
            # The traceback's frames and the parked messages hold the
            # epoch's views of shared segments: drop them, so the rank
            # idles without mapping them.
            traceback.clear_frames(exc.__traceback__)
            fabric._parked.clear()


def _leave(fabric: ProcessFabric) -> None:
    """Let a rank's exit skip the join of its inbox feeders.

    A ``multiprocessing`` process joins its queue feeder threads as it
    exits.  A feeder holding a message -- an abort pill, say -- for an
    inbox whose write lock a killed sibling left held never finishes, so
    that join would run out the pool's shutdown grace and get the rank
    terminated.  The feeders get a short bound to flush instead.  What
    they could not write is not needed: no run is in flight when a rank
    leaves on the shutdown sentinel or an end of file, heal replaces the
    inboxes after any such stop, and ``close()`` disposes what is left in
    them.
    """
    until = time.monotonic() + scale_timeout(0.05)
    for inbox in fabric._inboxes:
        feeder = inbox._thread
        if feeder is not None:
            inbox.close()
            feeder.join(timeout=max(until - time.monotonic(), 0.0))
        inbox.cancel_join_thread()


class WorkerPool:
    """A standing fleet: ``p`` daemon ranks sharing one fabric.

    Parameters
    ----------
    n_procs:
        Number of ranks; fixed for the pool's lifetime.
    timeout:
        Communication timeout of the fabric (seconds).
    mp_context:
        The ``multiprocessing`` context to spawn workers from (the
        backend passes its configured start method's context).
    transport:
        The :class:`~repro.pro.backends.sharedmem.SharedMemoryTransport`
        shared by the fabric and the result path (default: a fresh one).
    shutdown_grace:
        Seconds :meth:`close` waits for workers to exit before
        terminating them.
    """

    def __init__(self, n_procs: int, *, timeout: float = 60.0, mp_context=None,
                 transport=None, shutdown_grace: float = 5.0):
        if n_procs < 1:
            raise ValidationError(f"n_procs must be >= 1, got {n_procs}")
        import multiprocessing

        self._mp = mp_context if mp_context is not None else multiprocessing.get_context()
        self.fabric = ProcessFabric(n_procs, timeout=timeout, mp_context=self._mp,
                                    transport=transport)
        self.n_procs = int(n_procs)
        self.timeout = float(timeout)
        self.shutdown_grace = float(shutdown_grace)
        #: Process that spawned the fleet: only it may run or reap the
        #: workers (a forked child inherits this object but must not
        #: touch the parent's processes -- see :meth:`run`/:meth:`close`).
        self._owner_pid = os.getpid()
        #: One run at a time: the fleet shares its rank pipes and one
        #: epoch counter, so concurrent ``run()`` calls (e.g. two threads
        #: hitting the same default-cache fleet) serialise here instead
        #: of corrupting each other's dispatch.
        self._run_lock = threading.Lock()
        #: Per rank: its worker process and the parent's end of its pipe.
        self._workers: list = []
        self._pipes: list = []
        self._epoch = 0
        self._poison_reason: str | None = None
        #: Ranks of the poisoned epoch that died, exited or never reported:
        #: any of them makes heal() respawn the whole fleet.
        self._suspect_ranks: set = set()
        self._closed = False
        for rank in range(self.n_procs):
            self._spawn(rank)
        record_event("pool-spawn", n_procs=self.n_procs, epoch=self._epoch)
        atexit.register(self.close)

    def _spawn(self, rank: int) -> None:
        """Start ``rank``'s worker over a fresh pipe (replacing any old one)."""
        with _SPAWN_LOCK:
            pipe, rank_end = self._mp.Pipe()
            # Every process multiprocessing forks from now on closes its
            # copy of this end as it starts, so the rank reads an end of
            # file once the parent is gone.
            _mp_util.register_after_fork(pipe, type(pipe).close)
            proc = self._mp.Process(
                target=_rank_main, args=(rank, self.fabric, rank_end),
                name=f"pro-pool-{rank}", daemon=True,
            )
            proc.start()
            rank_end.close()  # the rank is its end's only holder
        if rank < len(self._workers):
            self._workers[rank], self._pipes[rank] = proc, pipe
        else:
            self._workers.append(proc)
            self._pipes.append(pipe)

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
            record_event("pool-poison", reason=reason, epoch=self._epoch)

    @property
    def in_owner_process(self) -> bool:
        """True in the process that spawned (and may drive) the fleet."""
        return self._owner_pid == os.getpid()

    def worker_pids(self) -> list[int]:
        """PIDs of the ranks (stable across runs; for tests)."""
        return [proc.pid for proc in self._workers]

    # -- running ------------------------------------------------------------
    def run(self, contexts: Sequence, program: Callable, args: tuple,
            kwargs: dict) -> list:
        """Run one epoch on the pool's ranks and collect results.

        Serialised by a per-pool lock: the fleet shares its rank pipes and
        one epoch counter, so exactly one run is in flight at a time (a
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
            # treat a poisoned fleet as recoverable substrate.
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
        # The parent's abort() pills are stamped with the fabric's epoch.
        self.fabric.epoch = epoch
        run_deadline = current_deadline()
        wait_timeout = (self.timeout if run_deadline is None
                        else run_deadline.clamp(self.timeout))
        self._dispatch(epoch, contexts, program, args, kwargs, wait_timeout)

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
            elif entry[0] != _DONE:
                failed.append((rank, entry[1]))
        if failed:
            self._abandon(n, outcomes,
                          f"rank {failed[0][0]} failed during run {epoch}")
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
        """Send one pickled run-epoch record down each rank's pipe."""
        n = len(contexts)
        # Serialise the whole epoch in the parent before sending anything:
        # a task that cannot be pickled must raise here, as a clear
        # BackendError, before any rank has been dispatched.  Bulk array
        # arguments travel out-of-band through the payload transport,
        # encoded once **per run** into one record every rank decodes
        # (``encode_shared``).
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
                "process runs dispatch the program and its "
                "arguments through a pipe, so they must be picklable "
                "(module-level functions work; installing cloudpickle widens "
                f"this to closures): {type(exc).__name__}: {exc}"
            ) from exc
        for rank in range(n):
            try:
                self._pipes[rank].send_bytes(task_blobs[rank])
            except OSError:
                pass  # the rank died since the liveness check: _collect sees it

    def _collect(self, epoch: int, n: int) -> dict:
        """Gather this epoch's per-rank outcomes, watching worker liveness.

        The epoch is complete once every rank is *accounted for*: its
        outcome is in, or its process is dead.  A dead rank's pipe ends in
        end of file -- after a half-written record too -- so one sweep
        after the death is seen settles whether it reported.  The loop
        sleeps in :func:`multiprocessing.connection.wait` on the pipes and
        the sentinels of the ranks still running, so a result or a death
        wakes it at once, and it sweeps only the ranks that woke it.

        There is no overall wall-clock deadline: healthy ranks may compute
        for as long as they like, and blocked communication times out
        inside the workers.  A worker that dies without reporting breaks
        the run: the parent aborts the fabric so surviving ranks fail
        fast, then gives the ranks still alive a short grace period to
        report their (Communication)errors.
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
                    self._abandon(n, outcomes, f"run {epoch} exceeded its deadline")
                    raise DeadlineError(
                        f"run {epoch} exceeded its {run_deadline.seconds:g}s "
                        f"deadline with {n - len(outcomes)} rank(s) still "
                        "outstanding"
                    )
                timeouts.append(run_deadline.remaining())
            handles = {}
            for rank in running:
                handles[self._pipes[rank]] = rank
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
                # A hard-crashed rank never ran its own failure path:
                # unblock siblings parked in the barrier or in receives so
                # they report (and exit joinably) within grace.
                try:
                    self.fabric.abort()
                except Exception:
                    pass
                grace_until = (time.monotonic()
                               + scale_timeout(max(self.shutdown_grace, 1.0)))
        return outcomes

    def _abandon(self, n: int, outcomes: dict, reason: str) -> None:
        """Poison the pool over an epoch that will not return its results.

        The suspects for heal() are the ranks that reported ``_EXITS`` --
        they exit their main loop by contract -- and those that never
        reported, which are dead or wedged.  Ranks that reported success
        or ``_KEPT`` keep looping on their pipes.  The fabric is aborted
        so ranks still running fail fast -- none is when every rank
        reported -- and the undecoded successes are disposed (they may
        hold segments).
        """
        self._suspect_ranks.update(
            rank for rank in range(n)
            if outcomes.get(rank, (_EXITS,))[0] == _EXITS)
        self._poison(reason)
        if len(outcomes) < n:
            try:
                self.fabric.abort()
            except Exception:
                pass
        for status, payload in outcomes.values():
            if status == _DONE:
                try:
                    self.fabric.transport.dispose(payload[0])
                except Exception:
                    pass

    def _sweep_results(self, rank: int, epoch: int | None = None,
                       outcomes: dict | None = None) -> None:
        """Take every record already in ``rank``'s pipe, without waiting.

        A record of ``epoch`` lands in ``outcomes``; any other success
        record is a straggler -- of an earlier failed epoch, or swept by
        heal or close -- whose undecoded value is disposed.  A read that
        meets the end of a dead rank's pipe, mid-record or not, ends the
        sweep.
        """
        pipe = self._pipes[rank]
        try:
            while pipe.poll():
                e, status, payload = pipe.recv()
                if outcomes is not None and e == epoch:
                    outcomes[rank] = (status, payload)
                elif status == _DONE:
                    self.fabric.transport.dispose(payload[0])
        except Exception:  # end of file, or a record that does not load
            pass

    def _stop(self, ranks) -> bool:
        """Stop ``ranks``' workers, sweep their pipes and close them.

        Each worker gets the shutdown sentinel and the shutdown grace to
        exit on its own: a clean exit releases the inbox reader lock a
        terminate() could orphan.  Only then is a wedged worker
        terminated.  A stopped rank's pipe holds every record it wrote,
        up to an end of file, so the sweep does not wait.  Returns False
        when a worker refuses to die; its pipe is left unread.
        """
        for rank in ranks:
            try:
                self._pipes[rank].send_bytes(b"")
            except OSError:
                pass  # the rank has exited already
        grace = scale_timeout(self.shutdown_grace)
        join_until = time.monotonic() + grace
        for rank in ranks:
            self._workers[rank].join(timeout=max(join_until - time.monotonic(), 0.1))
        stopped = True
        for rank in ranks:
            proc = self._workers[rank]
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=grace)
            if proc.is_alive():
                stopped = False
            else:
                self._sweep_results(rank)
            self._pipes[rank].close()
        return stopped

    # -- supervision --------------------------------------------------------
    def heal(self) -> bool:
        """Lift the poison, respawning what died (supervision).

        Returns True when the fleet is ready to run again, False when it
        cannot be recovered (closed, inherited across a fork, or a worker
        refused to die) -- the caller should fall back to a fresh pool or
        another backend.  A live, unpoisoned pool heals trivially.

        The suspects are the ranks that died, exited (``_EXITS``) or never
        reported in the poisoned epoch.  A rank that reported success or
        ``_KEPT`` -- whether its own code raised or it only saw a
        sibling's failure -- is blocked on its pipe and keeps its process.

        * With no suspect, every rank -- process, pipe, warm transport,
          PID and the inbox it reads -- is kept.  An idle rank holds no
          inbox lock and is outside the barrier, so the fabric is healed
          around them
          (:meth:`~repro.pro.backends.process.ProcessFabric.heal`: inboxes
          drained and disposed, barrier reset) and nothing is spawned.
        * Any suspect may have died holding an inbox's write lock or the
          barrier's, so every rank is stopped (:meth:`_stop`: sent the
          shutdown sentinel, joined, and terminated only if it does not
          exit within the shutdown grace; a rank blocked in the barrier
          or in a receive was released when the run aborted the fabric).
          Straggler results of the poisoned epoch are swept from the
          pipes without waiting, disposing undecoded values: each stopped
          rank's pipe ends in an end of file, after a record a killed
          rank left half-written too.  The fabric then replaces the
          inboxes and the barrier, and every rank respawns over a fresh
          pipe.

        Determinism is untouched: the machine rebuilds every rank's stream
        per attempt, so the replayed epoch -- on kept ranks or on a fresh
        fleet -- is bit-identical to a fault-free run.
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
        lost = bool(self._suspect_ranks) or not all(
            proc.is_alive() for proc in self._workers)
        if self._poison_reason is None and not lost:
            return True
        started = time.perf_counter()
        respawned = list(range(self.n_procs)) if lost else []
        if not self._stop(respawned):
            return False  # unkillable worker: this fleet is lost
        self.fabric.heal(replace=lost)
        for rank in respawned:
            self._spawn(rank)
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
        the pipes) is the owner's job, and CPython refuses to join
        another process's children anyway.
        """
        if self._closed:
            return
        locked = self._run_lock.acquire(timeout=scale_timeout(2.0 * self.shutdown_grace))
        try:
            if self._closed:
                return
            self._closed = True
            record_event("pool-close", n_procs=self.n_procs, epoch=self._epoch)
            atexit.unregister(self.close)
            if not self.in_owner_process:
                return  # inherited handle: the owner reaps the resources
            stopped = self._stop(range(len(self._workers)))
            # Unlink in-flight and by-reference segments on the fabric.
            self.fabric.shutdown(
                drain_timeout=scale_timeout(0.25) if self.poisoned else 0.0,
                ranks_stopped=stopped)
        finally:
            if locked:
                self._run_lock.release()

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
# seed is bit-identical on a borrowed fleet and on a fresh one.

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
    ``(n_procs, transport.cache_key(), timeout, start_method)``;
    ``transport`` defaults to a fresh
    :class:`~repro.pro.backends.sharedmem.SharedMemoryTransport`.  A
    *poisoned* cached fleet is first healed in place
    (:meth:`WorkerPool.heal`: ranks that reported their failure stay warm);
    when healing fails -- or the fleet is closed or inherited
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
    transport = transport_or_default(transport)
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
            # Heal in place before evict-and-respawn: the warm ranks (and
            # their transports) are kept when none of them died.  Healing
            # under the cache lock is acceptable -- poison is rare, and the
            # bounded reap beats a full respawn.
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
    measurements or tests to make the next driver call spawn a fresh
    fleet.  Fleets currently borrowed by a live machine are closed
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
def pool(n_procs: int, **machine_options):
    """Context manager: a process machine with a private fleet, closed on exit.

    ::

        from repro.pro.backends.pool import pool

        with pool(4, seed=42) as machine:
            for _ in range(100):
                machine.run(program)   # spawn paid once, not 100 times

    Every keyword argument is forwarded to
    :class:`~repro.pro.machine.PROMachine`
    (e.g. ``seed=``, ``timeout=``, ``retry=`` to heal and replay transient
    failures, ``telemetry=`` for one
    :class:`~repro.pro.telemetry.FleetReport` per run, or
    ``count_random_variates=True``); the backend is always the process
    backend.
    """
    from repro.pro.machine import PROMachine

    machine = PROMachine(n_procs, backend="process", **machine_options)
    try:
        yield machine
    finally:
        machine.close()
