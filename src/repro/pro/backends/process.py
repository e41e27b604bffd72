"""Process-per-rank execution backend: true multiprocess parallelism.

Each virtual processor runs in its own OS process, so ranks execute with
genuine hardware parallelism (no shared GIL) -- the regime the paper's
experiments on the SGI Origin actually measured.  The ranks communicate
through a :class:`ProcessFabric`: one multiprocessing queue per destination
rank plus a shared multiprocessing barrier, speaking the same
``put``/``get``/``barrier_wait``/``abort`` protocol as the in-process
:class:`~repro.pro.communicator.MessageFabric`, so every communicator
operation (point-to-point, collectives, barriers) works unchanged.

Design points:

* **Deterministic seeding.**  The machine builds the per-rank random
  streams *in the parent* (exactly as for the inline and thread backends)
  and ships each rank its own generator, so for a fixed machine seed the
  results are bit-identical across the inline, thread and process backends
  -- and whichever way the payload bytes travel, which never touches the
  streams.
* **Shared-memory payloads.**  The queues carry only small control
  records; the
  :class:`~repro.pro.backends.sharedmem.SharedMemoryTransport` ships bulk
  NumPy arrays through ``multiprocessing.shared_memory`` segments with
  zero-copy views on the receive side, and keeps small ones -- and every
  one where segments cannot be created -- in-band.  Results shipped back
  to the caller use the same transport: a result lying in a segment the
  caller allocated through :meth:`ProcessBackend.empty` comes back by
  reference, uncopied.
* **One execution path.**  Every run executes on a standing
  :class:`~repro.pro.backends.pool.WorkerPool` of long-lived daemon
  ranks, which owns the worker entry point, result collection, cost
  repatriation and shutdown (see :mod:`repro.pro.backends.pool`) and
  talks to each rank over one duplex pipe of its own.  The ranks keep
  their fabric endpoints alive across runs, and successive programs are
  dispatched as lightweight run-epoch records (picklable programs,
  poison-on-failure crash semantics, explicit, collection-time or atexit
  shutdown).
* **Error propagation** mirrors the thread backend: a failing rank aborts
  the fabric -- :meth:`ProcessFabric.abort` breaks the barrier and puts a
  poison pill in every inbox, so siblings blocked in ``barrier()`` or
  ``recv`` fail fast --
  and the first real error by rank order -- preferring causes over
  :class:`~repro.util.errors.CommunicationError` symptoms -- is re-raised in
  the caller wrapped in :class:`~repro.util.errors.BackendError`.
* **Clean shutdown.**  After every run -- successful, failed, aborted or
  timed out -- the fabric's queues are drained and every undelivered
  record is *disposed*, so shared-memory segments of in-flight messages
  are unlinked instead of leaking (no ``resource_tracker`` warnings).

The backend prefers the ``fork`` start method (cheap); on platforms
without it, ``spawn`` is used.  Either way programs and arguments cross
each rank's pipe pickled (``cloudpickle``, when installed, widens this to
closures).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import queue as _pyqueue
import threading
import time
import weakref
from typing import Callable, Sequence

from repro.pro.backends.registry import BackendCapabilities, ExecutionBackend
from repro.pro.backends.sharedmem import (
    SharedMemoryTransport,
    ensure_resource_tracker,
    transport_or_default,
)
from repro.util.errors import (
    BackendError,
    CommunicationError,
    ValidationError,
    attach_wait_context,
)
from repro.util.timeouts import scale_timeout

__all__ = ["ProcessBackend", "ProcessFabric"]

#: Control-channel tag of run-abort poison pills (see
#: :meth:`ProcessFabric.abort`).  A pill makes a receive blocked on its
#: inbox fail fast with a :class:`~repro.util.errors.CommunicationError`
#: instead of waiting out the fabric timeout -- while holding the inbox's
#: shared reader lock, which a ``terminate()`` would orphan and wedge the
#: queue for any respawned successor -- so the rank leaves the receive
#: through its own error path, reports and keeps its process.
_ABORT_TAG = "__abort__"


def finishes_within(target: Callable[[], object], bound: float, *,
                    name: str) -> bool:
    """Run ``target`` on a daemon thread; True if it returned within ``bound`` s.

    The guard for queue drains that may meet a *truncated* record: a
    process terminated mid-``put`` leaves a message whose body
    ``Queue.get`` waits on forever (its timeout only covers the readiness
    poll).  A drain that hangs is abandoned rather than hanging its
    caller; ``bound`` is only ever waited out in that case.
    """
    worker = threading.Thread(target=target, name=name, daemon=True)
    worker.start()
    worker.join(timeout=bound)
    return not worker.is_alive()


def _retire(inbox, *, ranks_stopped: bool = True) -> None:
    """Close an inbox no rank will use again, and end its parent feeder.

    The parent's queue feeder thread of ``inbox`` -- started by the
    poison pills of :meth:`ProcessFabric.abort` -- ends at the close
    sentinel, after its pending pills.  A killed rank can keep it from
    getting there for good: by leaving the inbox's write lock held, or
    the pipe full of a message that no rank will read.  Once every rank
    has stopped (``ranks_stopped``), the parent is the only process left
    to read the pipe and its feeder the only one to write it, so the
    pipe is emptied while the feeder works, through a copy of the read
    end (the feeder closes the original as it ends).  A write lock still
    held while the pipe is kept empty is held by a dead rank, and is
    released on its behalf.  With a rank still alive, the inbox is only
    closed.
    """
    feeder = inbox._thread
    if (not ranks_stopped or inbox._wlock is None  # no write lock on Windows
            or feeder is None or not feeder.is_alive()):
        inbox.close()
        inbox.cancel_join_thread()
        return
    reader = os.dup(inbox._reader.fileno())
    os.set_blocking(reader, False)
    try:
        until = time.monotonic() + scale_timeout(0.2)
        while not inbox._wlock.acquire(timeout=0.005):
            _empty_pipe(reader)
            if time.monotonic() > until:
                break  # no pill write holds it: a dead rank does
        inbox._wlock.release()
        inbox.close()
        inbox.cancel_join_thread()
        until = time.monotonic() + scale_timeout(1.0)
        while feeder.is_alive() and time.monotonic() < until:
            _empty_pipe(reader)
            feeder.join(timeout=0.005)
    finally:
        os.close(reader)


def _empty_pipe(fd: int) -> None:
    """Read and drop what a non-blocking pipe read end ``fd`` holds."""
    try:
        while os.read(fd, 1 << 16):
            pass
    except BlockingIOError:
        pass


class ProcessFabric:
    """Message fabric over multiprocessing queues and a shared barrier.

    One inbox queue per destination rank carries ``(src, tag, record)``
    triples, where ``record`` is produced by the fabric's payload
    transport; mismatched messages read while waiting for a specific
    ``(src, tag)`` are parked locally (each rank lives in its own process,
    so the parking dict is private to that rank) and served to later
    receives, preserving per-source FIFO order.
    """

    def __init__(self, n_procs: int, *, timeout: float = 60.0, mp_context=None,
                 transport: SharedMemoryTransport | None = None):
        if n_procs < 1:
            raise ValidationError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs
        self.timeout = timeout
        self.transport = transport_or_default(transport)
        # The resource tracker must exist before the rank processes fork
        # so that all of them share it (see ensure_resource_tracker).
        ensure_resource_tracker()
        self._mp = mp_context if mp_context is not None else multiprocessing.get_context()
        self._inboxes = [self._mp.Queue() for _ in range(n_procs)]
        self._barrier = self._mp.Barrier(n_procs)
        # (src, tag) -> list of decoded payloads, private to the rank's process.
        self._parked: dict = {}
        #: Run-epoch of the fabric, stamped by the worker pool at every
        #: dispatch.  Every message tag is wrapped as ``(epoch, tag)`` so a
        #: message that a successful run sent but never consumed can never
        #: be delivered to a later run's receive with the same tag -- it
        #: parks under its own epoch until the worker clears stale state
        #: at the next dispatch (see ``_rank_main`` in the pool module).
        self.epoch = 0
        #: The epoch whose poison pill a receive of this process consumed:
        #: an abort of that epoch has pilled every inbox already.
        self.pilled_epoch = None

    def put(self, src: int, dst: int, tag, payload) -> None:
        """Deposit a message; never blocks (queues are unbounded).

        A message a rank sends to itself is parked locally instead of
        crossing its inbox: the receive then cannot race an abort poison
        pill that a failing sibling deposits in the same inbox, so a rank
        with no cross-rank dependency still finishes an aborted epoch.  It
        is encoded and decoded as usual, so the receiver gets the same copy
        and the transport counters see the same traffic.
        """
        record = self.transport.encode(payload)
        if src == dst:
            self._parked.setdefault((src, (self.epoch, tag)), []).append(
                self.transport.decode(record))
            return
        self._inboxes[dst].put((src, (self.epoch, tag), record))

    def get(self, src: int, dst: int, tag, pending: list):
        """Fetch the next message from ``src`` to ``dst`` carrying ``tag``.

        ``pending`` (the communicator-owned parking list of the in-process
        fabric) is part of the fabric interface but unused here: the fabric
        parks internally, keyed by source *and* tag, because one inbox
        serves all sources.
        """
        tag = (self.epoch, tag)
        bucket = self._parked.get((src, tag))
        if bucket:
            return bucket.pop(0)
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise attach_wait_context(
                    CommunicationError(
                        f"rank {dst} timed out after {self.timeout}s waiting for a message "
                        f"from rank {src} with tag {tag!r}"
                    ),
                    rank=dst, op="recv", src=src,
                )
            try:
                msg_src, msg_tag, record = self._inboxes[dst].get(timeout=remaining)
            except _pyqueue.Empty:
                raise attach_wait_context(
                    CommunicationError(
                        f"rank {dst} timed out after {self.timeout}s waiting for a message "
                        f"from rank {src} with tag {tag!r}"
                    ),
                    rank=dst, op="recv", src=src,
                ) from None
            if msg_tag == _ABORT_TAG:
                # Poison pill: the run this receive belongs to was aborted.
                # Pills are stamped with the epoch they poisoned; one that
                # outlived its epoch (deposited while this rank was idle)
                # is stale and ignored.
                if record == self.epoch:
                    self.pilled_epoch = record
                    raise attach_wait_context(
                        CommunicationError(
                            f"rank {dst} abandoned a receive from rank {src}: "
                            "the run was aborted after a rank failure"
                        ),
                        rank=dst, op="recv", src=src,
                    )
                continue
            payload = self.transport.decode(record)
            if msg_src == src and msg_tag == tag:
                return payload
            self._parked.setdefault((msg_src, msg_tag), []).append(payload)

    def barrier_wait(self) -> None:
        """Block until all ranks reach the barrier."""
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            # Rank-agnostic here; Communicator.barrier stamps the rank.
            raise attach_wait_context(
                CommunicationError(
                    f"barrier broken or timed out after {self.timeout}s "
                    "(a rank likely crashed or deadlocked)"
                ),
                op="barrier",
            ) from None

    def abort(self) -> None:
        """Make surviving ranks fail fast after a crash.

        Breaks the barrier and puts one poison pill in every inbox, as
        :meth:`MessageFabric.abort <repro.pro.communicator.MessageFabric.abort>`
        does: a rank parked in ``get`` consumes the pill and raises
        ``CommunicationError`` at once.  Pills carry the fabric's current
        epoch, so ranks running a *later* epoch skip them as stale.  Safe
        to call repeatedly, from a rank or from the pool's parent.
        """
        self._barrier.abort()
        for inbox in self._inboxes:
            try:
                inbox.put((-1, _ABORT_TAG, self.epoch))
            except Exception:  # pragma: no cover - queue already closed
                pass

    def is_shared(self, array) -> bool:
        """True when every rank maps ``array``'s memory: only arrays in a
        by-reference segment the ranks' parent created (the transport
        decides)."""
        return self.transport.is_shared(array)

    def heal(self, *, replace: bool) -> None:
        """Restore the fabric after a failed epoch (pool supervision).

        Called by :meth:`~repro.pro.backends.pool.WorkerPool.heal` with no
        run in flight -- with ``replace`` once every rank has stopped and
        before the whole fleet respawns:

        * every inbox is swept, without waiting, and the undelivered
          records handed to ``transport.dispose`` (the poisoned epoch's
          in-flight payloads must not pin shared-memory segments for the
          fabric's remaining lifetime) -- safe because no run is in flight
          and idle ranks only read their pipes to the pool;
        * with ``replace``, the inboxes and the barrier are replaced by
          fresh ones: a rank that died inside a queue or barrier
          operation -- ``os._exit`` or a kill while its queue feeder
          thread held an inbox's write lock -- leaves that lock held for
          good, and no live process could ever release it.  The pool
          replaces them whenever a rank died, exited or went silent; the
          retired inboxes are closed by :func:`_retire`;
        * without it, every rank reported and idles on its pipe, holding
          no inbox or barrier lock: the ranks keep the inboxes, and the
          barrier, broken by ``abort()``, is reset for reuse.

        The replacements need nothing else: a rank's transport holds no
        state that outlives the messages it sent.
        """
        # Stopped ranks have exited, so what they sent is in the pipes
        # already; a kept rank's send still being flushed lands under the
        # poisoned epoch's tag, which quarantines it, and close() disposes
        # it if no rank reads it.  Hence no wait.
        self._drain_inboxes(0.0, name="pro-fabric-heal-drain",
                            ranks_stopped=replace)
        if replace:
            stale, self._inboxes = (self._inboxes,
                                    [self._mp.Queue() for _ in range(self.n_procs)])
            self._barrier = self._mp.Barrier(self.n_procs)
            for inbox in stale:
                _retire(inbox)
            return
        try:
            self._barrier.reset()
        except Exception:  # pragma: no cover - a broken reset fails the heal later
            pass

    def shutdown(self, *, drain_timeout: float = 0.0,
                 ranks_stopped: bool = True) -> None:
        """Drain undelivered messages and release their transport resources.

        Called by the worker pool's ``close()`` after stopping the workers
        -- on success, failure, abort and timeout paths alike; it passes
        ``ranks_stopped=False`` when a worker refused to die, so no lock
        that worker may hold is touched (see :func:`_retire`).
        Every record still sitting in an inbox is handed to
        ``transport.dispose`` so out-of-band payloads (shared-memory
        segments) are unlinked rather than leaked.

        ``drain_timeout`` bounds the wait for straggling feeder flushes,
        once for the whole drain: an empty inbox waits out what is left of
        it, so ``p`` empty inboxes cost one timeout, not ``p``.  The pool
        passes 0 on clean runs (the inboxes are empty) and a short grace
        period after aborts and timeouts.

        Reading records back can block indefinitely: a worker terminated
        mid-``put`` of a large in-band record leaves a *truncated* message
        whose body ``Queue.get`` waits on forever (its timeout only covers
        the readiness poll, not the body read -- the transport queues
        multi-KB in-band bodies for sub-``min_bytes`` arrays and when
        segment creation degrades to the inline codec).  So the drain runs
        on a watchdog thread that is abandoned -- with the stranded
        segments left to the resource tracker's exit-time cleanup, which
        is what it is for -- rather than hanging the caller.
        """
        self._drain_inboxes(drain_timeout, name="pro-fabric-drain",
                            ranks_stopped=ranks_stopped)
        # Settle the by-reference segments of a run that never returned:
        # its staging copies go, and its outputs are never recycled.
        try:
            self.transport.end_run()
        except Exception:  # pragma: no cover - unlinking is best effort
            pass
        for inbox in self._inboxes:
            _retire(inbox, ranks_stopped=ranks_stopped)

    def _drain_inboxes(self, drain_timeout: float, *, name: str,
                       ranks_stopped: bool) -> None:
        """Dispose every undelivered record, on an abandonable thread.

        Once every rank has stopped, only the parent's own pills -- each
        written whole -- can still arrive, so a record that cannot be read
        at once was torn by a rank killed mid-write.  The read ends then
        turn non-blocking (the inboxes are being retired), and reading a
        torn record fails at once instead of waiting out the watchdog.
        """
        if ranks_stopped:
            for inbox in self._inboxes:
                try:
                    os.set_blocking(inbox._reader.fileno(), False)
                except OSError:  # pragma: no cover - platforms without it
                    pass
        finishes_within(lambda: self._drain_and_dispose(drain_timeout),
                        scale_timeout(2.0) + drain_timeout, name=name)

    def _drain_and_dispose(self, drain_timeout: float) -> None:
        """Body of the inbox drain (see :meth:`shutdown` for ``drain_timeout``)."""
        deadline = time.monotonic() + drain_timeout
        for inbox in self._inboxes:
            waited = False
            while True:
                remaining = deadline - time.monotonic()
                try:
                    if remaining > 0 and not waited:
                        waited = True
                        _src, _tag, record = inbox.get(timeout=remaining)
                    else:
                        _src, _tag, record = inbox.get_nowait()
                except _pyqueue.Empty:
                    break
                except Exception:
                    # A worker terminated mid-put can leave a truncated
                    # pickle in the pipe; shutdown runs inside the pool's
                    # close(), so nothing here may mask the real run
                    # error -- skip to the next inbox.
                    break
                try:
                    self.transport.dispose(record)
                except Exception:  # pragma: no cover - disposal is best effort
                    pass


class ProcessBackend(ExecutionBackend):
    """Run one OS process per rank and collect per-rank results or errors.

    Parameters
    ----------
    start_method:
        ``"fork"`` (default where available), ``"spawn"`` or
        ``"forkserver"``.  With ``spawn``/``forkserver`` the program and its
        arguments must be picklable.
    shutdown_grace:
        Seconds to wait for worker processes to exit after the run has
        finished (or failed) before terminating them.
    transport:
        A :class:`~repro.pro.backends.sharedmem.SharedMemoryTransport`
        (default: a fresh one), to choose its ``min_bytes``.
    persistent:
        Accepted for the frozen perfbench harness only, whose recovery
        phase calls ``get_backend("process", persistent=True)``; ``True``
        is ignored (every run uses a standing fleet) and ``False`` raises
        :class:`~repro.util.errors.ValidationError`.  The keyword goes
        with ROADMAP item 6's next benchmark change.
    pool_scope:
        Where the fleets live.  ``"backend"`` (default): private to this
        backend instance, released by :meth:`close` or once the backend
        is garbage-collected.  ``"process"``:
        the **process-wide default pool cache**
        (:func:`repro.pro.backends.pool.get_default_pool`) -- warm fleets
        keyed by ``(p, min_bytes, timeout, start method)`` are shared by
        every backend instance that asks, survive :meth:`close`, and are
        torn down by :func:`repro.pro.backends.pool.clear_default_pools`
        or at interpreter exit.  This is what makes repeated driver calls
        (``backend="process"``) warm by default.
    """

    name = "process"
    capabilities = BackendCapabilities(
        multirank=True,
        shared_address_space=False,
    )

    def __init__(self, *, start_method: str | None = None, shutdown_grace: float = 5.0,
                 transport: SharedMemoryTransport | None = None,
                 persistent: bool = True, pool_scope: str = "backend"):
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        if start_method not in methods:
            raise ValidationError(
                f"start method {start_method!r} is not available on this platform; "
                f"choose from {methods}"
            )
        if not persistent:
            raise ValidationError(
                "persistent=False is retired: the cold one-epoch path is "
                "gone and every process run uses a standing fleet"
            )
        if pool_scope not in ("backend", "process"):
            raise ValidationError(
                f"pool_scope must be 'backend' or 'process', got {pool_scope!r}"
            )
        self.start_method = start_method
        self.shutdown_grace = float(shutdown_grace)
        self.transport = transport_or_default(transport)
        self.pool_scope = pool_scope
        self._mp = multiprocessing.get_context(start_method)
        self._pools: dict = {}  # n_procs -> WorkerPool
        if pool_scope == "backend":
            # A dropped backend holds no processes: its private fleets close
            # once it is collected.  The finalizer holds the dict, never
            # ``self``, or the backend could not be collected at all.
            weakref.finalize(self, _close_pools, self._pools)

    def _pool(self, n_procs: int, *, timeout: float):
        """The standing pool for ``n_procs`` ranks, created on first use.

        With ``pool_scope="process"`` the pool comes from (and is owned
        by) the process-wide default cache, so several backend instances
        with an equivalent configuration share one warm fleet.
        """
        if self.pool_scope == "process":
            # Always resolved through the cache (no local fast path): the
            # lookup refreshes the fleet's LRU recency and applies the
            # cache's health checks (poison eviction, fork ownership).
            shared = _pool_module.get_default_pool(
                n_procs, timeout=timeout, mp_context=self._mp,
                transport=self.transport, shutdown_grace=self.shutdown_grace,
                start_method=self.start_method,
            )
            self._pools[n_procs] = shared
            return shared
        pool = self._pools.get(n_procs)
        if pool is None or pool.closed:
            pool = _pool_module.WorkerPool(
                n_procs, timeout=timeout, mp_context=self._mp,
                transport=self.transport, shutdown_grace=self.shutdown_grace,
            )
            self._pools[n_procs] = pool
        return pool

    def close(self) -> None:
        """Shut down every backend-private worker pool (idempotent).

        Pools borrowed from the process-wide default cache are left warm
        -- they are owned by :mod:`repro.pro.backends.pool` and released
        by ``clear_default_pools()`` or the interpreter-exit hook.
        """
        if self.pool_scope == "backend":
            _close_pools(self._pools)
        self._pools.clear()

    def heal(self) -> bool:
        """Recover poisoned standing pools in place (resilience hook).

        Called by :func:`~repro.pro.resilience.run_with_recovery` between
        attempts.  Backend-private pools are healed through
        :meth:`~repro.pro.backends.pool.WorkerPool.heal` -- every rank
        that reported keeps its process, and the whole fleet respawns
        only when a rank died, exited or went silent; a pool that cannot
        be healed is dropped so the next run builds a fresh one.  Pools
        borrowed from the process-wide cache are left to the cache, which
        heals or evicts them on the next lookup.
        """
        if self.pool_scope == "process":
            # The default cache owns them; drop our references so _pool()
            # re-resolves (and the cache heals/evicts) next run.
            self._pools.clear()
            return True
        healthy = True
        for n_procs, pool in list(self._pools.items()):
            if pool.closed or not pool.poisoned:
                continue
            if not pool.heal():
                pool.close()
                self._pools.pop(n_procs, None)
                healthy = False
        return healthy

    def empty(self, shape, dtype):
        """An array the ranks can fill in place, or ``None`` (see the registry).

        Delegates to the transport, which allocates it in a shared segment
        whose arrays cross by reference, or declines (object dtypes, no
        shared memory) and leaves the caller on the copying path.
        """
        return self.transport.empty(shape, dtype)

    def create_fabric(self, n_procs: int, *, timeout: float) -> ProcessFabric:
        """The fabric of the standing fleet for ``n_procs`` (spawned on first use)."""
        return self._pool(n_procs, timeout=timeout).fabric

    # -- running ------------------------------------------------------------
    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Execute ``program(ctx, *args, **kwargs)`` with one process per rank.

        The run is dispatched to the standing pool whose fabric the
        contexts were built around.
        """
        n = len(contexts)
        if n == 0:
            return []
        fabric = contexts[0].comm._fabric
        if not isinstance(fabric, ProcessFabric):
            raise BackendError(
                "the process backend needs contexts wired to its ProcessFabric; "
                "create the machine with backend='process' instead of passing "
                "contexts built for another backend"
            )
        pool = self._pools.get(n)
        if pool is None or pool.fabric is not fabric:
            raise BackendError(
                "process runs need contexts wired to the pool's standing "
                "fabric; build them through the machine (create_fabric) "
                "rather than reusing contexts from another run"
            )
        return pool.run(contexts, program, args, kwargs)


def _close_pools(pools: dict) -> None:
    """Close every fleet in ``pools`` (a backend's private fleets)."""
    for pool in list(pools.values()):
        pool.close()


# The worker pool imports this module's fabric, so it is bound as a module
# object (either module may be imported first).  Importing it here loads the
# whole process path at the first lookup of "process", before any rank forks.
_pool_module = importlib.import_module("repro.pro.backends.pool")
