"""Message passing between virtual processors.

The communicator offers an MPI-like interface (``send``/``recv`` plus the
usual collectives) but runs entirely in-process: messages travel through
per-destination mailboxes owned by a :class:`MessageFabric` that the backend
shares among all ranks of one machine run.

Two design points matter for faithfulness to the paper:

* **Cost accounting.**  Every payload word that crosses the communicator is
  recorded in the sending and receiving processor's
  :class:`~repro.pro.cost.CostRecorder`, so the bandwidth term of Theorem 1
  can be checked experimentally, including for the collectives (which are
  built from point-to-point messages, e.g. binomial trees for broadcast and
  reduce -- the extra words of the tree construction are charged to whoever
  sends them).  A one-sided ``alltoallv`` into shared memory is charged
  like the messages it replaces.

* **Non-blocking sends.**  Sends never block (mailboxes are unbounded), so
  the irregular all-to-all exchange of Algorithm 1 and the head-to-head
  messages of Algorithms 5/6 can be written in the natural order without
  deadlock, exactly as Proposition 1 assumes ("if the send and receive
  operations are done without blocking, the communication phase stays
  balanced").
"""

from __future__ import annotations

import queue
import threading
from operator import add
from typing import Any, Callable, Sequence

import numpy as np

from repro.pro.cost import CostRecorder
from repro.util.errors import CommunicationError, ValidationError, attach_wait_context

__all__ = ["MessageFabric", "Communicator", "payload_words"]


def payload_words(obj: Any) -> int:
    """Estimate the payload size of ``obj`` in machine words.

    NumPy arrays count one word per element, scalars one word, strings and
    byte strings one word per 8 characters, containers the sum of their
    elements.  The estimate is used purely for cost accounting; it does not
    affect message delivery.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 1
    if isinstance(obj, (bytes, bytearray, str)):
        return max(1, (len(obj) + 7) // 8)
    if isinstance(obj, dict):
        return sum(payload_words(v) for v in obj.values()) + len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(payload_words(v) for v in obj)
    return 1


#: Sentinel tag deposited in every mailbox by :meth:`MessageFabric.abort` so
#: ranks blocked in a receive fail fast instead of waiting out the timeout.
#: An ``object()`` cannot collide with user tags, and the fabric is rebuilt
#: per attempt, so a pill never leaks into a later run.
_ABORT = object()


class MessageFabric:
    """Shared mailboxes and barrier for the ranks of one machine run."""

    def __init__(self, n_procs: int, *, timeout: float = 60.0):
        if n_procs < 1:
            raise ValidationError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs
        self.timeout = timeout
        # _queues[dst][src] holds (tag, payload) tuples in sending order.
        self._queues = [
            [queue.SimpleQueue() for _ in range(n_procs)] for _ in range(n_procs)
        ]
        self._barrier = threading.Barrier(n_procs)

    def put(self, src: int, dst: int, tag, payload) -> None:
        """Deposit a message; never blocks."""
        self._queues[dst][src].put((tag, payload))

    def get(self, src: int, dst: int, tag, pending: list) -> Any:
        """Fetch the next message from ``src`` to ``dst`` carrying ``tag``.

        Messages with other tags that arrive first are parked in ``pending``
        (owned by the receiving communicator) and served to later receives.
        """
        for idx, (msg_tag, payload) in enumerate(pending):
            if msg_tag == tag:
                pending.pop(idx)
                return payload
        q = self._queues[dst][src]
        deadline = self.timeout
        while True:
            try:
                msg_tag, payload = q.get(timeout=deadline)
            except queue.Empty:
                raise attach_wait_context(
                    CommunicationError(
                        f"rank {dst} timed out after {self.timeout}s waiting for a message "
                        f"from rank {src} with tag {tag!r}"
                    ),
                    rank=dst, op="recv", src=src,
                ) from None
            if msg_tag is _ABORT:
                raise attach_wait_context(
                    CommunicationError(
                        f"rank {dst} abandoned a receive from rank {src}: "
                        "the run was aborted after a rank failure"
                    ),
                    rank=dst, op="recv", src=src,
                ) from None
            if msg_tag == tag:
                return payload
            pending.append((msg_tag, payload))

    def barrier_wait(self) -> None:
        """Block until all ranks reach the barrier."""
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            # The fabric does not know which rank is waiting; the
            # communicator's barrier() attaches the rank on the way out.
            raise attach_wait_context(
                CommunicationError(
                    f"barrier broken or timed out after {self.timeout}s "
                    "(a rank likely crashed or deadlocked)"
                ),
                op="barrier",
            ) from None

    def abort(self) -> None:
        """Make surviving ranks fail fast after a crash.

        Breaks the barrier and poisons every mailbox so ranks blocked in a
        receive abandon the wait immediately instead of burning the fabric
        timeout (the parent cannot join the run -- or start a recovery
        attempt -- until every rank thread has returned).
        """
        self._barrier.abort()
        for dst in range(self.n_procs):
            for src in range(self.n_procs):
                self._queues[dst][src].put((_ABORT, None))

    def is_shared(self, array) -> bool:
        """True: every rank of an in-process run writes the caller's memory."""
        return True


class Communicator:
    """Point-to-point and collective communication for one rank.

    Parameters
    ----------
    fabric:
        The shared :class:`MessageFabric` of the run.
    rank:
        This processor's id in ``[0, size)``.
    cost:
        Optional :class:`CostRecorder`; when given, every word sent and
        received is recorded there.
    """

    def __init__(self, fabric: MessageFabric, rank: int, cost: CostRecorder | None = None):
        self._fabric = fabric
        self._rank = int(rank)
        self._cost = cost
        self._pending: list[list] = [[] for _ in range(fabric.n_procs)]
        self._collective_seq = 0

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        """This processor's id."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processors in the communicator."""
        return self._fabric.n_procs

    # -- internal helpers -----------------------------------------------------
    def _check_rank(self, other: int, name: str) -> int:
        other = int(other)
        if not (0 <= other < self.size):
            raise ValidationError(f"{name} must be in [0, {self.size}), got {other}")
        return other

    def _record_send(self, obj) -> None:
        if self._cost is not None:
            self._cost.record_send(payload_words(obj))

    def _record_receive(self, obj) -> None:
        if self._cost is not None:
            self._cost.record_receive(payload_words(obj))

    def _send_raw(self, obj, dest: int, tag) -> None:
        if dest == self._rank:
            # self-message still goes through the mailbox so recv() finds it,
            # but it is not charged as communication.
            self._fabric.put(self._rank, dest, tag, obj)
            return
        self._record_send(obj)
        self._fabric.put(self._rank, dest, tag, obj)

    def _recv_raw(self, source: int, tag):
        obj = self._fabric.get(source, self._rank, tag, self._pending[source])
        if source != self._rank:
            self._record_receive(obj)
        return obj

    def _collective_tag(self, opname: str):
        # All ranks execute the same sequence of collectives, so a shared
        # counter keeps concurrent collectives from mixing their messages.
        tag = ("__collective__", opname, self._collective_seq)
        self._collective_seq += 1
        return tag

    # -- point-to-point --------------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to ``dest``; returns immediately (buffered)."""
        dest = self._check_rank(dest, "dest")
        self._send_raw(obj, dest, ("__p2p__", tag))

    def recv(self, source: int, tag: int = 0):
        """Receive the next message from ``source`` with matching ``tag``."""
        source = self._check_rank(source, "source")
        return self._recv_raw(source, ("__p2p__", tag))

    def sendrecv(self, obj, dest: int, source: int, send_tag: int = 0, recv_tag: int = 0):
        """Send to ``dest`` and receive from ``source`` (deadlock free)."""
        self.send(obj, dest, send_tag)
        return self.recv(source, recv_tag)

    # -- synchronisation --------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank has called :meth:`barrier`.

        Also closes the current superstep in the cost recorder so that
        BSP-style per-superstep analyses line up across ranks.
        """
        try:
            self._fabric.barrier_wait()
        except CommunicationError as exc:
            # Fabrics are rank-agnostic; stamp who was waiting (and make it
            # visible in the message) before the error leaves the rank.
            if getattr(exc, "rank", None) is None and exc.args:
                exc.args = (f"{exc.args[0]} [rank {self._rank} was waiting]",)
            raise attach_wait_context(exc, rank=self._rank, op="barrier") from None
        if self._cost is not None:
            self._cost.next_superstep()

    # -- collectives -------------------------------------------------------------
    def bcast(self, obj=None, root: int = 0):
        """Broadcast ``obj`` from ``root`` to every rank (binomial tree)."""
        root = self._check_rank(root, "root")
        p = self.size
        tag = self._collective_tag("bcast")
        if p == 1:
            return obj
        vrank = (self._rank - root) % p
        if vrank != 0:
            lowest = vrank & -vrank
            src = ((vrank ^ lowest) + root) % p
            obj = self._recv_raw(src, tag)
            child_mask = lowest >> 1
        else:
            mask = 1
            while mask < p:
                mask <<= 1
            child_mask = mask >> 1
        while child_mask >= 1:
            child = vrank | child_mask
            if child < p and child != vrank:
                self._send_raw(obj, (child + root) % p, tag)
            child_mask >>= 1
        return obj

    def reduce(self, value, op: Callable = add, root: int = 0):
        """Reduce ``value`` across ranks with ``op``; result only on ``root``."""
        root = self._check_rank(root, "root")
        p = self.size
        tag = self._collective_tag("reduce")
        if p == 1:
            return value
        vrank = (self._rank - root) % p
        acc = value
        mask = 1
        while mask < p:
            if (vrank & (mask - 1)) == 0:
                if vrank & mask:
                    parent = ((vrank ^ mask) + root) % p
                    self._send_raw(acc, parent, tag)
                    break
                child = vrank | mask
                if child < p:
                    acc = op(acc, self._recv_raw((child + root) % p, tag))
            mask <<= 1
        return acc if self._rank == root else None

    def allreduce(self, value, op: Callable = add):
        """Reduce across all ranks and broadcast the result to everyone."""
        reduced = self.reduce(value, op=op, root=0)
        return self.bcast(reduced, root=0)

    def gather(self, obj, root: int = 0):
        """Gather one object per rank into a list at ``root`` (None elsewhere)."""
        root = self._check_rank(root, "root")
        tag = self._collective_tag("gather")
        if self._rank != root:
            self._send_raw(obj, root, tag)
            return None
        out = [None] * self.size
        out[root] = obj
        for src in range(self.size):
            if src != root:
                out[src] = self._recv_raw(src, tag)
        return out

    def allgather(self, obj) -> list:
        """Gather one object per rank and deliver the full list to every rank."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, objs: Sequence | None, root: int = 0):
        """Scatter ``objs[i]`` from ``root`` to rank ``i``; returns the local item."""
        root = self._check_rank(root, "root")
        tag = self._collective_tag("scatter")
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise ValidationError(
                    f"scatter at root needs a sequence of length {self.size}, got "
                    f"{None if objs is None else len(objs)}"
                )
            local = objs[root]
            for dst in range(self.size):
                if dst != root:
                    self._send_raw(objs[dst], dst, tag)
            return local
        return self._recv_raw(root, tag)

    def alltoall(self, objs: Sequence) -> list:
        """Exchange ``objs[j]`` with every rank ``j``; return one object per source."""
        if len(objs) != self.size:
            raise ValidationError(
                f"alltoall needs exactly {self.size} payloads, got {len(objs)}"
            )
        tag = self._collective_tag("alltoall")
        out = [None] * self.size
        for dst in range(self.size):
            if dst == self._rank:
                out[dst] = objs[dst]
            else:
                self._send_raw(objs[dst], dst, tag)
        for src in range(self.size):
            if src != self._rank:
                out[src] = self._recv_raw(src, tag)
        return out

    def is_shared(self, array: np.ndarray) -> bool:
        """True when every rank of the run sees this rank's writes to ``array``.

        Asks the fabric (see the backend contract in
        :mod:`repro.pro.backends.registry`): in-process fabrics answer yes,
        the process fabric only for memory its ranks all map.  An empty
        array is trivially shared.
        """
        return np.asarray(array).size == 0 or self._fabric.is_shared(array)

    def alltoallv(self, arrays: Sequence[np.ndarray], *, out=None, offsets=None):
        """All-to-all exchange of NumPy arrays of varying lengths.

        ``arrays[j]`` is sent to rank ``j``; the return value is a list whose
        ``i``-th entry is the array received from rank ``i``.  This is the
        primitive behind the data-exchange superstep of Algorithm 1.

        With ``out`` -- one writable array per rank, each shared by every
        rank (:meth:`is_shared`) -- and ``offsets``, the exchange is
        one-sided: ``arrays[j]`` is written straight into
        ``out[j][offsets[j]:offsets[j] + len(arrays[j])]``, nothing crosses
        the fabric, and ``None`` is returned.  Rank ``j`` may read
        ``out[j]`` after the next barrier.  The pieces all ranks write into
        ``out[j]`` must tile it exactly, which is what lets the receiving
        side be charged like the two-sided exchange: one message per
        remote rank, and the words of ``out[j]`` that other ranks filled.
        """
        if len(arrays) != self.size:
            raise ValidationError(
                f"alltoallv needs exactly {self.size} arrays, got {len(arrays)}"
            )
        converted = [np.asarray(a) for a in arrays]
        if out is None:
            return self.alltoall(converted)
        if len(out) != self.size or offsets is None or len(offsets) != self.size:
            raise ValidationError(
                f"a one-sided alltoallv needs {self.size} output arrays and offsets"
            )
        for dst, piece in enumerate(converted):
            start = int(offsets[dst])
            out[dst][start:start + len(piece)] = piece
            if dst != self._rank:
                self._record_send(piece)
        if self._cost is not None and self.size > 1:
            incoming = payload_words(np.asarray(out[self._rank]))
            self._cost.record_receive(incoming - payload_words(converted[self._rank]),
                                      n_messages=self.size - 1)
        return None

    def scan(self, value, op: Callable = add, *, inclusive: bool = True):
        """Prefix reduction across ranks ordered by rank id.

        With ``inclusive=True`` rank ``i`` receives ``op(value_0, ..., value_i)``;
        with ``inclusive=False`` rank 0 receives ``None`` and rank ``i > 0``
        receives the reduction of ranks ``0..i-1``.
        """
        gathered = self.allgather(value)
        if inclusive:
            acc = gathered[0]
            for i in range(1, self._rank + 1):
                acc = op(acc, gathered[i])
            return acc
        if self._rank == 0:
            return None
        acc = gathered[0]
        for i in range(1, self._rank):
            acc = op(acc, gathered[i])
        return acc
