"""Outside-in tracing of the program's layers for the traced run.

While installed, :class:`Tracer` replaces module attributes and class
methods of each layer (``repro.core.permutation.local_shuffle``,
``Communicator.barrier``, ``WorkerPool.heal``, ...) with timing wrappers and
restores the originals afterwards; no file of the program changes.  Spans
are kept in memory as ``(name, rank, start, end)``.  ``rank`` is ``None``
for the calling (parent) thread; rank threads are identified by the
``ctx`` the Algorithm 1 program receives.  Ranks that run in worker
processes are invisible from here: for them only parent-side spans and the
counts repatriated through ``CostReport``/``FleetReport`` are available.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _ctx_rank(args):
    return args[0].rank


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self.spans: list = []
        #: ``RunResult`` of every ``PROMachine.run`` since the last ``take``.
        self.runs: list = []

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name, fn, *, rank_of=None, binds_rank=False, keeps_result=False):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rank = rank_of(args) if rank_of else getattr(local, "rank", None)
            if binds_rank:
                previous, local.rank = getattr(local, "rank", None), rank
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if binds_rank:
                    local.rank = previous
                with self._lock:
                    self.spans.append((name, rank, start, end))
            if keeps_result:
                with self._lock:
                    self.runs.append(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Time every call of ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        raw = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        if isinstance(raw, staticmethod):
            # Re-wrap the descriptor: a plain function in its place would
            # turn a static method into an instance method.
            wrapped = staticmethod(self._wrap(name, raw.__func__, **options))
        else:
            wrapped = self._wrap(name, raw, **options)
        self._set(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    @staticmethod
    def _set(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every traced layer for the duration of the ``with`` block."""
        from repro.core import parallel_matrix, permutation
        from repro.core.blocks import BlockDistribution
        from repro.core.engine import SamplerEngine
        from repro.pro.backends.pool import WorkerPool
        from repro.pro.communicator import Communicator
        from repro.pro.machine import PROMachine
        from repro.rng.streams import StreamFactory

        try:
            # repro.core.permutation: the Algorithm 1 program and its shuffles
            # (looked up as module globals at call time).
            self.patch(permutation, "parallel_permutation_program",
                       "permutation.program", rank_of=_ctx_rank, binds_rank=True)
            self.patch(permutation, "local_shuffle", "permutation.shuffle")
            # repro.core.parallel_matrix: the superstep-2 matrix program.
            for algorithm in list(parallel_matrix.MATRIX_ALGORITHMS):
                self.patch(parallel_matrix.MATRIX_ALGORITHMS, algorithm,
                           "parallel_matrix", rank_of=_ctx_rank)
            # repro.pro.machine, repro.rng.streams, repro.core.blocks:
            # parent-side driver steps.
            self.patch(permutation, "resolve_machine", "machine.build")
            self.patch(PROMachine, "run", "machine.run", keeps_result=True)
            self.patch(StreamFactory, "spawn", "streams.spawn")
            self.patch(StreamFactory, "streams_from_children", "streams.rebuild")
            self.patch(BlockDistribution, "split", "blocks.split")
            self.patch(BlockDistribution, "concatenate", "blocks.concat")
            # repro.pro.communicator: fabric waits and the data exchange.
            self.patch(Communicator, "barrier", "communicator.barrier",
                       rank_of=_ctx_rank)
            self.patch(Communicator, "alltoallv", "communicator.alltoallv",
                       rank_of=_ctx_rank)
            # repro.pro.backends.pool: dispatch/collect of a standing fleet
            # and its supervision.
            self.patch(WorkerPool, "run", "pool.run")
            self.patch(WorkerPool, "_collect", "pool.collect")
            self.patch(WorkerPool, "heal", "pool.heal")
            # repro.core.engine: the batched sampling kernels.
            self.patch(SamplerEngine, "sample_matrix_batched", "engine.sample_matrix")
            self.patch(SamplerEngine, "multivariate_batch", "engine.multivariate_batch")
            self.patch(SamplerEngine, "draw_many", "engine.draw_many")
            yield self
        finally:
            while self._patches:
                owner, attr, raw = self._patches.pop()
                self._set(owner, attr, raw)

    def take(self) -> tuple[list, list]:
        """Spans and run results recorded since the last call, then forget them."""
        with self._lock:
            spans, runs = self.spans, self.runs
            self.spans, self.runs = [], []
        return spans, runs


def _union_seconds(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def call_layers(spans, call_seconds: float) -> dict:
    """Per-layer times (ms) of one call from its spans.

    Rank-side times are the slowest rank's total; parent-side times are
    sums.  ``driver.unattributed_ms`` is the part of the call that no
    parent-side span covers.
    """
    per_rank: dict = defaultdict(lambda: defaultdict(float))
    parent: dict = defaultdict(float)
    for name, rank, start, end in spans:
        (parent if rank is None else per_rank[rank])[name] += end - start

    def slowest(name):
        return max((r.get(name, 0.0) for r in per_rank.values()), default=0.0)

    programs = [r["permutation.program"] for r in per_rank.values()
                if "permutation.program" in r]
    pool_runs = [(s, e) for n, r, s, e in spans if n == "pool.run" and r is None]
    collects = sorted(s for n, r, s, _ in spans if n == "pool.collect" and r is None)
    dispatch = sum(next((c for c in collects if s <= c <= e), e) - s
                   for s, e in pool_runs)
    covered = _union_seconds((s, e) for _, r, s, e in spans if r is None)
    unattributed = max(call_seconds - covered, 0.0)
    ms = {
        "permutation.shuffle_ms": slowest("permutation.shuffle"),
        "permutation.program_ms": max(programs, default=0.0),
        "blocks.split_ms": parent["blocks.split"],
        "blocks.concat_ms": parent["blocks.concat"],
        "parallel_matrix.ms": slowest("parallel_matrix"),
        "communicator.barrier_wait_ms": slowest("communicator.barrier"),
        "communicator.alltoallv_ms": slowest("communicator.alltoallv"),
        "machine.build_ms": parent["machine.build"],
        "streams.spawn_ms": parent["streams.spawn"],
        "streams.rebuild_ms": parent["streams.rebuild"],
        "machine.run_ms": parent["machine.run"],
        "backend.overhead_ms": (parent["machine.run"] - max(programs)
                                if programs else 0.0),
        "driver.unattributed_ms": unattributed,
        "pool.dispatch_ms": dispatch,
        "pool.collect_ms": parent["pool.collect"],
        "pool.heal_ms": parent["pool.heal"],
        "engine.sample_matrix_ms": (parent["engine.sample_matrix"]
                                    + slowest("engine.sample_matrix")),
        "engine.multivariate_batch_ms": (parent["engine.multivariate_batch"]
                                         + slowest("engine.multivariate_batch")),
    }
    out = {name: seconds * 1e3 for name, seconds in ms.items()}
    out["permutation.rank_imbalance"] = (
        max(programs) / min(programs) if len(programs) > 1 and min(programs) > 0
        else 0.0)
    out["driver.unattributed_share"] = (unattributed / call_seconds
                                        if call_seconds > 0 else 0.0)
    out["engine.draw_many_calls"] = sum(1 for n, *_ in spans if n == "engine.draw_many")
    return out
