"""Thread-per-rank execution backend.

Each virtual processor runs in its own Python thread.  Although the CPython
interpreter serialises pure-Python byte code, the bulk work of the
permutation algorithms (local shuffles, array slicing, the all-to-all data
exchange) happens inside NumPy which releases the GIL, so thread ranks do
overlap on real hardware; more importantly the backend gives each rank an
independent control flow, which the head/worker protocols of Algorithms 5
and 6 require.

Error handling: when any rank raises, the fabric's barrier is aborted so
that the remaining ranks fail fast instead of waiting for a timeout, and the
first exception (by rank order) is re-raised in the caller's thread with the
rank recorded in the message.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.pro.backends.registry import BackendCapabilities, ExecutionBackend
from repro.util.errors import BackendError

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Run one thread per rank and collect per-rank results or errors."""

    name = "thread"
    capabilities = BackendCapabilities(
        multirank=True,
        blocking_p2p=True,
        true_parallelism=False,
        shared_address_space=True,
    )

    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Execute ``program(ctx, *args, **kwargs)`` for every context.

        Returns the list of per-rank return values, ordered by rank.
        Raises the first per-rank exception (wrapped only if it is not
        already a library error) after all threads have stopped.
        """
        n = len(contexts)
        results: list = [None] * n
        errors: list = [None] * n

        def worker(idx: int) -> None:
            ctx = contexts[idx]
            try:
                results[idx] = program(ctx, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - report any rank failure
                errors[idx] = exc
                # Break the barrier so sibling ranks blocked in barrier() fail fast.
                ctx.comm._fabric.abort()

        threads = [
            threading.Thread(target=worker, args=(idx,), name=f"pro-rank-{idx}", daemon=True)
            for idx in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        failed = [(rank, exc) for rank, exc in enumerate(errors) if exc is not None]
        if failed:
            # Prefer the root cause: a rank that died with a real error rather
            # than one that merely saw the barrier break afterwards.
            from repro.util.errors import CommunicationError

            primary = next(
                ((rank, exc) for rank, exc in failed if not isinstance(exc, CommunicationError)),
                failed[0],
            )
            rank, exc = primary
            if isinstance(exc, Exception):
                from repro.util.errors import wrap_rank_failure

                raise wrap_rank_failure(rank, exc) from exc
            raise exc  # KeyboardInterrupt and friends propagate unchanged
        return results
