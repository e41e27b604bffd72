"""Inline (single-rank) execution backend.

Used when the machine is configured with ``n_procs == 1``: the single rank is
executed directly in the calling thread, which keeps sequential reference
runs free of thread start-up noise and makes debugging with ``pdb`` trivial.
The backend refuses multi-rank programs because a single thread cannot serve
blocking receives between ranks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.pro.backends.registry import BackendCapabilities, ExecutionBackend
from repro.util.errors import BackendError

__all__ = ["InlineBackend"]


class InlineBackend(ExecutionBackend):
    """Run a one-processor program in the calling thread."""

    name = "inline"
    capabilities = BackendCapabilities(
        multirank=False,
        shared_address_space=True,
    )

    def run(self, contexts: Sequence, program: Callable, args: tuple, kwargs: dict) -> list:
        """Execute the single-rank program and return ``[result]``."""
        if len(contexts) != 1:
            raise BackendError(
                f"the inline backend only supports n_procs == 1, got {len(contexts)} ranks; "
                "use the thread backend for multi-processor runs"
            )
        return [program(contexts[0], *args, **kwargs)]
