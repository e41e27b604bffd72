"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so that callers can catch library errors with a single
``except`` clause while still letting programming errors (``TypeError`` from
misuse of NumPy, ``KeyError`` from internal bugs, ...) propagate unchanged.

The backend layer additionally splits failures along the *transient vs
fatal* axis that drives the resilience layer
(:mod:`repro.pro.resilience`): a :class:`TransientBackendError` (or any
error for which :func:`is_transient_failure` is true) marks a failure of
the execution substrate -- a crashed rank, a broken barrier, a timed-out
wait -- that a deterministic replay of the epoch can reasonably survive,
while plain :class:`BackendError`\\ s and program exceptions are fatal: the
per-rank streams are rebuilt identically on retry, so a deterministic
program bug would simply fail again.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong sign, wrong shape, wrong total).

    Derives from :class:`ValueError` so that code written against the
    standard library conventions (``except ValueError``) keeps working.
    """


class DistributionError(ReproError):
    """A probability-distribution computation is impossible or inconsistent.

    Examples: asking for the hypergeometric pmf outside of its support in a
    context where that is a logic error, or requesting a communication matrix
    whose row and column marginals do not sum to the same total.
    """


class CommunicationError(ReproError):
    """A message-passing operation on the PRO machine failed.

    Raised for mismatched collective participation, messages that were never
    sent, deadlocks detected through timeouts, or payload size mismatches.

    Fabric waits attach context as plain attributes where they know it:
    ``rank`` (the rank that was waiting), ``op`` (``"recv"`` / ``"barrier"``)
    and ``src`` (the awaited sender, for receives).  Attributes rather than
    constructor arguments so the exception stays trivially picklable across
    the pipe each process-backend rank reports its result on.
    """

    #: Substrate failures are retry-safe: replaying the epoch with the same
    #: per-rank streams cannot re-trigger a lost message or broken barrier.
    transient = True


class BackendError(ReproError):
    """The selected execution backend cannot run the requested program."""


class TransientBackendError(BackendError):
    """A backend failure that a deterministic epoch replay may survive.

    Raised (instead of the plain, fatal :class:`BackendError`) when the
    root cause of a failed run is itself transient -- a rank that died, a
    communication timeout, an injected fault -- so that
    :class:`~repro.pro.resilience.RetryPolicy` knows the attempt is worth
    repeating.  Subclasses :class:`BackendError`, so existing ``except
    BackendError`` call sites are unaffected.
    """

    transient = True


class DeadlineError(BackendError):
    """A run (or retry sequence) exceeded its wall-clock deadline.

    Deliberately *not* transient: the budget is spent, so neither a retry
    nor a fallback backend is attempted once this is raised.
    """

    transient = False


class RemoteTraceback(ReproError):
    """Carrier for a worker-side traceback that crossed a process boundary.

    The frames themselves are not picklable, so the worker sends a
    :class:`traceback.TracebackException` captured without source lines
    (or, rarely, text it already formatted).  The parent chains this as
    the ``__cause__`` of the remote exception so a normal
    ``traceback.print_exception`` of the caller-side
    :class:`BackendError` shows the full remote stack -- the same idiom
    :mod:`concurrent.futures.process` uses.  The text is rendered on first
    use, reading the source lines from the same files the worker ran.
    """

    def __init__(self, tb):
        super().__init__(tb)
        self._tb = tb

    @property
    def tb(self) -> str:
        """The remote traceback as ``traceback.format_exc()`` text."""
        if not isinstance(self._tb, str):
            self._tb = "".join(self._tb.format())
        return self._tb

    def __str__(self) -> str:
        return f"\n{self.tb}"


def attach_wait_context(exc: BaseException, *, rank=None, op=None, src=None) -> BaseException:
    """Attach rank/op context to a fabric-wait error, without clobbering.

    Fabric ``get``/``barrier_wait`` implementations and the communicator
    call this on the :class:`CommunicationError` they raise so the failed
    wait is attributable (``exc.rank``: who was waiting, ``exc.op``:
    ``"recv"``/``"barrier"``, ``exc.src``: awaited sender).  First writer
    wins -- proxies re-raising an already-annotated error keep its context.
    """
    if rank is not None and getattr(exc, "rank", None) is None:
        exc.rank = rank
    if op is not None and getattr(exc, "op", None) is None:
        exc.op = op
    if src is not None and getattr(exc, "src", None) is None:
        exc.src = src
    return exc


def is_transient_failure(exc: BaseException) -> bool:
    """Whether ``exc`` marks a retry-safe substrate failure.

    True for :class:`CommunicationError` / :class:`TransientBackendError`
    and for any exception carrying a truthy ``transient`` attribute (the
    fault injector's ``InjectedFault`` opts in this way); false for
    everything else, in particular ordinary program exceptions, which a
    deterministic replay would simply reproduce.
    """
    return bool(getattr(exc, "transient", False))


def wrap_rank_failure(rank: int, exc: BaseException) -> BackendError:
    """Build the caller-side error for a rank that failed with ``exc``.

    Shared by every backend's raise site so the error-propagation contract
    (:mod:`repro.pro.backends.registry`) stays uniform: the message keeps
    the historic ``rank N failed: {exc!r}`` shape, the class is
    :class:`TransientBackendError` when the root cause is transient (so
    retry policies can tell substrate failures from program bugs), and a
    worker-side traceback recorded by the process backend's
    ``_portable_exception`` (a ``TracebackException`` or its text) is
    chained through as a :class:`RemoteTraceback`
    cause of ``exc``.  Callers ``raise wrap_rank_failure(rank, exc) from
    exc`` for plain exceptions and re-raise ``KeyboardInterrupt`` and
    friends unchanged.
    """
    remote = getattr(exc, "remote_traceback", None)
    if remote and exc.__cause__ is None and not exc.__suppress_context__:
        exc.__cause__ = RemoteTraceback(remote)
    cls = TransientBackendError if is_transient_failure(exc) else BackendError
    return cls(f"rank {rank} failed: {exc!r}")
