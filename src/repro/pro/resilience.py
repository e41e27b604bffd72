"""Self-healing runs: retry policies, deadlines and graceful degradation.

The PRO algorithms assume every rank survives the run; real substrates do
not always cooperate.  This module is the recovery layer between the
machine and its backends:

* :class:`RetryPolicy` -- how many attempts a run gets
  (``max_attempts``), how long to pause between them (``backoff``), the
  wall-clock budget for the whole sequence (``deadline``) and which
  backends to degrade to when the budget for the configured backend is
  exhausted (``fallback``).  Threaded through
  :func:`~repro.pro.machine.resolve_machine`, every driver, the
  :func:`~repro.pro.backends.pool.pool` helper and the CLI
  (``--retries`` / ``--deadline``).
* :func:`run_with_recovery` -- the attempt loop
  :meth:`~repro.pro.machine.PROMachine.run` delegates to when a policy is
  set.  Only *transient* failures
  (:func:`~repro.util.errors.is_transient_failure`: crashed ranks, broken
  barriers, communication timeouts, injected faults) are retried; program
  exceptions are fatal because the replay is deterministic and would
  simply fail again.  Between attempts the backend's ``heal()``
  hook runs, which is how a poisoned standing
  :class:`~repro.pro.backends.pool.WorkerPool` respawns its dead ranks in
  place instead of being thrown away.
* :class:`Deadline` and the :func:`current_deadline` thread-local --
  deadline propagation *into* fabric waits.  Each attempt clamps the
  fabric timeout to the remaining budget and publishes the deadline for
  the process backend's parent-side collection loop, so a stuck barrier
  surfaces as a typed :class:`~repro.util.errors.DeadlineError` within
  bound instead of burning the full communication timeout.

Determinism of retry
--------------------
Per-rank streams are derived in the parent from ``SeedSequence`` children
spawned **once per run() call**; every attempt (and every fallback
backend) rebuilds fresh generators from those same immutable children
(:meth:`~repro.rng.streams.StreamFactory.streams_from_children`).  A
retried or degraded run therefore returns a result bit-identical to the
fault-free run -- recovery is exact, not best-effort.  The committed
chaos plans (:func:`committed_chaos_plans`) pin exactly this property in
the test matrix and the CI chaos job.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.pro.telemetry import record_event
from repro.util.errors import DeadlineError, ValidationError, is_transient_failure
from repro.util.timeouts import scale_timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pro.machine import PROMachine, RunResult

__all__ = [
    "RetryPolicy",
    "Deadline",
    "current_deadline",
    "active_deadline",
    "run_with_recovery",
    "committed_chaos_plans",
]

#: Fabric waits are never clamped below this (seconds): a deadline that is
#: effectively spent still gives the attempt a sliver to fail *through the
#: fabric* rather than with a zero timeout that would mask the real error.
_MIN_WAIT = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How a run may recover from transient backend failures.

    Parameters
    ----------
    max_attempts:
        Total attempts on the configured backend (1 = today's fail-fast
        behaviour; the default 2 gives one retry).
    backoff:
        Seconds to pause between attempts (scaled by
        ``REPRO_TEST_TIMEOUT_FACTOR`` like every other wait).  Mostly
        useful against substrate-level flakiness outside the library's
        control; the standing-pool heal path needs no pause.
    deadline:
        Wall-clock budget in seconds for the *whole* recovery sequence
        (all attempts plus fallbacks).  Propagated into fabric waits; when
        it expires the run raises :class:`~repro.util.errors.DeadlineError`
        and no further attempt or fallback is made.  ``None`` = no budget.
    fallback:
        Backend names to degrade to, in order, once ``max_attempts`` on
        the configured backend are exhausted (e.g. ``("thread",
        "inline")``).  Results stay bit-identical across backends, so
        degradation trades parallelism for survival, never correctness.
        Entries naming the already-failing backend are skipped, as is
        ``"inline"`` when the machine has more than one rank.
    """

    max_attempts: int = 2
    backoff: float = 0.0
    deadline: float | None = None
    fallback: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.max_attempts, int) or isinstance(self.max_attempts, bool) \
                or self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )
        if not (float(self.backoff) >= 0.0):
            raise ValidationError(f"backoff must be >= 0, got {self.backoff!r}")
        if self.deadline is not None and not (float(self.deadline) > 0.0):
            raise ValidationError(
                f"deadline must be positive (or None), got {self.deadline!r}"
            )
        object.__setattr__(self, "fallback", tuple(self.fallback))
        for name in self.fallback:
            if not isinstance(name, str) or not name:
                raise ValidationError(
                    f"fallback entries must be backend names, got {name!r}"
                )

    @classmethod
    def resolve(cls, retry) -> "RetryPolicy | None":
        """Normalise the ``retry=`` argument of machines and drivers.

        ``None`` -> ``None`` (no recovery, today's behaviour), an ``int``
        -> ``RetryPolicy(max_attempts=retry)``, a policy -> itself.
        """
        if retry is None or isinstance(retry, cls):
            return retry
        if isinstance(retry, int) and not isinstance(retry, bool):
            return cls(max_attempts=retry)
        raise ValidationError(
            f"retry must be None, an int (max attempts) or a RetryPolicy, got {retry!r}"
        )


class Deadline:
    """A monotonic wall-clock budget shared by one recovery sequence."""

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self._expires_at = time.monotonic() + self.seconds

    def remaining(self) -> float:
        """Seconds left (may be negative once expired)."""
        return self._expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def clamp(self, timeout: float) -> float:
        """Bound a fabric wait by the remaining budget (floor ``_MIN_WAIT``)."""
        clamped = max(min(float(timeout), self.remaining()), _MIN_WAIT)
        if clamped < float(timeout):
            record_event("deadline-clamp", requested=float(timeout),
                         clamped=round(clamped, 3))
        return clamped


# ----------------------------------------------------------------------------
# Deadline propagation: attempts publish their deadline thread-locally so
# layers with fixed signatures (the pool's dispatch/collect loop) can bound
# their waits without threading a parameter through the backend contract.
# ----------------------------------------------------------------------------
_ACTIVE = threading.local()


def current_deadline() -> Deadline | None:
    """The deadline of the attempt running on this thread, if any."""
    return getattr(_ACTIVE, "deadline", None)


@contextlib.contextmanager
def active_deadline(deadline: Deadline | None):
    """Publish ``deadline`` for the duration of one attempt."""
    previous = getattr(_ACTIVE, "deadline", None)
    _ACTIVE.deadline = deadline
    try:
        yield deadline
    finally:
        _ACTIVE.deadline = previous


# ----------------------------------------------------------------------------
# The recovery loop
# ----------------------------------------------------------------------------
def _skip_fallback(name: str, machine: "PROMachine") -> bool:
    from repro.pro.backends.faults import FaultInjectingBackend  # lazy: see committed_chaos_plans

    current = machine.backend
    while isinstance(current, FaultInjectingBackend):
        current = current.backend
    if name == current.name:
        return True  # the substrate that just failed (possibly fault-wrapped)
    return name == "inline" and machine.n_procs > 1


def _heal_backend(machine: "PROMachine") -> bool:
    """Run the backend's ``heal()`` hook between attempts."""
    try:
        return bool(machine.backend.heal())
    except Exception:
        return False


def run_with_recovery(machine: "PROMachine", program, args, kwargs, children) -> "RunResult":
    """Execute one run under ``machine.retry_policy``.

    ``children`` are the per-rank ``SeedSequence`` children spawned by this
    ``run()`` call; every attempt and fallback rebuilds its generators from
    them, which is what makes recovery bit-exact.  Raises the last failure
    when every attempt and fallback is exhausted, or
    :class:`~repro.util.errors.DeadlineError` the moment the budget is.
    """
    policy = machine.retry_policy
    deadline = Deadline(scale_timeout(policy.deadline)) if policy.deadline else None
    last_exc: Exception | None = None
    recovery_seconds = 0.0
    failed_attempts = 0

    def _finish(result: "RunResult", *, degraded_to: str | None = None) -> "RunResult":
        if failed_attempts:
            result.cost_report.note_retry(
                failed_attempts, recovery_seconds, degraded_to=degraded_to
            )
        return result

    for attempt in range(policy.max_attempts):
        if deadline is not None and deadline.expired:
            raise DeadlineError(
                f"deadline of {policy.deadline}s exhausted after "
                f"{failed_attempts} failed attempt(s)"
            ) from last_exc
        started = time.perf_counter()
        try:
            return _finish(machine._attempt(program, args, kwargs, children,
                                            deadline=deadline))
        except DeadlineError:
            raise
        except Exception as exc:
            recovery_seconds += time.perf_counter() - started
            failed_attempts += 1
            last_exc = exc
            if deadline is not None and deadline.expired:
                raise DeadlineError(
                    f"deadline of {policy.deadline}s exhausted during "
                    f"attempt {attempt + 1}: {exc!r}"
                ) from exc
            if not is_transient_failure(exc):
                raise  # deterministic replay would fail identically
            record_event("retry", attempt=attempt + 1,
                         error=type(exc).__name__)
            if attempt + 1 >= policy.max_attempts:
                break  # respawn budget spent; degrade if configured
        # Heal outside the handler: a rank forked inside it would inherit
        # the failure as the exception being handled, and chain it as the
        # context of every error that rank raises.
        if not _heal_backend(machine):
            break  # the substrate cannot be restored; degrade
        if policy.backoff:
            time.sleep(scale_timeout(policy.backoff))

    for name in policy.fallback:
        if _skip_fallback(name, machine):
            continue
        if deadline is not None and deadline.expired:
            raise DeadlineError(
                f"deadline of {policy.deadline}s exhausted before degrading "
                f"to the {name!r} backend"
            ) from last_exc
        started = time.perf_counter()
        try:
            result = _run_on_fallback(machine, name, program, args, kwargs,
                                      children, deadline)
        except DeadlineError:
            raise
        except Exception as exc:
            recovery_seconds += time.perf_counter() - started
            failed_attempts += 1
            last_exc = exc
            continue
        record_event("degraded", backend=name)
        return _finish(result, degraded_to=name)

    assert last_exc is not None
    raise last_exc


def _run_on_fallback(machine: "PROMachine", name: str, program, args, kwargs,
                     children, deadline: Deadline | None) -> "RunResult":
    """One attempt on a degraded backend, same streams, then tear it down."""
    from repro.pro.machine import PROMachine  # lazy: machine imports us

    fallback = PROMachine(
        machine.n_procs,
        backend=name,
        topology=machine.topology,
        count_random_variates=machine.count_random_variates,
        timeout=machine.timeout,
    )
    try:
        return fallback._attempt(program, args, kwargs, children, deadline=deadline)
    finally:
        fallback.close()


# ----------------------------------------------------------------------------
# Committed chaos plans: the recovery scenarios CI sweeps on every push
# ----------------------------------------------------------------------------
def committed_chaos_plans() -> dict:
    """The named fault plans the chaos suites run under a retry policy.

    Shared by ``tests/integration/test_retry_fault_matrix.py`` and the CI
    chaos gate (``benchmarks/check_chaos_recovery.py``) so the committed
    recovery guarantees are one list, not two.  Every fault is pinned to
    ``at_run=0``: the first attempt fails, the replay runs fault-free, and
    the caller must receive a result bit-identical to a never-faulted run.
    The rank indices assume the chaos suites' canonical ``p = 4``.

    (A function rather than a module constant so this module keeps
    leaf-level imports; the fault records live in
    :mod:`repro.pro.backends.faults`.)
    """
    from repro.pro.backends.faults import BarrierTimeout, CrashRank, DropMessage

    return {
        "crash-root-early": (CrashRank(rank=0, at_op=0, at_run=0),),
        "crash-rank1-mid": (CrashRank(rank=1, at_op=2, at_run=0),),
        "drop-first-0-to-1": (DropMessage(src=0, dst=1, nth=0, at_run=0),),
        "barrier-timeout-last-rank": (BarrierTimeout(rank=3, at_run=0),),
    }
