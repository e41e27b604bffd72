"""Resource accounting and the analytic time model.

Theorem 1 of the paper bounds four resources per processor -- memory,
computation time, random numbers and bandwidth -- and the experimental
section reports wall-clock times on machines (48-processor SGI Origin) that
this reproduction does not have.  The cost layer therefore plays two roles:

1. **Measurement.**  Every virtual processor carries a
   :class:`CostRecorder`; the communicator records every word sent and
   received, the samplers record every random variate and every basic
   operation, and user code can add its own compute counts.  The recorder is
   organised by *superstep* so that BSP-style analyses (max over processors
   per superstep, summed over supersteps) are possible.

2. **Prediction.**  :class:`MachineParameters` holds per-operation costs
   (seconds per compute op, per word, per message, per variate).  Combining a
   :class:`CostReport` with machine parameters yields a predicted running
   time; with parameters calibrated from the constants the paper itself
   quotes (60-100 cycles per item sequentially, communication bound by
   memory bandwidth) this is how the scaling table T1 is regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.util.errors import ValidationError
from repro.util.tables import format_table

__all__ = [
    "SuperstepCost",
    "CostRecorder",
    "CostReport",
    "MachineParameters",
    "ORIGIN_2000_PARAMETERS",
    "LAPTOP_PYTHON_PARAMETERS",
]


@dataclass
class SuperstepCost:
    """Resources one processor consumed during one superstep."""

    compute_ops: int = 0
    words_sent: int = 0
    words_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    random_variates: int = 0

    def merge(self, other: "SuperstepCost") -> "SuperstepCost":
        """Return the elementwise sum of two superstep records."""
        return SuperstepCost(
            compute_ops=self.compute_ops + other.compute_ops,
            words_sent=self.words_sent + other.words_sent,
            words_received=self.words_received + other.words_received,
            messages_sent=self.messages_sent + other.messages_sent,
            messages_received=self.messages_received + other.messages_received,
            random_variates=self.random_variates + other.random_variates,
        )

    @property
    def h_relation(self) -> int:
        """The h of the BSP h-relation this processor realised: max(sent, received)."""
        return max(self.words_sent, self.words_received)


class CostRecorder:
    """Per-processor resource recorder, organised by superstep.

    The recorder is deliberately forgiving: all methods accept zero counts
    and the recorder can be used outside a machine run (superstep 0).
    """

    def __init__(self, rank: int = 0):
        self.rank = rank
        self._supersteps: list[SuperstepCost] = [SuperstepCost()]
        self.memory_words_peak = 0
        self._memory_words_current = 0
        #: Observability blob repatriated with the recorder: out-of-process
        #: workers set this to the capture of
        #: :func:`repro.pro.telemetry.capture_rank_telemetry` just before
        #: queueing their result record -- anything attached to the
        #: recorder crosses the address-space gap with no wire-format
        #: change.  ``None`` for
        #: in-address-space ranks (the parent reports zeroed counters).
        self.telemetry: dict | None = None

    # -- superstep structure ------------------------------------------------
    @property
    def current_superstep(self) -> int:
        """Index of the superstep currently being recorded."""
        return len(self._supersteps) - 1

    def next_superstep(self) -> int:
        """Close the current superstep and open a new one (called at barriers)."""
        self._supersteps.append(SuperstepCost())
        return self.current_superstep

    @property
    def supersteps(self) -> list[SuperstepCost]:
        """The list of per-superstep records (read-only use expected)."""
        return self._supersteps

    # -- recording ------------------------------------------------------------
    def add_compute(self, ops: int) -> None:
        """Record ``ops`` basic operations (comparisons, moves, arithmetic)."""
        self._supersteps[-1].compute_ops += int(ops)

    def add_random_variates(self, count: int) -> None:
        """Record ``count`` random variates drawn."""
        self._supersteps[-1].random_variates += int(count)

    def record_send(self, words: int, n_messages: int = 1) -> None:
        """Record an outgoing message of ``words`` payload words."""
        step = self._supersteps[-1]
        step.words_sent += int(words)
        step.messages_sent += int(n_messages)

    def record_receive(self, words: int, n_messages: int = 1) -> None:
        """Record an incoming message of ``words`` payload words."""
        step = self._supersteps[-1]
        step.words_received += int(words)
        step.messages_received += int(n_messages)

    def allocate(self, words: int) -> None:
        """Record ``words`` of memory acquired (tracks the peak)."""
        self._memory_words_current += int(words)
        self.memory_words_peak = max(self.memory_words_peak, self._memory_words_current)

    def release(self, words: int) -> None:
        """Record ``words`` of memory released."""
        self._memory_words_current = max(0, self._memory_words_current - int(words))

    # -- summaries ------------------------------------------------------------
    def total(self) -> SuperstepCost:
        """Sum of all supersteps."""
        out = SuperstepCost()
        for step in self._supersteps:
            out = out.merge(step)
        return out

    def as_dict(self) -> dict:
        """Totals as a plain dictionary (used by reports and tests)."""
        tot = self.total()
        return {
            "rank": self.rank,
            "supersteps": len(self._supersteps),
            "compute_ops": tot.compute_ops,
            "words_sent": tot.words_sent,
            "words_received": tot.words_received,
            "messages_sent": tot.messages_sent,
            "messages_received": tot.messages_received,
            "random_variates": tot.random_variates,
            "memory_words_peak": self.memory_words_peak,
        }


@dataclass(frozen=True)
class MachineParameters:
    """Per-operation costs of a (real or hypothetical) machine, in seconds.

    Attributes
    ----------
    seconds_per_op:
        Cost of one basic compute operation charged through
        :meth:`CostRecorder.add_compute` (for the paper's platforms this is
        the 60-100 cycles/item figure divided by the clock rate; the
        permutation algorithms charge O(1) ops per item).
    seconds_per_word:
        Cost of moving one payload word across the network (inverse
        point-to-point bandwidth).  The PRO model assumes this constant
        depends only on the machine.
    seconds_per_message:
        Fixed start-up latency per message.
    seconds_per_variate:
        Cost of producing one pseudo-random variate.
    hop_factor:
        Multiplier applied to per-word cost for each extra hop beyond the
        first (0 for shared-memory/crossbar machines).
    name:
        Human-readable label used in reports.
    """

    seconds_per_op: float = 2.0e-7
    seconds_per_word: float = 2.5e-8
    seconds_per_message: float = 1.0e-5
    seconds_per_variate: float = 2.0e-7
    hop_factor: float = 0.0
    name: str = "generic"

    def validate(self) -> "MachineParameters":
        """Check all rates are non-negative, returning self for chaining."""
        for attr in ("seconds_per_op", "seconds_per_word", "seconds_per_message",
                     "seconds_per_variate", "hop_factor"):
            if getattr(self, attr) < 0:
                raise ValidationError(f"MachineParameters.{attr} must be >= 0")
        return self

    def superstep_time(self, step: SuperstepCost, average_hops: float = 1.0) -> float:
        """Predicted time one processor spends in one superstep."""
        hop_penalty = 1.0 + self.hop_factor * max(average_hops - 1.0, 0.0)
        return (
            step.compute_ops * self.seconds_per_op
            + step.h_relation * self.seconds_per_word * hop_penalty
            + (step.messages_sent + step.messages_received) * self.seconds_per_message
            + step.random_variates * self.seconds_per_variate
        )


#: Parameters loosely calibrated to the paper's 400 MHz SGI Origin 2000 runs:
#: 137 s sequential for 480e6 items works out to ~0.285 us of work per item
#: (~114 cycles, inside the 60-100 cycles + memory-stall range quoted in
#: Section 1); the exchange bandwidth and latency values are typical of the
#: machine's CrayLink interconnect.
ORIGIN_2000_PARAMETERS = MachineParameters(
    seconds_per_op=2.85e-7,
    seconds_per_word=2.6e-8,
    seconds_per_message=8.0e-6,
    seconds_per_variate=2.4e-7,
    hop_factor=0.0,
    name="SGI Origin 2000 (400 MHz), calibrated from the paper",
)

#: Parameters for interpreting measured in-process (thread backend) runs on a
#: present-day laptop: per-item work dominated by NumPy bulk operations.
LAPTOP_PYTHON_PARAMETERS = MachineParameters(
    seconds_per_op=6.0e-9,
    seconds_per_word=1.0e-9,
    seconds_per_message=5.0e-6,
    seconds_per_variate=1.0e-8,
    hop_factor=0.0,
    name="in-process NumPy backend",
)


class CostReport:
    """Aggregated view over the recorders of every processor of one run."""

    def __init__(self, recorders: Iterable[CostRecorder]):
        self.recorders = list(recorders)
        if not self.recorders:
            raise ValidationError("CostReport needs at least one recorder")
        #: Failed attempts the resilience layer absorbed before this
        #: (successful) run, the wall-clock they cost, and the backend the
        #: run degraded to (None when it succeeded on the configured one).
        #: The recorders themselves describe only the successful attempt --
        #: a retried epoch replays the same streams, so its per-rank
        #: accounting is identical to a fault-free run by construction.
        self.retries = 0
        self.recovery_seconds = 0.0
        self.degraded_to: str | None = None

    def note_retry(self, failed_attempts: int, recovery_seconds: float,
                   *, degraded_to: str | None = None) -> None:
        """Repatriate recovery effort (called by the resilience layer)."""
        self.retries += int(failed_attempts)
        self.recovery_seconds += float(recovery_seconds)
        if degraded_to is not None:
            self.degraded_to = degraded_to

    @property
    def n_procs(self) -> int:
        """Number of processors that contributed records."""
        return len(self.recorders)

    # -- totals ---------------------------------------------------------------
    def per_rank_totals(self) -> list[dict]:
        """One totals dictionary per rank (see :meth:`CostRecorder.as_dict`)."""
        return [rec.as_dict() for rec in self.recorders]

    def total(self, field_name: str) -> int:
        """Sum a totals field (e.g. ``"words_sent"``) across all ranks."""
        return int(sum(rec.as_dict()[field_name] for rec in self.recorders))

    def max_over_ranks(self, field_name: str) -> int:
        """Maximum of a totals field across ranks (balance checks)."""
        return int(max(rec.as_dict()[field_name] for rec in self.recorders))

    def imbalance(self, field_name: str) -> float:
        """Ratio max/mean of a totals field across ranks; 1.0 means perfectly balanced."""
        values = [rec.as_dict()[field_name] for rec in self.recorders]
        mean = float(np.mean(values))
        if mean == 0:
            return 1.0
        return float(np.max(values)) / mean

    def n_supersteps(self) -> int:
        """Number of supersteps of the longest-running processor."""
        return max(len(rec.supersteps) for rec in self.recorders)

    def kernel_tiers(self) -> list[tuple[str, float]]:
        """``("numpy", 0.0)`` per rank: the samplers have one path.

        Kept for ``perfbench/workloads.py``, which prints one
        ``(tier, warmup)`` pair per rank in its host line; ROADMAP item 6
        removes it with that field.
        """
        return [("numpy", 0.0)] * len(self.recorders)

    # -- BSP/PRO-style predicted time ----------------------------------------
    def predicted_time(
        self,
        params: MachineParameters,
        *,
        average_hops: float = 1.0,
        mode: str = "bsp",
    ) -> float:
        """Predicted wall-clock time of the recorded run on a machine.

        ``mode="bsp"`` sums, over supersteps, the maximum per-processor time
        of that superstep (processors wait for each other at barriers);
        ``mode="max"`` simply takes the busiest processor's total (an
        optimistic bound with perfect overlap).
        """
        params.validate()
        if mode not in ("bsp", "max"):
            raise ValidationError(f"mode must be 'bsp' or 'max', got {mode!r}")
        if mode == "max":
            return max(
                sum(params.superstep_time(s, average_hops) for s in rec.supersteps)
                for rec in self.recorders
            )
        n_steps = self.n_supersteps()
        total = 0.0
        for step_idx in range(n_steps):
            worst = 0.0
            for rec in self.recorders:
                if step_idx < len(rec.supersteps):
                    worst = max(worst, params.superstep_time(rec.supersteps[step_idx], average_hops))
            total += worst
        return total

    # -- reporting ------------------------------------------------------------
    def summary_table(self) -> str:
        """Human-readable per-rank summary table."""
        headers = [
            "rank", "supersteps", "compute_ops", "words_sent", "words_received",
            "msgs_sent", "msgs_recv", "variates", "mem_peak",
        ]
        rows = []
        for rec in self.recorders:
            d = rec.as_dict()
            rows.append([
                d["rank"], d["supersteps"], d["compute_ops"], d["words_sent"],
                d["words_received"], d["messages_sent"], d["messages_received"],
                d["random_variates"], d["memory_words_peak"],
            ])
        return format_table(headers, rows, title="Per-processor resource usage")

    def as_dict(self) -> Mapping[str, float]:
        """Machine-readable grand totals."""
        return {
            "n_procs": self.n_procs,
            "n_supersteps": self.n_supersteps(),
            "compute_ops_total": self.total("compute_ops"),
            "words_sent_total": self.total("words_sent"),
            "random_variates_total": self.total("random_variates"),
            "compute_ops_max": self.max_over_ranks("compute_ops"),
            "words_sent_max": self.max_over_ranks("words_sent"),
            "memory_words_peak_max": self.max_over_ranks("memory_words_peak"),
            "retries": self.retries,
            "recovery_seconds": self.recovery_seconds,
            "degraded_to": self.degraded_to,
        }
