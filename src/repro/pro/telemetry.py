"""Fleet-wide observability: repatriated telemetry and structured run events.

Per-rank transport counters, kernel-tier choices, pool lifecycle and
resilience events all *exist* somewhere in the fleet --
but most of them are born inside worker processes and would die there.
This module repatriates them along the same path the cost contract already
guarantees for RNG accounting:

* **Per-rank data rides the CostRecorder.**  Workers on out-of-address-space
  backends snapshot their transport counters onto ``ctx.cost.telemetry``
  (see :func:`capture_rank_telemetry`) just before
  the result record is queued, so the existing ``(payload, cost, variates)``
  result tuple carries them to the parent with no wire-format change.
* **Parent-side events go to a process-wide log.**  The pool supervisor and
  the resilience layer call :func:`record_event` when a fleet is spawned,
  healed, poisoned or evicted, when an attempt is retried or degraded, and
  when a deadline clamps a timeout.  Events carry a monotonic ``seq`` so a
  run can be attributed the window of events observed while it executed.
* **The machine merges both into a** :class:`FleetReport`.  Pass a
  :class:`Telemetry` recorder as ``telemetry=`` to
  :class:`~repro.pro.machine.PROMachine`, ``resolve_machine`` or any driver
  and every ``run()`` appends one report with a stable :meth:`~FleetReport.to_dict`
  JSON schema and a human :meth:`~FleetReport.summary`.

Collection is passive: it never touches the per-rank random streams, so a
fixed seed is bit-identical with telemetry on or off (guarded by
``tests/unit/test_telemetry.py``), and the warm-dispatch overhead is gated
at <= 1.05x in ``benchmarks/check_bench_regression.py``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

__all__ = [
    "Telemetry",
    "FleetReport",
    "TRANSPORT_COUNTERS",
    "EVENT_KINDS",
    "record_event",
    "event_seq",
    "events_since",
    "capture_rank_telemetry",
    "zeroed_transport_stats",
]

#: Counter names of one rank's transport section -- kept in lockstep with
#: ``TransportStats.__slots__`` (asserted by the unit tests).  Backends whose
#: ranks share the parent's address space (inline/thread/sim) have no
#: per-rank transport, so their section is *zeroed*, never omitted.
TRANSPORT_COUNTERS = (
    "encode_calls",
    "shared_encode_calls",
    "decode_calls",
    "segments_created",
    "oversize_fallbacks",
    "bytes_encoded",
)

#: The structured event taxonomy (every ``record_event`` kind in the tree).
EVENT_KINDS = (
    "pool-spawn",
    "pool-heal",
    "pool-poison",
    "pool-evict",
    "pool-close",
    "retry",
    "degraded",
    "deadline-clamp",
    "explore-start",
    "explore-divergence",
    "explore-shrink",
)

# Process-wide structured event log.  Bounded so long-lived services cannot
# leak; windowed by sequence number, so concurrent machines each attribute
# the events observed during their own run (documented as process-wide:
# two overlapping runs both see a heal that happened while both ran).
_EVENT_LOG: deque = deque(maxlen=512)
_EVENT_LOCK = threading.Lock()
_EVENT_SEQ = 0


def record_event(kind: str, **fields: Any) -> int:
    """Append one structured event to the process-wide log; returns its seq.

    ``kind`` is one of :data:`EVENT_KINDS`; ``fields`` are JSON-safe
    scalars/lists (epoch stamps, rank lists, backend names).  Emission is
    unconditional and cheap -- a dict append under a lock on lifecycle
    paths only, never per message.
    """
    global _EVENT_SEQ
    with _EVENT_LOCK:
        seq = _EVENT_SEQ
        _EVENT_SEQ += 1
        _EVENT_LOG.append({"seq": seq, "kind": str(kind), **fields})
        return seq


def event_seq() -> int:
    """The sequence number the *next* event will receive (a window anchor)."""
    with _EVENT_LOCK:
        return _EVENT_SEQ


def events_since(seq: int) -> list[dict]:
    """Copies of every logged event with ``seq >= seq``, oldest first."""
    with _EVENT_LOCK:
        return [dict(event) for event in _EVENT_LOG if event["seq"] >= seq]


def zeroed_transport_stats() -> dict:
    """An all-zero transport section (in-address-space ranks report this)."""
    return {name: 0 for name in TRANSPORT_COUNTERS}


def capture_rank_telemetry(fabric: Any) -> dict:
    """Snapshot one worker rank's transport counters.

    Called by every process-backend worker, with its process fabric,
    right before the result record is queued; the returned blob is
    attached to ``ctx.cost.telemetry`` so it repatriates through the
    existing result tuple.  Ranks of the in-process fabrics attach
    nothing, and the parent reports zeroed counters for them.
    """
    return {"transport": fabric.transport.stats.snapshot()}


class FleetReport:
    """One run's merged observability view: per-rank counters plus events.

    Built by the machine after every telemetry-enabled ``run()``; the JSON
    shape of :meth:`to_dict` is versioned by :data:`FleetReport.SCHEMA` and
    documented in ``docs/observability.md``.

    Examples
    --------
    >>> report = FleetReport(backend="thread", n_procs=1,
    ...                      ranks=[{"rank": 0, "transport": zeroed_transport_stats(),
    ...                              "kernel_tier": None,
    ...                              "kernel_warmup_seconds": 0.0}])
    >>> sorted(report.to_dict())
    ['backend', 'events', 'n_procs', 'parent_transport', 'ranks', 'resilience', 'schema', 'transport', 'wall_clock_seconds']
    >>> report.to_dict()["ranks"][0]["transport"]["encode_calls"]
    0
    """

    #: Version stamp of the ``to_dict()`` JSON shape; bump on breaking change.
    SCHEMA = 3

    def __init__(
        self,
        *,
        backend: str,
        n_procs: int,
        transport: str | None = None,
        wall_clock_seconds: float = 0.0,
        ranks: list[dict] | None = None,
        parent_transport: dict | None = None,
        resilience: dict | None = None,
        events: list[dict] | None = None,
    ):
        self.backend = backend
        self.transport = transport
        self.n_procs = int(n_procs)
        self.wall_clock_seconds = float(wall_clock_seconds)
        self.ranks = list(ranks or [])
        self.parent_transport = dict(parent_transport or zeroed_transport_stats())
        self.resilience = dict(
            resilience
            or {"retries": 0, "recovery_seconds": 0.0, "degraded_to": None}
        )
        self.events = list(events or [])

    @classmethod
    def from_run(cls, machine: Any, result: Any, events: list[dict]) -> "FleetReport":
        """Merge one :class:`~repro.pro.machine.RunResult` into a report."""
        transport = machine.backend.transport
        report = result.cost_report
        ranks = []
        for recorder in report.recorders:
            blob = recorder.telemetry or {}
            ranks.append({
                "rank": recorder.rank,
                "transport": dict(blob.get("transport") or zeroed_transport_stats()),
                "kernel_tier": recorder.kernel_tier,
                "kernel_warmup_seconds": recorder.kernel_warmup_seconds,
            })
        return cls(
            backend=machine.backend.name,
            transport="in-process" if transport is None else transport.name,
            n_procs=result.n_procs,
            wall_clock_seconds=result.wall_clock_seconds,
            ranks=ranks,
            parent_transport=zeroed_transport_stats() if transport is None
            else transport.stats.snapshot(),
            resilience={
                "retries": report.retries,
                "recovery_seconds": report.recovery_seconds,
                "degraded_to": report.degraded_to,
            },
            events=events,
        )

    def to_dict(self) -> dict:
        """The stable, JSON-serialisable shape of this report."""
        return {
            "schema": self.SCHEMA,
            "backend": self.backend,
            "transport": self.transport,
            "n_procs": self.n_procs,
            "wall_clock_seconds": self.wall_clock_seconds,
            "ranks": [dict(rank) for rank in self.ranks],
            "parent_transport": dict(self.parent_transport),
            "resilience": dict(self.resilience),
            "events": [dict(event) for event in self.events],
        }

    # -- human rendering -----------------------------------------------------
    def summary(self) -> str:
        """Human-readable fleet summary (the one formatting path the CLI uses)."""
        transport = self.transport or "in-process"
        lines = [
            f"fleet report: backend={self.backend} transport={transport} "
            f"p={self.n_procs} wall={self.wall_clock_seconds * 1e3:.1f}ms"
        ]
        for rank in self.ranks:
            tier = rank.get("kernel_tier")
            if tier is None:
                lines.append(f"rank {rank['rank']}: kernel tier not recorded")
            else:
                warmup = float(rank.get("kernel_warmup_seconds") or 0.0)
                lines.append(
                    f"rank {rank['rank']}: kernel tier {tier} "
                    f"(JIT warm-up {warmup * 1e3:.1f} ms)"
                )
            stats = rank.get("transport") or {}
            lines.append(
                f"rank {rank['rank']}: transport "
                f"{stats.get('encode_calls', 0)} encodes / "
                f"{stats.get('decode_calls', 0)} decodes / "
                f"{stats.get('segments_created', 0)} segments / "
                f"{stats.get('oversize_fallbacks', 0)} fallbacks"
            )
        retries = self.resilience.get("retries", 0)
        if retries:
            degraded = self.resilience.get("degraded_to")
            line = (f"resilience: {retries} failed attempt(s) absorbed in "
                    f"{self.resilience.get('recovery_seconds', 0.0):.2f}s")
            if degraded:
                line += f", degraded to the {degraded} backend"
            lines.append(line)
        else:
            lines.append("resilience: no retries")
        if self.events:
            counts: dict[str, int] = {}
            for event in self.events:
                counts[event["kind"]] = counts.get(event["kind"], 0) + 1
            rendered = " ".join(f"{kind}({n})" for kind, n in sorted(counts.items()))
            lines.append(f"events: {rendered}")
            for event in self.events:
                if event["kind"] == "pool-heal":
                    lines.append(
                        f"pool-heal: respawned ranks {event['respawned']} in "
                        f"{event['heal_ms']:.1f} ms"
                    )
        else:
            lines.append("events: none")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"FleetReport(backend={self.backend!r}, p={self.n_procs}, "
                f"events={len(self.events)})")


class Telemetry:
    """A fleet-observability recorder that travels with a machine's runs.

    Pass one as ``telemetry=`` to :class:`~repro.pro.machine.PROMachine`,
    :func:`~repro.pro.machine.resolve_machine`, any driver
    (``permute_distributed``, ``random_permutation``,
    ``sample_communication_matrix(parallel=True)``,
    ``sample_matrix_parallel``) or :func:`repro.pro.backends.pool.pool`;
    every completed ``run()`` appends one :class:`FleetReport`.  Collection
    is passive -- results and RNG accounting are bit-identical with
    telemetry on or off.

    Examples
    --------
    >>> from repro.pro.machine import PROMachine
    >>> from repro.pro.telemetry import Telemetry
    >>> def program(ctx):
    ...     return ctx.comm.allreduce(ctx.rank)
    >>> tel = Telemetry()
    >>> machine = PROMachine(2, seed=0, telemetry=tel)
    >>> machine.run(program).results
    [1, 1]
    >>> machine.close()
    >>> tel.last.n_procs      # thread ranks share the parent's address space,
    2
    >>> tel.last.to_dict()["ranks"][0]["transport"]["encode_calls"]  # so: zeroed
    0
    """

    def __init__(self):
        self.reports: list[FleetReport] = []

    @property
    def last(self) -> FleetReport | None:
        """The most recent run's report (``None`` before the first run)."""
        return self.reports[-1] if self.reports else None

    def record(self, report: FleetReport) -> None:
        """Append one run's report (called by the machine)."""
        self.reports.append(report)

    def clear(self) -> None:
        """Drop every collected report (the recorder stays attachable)."""
        self.reports.clear()

    def __len__(self) -> int:
        return len(self.reports)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Telemetry(reports={len(self.reports)})"
