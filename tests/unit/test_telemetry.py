"""Fleet observability: repatriated telemetry, events, and its determinism.

The contract under test (the telemetry/repatriation sub-contract in
``repro.pro.backends.registry``):

* out-of-address-space ranks snapshot their transport counters onto the
  cost recorder, so the numbers survive the
  worker->parent gap, on a fleet's first run and on its later ones;
* in-address-space backends (inline/thread/sim) report the same counter
  keys **zeroed** rather than omitting them;
* lifecycle transitions (pool spawn/heal, retries, degradations) are
  event-sourced and windowed into the run's ``FleetReport``;
* collection is passive -- attaching a recorder never perturbs results
  (the determinism grid at the bottom pins this bit-exactly across
  backends and payload paths).
"""

import numpy as np
import pytest

from repro.core.permutation import random_permutation
from repro.pro.backends.process import ProcessBackend
from repro.pro.backends.sharedmem import SharedMemoryTransport
from repro.pro.machine import PROMachine
from repro.pro.telemetry import (
    EVENT_KINDS,
    TRANSPORT_COUNTERS,
    FleetReport,
    Telemetry,
    event_seq,
    events_since,
    record_event,
    zeroed_transport_stats,
)
from repro.util.errors import ValidationError

#: Large enough that every rank's block is bulk for the sharedmem
#: transport (out-of-band) instead of riding the control queue.
N_ITEMS = 50_000
P = 4
SEED = 20030607


def _run_with_telemetry(backend, *, runs=1):
    telemetry = Telemetry()
    machine = PROMachine(P, seed=SEED, backend=backend, telemetry=telemetry)
    try:
        data = np.arange(N_ITEMS, dtype=np.int64)
        for _ in range(runs):
            out = random_permutation(data, machine=machine)
    finally:
        machine.close()
    return telemetry, out


class TestSchema:
    def test_transport_counters_track_transport_stats_lockstep(self):
        """The schema's counter names ARE TransportStats' slots."""
        from repro.pro.backends.transport import TransportStats

        assert tuple(sorted(TRANSPORT_COUNTERS)) == tuple(
            sorted(TransportStats.__slots__))
        assert sorted(zeroed_transport_stats()) == sorted(TRANSPORT_COUNTERS)
        assert set(zeroed_transport_stats().values()) == {0}

    def test_to_dict_key_stability(self):
        report = FleetReport(backend="thread", n_procs=2)
        payload = report.to_dict()
        assert payload["schema"] == FleetReport.SCHEMA == 4
        assert sorted(payload) == [
            "backend", "events", "n_procs", "parent_transport", "ranks",
            "resilience", "schema", "transport", "wall_clock_seconds",
        ]
        assert sorted(payload["resilience"]) == [
            "degraded_to", "recovery_seconds", "retries"]
        assert sorted(payload["parent_transport"]) == sorted(TRANSPORT_COUNTERS)

    def test_recorder_accumulates_and_clears(self):
        telemetry = Telemetry()
        assert len(telemetry) == 0 and telemetry.last is None
        report = FleetReport(backend="thread", n_procs=1)
        telemetry.record(report)
        assert telemetry.last is report and len(telemetry) == 1
        telemetry.clear()
        assert len(telemetry) == 0 and telemetry.last is None


class TestEventLog:
    def test_record_and_window(self):
        start = event_seq()
        seq = record_event("pool-close", n_procs=3, epoch=7)
        events = events_since(start)
        assert any(e["seq"] == seq and e["kind"] == "pool-close"
                   and e["n_procs"] == 3 for e in events)
        # A window opened after the event excludes it.
        assert all(e["seq"] != seq for e in events_since(event_seq()))

    def test_taxonomy_is_documented(self):
        assert set(EVENT_KINDS) == {
            "pool-spawn", "pool-heal", "pool-poison", "pool-evict",
            "pool-close", "retry", "degraded", "deadline-clamp",
            "explore-start", "explore-divergence", "explore-shrink",
        }


class TestInAddressSpaceBackends:
    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_zeroed_transport_sections_not_omitted(self, backend):
        telemetry, _ = _run_with_telemetry(backend)
        payload = telemetry.last.to_dict()
        assert payload["backend"] == backend
        assert payload["transport"] == "in-process"
        assert len(payload["ranks"]) == P
        for rank_record in payload["ranks"]:
            assert rank_record["transport"] == zeroed_transport_stats()
            assert sorted(rank_record) == ["rank", "transport"]
        assert payload["parent_transport"] == zeroed_transport_stats()


#: Items of one bulk-exchange piece: 8 KiB of int64, the sharedmem
#: transport's default ``min_bytes``, so every piece crosses in a segment.
BULK_ITEMS = 1024


def _bulk_exchange_program(ctx):
    # Algorithm 1's pieces no longer cross the fabric on sharedmem (the
    # exchange is one-sided), so bulk messages come from a plain program.
    pieces = [np.full(BULK_ITEMS, ctx.rank, dtype=np.int64)
              for _ in range(ctx.n_procs)]
    return [int(piece[0]) for piece in ctx.comm.alltoallv(pieces)]


@pytest.mark.subprocess
class TestProcessRepatriation:
    def test_cold_sharedmem_counters_and_segments_survive(self):
        telemetry = Telemetry()
        machine = PROMachine(P, seed=SEED, backend="process",
                             telemetry=telemetry)
        try:
            result = machine.run(_bulk_exchange_program)
        finally:
            machine.close()
        assert result.results == [list(range(P))] * P
        payload = telemetry.last.to_dict()
        assert payload["transport"] == "sharedmem"
        senders = 0
        for rank_record in payload["ranks"]:
            stats = rank_record["transport"]
            assert sorted(stats) == sorted(TRANSPORT_COUNTERS)
            assert stats["encode_calls"] > 0
            assert stats["segments_created"] > 0  # bulk messages crossed over
            assert stats["bytes_encoded"] > 0
            assert "ring" not in rank_record
            senders += 1
        assert senders == P  # every sender repatriated its counters

    @pytest.mark.parametrize("p", [2, 4])
    def test_warm_driver_call_encodes_no_bulk_bytes(self, p):
        # A single-attempt call stages its input in the output segment,
        # the ranks write their pieces straight into it and return their
        # slices by reference: no bulk byte is encoded anywhere.
        from repro.pro.backends.pool import clear_default_pools

        clear_default_pools()
        telemetry = Telemetry()
        data = np.arange(N_ITEMS, dtype=np.int64)
        try:
            for seed in (1, 2):  # the second call runs on the warm fleet
                out = random_permutation(data, n_procs=p, backend="process",
                                         seed=seed, telemetry=telemetry)
                assert sorted(out.tolist()) == data.tolist()
        finally:
            clear_default_pools()
        for report in telemetry.reports:
            payload = report.to_dict()
            assert payload["transport"] == "sharedmem"
            assert payload["parent_transport"]["bytes_encoded"] == 0
            assert payload["parent_transport"]["segments_created"] == 0
            for rank_record in payload["ranks"]:
                assert rank_record["transport"]["segments_created"] == 0
                assert rank_record["transport"]["bytes_encoded"] == 0

    def test_cold_in_band_counters_without_rings(self):
        # A min_bytes above every piece keeps the bulk messages in-band.
        telemetry = Telemetry()
        backend = ProcessBackend(transport=SharedMemoryTransport(min_bytes=1 << 40))
        machine = PROMachine(P, seed=SEED, backend=backend, telemetry=telemetry)
        try:
            result = machine.run(_bulk_exchange_program)
        finally:
            machine.close()
        assert result.results == [list(range(P))] * P
        for rank_record in telemetry.last.to_dict()["ranks"]:
            assert rank_record["transport"]["encode_calls"] > 0
            assert rank_record["transport"]["segments_created"] == 0
            assert "ring" not in rank_record

    def test_persistent_pool_counters_accumulate_and_encode_once(self):
        telemetry, _ = _run_with_telemetry("process", runs=3)
        assert len(telemetry) == 3
        first, last = telemetry.reports[0].to_dict(), telemetry.last.to_dict()
        # Standing workers carry running totals: later >= earlier.
        for early, late in zip(first["ranks"], last["ranks"]):
            assert late["transport"]["encode_calls"] >= \
                early["transport"]["encode_calls"]
            assert late["transport"]["oversize_fallbacks"] >= 0
        # Encode-once-per-run: k runs => exactly k parent shared encodes.
        assert last["parent_transport"]["shared_encode_calls"] == 3
        # The fleet spawned during run 1's window, not run 3's.
        assert "pool-spawn" in [e["kind"] for e in first["events"]]
        assert "pool-spawn" not in [e["kind"] for e in last["events"]]


@pytest.mark.subprocess
class TestRecoveryEvents:
    def test_heal_and_retry_sequence_in_report(self):
        from repro.pro.backends.faults import CrashRank, FaultInjectingBackend

        telemetry = Telemetry()
        faulty = FaultInjectingBackend(
            "process", [CrashRank(rank=1, at_op=1, at_run=0)])
        machine = PROMachine(P, seed=SEED, backend=faulty, retry=2,
                             telemetry=telemetry)
        try:
            result = machine.run(_barrier_program)
        finally:
            machine.close()
        assert result.results == list(range(P))
        payload = telemetry.last.to_dict()
        assert payload["resilience"]["retries"] == 1
        kinds = [e["kind"] for e in payload["events"]]
        assert "retry" in kinds and "pool-heal" in kinds
        assert kinds.index("retry") < kinds.index("pool-heal")
        heal = next(e for e in payload["events"] if e["kind"] == "pool-heal")
        assert heal["respawned"] == []  # the raising rank kept its process
        assert heal["heal_ms"] > 0.0
        text = telemetry.last.summary()
        assert "1 failed attempt(s) absorbed" in text
        assert f"pool-heal: respawned ranks {heal['respawned']} in " in text


def _barrier_program(ctx):
    # The alltoall produces the early fabric ops the crash plan's at_op
    # counter fires on (barriers alone are not counted operations).
    ctx.comm.alltoall([ctx.rank] * ctx.comm.size)
    ctx.comm.barrier()
    return ctx.rank


class TestValidation:
    def test_machine_rejects_non_recorder(self):
        with pytest.raises(ValidationError, match="record"):
            PROMachine(2, telemetry=object())


#: (backend, payload path) cells of the determinism guard.
GRID = [
    ("thread", None),
    ("sim", None),
    ("process", None),
    ("process", "degrade"),
]


class TestTelemetryNeverPerturbsResults:
    """Satellite 5: collection is passive, bit-exactly."""

    @pytest.mark.subprocess  # process cells spawn fleets
    @pytest.mark.parametrize("backend,path", GRID,
                             ids=["-".join(p for p in cell if p)
                                  for cell in GRID])
    def test_fixed_seed_identical_with_and_without_telemetry(
            self, backend, path, request):
        if path == "degrade":
            request.getfixturevalue("no_shared_memory")
        data = np.arange(20_000, dtype=np.int64)

        def run(telemetry):
            return random_permutation(
                data, n_procs=P, backend=backend, seed=SEED,
                telemetry=telemetry)

        plain = run(None)
        telemetry = Telemetry()
        observed = run(telemetry)
        assert np.array_equal(plain, observed)
        assert len(telemetry) == 1  # the recorder did collect a report

    @pytest.mark.subprocess
    @pytest.mark.parametrize("path", [None, "degrade"],
                             ids=["sharedmem", "degrade"])
    def test_private_fleet_identical_with_and_without_telemetry(
            self, path, request):
        # The grid's process cells borrow the drivers' warm fleet; here
        # every run spawns a private fleet and closes it after the call.
        if path == "degrade":
            request.getfixturevalue("no_shared_memory")
        data = np.arange(20_000, dtype=np.int64)

        def run(telemetry):
            with PROMachine(P, seed=SEED, backend="process",
                            telemetry=telemetry) as machine:
                return random_permutation(data, machine=machine)

        plain = run(None)
        telemetry = Telemetry()
        observed = run(telemetry)
        assert np.array_equal(plain, observed)
        assert len(telemetry) == 1

    def test_inline_backend_at_p1(self):
        data = np.arange(5_000, dtype=np.int64)
        plain = random_permutation(data, n_procs=1, backend="inline",
                                   seed=SEED)
        telemetry = Telemetry()
        observed = random_permutation(data, n_procs=1, backend="inline",
                                      seed=SEED, telemetry=telemetry)
        assert np.array_equal(plain, observed)
        assert telemetry.last.to_dict()["ranks"][0]["transport"] == \
            zeroed_transport_stats()
