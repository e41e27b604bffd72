"""Fault injection across the backend matrix.

Every injected failure -- rank crash, dropped message, barrier timeout,
mid-transfer abort -- must surface in the caller as a clean
:class:`~repro.util.errors.BackendError` (root cause preferred over broken
-barrier symptoms), siblings must fail fast, and out-of-address-space
backends must release every in-flight resource (no leaked shared-memory
segments under ``-W error``).  Delayed-but-delivered messages, by contrast,
must change *nothing*: receives match on tags and park strays, so delivery
order within a superstep is immaterial (Proposition 1's non-blocking
assumption).
"""

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.parallel_matrix import sample_matrix_parallel
from repro.pro.backends.faults import (
    AbortTransfer,
    BarrierTimeout,
    CrashRank,
    DelayMessage,
    DropMessage,
    FaultInjectingBackend,
    FaultPlan,
    InjectedFault,
    shrink_schedule,
)
from repro.pro.machine import PROMachine
from repro.util.errors import BackendError, CommunicationError, ValidationError
from repro.util.timeouts import scale_timeout

pytestmark = pytest.mark.sim


def _exchange(ctx):
    out = ctx.comm.alltoall([ctx.rank * 10 + j for j in range(ctx.comm.size)])
    ctx.comm.barrier()
    return out


def _two_barriers(ctx):
    ctx.comm.barrier()
    ctx.comm.barrier()
    return ctx.rank


class TestFaultPlan:
    def test_rejects_unknown_records(self):
        with pytest.raises(ValidationError, match="unknown fault"):
            FaultPlan(["drop rank 3"])

    def test_owned_by_addresses_actors(self):
        plan = FaultPlan([CrashRank(rank=1), DropMessage(src=0, dst=2),
                          BarrierTimeout(rank=2)])
        assert plan.owned_by(0) == (DropMessage(src=0, dst=2),)
        assert plan.owned_by(1) == (CrashRank(rank=1),)
        assert len(plan) == 3

    def test_wrapper_delegates_capabilities_and_name(self):
        backend = FaultInjectingBackend("sim", [CrashRank(rank=0)])
        assert backend.name == "faulty+sim"
        assert backend.capabilities is backend.backend.capabilities
        assert backend.plan.faults == (CrashRank(rank=0),)


class TestSimFaults:
    def test_rank_crash_surfaces_as_backend_error(self):
        backend = FaultInjectingBackend("sim", [CrashRank(rank=1, at_op=2)])
        with pytest.raises(BackendError, match="rank 1") as excinfo:
            PROMachine(3, seed=0, backend=backend).run(_exchange)
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_crash_preferred_over_deadlock_symptoms(self):
        # Rank 2 crashes; ranks 0/1 then starve waiting for its payloads.
        # The reported root cause must be the injected crash, not the
        # CommunicationError symptoms it provoked in the siblings.
        backend = FaultInjectingBackend("sim", [CrashRank(rank=2, at_op=0)])
        with pytest.raises(BackendError, match="rank 2"):
            PROMachine(3, seed=0, backend=backend).run(_exchange)

    def test_dropped_message_proved_as_deadlock_instantly(self):
        backend = FaultInjectingBackend("sim", [DropMessage(src=0, dst=2)])
        start = time.perf_counter()
        with pytest.raises(BackendError, match="deadlock"):
            PROMachine(3, seed=0, backend=backend, timeout=3600.0).run(_exchange)
        assert time.perf_counter() - start < 5.0

    def test_barrier_timeout_breaks_barrier_for_everyone(self):
        backend = FaultInjectingBackend("sim", [BarrierTimeout(rank=1, nth=1)])
        with pytest.raises(BackendError, match="barrier"):
            PROMachine(3, seed=0, backend=backend).run(_two_barriers)

    def test_abort_mid_transfer(self):
        backend = FaultInjectingBackend("sim", [AbortTransfer(src=0, dst=1)])
        with pytest.raises(BackendError, match="rank 0") as excinfo:
            PROMachine(2, seed=0, backend=backend).run(_exchange)
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_delayed_message_changes_nothing(self):
        reference = PROMachine(3, seed=4).run(_exchange).results
        backend = FaultInjectingBackend(
            "sim", [DelayMessage(src=0, dst=2, by=4)], schedule_seed=5,
        )
        out = PROMachine(3, seed=4, backend=backend).run(_exchange).results
        assert out == reference

    def test_faults_fire_under_every_schedule(self):
        for schedule_seed in range(10):
            backend = FaultInjectingBackend(
                "sim", [CrashRank(rank=0, at_op=3)], schedule_seed=schedule_seed,
            )
            with pytest.raises(BackendError, match="rank 0"):
                PROMachine(4, seed=0, backend=backend).run(_exchange)
            assert backend.backend.last_schedule  # reproducer recorded

    def test_fault_plan_through_driver_layer(self):
        # Drop the root's scatter message to rank 2: rank 2 can never see
        # its row, so the driver-level call must fail (and fail fast).
        backend = FaultInjectingBackend("sim", [DropMessage(src=0, dst=2)])
        with pytest.raises(BackendError):
            sample_matrix_parallel([5, 5, 5], algorithm="root",
                                   backend=backend, seed=3)


class TestThreadFaults:
    """The same plans against real concurrency (the wrapper is generic)."""

    def test_rank_crash(self):
        backend = FaultInjectingBackend("thread", [CrashRank(rank=1, at_op=2)])
        with pytest.raises(BackendError, match="rank 1"):
            PROMachine(3, seed=0, backend=backend,
                       timeout=scale_timeout(5)).run(_exchange)

    def test_dropped_message_times_out(self):
        backend = FaultInjectingBackend("thread", [DropMessage(src=0, dst=2)])
        with pytest.raises(BackendError):
            PROMachine(3, seed=0, backend=backend,
                       timeout=scale_timeout(0.4)).run(_exchange)

    def test_barrier_timeout(self):
        backend = FaultInjectingBackend("thread", [BarrierTimeout(rank=0)])
        with pytest.raises(BackendError, match="barrier"):
            PROMachine(3, seed=0, backend=backend,
                       timeout=scale_timeout(5)).run(_two_barriers)

    def test_delayed_message_changes_nothing(self):
        reference = PROMachine(3, seed=4).run(_exchange).results
        backend = FaultInjectingBackend("thread", [DelayMessage(src=2, dst=0, by=2)])
        out = PROMachine(3, seed=4, backend=backend,
                         timeout=scale_timeout(10)).run(_exchange).results
        assert out == reference


def _bulk_exchange(ctx, n):
    data = np.arange(n, dtype=np.int64) + ctx.rank
    for dst in range(ctx.comm.size):
        if dst != ctx.rank:
            ctx.comm.send(data, dst, tag=5)
    received = [ctx.comm.recv(src, tag=5)
                for src in range(ctx.comm.size) if src != ctx.rank]
    return sum(int(arr.sum()) for arr in received)


@pytest.mark.subprocess
@pytest.mark.slow
class TestProcessFaults:
    """Faults crossing the address-space gap: the plan travels pickled.

    Unlike the sim backend these runs really wait out the communication
    timeout of the starved ranks, so the class is marked ``slow``.
    """

    def test_rank_crash(self, payload_path):
        backend = FaultInjectingBackend("process", [CrashRank(rank=1, at_op=1)])
        with pytest.raises(BackendError, match="rank 1"):
            PROMachine(2, seed=0, backend=backend,
                       timeout=scale_timeout(2)).run(_bulk_exchange, 2000)

    def test_abort_mid_transfer_disposes_in_flight_segments(self):
        # Bulk sharedmem payloads are in flight when the abort fires; the
        # fabric shutdown must dispose them (asserted process-wide by
        # test_no_leaked_segments_under_w_error below).
        backend = FaultInjectingBackend("process", [AbortTransfer(src=0, dst=1)])
        with pytest.raises(BackendError):
            PROMachine(3, seed=0, backend=backend,
                       timeout=scale_timeout(2)).run(_bulk_exchange, 50_000)

    def test_faulted_persistent_pool_is_poisoned(self):
        backend = FaultInjectingBackend("process", [CrashRank(rank=0, at_op=0)])
        machine = PROMachine(2, seed=0, backend=backend,
                             timeout=scale_timeout(10))
        try:
            with pytest.raises(BackendError, match="rank 0"):
                machine.run(_bulk_exchange, 20_000)
            with pytest.raises(BackendError, match="poisoned"):
                machine.run(_bulk_exchange, 20_000)
        finally:
            machine.close()

    def test_no_leaked_segments_under_w_error(self):
        """Crash + drop + abort faults leave no shared-memory leaks."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.pro.backends.faults import (
                AbortTransfer, CrashRank, DropMessage, FaultInjectingBackend)
            from repro.pro.machine import PROMachine
            from repro.util.errors import BackendError
            from repro.util.timeouts import scale_timeout

            def bulk(ctx, n):
                data = np.arange(n, dtype=np.int64) + ctx.rank
                for dst in range(ctx.comm.size):
                    if dst != ctx.rank:
                        ctx.comm.send(data, dst, tag=5)
                out = [ctx.comm.recv(src, tag=5)
                       for src in range(ctx.comm.size) if src != ctx.rank]
                return sum(int(a.sum()) for a in out)

            for plan in ([CrashRank(rank=1, at_op=1)],
                         [DropMessage(src=0, dst=1)],
                         [AbortTransfer(src=1, dst=0)]):
                backend = FaultInjectingBackend("process", plan)
                try:
                    PROMachine(2, seed=0, backend=backend,
                               timeout=scale_timeout(1.0)).run(bulk, 40_000)
                    raise SystemExit(f"plan {plan} did not fail")
                except BackendError:
                    pass
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error",
             # ...but let the resource tracker print its leak warning,
             # which -W error would turn into a swallowed exception.
             "-W", "default::UserWarning:multiprocessing.resource_tracker",
             "-c", script],
            capture_output=True, text=True, env=env,
            timeout=scale_timeout(120),
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestShrinking:
    """Find a schedule-dependent failure, then minimise its reproducer."""

    @staticmethod
    def _racy_program(shared):
        def racy(ctx):
            ctx.comm.barrier()
            shared.append(ctx.rank)  # unsynchronised shared-state race
            ctx.comm.barrier()
            if ctx.rank == 0 and shared[-1] != 0:
                raise RuntimeError("rank 0 lost the race")
            return None

        return racy

    def _fails(self, schedule, shared):
        shared.clear()
        machine = PROMachine(2, seed=0, backend="sim",
                             backend_options={"schedule": list(schedule)})
        try:
            machine.run(self._racy_program(shared))
            return False
        except BackendError:
            return True

    def test_sweep_find_shrink_replay(self):
        shared: list = []
        program = self._racy_program(shared)
        failing_trace = None
        for schedule_seed in range(64):
            shared.clear()
            machine = PROMachine(2, seed=0, backend="sim",
                                 backend_options={"schedule_seed": schedule_seed})
            try:
                machine.run(program)
            except BackendError:
                failing_trace = machine.backend.last_schedule
                break
        assert failing_trace is not None, "no seed exposed the race"

        shrunk = shrink_schedule(lambda s: self._fails(s, shared), failing_trace)
        assert len(shrunk) <= len(failing_trace)
        assert len(shrunk) <= 4  # the race needs only a couple of decisions
        assert self._fails(shrunk, shared)  # the reproducer still reproduces

    def test_shrink_rejects_passing_schedule(self):
        shared: list = []
        with pytest.raises(ValidationError, match="failing schedule"):
            shrink_schedule(lambda s: self._fails(s, shared), [0, 0, 0])

    def test_injected_fault_is_not_a_communication_error(self):
        # The root-cause preference of every backend relies on this.
        assert not issubclass(InjectedFault, CommunicationError)
