"""Semantics of the deterministic simulation backend.

The sim backend's promises (see :mod:`repro.pro.backends.sim`): exactly one
rank executes at any instant, the interleaving is fully determined by
``schedule_seed``/``schedule``, every run records its decision trace for
replay, results are schedule-invariant, and blocking never consults a wall
clock -- deadlocks are proved and reported immediately.
"""

import time

import pytest

from repro.pro.backends.registry import backend_capabilities, get_backend
from repro.pro.backends.sim import SimBackend, SimFabric
from repro.pro.machine import PROMachine
from repro.util.errors import BackendError, CommunicationError, ValidationError

pytestmark = pytest.mark.sim


def _allreduce(ctx):
    return ctx.comm.allreduce(ctx.rank)


def _ring_pass(ctx, value):
    """Send around the ring; exercises p2p blocking in both directions."""
    right = (ctx.rank + 1) % ctx.n_procs
    left = (ctx.rank - 1) % ctx.n_procs
    ctx.comm.send(value + ctx.rank, right, tag=1)
    got = ctx.comm.recv(left, tag=1)
    ctx.comm.barrier()
    return got


def _tag_order(ctx):
    """Out-of-order tags: the late tag must be parked, not lost."""
    if ctx.rank == 0:
        ctx.comm.send("first", 1, tag=10)
        ctx.comm.send("second", 1, tag=20)
        return None
    second = ctx.comm.recv(0, tag=20)  # sent later, received first
    first = ctx.comm.recv(0, tag=10)
    return (first, second)


def _sim_machine(n, *, seed=0, **options):
    return PROMachine(n, seed=seed, backend="sim", backend_options=options)


class TestCooperativeExecution:
    @pytest.mark.parametrize("n_procs", [1, 2, 3, 4, 5, 8])
    def test_collectives_across_sizes(self, n_procs):
        expected = sum(range(n_procs))
        run = _sim_machine(n_procs).run(_allreduce)
        assert run.results == [expected] * n_procs

    def test_ring_pass_blocking_p2p(self):
        results = _sim_machine(4).run(_ring_pass, 100).results
        assert results == [103, 100, 101, 102]

    def test_out_of_order_tags_are_parked(self):
        results = _sim_machine(2).run(_tag_order).results
        assert results[1] == ("first", "second")

    def test_shared_state_interleaving_is_reproducible(self):
        # The user-visible cooperative-execution promise: the order in
        # which ranks touch *shared state* is fixed by the schedule seed,
        # so two runs observe the identical mutation log (threads give a
        # different, nondeterministic order every run).
        def logged(ctx, log):
            for step in range(4):
                log.append((ctx.rank, step))
                ctx.comm.barrier()
            return None

        logs = []
        for _ in range(2):
            log = []
            _sim_machine(4, **{"schedule_seed": 3}).run(logged, log)
            logs.append(log)
        assert logs[0] == logs[1] and len(logs[0]) == 16

    def test_cost_accounting_matches_thread_backend(self):
        sim = _sim_machine(3, seed=7).run(_ring_pass, 5).cost_report
        thread = PROMachine(3, seed=7).run(_ring_pass, 5).cost_report
        for field in ("words_sent", "words_received", "messages_sent"):
            assert sim.total(field) == thread.total(field)

    def test_capabilities_registered(self):
        caps = backend_capabilities("sim")
        assert caps.multirank and caps.shared_address_space


class TestSchedules:
    def test_same_seed_replays_same_trace(self):
        machines = [_sim_machine(4, **{"schedule_seed": 11}) for _ in range(2)]
        runs = [m.run(_ring_pass, 0).results for m in machines]
        traces = [m.backend.last_schedule for m in machines]
        assert runs[0] == runs[1]
        assert traces[0] == traces[1] and len(traces[0]) > 0

    def test_different_seeds_explore_different_interleavings(self):
        traces = set()
        for seed in range(8):
            machine = _sim_machine(4, **{"schedule_seed": seed})
            machine.run(_ring_pass, 0)
            traces.add(tuple(machine.backend.last_schedule))
        assert len(traces) > 1  # genuinely different schedules...
        results = {
            tuple(_sim_machine(4, seed=5, **{"schedule_seed": s}).run(_ring_pass, 0).results)
            for s in range(8)
        }
        assert len(results) == 1  # ...but identical results

    def test_run_to_block_default_is_deterministic(self):
        machine_a = _sim_machine(3)
        machine_b = _sim_machine(3)
        machine_a.run(_allreduce)
        machine_b.run(_allreduce)
        assert machine_a.backend.last_schedule == machine_b.backend.last_schedule

    def test_recorded_schedule_replays_exactly(self):
        recorder = _sim_machine(4, **{"schedule_seed": 99})
        recorded = recorder.run(_ring_pass, 7).results
        trace = recorder.backend.last_schedule
        replayer = _sim_machine(4, **{"schedule": trace})
        assert replayer.run(_ring_pass, 7).results == recorded
        assert replayer.backend.last_schedule == trace

    def test_truncated_schedule_still_valid(self):
        recorder = _sim_machine(4, **{"schedule_seed": 2})
        recorder.run(_ring_pass, 7)
        half = recorder.backend.last_schedule[: len(recorder.backend.last_schedule) // 2]
        results = _sim_machine(4, **{"schedule": half}).run(_ring_pass, 7).results
        assert results == [10, 7, 8, 9]  # rank i receives 7 + left neighbour

    def test_schedule_options_validated(self):
        with pytest.raises(ValidationError):
            SimBackend(schedule_seed="not-an-int")
        with pytest.raises(ValidationError):
            SimBackend(schedule="nonsense")
        with pytest.raises(ValidationError, match="does not accept"):
            PROMachine(2, backend="thread", backend_options={"schedule_seed": 1})


class TestFailFast:
    def test_deadlock_detected_without_waiting_for_timeout(self):
        def starved(ctx):
            if ctx.rank == 0:
                return ctx.comm.recv(1, tag=5)  # never sent
            return None

        machine = PROMachine(2, seed=0, backend="sim", timeout=3600.0)
        start = time.perf_counter()
        with pytest.raises(BackendError, match="deadlock"):
            machine.run(starved)
        assert time.perf_counter() - start < 5.0  # not the 3600s timeout

    def test_barrier_deadlock_detected(self):
        def half_barrier(ctx):
            if ctx.rank != 0:
                ctx.comm.barrier()  # rank 0 never arrives
            return None

        with pytest.raises(BackendError, match="barrier"):
            PROMachine(3, seed=0, backend="sim", timeout=3600.0).run(half_barrier)

    def test_crash_prefers_root_cause_over_symptom(self):
        def crash(ctx):
            if ctx.rank == 2:
                raise RuntimeError("genuine bug on rank 2")
            ctx.comm.barrier()
            return ctx.rank

        with pytest.raises(BackendError, match="rank 2") as excinfo:
            _sim_machine(4).run(crash)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_keyboard_interrupt_propagates_unwrapped(self):
        def interrupt(ctx):
            if ctx.rank == 1:
                raise KeyboardInterrupt
            ctx.comm.barrier()

        with pytest.raises(KeyboardInterrupt):
            _sim_machine(2).run(interrupt)

    def test_failing_run_still_records_its_schedule(self):
        def crash(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom")
            ctx.comm.barrier()

        machine = _sim_machine(3, **{"schedule_seed": 8})
        with pytest.raises(BackendError):
            machine.run(crash)
        assert machine.backend.last_schedule  # the reproducer is available

    def test_fabric_unusable_outside_a_run(self):
        fabric = SimFabric(2)
        with pytest.raises(BackendError, match="sim fabric"):
            fabric.put(0, 1, "tag", None)
        with pytest.raises(BackendError):
            fabric.barrier_wait()

    def test_foreign_contexts_rejected(self):
        backend = get_backend("sim")
        thread_machine = PROMachine(2, seed=0)
        contexts = thread_machine._build_contexts()
        with pytest.raises(BackendError, match="SimFabric"):
            backend.run(contexts, _allreduce, (), {})

    def test_abort_breaks_later_barriers(self):
        def late_barrier(ctx):
            if ctx.rank == 0:
                ctx.comm._fabric.abort()
                with pytest.raises(CommunicationError):
                    ctx.comm.barrier()
            return "survived"

        assert _sim_machine(1).run(late_barrier).results == ["survived"]


class TestRunIntrospection:
    """Partial traces, decision/op logs, policies, decision bounds.

    The exploration layer (``repro.pro.explore``) is built entirely on
    these surfaces; their semantics are pinned here, next to the backend.
    """

    def test_mid_run_raise_records_partial_trace_and_logs(self):
        def crash_after_talking(ctx):
            ctx.comm.send(ctx.rank, (ctx.rank + 1) % ctx.n_procs, tag=1)
            got = ctx.comm.recv((ctx.rank - 1) % ctx.n_procs, tag=1)
            if ctx.rank == 1:
                raise RuntimeError("boom mid-run")
            return got

        machine = _sim_machine(3)
        with pytest.raises(BackendError, match="boom mid-run"):
            machine.run(crash_after_talking)
        backend = machine.backend
        assert backend.last_schedule  # partial, but present
        assert backend.last_decisions
        assert backend.last_op_log
        # Decision log and trace describe the same run.
        assert [d[2] for d in backend.last_decisions] == backend.last_schedule
        # The replay of the partial trace is a valid schedule (prefix
        # semantics): the same crash reproduces under it.
        replay = _sim_machine(3, schedule=backend.last_schedule)
        with pytest.raises(BackendError, match="boom mid-run"):
            replay.run(crash_after_talking)

    def test_keyboard_interrupt_still_records_partial_trace(self):
        def interrupt(ctx):
            ctx.comm.barrier()
            if ctx.rank == 1:
                raise KeyboardInterrupt
            ctx.comm.barrier()

        machine = _sim_machine(2)
        with pytest.raises(KeyboardInterrupt):
            machine.run(interrupt)
        assert machine.backend.last_schedule
        assert machine.backend.last_op_log  # the first barrier completed

    def test_stale_trace_cleared_when_a_new_run_starts(self):
        backend = SimBackend()
        machine = PROMachine(2, seed=0, backend=backend)
        machine.run(_allreduce)
        assert backend.last_schedule
        # A run that is rejected before any rank steps must not leave the
        # previous run's trace looking like its own.
        thread_machine = PROMachine(2, seed=0)
        contexts = thread_machine._build_contexts()
        with pytest.raises(BackendError, match="SimFabric"):
            backend.run(contexts, _allreduce, (), {})
        assert backend.last_schedule is None
        assert backend.last_decisions is None
        assert backend.last_op_log is None

    def test_op_log_matches_the_programs_communication(self):
        machine = _sim_machine(2)
        machine.run(_ring_pass, 7)
        ops = machine.backend.last_op_log
        assert ops.count(("put", 0, 1)) == 1
        assert ops.count(("put", 1, 0)) == 1
        assert ops.count(("get", 1, 0)) == 1  # rank 0 receives from rank 1
        assert ops.count(("get", 0, 1)) == 1
        assert sum(1 for op in ops if op[0] == "barrier") == 2
        # Decisions carry the pending ops of every runnable rank.
        kinds = {op[0] for _, pendings, _ in machine.backend.last_decisions
                 for op in pendings if op is not None}
        assert kinds <= {"put", "get", "barrier"}

    def test_policy_steers_the_schedule(self):
        class HighestFirst:
            def choose(self, step, runnable, pending):
                assert set(pending) == set(runnable)
                return max(runnable)

        machine = _sim_machine(3, policy=HighestFirst())
        run = machine.run(_allreduce)
        assert run.results == [3, 3, 3]
        # The first decision went to the highest rank, not run-to-block's 0.
        assert machine.backend.last_schedule[0] == 2

    def test_policy_and_schedule_seed_are_mutually_exclusive(self):
        class AnyPolicy:
            def choose(self, step, runnable, pending):
                return runnable[0]

        with pytest.raises(ValidationError, match="mutually exclusive"):
            SimBackend(schedule_seed=1, policy=AnyPolicy())
        with pytest.raises(ValidationError, match="choose"):
            SimBackend(policy=object())

    def test_max_decisions_surfaces_hangs_in_bounded_time(self):
        from repro.pro.backends.sim import ScheduleLimitExceeded

        machine = _sim_machine(3, max_decisions=2)
        with pytest.raises(ScheduleLimitExceeded, match="2 decisions"):
            machine.run(_ring_pass, 0)
        # The partial trace up to the bound is still available for replay.
        assert len(machine.backend.last_schedule) == 2

    def test_max_decisions_validation(self):
        with pytest.raises(ValidationError, match="max_decisions"):
            SimBackend(max_decisions=0)
        with pytest.raises(ValidationError, match="max_decisions"):
            SimBackend(max_decisions="lots")

    def test_generous_max_decisions_changes_nothing(self):
        plain = _sim_machine(4).run(_allreduce).results
        bounded = _sim_machine(4, max_decisions=10_000).run(_allreduce).results
        assert bounded == plain
