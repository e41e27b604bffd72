"""Unit tests for PROMachine, ProcessorContext and the backends."""

import numpy as np
import pytest

from repro.pro.backends.inline import InlineBackend
from repro.pro.machine import PROMachine
from repro.pro.topology import Ring
from repro.rng.counting import CountingRNG
from repro.util.errors import BackendError, ValidationError
from repro.util.timeouts import scale_timeout


class TestConstruction:
    def test_basic(self):
        machine = PROMachine(4, seed=0)
        assert machine.n_procs == 4
        assert "thread" in repr(machine)

    def test_zero_procs_rejected(self):
        with pytest.raises(ValidationError):
            PROMachine(0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            PROMachine(2, backend="gpu")

    def test_inline_backend_requires_single_proc(self):
        with pytest.raises(ValidationError):
            PROMachine(2, backend="inline")
        assert PROMachine(1, backend="inline").n_procs == 1

    def test_close_and_context_manager_are_noops_in_process(self):
        machine = PROMachine(2, seed=0)
        machine.close()
        machine.close()  # idempotent
        with PROMachine(2, seed=0) as scoped:
            assert scoped.run(lambda ctx: ctx.rank).results == [0, 1]

    def test_custom_backend_object(self):
        machine = PROMachine(1, backend=InlineBackend())
        assert machine.run(lambda ctx: ctx.rank).results == [0]

    def test_backend_object_without_run_rejected(self):
        with pytest.raises(ValidationError):
            PROMachine(1, backend=object())

    def test_topology_by_name(self):
        machine = PROMachine(4, topology="ring")
        assert isinstance(machine.topology, Ring)

    def test_topology_instance_size_checked(self):
        with pytest.raises(ValidationError):
            PROMachine(4, topology=Ring(3))

    def test_unknown_topology_name(self):
        with pytest.raises(ValidationError):
            PROMachine(4, topology="moebius")


class TestRun:
    def test_results_ordered_by_rank(self):
        machine = PROMachine(5, seed=0)
        assert machine.run(lambda ctx: ctx.rank * 2).results == [0, 2, 4, 6, 8]

    def test_program_args_and_kwargs_forwarded(self):
        machine = PROMachine(3, seed=0)
        def program(ctx, offset, scale=1):
            return (ctx.rank + offset) * scale
        assert machine.run(program, 10, scale=2).results == [20, 22, 24]

    def test_non_callable_program_rejected(self):
        with pytest.raises(ValidationError):
            PROMachine(2).run("not callable")

    def test_context_fields(self):
        machine = PROMachine(3, seed=0)
        def program(ctx):
            return (ctx.rank, ctx.n_procs, ctx.is_root)
        results = machine.run(program).results
        assert results[0] == (0, 3, True)
        assert results[2] == (2, 3, False)

    def test_rng_streams_differ_per_rank(self):
        machine = PROMachine(4, seed=7)
        results = machine.run(lambda ctx: tuple(ctx.rng.integers(0, 2**31, 4).tolist())).results
        assert len(set(results)) == 4

    def test_same_seed_same_first_run(self):
        a = PROMachine(3, seed=5).run(lambda ctx: ctx.rng.integers(0, 1000, 3).tolist()).results
        b = PROMachine(3, seed=5).run(lambda ctx: ctx.rng.integers(0, 1000, 3).tolist()).results
        assert a == b

    def test_consecutive_runs_use_fresh_randomness(self):
        machine = PROMachine(3, seed=5)
        first = machine.run(lambda ctx: ctx.rng.integers(0, 10**9)).results
        second = machine.run(lambda ctx: ctx.rng.integers(0, 10**9)).results
        assert first != second

    def test_wall_clock_positive(self):
        assert PROMachine(2, seed=0).run(lambda ctx: None).wall_clock_seconds > 0

    def test_exception_in_rank_becomes_backend_error(self):
        def program(ctx):
            if ctx.rank == 1:
                raise RuntimeError("boom on rank 1")
            ctx.comm.barrier()
        with pytest.raises(BackendError, match="rank 1"):
            PROMachine(3, seed=0, timeout=scale_timeout(5)).run(program)

    def test_count_random_variates(self):
        machine = PROMachine(2, seed=0, count_random_variates=True)
        def program(ctx):
            assert isinstance(ctx.rng, CountingRNG)
            ctx.rng.random(10)
            return None
        result = machine.run(program)
        assert result.cost_report.total("random_variates") == 20

    def test_log_compute_and_variates(self):
        machine = PROMachine(2, seed=0)
        def program(ctx):
            ctx.log_compute(11)
            ctx.log_random_variates(3)
            return None
        report = machine.run(program).cost_report
        assert report.total("compute_ops") == 22
        assert report.total("random_variates") == 6

    def test_run_result_accessors(self):
        machine = PROMachine(2, seed=0)
        res = machine.run(lambda ctx: ctx.rank)
        assert res.result() == 0
        assert res.result(1) == 1
        assert res.n_procs == 2

    def test_predicted_time_from_run_result(self):
        from repro.pro.cost import LAPTOP_PYTHON_PARAMETERS
        machine = PROMachine(2, seed=0)
        def program(ctx):
            ctx.log_compute(1000)
            return None
        res = machine.run(program)
        assert res.predicted_time(LAPTOP_PYTHON_PARAMETERS) > 0


class TestMapBlocks:
    def test_applies_function_per_rank(self):
        machine = PROMachine(3, seed=0)
        blocks = [np.arange(3), np.arange(4), np.arange(5)]
        results = machine.map_blocks(lambda ctx, block: int(block.sum()) + ctx.rank, blocks)
        assert results == [3, 7, 12]

    def test_wrong_block_count_rejected(self):
        machine = PROMachine(3, seed=0)
        with pytest.raises(ValidationError):
            machine.map_blocks(lambda ctx, block: None, [np.arange(2)])


class TestInlineBackend:
    def test_single_rank_collectives_work(self):
        machine = PROMachine(1, backend="inline", seed=0)
        def program(ctx):
            ctx.comm.barrier()
            return ctx.comm.allreduce(5)
        assert machine.run(program).results == [5]

    def test_rejects_multiple_contexts(self):
        backend = InlineBackend()
        with pytest.raises(BackendError):
            backend.run([object(), object()], lambda ctx: None, (), {})
