"""Unit tests for the communicator (point-to-point and collectives).

All multi-rank behaviour is exercised through small PROMachine runs with the
thread backend -- that is the supported way to use a communicator.
"""

import operator

import numpy as np
import pytest

from repro.pro.communicator import payload_words
from repro.pro.machine import PROMachine
from repro.util.errors import BackendError


def run(n_procs, program, **kwargs):
    machine = PROMachine(n_procs, seed=1, **kwargs)
    return machine.run(program).results


class TestPayloadWords:
    def test_none_is_zero(self):
        assert payload_words(None) == 0

    def test_scalar_is_one(self):
        assert payload_words(7) == 1
        assert payload_words(3.5) == 1
        assert payload_words(np.int64(2)) == 1

    def test_numpy_array_counts_elements(self):
        assert payload_words(np.zeros((3, 4))) == 12

    def test_string_counts_words(self):
        assert payload_words("x" * 17) == 3

    def test_containers_recurse(self):
        assert payload_words([np.zeros(3), 2, None]) == 4
        assert payload_words((1, 2)) == 2

    def test_dict_counts_values_and_keys(self):
        assert payload_words({"a": np.zeros(5)}) == 6

    def test_unknown_object_is_one(self):
        class Thing:
            pass
        assert payload_words(Thing()) == 1


class TestPointToPoint:
    def test_send_recv_pair(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send({"value": 42}, dest=1)
                return None
            return ctx.comm.recv(0)
        results = run(2, program)
        assert results[1] == {"value": 42}

    def test_message_order_preserved(self):
        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    ctx.comm.send(i, dest=1)
                return None
            return [ctx.comm.recv(0) for _ in range(5)]
        assert run(2, program)[1] == [0, 1, 2, 3, 4]

    def test_tag_matching_out_of_order(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send("first", dest=1, tag=1)
                ctx.comm.send("second", dest=1, tag=2)
                return None
            second = ctx.comm.recv(0, tag=2)
            first = ctx.comm.recv(0, tag=1)
            return (first, second)
        assert run(2, program)[1] == ("first", "second")

    def test_self_send_recv(self):
        def program(ctx):
            ctx.comm.send("loop", dest=ctx.rank, tag=9)
            return ctx.comm.recv(ctx.rank, tag=9)
        assert run(2, program) == ["loop", "loop"]

    def test_sendrecv_exchange(self):
        def program(ctx):
            partner = 1 - ctx.rank
            return ctx.comm.sendrecv(f"from {ctx.rank}", dest=partner, source=partner)
        results = run(2, program)
        assert results == ["from 1", "from 0"]

    def test_numpy_payload_roundtrip(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(np.arange(10), dest=1)
                return None
            return ctx.comm.recv(0)
        assert np.array_equal(run(2, program)[1], np.arange(10))

    def test_invalid_destination_raises(self):
        def program(ctx):
            ctx.comm.send(1, dest=5)
        with pytest.raises(BackendError):
            run(2, program)

    def test_recv_timeout_raises_communication_error(self):
        def program(ctx):
            if ctx.rank == 1:
                ctx.comm.recv(0, tag=77)  # never sent
            return None
        from repro.util.timeouts import scale_timeout

        machine = PROMachine(2, seed=0, timeout=scale_timeout(0.3))
        with pytest.raises(BackendError) as excinfo:
            machine.run(program)
        assert "timed out" in str(excinfo.value) or "failed" in str(excinfo.value)


class TestCollectives:
    def test_barrier_increments_superstep(self):
        def program(ctx):
            ctx.comm.barrier()
            ctx.comm.barrier()
            return ctx.cost.current_superstep
        assert run(3, program) == [2, 2, 2]

    @pytest.mark.parametrize("n_procs", [1, 2, 3, 4, 5, 8])
    def test_bcast_from_root_zero(self, n_procs):
        def program(ctx):
            payload = {"data": list(range(5))} if ctx.rank == 0 else None
            return ctx.comm.bcast(payload, root=0)
        results = run(n_procs, program)
        assert all(r == {"data": [0, 1, 2, 3, 4]} for r in results)

    def test_bcast_from_nonzero_root(self):
        def program(ctx):
            payload = "hello" if ctx.rank == 2 else None
            return ctx.comm.bcast(payload, root=2)
        assert run(5, program) == ["hello"] * 5

    @pytest.mark.parametrize("n_procs", [1, 2, 3, 5, 8])
    def test_reduce_sum(self, n_procs):
        def program(ctx):
            return ctx.comm.reduce(ctx.rank + 1, root=0)
        results = run(n_procs, program)
        assert results[0] == sum(range(1, n_procs + 1))
        assert all(r is None for r in results[1:])

    def test_reduce_non_default_root_and_op(self):
        def program(ctx):
            return ctx.comm.reduce(ctx.rank + 1, op=operator.mul, root=1)
        results = run(4, program)
        assert results[1] == 24

    @pytest.mark.parametrize("n_procs", [1, 2, 3, 4, 7])
    def test_allreduce(self, n_procs):
        def program(ctx):
            return ctx.comm.allreduce(ctx.rank)
        assert run(n_procs, program) == [sum(range(n_procs))] * n_procs

    def test_allreduce_max(self):
        def program(ctx):
            return ctx.comm.allreduce(ctx.rank * 10, op=max)
        assert run(4, program) == [30, 30, 30, 30]

    def test_gather(self):
        def program(ctx):
            return ctx.comm.gather(ctx.rank ** 2, root=0)
        results = run(4, program)
        assert results[0] == [0, 1, 4, 9]
        assert results[1] is None

    def test_allgather(self):
        def program(ctx):
            return ctx.comm.allgather(chr(ord("a") + ctx.rank))
        assert run(3, program) == [["a", "b", "c"]] * 3

    def test_scatter(self):
        def program(ctx):
            objs = [i * 100 for i in range(ctx.n_procs)] if ctx.rank == 0 else None
            return ctx.comm.scatter(objs, root=0)
        assert run(4, program) == [0, 100, 200, 300]

    def test_scatter_wrong_length_raises(self):
        # Non-root ranks are recv-blocked when the root's validation
        # error aborts the run; on the thread backend they would sit out
        # the full communication timeout (this test used to take 60s).
        # The sim backend proves the deadlock immediately instead.
        def program(ctx):
            objs = [1, 2] if ctx.rank == 0 else None
            return ctx.comm.scatter(objs, root=0)
        with pytest.raises(BackendError, match="rank 0"):
            run(3, program, backend="sim")

    def test_alltoall(self):
        def program(ctx):
            payloads = [f"{ctx.rank}->{dest}" for dest in range(ctx.n_procs)]
            return ctx.comm.alltoall(payloads)
        results = run(3, program)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length(self):
        def program(ctx):
            return ctx.comm.alltoall([1])
        with pytest.raises(BackendError):
            run(3, program)

    def test_alltoallv_arrays(self):
        def program(ctx):
            arrays = [np.full(dest + 1, ctx.rank) for dest in range(ctx.n_procs)]
            received = ctx.comm.alltoallv(arrays)
            return [r.tolist() for r in received]
        results = run(3, program)
        # rank 2 receives arrays of length 3 from every source
        assert results[2] == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]

    def test_scan_inclusive(self):
        def program(ctx):
            return ctx.comm.scan(ctx.rank + 1)
        assert run(4, program) == [1, 3, 6, 10]

    def test_scan_exclusive(self):
        def program(ctx):
            return ctx.comm.scan(ctx.rank + 1, inclusive=False)
        assert run(4, program) == [None, 1, 3, 6]

    def test_consecutive_collectives_do_not_mix(self):
        def program(ctx):
            first = ctx.comm.bcast(ctx.rank if ctx.rank == 0 else None, root=0)
            second = ctx.comm.bcast(ctx.rank if ctx.rank == 1 else None, root=1)
            total = ctx.comm.allreduce(1)
            return (first, second, total)
        results = run(4, program)
        assert all(r == (0, 1, 4) for r in results)

    def test_communication_is_charged_to_cost(self):
        def program(ctx):
            ctx.comm.bcast(np.zeros(100) if ctx.rank == 0 else None, root=0)
            return None
        machine = PROMachine(4, seed=0)
        run_result = machine.run(program)
        assert run_result.cost_report.total("words_sent") >= 300  # 3 tree edges x 100 words


def _uneven_pieces(rank, n_procs):
    """Rank ``rank``'s piece for every target: ``rank + dst + 1`` copies of its rank."""
    return [np.full(rank + dst + 1, rank) for dst in range(n_procs)]


class TestOneSidedAlltoallv:
    """alltoallv(..., out=, offsets=): senders write into shared slices."""

    P = 3

    def _targets(self):
        # out[j] holds every rank's piece for j: sum_i (i + j + 1) items.
        return [np.full(sum(i + j + 1 for i in range(self.P)), -1)
                for j in range(self.P)]

    @staticmethod
    def _offsets(rank, n_procs):
        # The column prefixes of the piece sizes: sum_{k<rank} (k + j + 1).
        return [sum(k + j + 1 for k in range(rank)) for j in range(n_procs)]

    def test_pieces_land_at_their_offsets_in_source_order(self):
        out = self._targets()

        def program(ctx, out):
            pieces = _uneven_pieces(ctx.rank, ctx.n_procs)
            assert ctx.comm.alltoallv(
                pieces, out=out, offsets=self._offsets(ctx.rank, ctx.n_procs)) is None
            ctx.comm.barrier()
            return out[ctx.rank].tolist()

        results = PROMachine(self.P, seed=1).run(program, out).results
        for j in range(self.P):
            two_sided = np.concatenate(
                [_uneven_pieces(i, self.P)[j] for i in range(self.P)])
            assert results[j] == two_sided.tolist()

    def test_charged_like_the_two_sided_exchange(self):
        def program(ctx, out):
            pieces = _uneven_pieces(ctx.rank, ctx.n_procs)
            if out is None:
                ctx.comm.alltoallv(pieces)
            else:
                ctx.comm.alltoallv(pieces, out=out,
                                   offsets=self._offsets(ctx.rank, ctx.n_procs))

        reports = [PROMachine(self.P, seed=1).run(program, out).cost_report
                   for out in (None, self._targets())]
        assert reports[0].per_rank_totals() == reports[1].per_rank_totals()

    def test_rejects_missing_offsets(self):
        def program(ctx, out):
            ctx.comm.alltoallv(_uneven_pieces(ctx.rank, ctx.n_procs), out=out)

        with pytest.raises(BackendError, match="offsets"):
            PROMachine(self.P, seed=1).run(program, self._targets())

    @pytest.mark.parametrize("backend", ["thread", "sim", "inline"])
    def test_in_process_fabrics_share_everything(self, backend):
        n_procs = 1 if backend == "inline" else 2
        results = PROMachine(n_procs, seed=1, backend=backend).run(
            lambda ctx: ctx.comm.is_shared(np.zeros(4))).results
        assert results == [True] * n_procs
