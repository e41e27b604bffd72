"""Unit tests for Algorithm 1 (parallel permutation) and its front ends."""

import gc
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.blocks import BlockDistribution
from repro.core.permutation import (
    local_shuffle,
    parallel_permutation_program,
    permute_distributed,
    random_permutation,
    random_permutation_indices,
)
from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
from repro.pro.machine import PROMachine
from repro.pro.resilience import RetryPolicy
from repro.util.errors import BackendError, ValidationError
from repro.util.timeouts import scale_timeout


class TestLocalShuffle:
    def test_preserves_multiset(self, rng):
        data = np.array([5, 5, 1, 2, 9])
        out = local_shuffle(data, rng)
        assert sorted(out.tolist()) == sorted(data.tolist())

    def test_does_not_modify_input(self, rng):
        data = np.arange(10)
        local_shuffle(data, rng)
        assert np.array_equal(data, np.arange(10))

    def test_empty_and_single(self, rng):
        assert local_shuffle(np.empty(0), rng).size == 0
        assert local_shuffle(np.array([7]), rng).tolist() == [7]


class TestLocalShuffleInPlace:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_out_matches_the_copying_path(self, dtype):
        values = np.arange(257).astype(dtype)
        expected = local_shuffle(values, np.random.default_rng(5))
        out = np.empty_like(values)
        result = local_shuffle(values, np.random.default_rng(5), out=out)
        assert result is out
        assert np.array_equal(out, expected)
        assert np.array_equal(values, np.arange(257))  # the source is left alone

    def test_out_may_be_the_input(self):
        expected = local_shuffle(np.arange(257), np.random.default_rng(6))
        values = np.arange(257)
        result = local_shuffle(values, np.random.default_rng(6), out=values)
        assert result is values
        assert np.array_equal(values, expected)

    def test_empty_and_single_in_place(self, rng):
        empty, single = np.empty(0), np.array([7])
        assert local_shuffle(empty, rng, out=empty) is empty
        assert local_shuffle(single, rng, out=single).tolist() == [7]


class TestPermuteDistributed:
    def test_preserves_items_and_sizes(self, machine4):
        blocks = [np.arange(i * 10, i * 10 + 6) for i in range(4)]
        out_blocks, run = permute_distributed(blocks, machine=machine4)
        assert [len(b) for b in out_blocks] == [6, 6, 6, 6]
        merged = np.concatenate(out_blocks)
        assert sorted(merged.tolist()) == sorted(np.concatenate(blocks).tolist())
        assert run.n_procs == 4

    def test_uneven_blocks(self, machine3):
        blocks = [np.arange(0, 3), np.arange(3, 10), np.arange(10, 12)]
        out_blocks, _ = permute_distributed(blocks, machine=machine3)
        assert [len(b) for b in out_blocks] == [3, 7, 2]
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(12))

    def test_explicit_target_sizes(self, machine3):
        blocks = [np.arange(0, 8), np.arange(8, 10), np.arange(10, 12)]
        out_blocks, _ = permute_distributed(blocks, machine=machine3, target_sizes=[4, 4, 4])
        assert [len(b) for b in out_blocks] == [4, 4, 4]
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(12))

    def test_target_sizes_must_sum(self, machine3):
        blocks = [np.arange(4), np.arange(4), np.arange(4)]
        with pytest.raises((ValidationError, BackendError)):
            permute_distributed(blocks, machine=machine3, target_sizes=[4, 4, 5])

    def test_target_sizes_wrong_length(self, machine3):
        blocks = [np.arange(4), np.arange(4), np.arange(4)]
        with pytest.raises((ValidationError, BackendError)):
            permute_distributed(blocks, machine=machine3, target_sizes=[6, 6])

    @pytest.mark.parametrize("matrix_algorithm", ["root", "alg5", "alg6"])
    def test_all_matrix_algorithms(self, matrix_algorithm):
        blocks = [np.arange(i * 5, (i + 1) * 5) for i in range(5)]
        out_blocks, _ = permute_distributed(
            blocks, matrix_algorithm=matrix_algorithm, seed=7
        )
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(25))

    def test_unknown_matrix_algorithm(self, machine2):
        blocks = [np.arange(3), np.arange(3)]
        with pytest.raises((ValidationError, BackendError)):
            permute_distributed(blocks, machine=machine2, matrix_algorithm="alg9")

    def test_empty_blocks_allowed(self, machine3):
        blocks = [np.arange(5), np.empty(0, dtype=np.int64), np.arange(5, 8)]
        out_blocks, _ = permute_distributed(blocks, machine=machine3)
        assert [len(b) for b in out_blocks] == [5, 0, 3]

    def test_no_blocks_rejected(self):
        with pytest.raises(ValidationError):
            permute_distributed([])

    def test_machine_size_mismatch(self, machine2):
        with pytest.raises(ValidationError):
            permute_distributed([np.arange(2)] * 3, machine=machine2)

    def test_object_payloads(self, machine2):
        blocks = [np.array(["a", "b", "c"], dtype=object), np.array(["d", "e"], dtype=object)]
        out_blocks, _ = permute_distributed(blocks, machine=machine2)
        assert sorted(np.concatenate(out_blocks).tolist()) == ["a", "b", "c", "d", "e"]

    def test_structured_payloads(self, machine2):
        dtype = [("key", np.int64), ("value", np.float64)]
        data = np.zeros(8, dtype=dtype)
        data["key"] = np.arange(8)
        data["value"] = np.arange(8) * 0.5
        blocks = [data[:5], data[5:]]
        out_blocks, _ = permute_distributed(blocks, machine=machine2)
        merged = np.concatenate(out_blocks)
        assert sorted(merged["key"].tolist()) == list(range(8))
        # records stay intact: value must still be key / 2
        assert np.allclose(np.sort(merged["value"]), np.arange(8) * 0.5)

    def test_work_is_balanced(self):
        blocks = [np.arange(i * 100, (i + 1) * 100) for i in range(4)]
        _, run = permute_distributed(blocks, seed=3)
        assert run.cost_report.imbalance("compute_ops") < 1.5
        assert run.cost_report.imbalance("words_sent") < 2.0


class TestRandomPermutation:
    def test_output_is_permutation_of_input(self):
        out = random_permutation(np.arange(100), n_procs=4, seed=0)
        assert sorted(out.tolist()) == list(range(100))

    def test_preserves_dtype(self):
        out = random_permutation(np.arange(50, dtype=np.int32), n_procs=3, seed=0)
        assert out.dtype == np.int32

    def test_accepts_lists(self):
        out = random_permutation([3, 1, 4, 1, 5, 9, 2, 6], n_procs=2, seed=0)
        assert sorted(out.tolist()) == [1, 1, 2, 3, 4, 5, 6, 9]

    def test_single_processor(self):
        out = random_permutation(np.arange(20), n_procs=1, seed=0)
        assert sorted(out.tolist()) == list(range(20))

    def test_more_processors_than_items(self):
        out = random_permutation(np.arange(3), n_procs=6, seed=0)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_empty_vector(self):
        assert random_permutation(np.empty(0, dtype=np.int64), n_procs=2, seed=0).size == 0

    def test_rejects_2d_input(self):
        with pytest.raises(ValidationError):
            random_permutation(np.zeros((3, 3)), n_procs=2)

    def test_custom_distribution(self):
        dist = BlockDistribution([7, 3])
        out = random_permutation(np.arange(10), n_procs=2, seed=1, distribution=dist)
        assert sorted(out.tolist()) == list(range(10))

    def test_distribution_total_mismatch(self):
        with pytest.raises(ValidationError):
            random_permutation(np.arange(10), n_procs=2, distribution=BlockDistribution([4, 4]))

    def test_distribution_block_count_mismatch(self):
        with pytest.raises(ValidationError):
            random_permutation(np.arange(10), n_procs=3, distribution=BlockDistribution([5, 5]))

    def test_machine_overrides_n_procs(self, machine3):
        out = random_permutation(np.arange(30), n_procs=99, machine=machine3)
        assert sorted(out.tolist()) == list(range(30))

    def test_different_seeds_give_different_orders(self):
        a = random_permutation(np.arange(200), n_procs=4, seed=1)
        b = random_permutation(np.arange(200), n_procs=4, seed=2)
        assert not np.array_equal(a, b)

    def test_actually_shuffles(self):
        out = random_permutation(np.arange(500), n_procs=4, seed=3)
        assert not np.array_equal(out, np.arange(500))


def _forbid_concatenate(monkeypatch):
    def forbidden(self, blocks):
        raise AssertionError("the driver glued the blocks back together")

    monkeypatch.setattr(BlockDistribution, "concatenate", forbidden)


def _count_concatenate(monkeypatch) -> list:
    calls = []
    original = BlockDistribution.concatenate

    def counting(self, blocks):
        calls.append(len(blocks))
        return original(self, blocks)

    monkeypatch.setattr(BlockDistribution, "concatenate", counting)
    return calls


class TestInPlaceAssembly:
    """Shared-memory ranks assemble the driver's output vector in place."""

    def test_thread_backend_never_concatenates(self, monkeypatch):
        data = np.arange(10_007)
        expected = random_permutation(data, n_procs=4, backend="sim", seed=9)
        _forbid_concatenate(monkeypatch)
        out = random_permutation(data, n_procs=4, backend="thread", seed=9)
        assert np.array_equal(out, expected)
        assert not np.shares_memory(out, data)
        assert np.array_equal(data, np.arange(10_007))

    def test_crashed_attempt_replays_into_the_same_buffer(self, monkeypatch):
        data = np.arange(5_003)
        clean = random_permutation(data, n_procs=2, backend="thread", seed=13)
        _forbid_concatenate(monkeypatch)
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=1, at_op=1, at_run=0)])
        machine = PROMachine(2, seed=13, backend=faulty, retry=2,
                             timeout=scale_timeout(10))
        recovered = random_permutation(data, machine=machine)
        assert faulty.runs_started == 2
        assert np.array_equal(recovered, clean)

    def test_fallback_into_another_address_space_concatenates(self, monkeypatch):
        data = np.arange(4_001)
        calls = _count_concatenate(monkeypatch)
        clean = random_permutation(data, n_procs=2, backend="thread", seed=21)
        assert calls == []
        faulty = FaultInjectingBackend("thread", [CrashRank(rank=0, at_op=0)])
        policy = RetryPolicy(max_attempts=1, fallback=("process",))
        machine = PROMachine(2, seed=21, backend=faulty, retry=policy,
                             timeout=scale_timeout(10))
        degraded = random_permutation(data, machine=machine)
        assert calls == [2]
        assert degraded.dtype == data.dtype
        assert np.array_equal(degraded, clean)

    def test_uneven_target_sizes_land_in_one_vector(self):
        blocks = [np.arange(0, 9), np.arange(9, 10), np.arange(10, 16)]
        targets = [2, 11, 3]
        out_blocks, _ = permute_distributed(blocks, target_sizes=targets,
                                            backend="thread", seed=4)
        copied, _ = permute_distributed(blocks, target_sizes=targets,
                                        backend="process", seed=4)
        assert [len(b) for b in out_blocks] == targets
        assert all(b.base is out_blocks[0].base is not None for b in out_blocks)
        for ours, theirs in zip(out_blocks, copied):
            assert np.array_equal(ours, theirs)

    def test_object_and_structured_payloads_in_place(self):
        dtype = [("key", np.int64), ("value", np.float64)]
        records = np.zeros(9, dtype=dtype)
        records["key"] = np.arange(9)
        records["value"] = np.arange(9) * 0.5
        words = np.array(list("abcdefghi"), dtype=object)
        for data in (records, words):
            blocks = [data[:5], data[5:]]
            out_blocks, _ = permute_distributed(blocks, backend="thread", seed=8)
            copied, _ = permute_distributed(blocks, backend="process", seed=8)
            assert out_blocks[0].base is out_blocks[1].base is not None
            assert out_blocks[0].dtype == data.dtype
            for ours, theirs in zip(out_blocks, copied):
                assert np.array_equal(ours, theirs)

    def test_mixed_dtypes_keep_the_promoting_gather(self):
        blocks = [np.arange(4, dtype=np.int32), np.arange(4, 9, dtype=np.int64)]
        out_blocks, _ = permute_distributed(blocks, backend="thread", seed=2)
        assert all(b.dtype == np.int64 for b in out_blocks)
        assert sorted(np.concatenate(out_blocks).tolist()) == list(range(9))


def _stall_writing_program(ctx, out, seconds):
    """Write into the shared output; rank 0 then stalls past the deadline."""
    import time

    out[ctx.rank::ctx.n_procs] = ctx.rank
    if ctx.rank == 0:
        time.sleep(seconds)
    return ctx.rank


def _segment_of(array):
    """Name of the by-reference shared segment ``array`` lies in, or None."""
    from repro.pro.backends.sharedmem import _BYREF

    start = array.__array_interface__["data"][0]
    for name, entry in _BYREF.items():
        if entry.address <= start and start + array.nbytes <= entry.address + entry.nbytes:
            return name
    return None


def _linked_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


#: Uneven p = 4 cells: rank 1's target slice spans rank 0's whole source
#: block and more, so every rank writes into some other rank's slice.
UNEVEN_SOURCES = (9_000, 1_000, 6_000, 4_000)
UNEVEN_TARGETS = (2_000, 11_000, 3_000, 4_000)


def _uneven_blocks():
    bounds = np.cumsum((0,) + UNEVEN_SOURCES)
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _offset_words(algorithm, p, rank):
    """What the one-sided exchange adds to a rank's cost record, by design.

    ``(words sent, words received, messages each way)``: the root program
    scatters ``(row, prefixes)`` pairs (``p`` more words in each of its
    ``p - 1`` messages); Alg. 5 and Alg. 6 run one scan exchange of
    ``2(p - 1)`` one-word messages each way per rank.
    """
    if algorithm == "root":
        return (p * (p - 1), 0, 0) if rank == 0 else (0, p, 0)
    return 2 * (p - 1), 2 * (p - 1), 2 * (p - 1)


@pytest.mark.subprocess
class TestSharedSegmentAssembly:
    """Process ranks assemble the output in one shared segment, by reference."""

    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        from repro.pro.backends.pool import clear_default_pools

        clear_default_pools()
        yield
        clear_default_pools()

    def test_output_is_the_segment_vector(self, monkeypatch, process_backend):
        from repro.pro.backends import sharedmem
        from repro.pro.backends.pool import clear_default_pools

        data = np.arange(20_011)
        expected = random_permutation(data, n_procs=3, backend="thread", seed=5)
        _forbid_concatenate(monkeypatch)
        before = _linked_segments()
        out = random_permutation(data, n_procs=3, backend=process_backend, seed=5)
        name = _segment_of(out)
        assert name is not None and out.base is not None
        # Linked while the array lives; no staging name is left.
        assert _linked_segments() - before == {name}
        process_backend.close()  # the output outlives its fleet
        clear_default_pools()
        assert name in _linked_segments()
        assert np.array_equal(out, expected)
        assert np.array_equal(data, np.arange(20_011))  # the input is untouched
        del out
        gc.collect()
        clear_default_pools()
        assert not _linked_segments() - before
        assert not sharedmem._BYREF, sharedmem._BYREF

    def test_dropped_output_leaves_no_segment(self):
        script = textwrap.dedent("""
            import gc, os
            import numpy as np
            from repro.core.permutation import random_permutation
            from repro.pro.backends import sharedmem
            from repro.pro.backends.pool import clear_default_pools

            def linked():
                return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}

            before = linked()
            out = random_permutation(np.arange(30_000), n_procs=2,
                                     backend="process", seed=1)
            assert sorted(out.tolist()) == list(range(30_000))
            (name,) = sharedmem._BYREF
            assert linked() - before == {name}  # no staging name left
            del out
            gc.collect()
            assert not sharedmem._BYREF, sharedmem._BYREF
            # The output is parked for the next call until the pools go.
            assert [entry.seg.name for entry in sharedmem._PARKED] == [name]
            clear_default_pools()
            assert not linked() - before, linked() - before
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error",
             # ...but let the resource tracker print its leak warning,
             # which -W error would turn into a swallowed exception.
             "-W", "default::UserWarning:multiprocessing.resource_tracker",
             "-c", script],
            capture_output=True, text=True, env=env,
            timeout=scale_timeout(120))
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr

    def test_warm_calls_recycle_one_segment(self):
        from repro.pro.backends import sharedmem

        data = np.arange(20_000)
        before = _linked_segments()
        names = set()
        for seed in range(50):
            out = random_permutation(data, n_procs=2, backend="process",
                                     seed=seed)
            expected = random_permutation(data, n_procs=2, backend="thread",
                                          seed=seed)
            assert np.array_equal(out, expected)
            names.add(_segment_of(out))
            assert len(_linked_segments() - before) == 1  # flat
            del out
            gc.collect()
        assert len(names) == 1  # the first call's segment, every time
        assert [entry.seg.name for entry in sharedmem._PARKED] == list(names)

    def test_a_held_output_is_never_handed_out_again(self):
        data = np.arange(20_000)
        expected = [random_permutation(data, n_procs=2, backend="thread",
                                       seed=seed) for seed in range(3)]
        out0 = random_permutation(data, n_procs=2, backend="process", seed=0)
        out1 = random_permutation(data, n_procs=2, backend="process", seed=1)
        assert _segment_of(out1) != _segment_of(out0)
        assert np.array_equal(out0, expected[0])
        name = _segment_of(out0)
        del out0
        gc.collect()  # parked now
        out2 = random_permutation(data, n_procs=2, backend="process", seed=2)
        assert _segment_of(out2) == name
        assert np.array_equal(out1, expected[1])
        assert np.array_equal(out2, expected[2])

    @pytest.mark.parametrize("failure", ["crash", "deadline"])
    def test_segment_of_a_run_that_never_returned_is_not_parked(self, failure):
        from repro.pro.backends import sharedmem
        from repro.util.errors import DeadlineError

        data = np.arange(20_000)
        before = _linked_segments()
        if failure == "crash":
            backend = FaultInjectingBackend(
                "process", [CrashRank(rank=1, at_op=1)])
            machine = PROMachine(2, seed=3, backend=backend)
            error = BackendError
        else:
            machine = PROMachine(
                2, seed=3, backend="process",
                retry=RetryPolicy(max_attempts=1, deadline=scale_timeout(0.5)),
                timeout=scale_timeout(20))
            error = DeadlineError
        out = machine.backend.empty(data.size, data.dtype)
        try:
            with pytest.raises(error) as excinfo:
                if failure == "crash":  # the driver allocates its own output
                    random_permutation(data, machine=machine)
                else:
                    machine.run(_stall_writing_program, out, scale_timeout(1.0))
        finally:
            machine.close()  # shuts the fabric down after the failure
        del excinfo, out
        gc.collect()
        assert not sharedmem._PARKED
        assert not _linked_segments() - before

    def test_uneven_targets_overwrite_other_ranks_sources(self):
        # Rank 1's target slice covers all of rank 0's and part of rank
        # 2's staged source regions; every read precedes the first barrier.
        blocks = [np.arange(0, 9_000), np.arange(9_000, 10_000),
                  np.arange(10_000, 16_000)]
        targets = [2_000, 11_000, 3_000]
        ours, _ = permute_distributed(blocks, target_sizes=targets,
                                      backend="thread", seed=4)
        theirs, _ = permute_distributed(blocks, target_sizes=targets,
                                        backend="process", seed=4)
        assert [len(b) for b in theirs] == targets
        names = {_segment_of(b) for b in theirs}
        assert len(names) == 1 and None not in names
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)
        assert np.array_equal(blocks[0], np.arange(9_000))

    def test_degrade_path_and_object_dtype_concatenate(self, monkeypatch):
        from repro.pro.backends import sharedmem

        data = np.arange(12_345)
        words = np.array([f"w{i}" for i in range(501)], dtype=object)
        expected = [random_permutation(x, n_procs=2, backend="thread", seed=3)
                    for x in (data, words)]
        calls = _count_concatenate(monkeypatch)
        with monkeypatch.context() as no_shared_memory:  # a private fleet forks it
            no_shared_memory.setattr(sharedmem, "_shm_module", None)
            no_shared_memory.setattr(sharedmem, "_PROBE", (None, False))
            with PROMachine(2, seed=3, backend="process") as machine:
                in_band = random_permutation(data, machine=machine)
        objects = random_permutation(words, n_procs=2, backend="process", seed=3)
        assert calls == [2, 2]
        assert in_band.dtype == data.dtype and objects.dtype == words.dtype
        assert np.array_equal(in_band, expected[0])
        assert objects.tolist() == expected[1].tolist()
        random_permutation(data, n_procs=2, backend="process", seed=3)
        assert calls == [2, 2]  # sharedmem with a plain dtype stays in place

    def test_rank_death_while_writing_the_output_replays_exactly(
            self, monkeypatch, tmp_path):
        # Rank 1 of a standing pool dies in superstep 3 of the first
        # attempt, after the pieces were written into its slice of the
        # shared output and after rank 0 has shuffled its own.  Had the driver staged the
        # input in that vector, the replay would read the half-written
        # slices as input; under a RetryPolicy it must not stage.
        import multiprocessing
        import time

        from repro.core import permutation

        data = np.arange(40_000)
        clean = random_permutation(data, n_procs=2, backend="thread", seed=17)
        marker = tmp_path / "died"
        marker.touch()  # disarmed for the warm-up run
        real_shuffle = permutation.local_shuffle

        def dying_shuffle(values, rng, *, out=None):
            if (out is not None
                    and multiprocessing.current_process().name == "pro-pool-1"):
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    time.sleep(0.2)  # let rank 0 finish writing its slice
                    os._exit(1)
            return real_shuffle(values, rng, out=out)

        monkeypatch.setattr(permutation, "local_shuffle", dying_shuffle)
        machine = PROMachine(2, seed=17, backend="process",
                             retry=2, timeout=scale_timeout(20))
        try:
            random_permutation(data, machine=machine)  # spawns the pool warm
            marker.unlink()
            machine = PROMachine(2, seed=17, backend=machine.backend, retry=2,
                                 timeout=scale_timeout(20))
            recovered = random_permutation(data, machine=machine)
        finally:
            machine.close()
        assert marker.exists()  # the first attempt really died
        assert np.array_equal(recovered, clean)
        assert _segment_of(recovered) is not None  # the replay stayed in place

    @pytest.mark.parametrize("algorithm,uneven", [
        ("root", False), ("alg5", True), ("alg6", True),
    ])
    def test_rank_death_after_its_writes_replays_exactly(
            self, monkeypatch, tmp_path, algorithm, uneven):
        # Rank 0 of a standing pool writes its pieces into the other
        # ranks' slices of the shared output, then dies before the
        # superstep-2 barrier of the first attempt (a module-level hook:
        # the pool forks after the patch).  The replay rewrites every
        # position of the output, so the result is the fault-free one.
        import multiprocessing

        from repro.pro.communicator import Communicator

        if uneven:
            blocks, targets = _uneven_blocks(), UNEVEN_TARGETS
        else:
            blocks, targets = [np.arange(0, 20_000), np.arange(20_000, 40_000)], None
        p = len(blocks)
        clean, _ = permute_distributed(blocks, target_sizes=targets, backend="thread",
                                       seed=17, matrix_algorithm=algorithm)
        marker = tmp_path / "died"
        marker.touch()  # disarmed for the warm-up run
        real_alltoallv = Communicator.alltoallv

        def dying_alltoallv(self, arrays, *, out=None, offsets=None):
            received = real_alltoallv(self, arrays, out=out, offsets=offsets)
            if (out is not None
                    and multiprocessing.current_process().name == "pro-pool-0"):
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL)
                except FileExistsError:
                    pass
                else:
                    os.close(fd)
                    os._exit(1)
            return received

        monkeypatch.setattr(Communicator, "alltoallv", dying_alltoallv)
        machine = PROMachine(p, seed=17, backend="process",
                             retry=2, timeout=scale_timeout(20))
        try:
            permute_distributed(blocks, target_sizes=targets, machine=machine,
                                matrix_algorithm=algorithm)  # spawns the pool
            marker.unlink()
            machine = PROMachine(p, seed=17, backend=machine.backend, retry=2,
                                 timeout=scale_timeout(20))
            recovered, run = permute_distributed(
                blocks, target_sizes=targets, machine=machine,
                matrix_algorithm=algorithm)
        finally:
            machine.close()
        assert marker.exists()  # the first attempt really died
        assert run.cost_report.retries == 1
        for ours, theirs in zip(recovered, clean):
            assert np.array_equal(ours, theirs)
        names = {_segment_of(block) for block in recovered}
        assert len(names) == 1 and None not in names  # still the segment vector


class TestOneSidedExchange:
    """Senders write their pieces straight into the receivers' slices."""

    @pytest.mark.parametrize(
        "backend", ["thread", pytest.param("process", marks=pytest.mark.subprocess)])
    @pytest.mark.parametrize("algorithm", ["root", "alg5", "alg6"])
    def test_cost_report_matches_alltoallv_up_to_offset_words(self, backend, algorithm):
        # The two-sided path: the same program without output slices.
        blocks, p = _uneven_blocks(), len(UNEVEN_SOURCES)
        ours, one_sided = permute_distributed(
            blocks, target_sizes=UNEVEN_TARGETS, backend=backend, seed=6,
            matrix_algorithm=algorithm)
        machine = PROMachine(p, seed=6, backend=backend)
        try:
            two_sided = machine.run(parallel_permutation_program, blocks,
                                    UNEVEN_TARGETS, matrix_algorithm=algorithm)
        finally:
            machine.close()
        for a, b in zip(ours, two_sided.results):
            assert np.array_equal(a, b)
        fields = ("words_sent", "words_received", "messages_sent",
                  "messages_received")
        for rank, (mine, theirs) in enumerate(zip(
                one_sided.cost_report.per_rank_totals(),
                two_sided.cost_report.per_rank_totals())):
            sent, received, messages = _offset_words(algorithm, p, rank)
            assert mine["words_sent"] - theirs["words_sent"] == sent
            assert mine["words_received"] - theirs["words_received"] == received
            assert mine["messages_sent"] - theirs["messages_sent"] == messages
            assert mine["messages_received"] - theirs["messages_received"] == messages
            for field in set(mine) - set(fields):
                assert mine[field] == theirs[field], field

    def test_out_that_is_not_shared_is_not_used(self):
        # Slices the fabric does not share (a fork's private copies, say)
        # are left alone: the pieces cross the fabric into arrays of the
        # ranks' own, charged exactly like a run without ``out``.
        class PrivateFabric:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def is_shared(self, array):
                return False

        def program(ctx, blocks, out):
            ctx.comm._fabric = PrivateFabric(ctx.comm._fabric)
            return parallel_permutation_program(ctx, blocks, out=out)

        blocks = [np.arange(0, 700), np.arange(700, 1000)]
        out = [np.full(700, -1), np.full(300, -1)]
        private = PROMachine(2, seed=3).run(program, blocks, out)
        plain = PROMachine(2, seed=3).run(parallel_permutation_program, blocks)
        assert all((o == -1).all() for o in out)
        for a, b in zip(private.results, plain.results):
            assert np.array_equal(a, b)
        assert (private.cost_report.per_rank_totals()
                == plain.cost_report.per_rank_totals())


class TestRandomPermutationIndices:
    def test_returns_permutation(self):
        perm = random_permutation_indices(16, n_procs=4, seed=5)
        assert sorted(perm.tolist()) == list(range(16))

    def test_zero_length(self):
        assert random_permutation_indices(0, n_procs=2, seed=0).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            random_permutation_indices(-1)


class TestProgramValidation:
    def test_wrong_block_count_inside_program(self, machine2):
        def program(ctx):
            return parallel_permutation_program(ctx, [np.arange(3)])
        with pytest.raises(BackendError):
            machine2.run(program)

    def test_supersteps_recorded(self):
        blocks = [np.arange(20), np.arange(20, 40)]
        _, run = permute_distributed(blocks, seed=0)
        # At least: shuffle barrier + exchange barrier.
        assert run.cost_report.n_supersteps() >= 3


def test_import_loads_the_rank_modules():
    """A rank forked from a parent that only imported the driver finds the
    engine already loaded, so a rank respawned by heal() imports nothing on
    its first epoch; the perfbench-only ``repro.core.kernels`` stays unloaded."""
    script = ("import sys, repro.core.permutation; "
              "assert 'repro.core.engine' in sys.modules; "
              "kernels = [m for m in sys.modules if m.startswith('repro.core.kernels')]; "
              "assert not kernels, kernels")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=scale_timeout(60))
    assert proc.returncode == 0, proc.stderr
