"""Backend comparison: inline vs thread vs process wall-time.

Times the two driver-level workloads -- communication-matrix sampling on a
PRO machine and the distributed permutation (Algorithm 1) -- on every
execution backend, for the process backend both *cold* (a fresh machine
per call: spawn, run and close) and *persistent* (runs dispatched to one
standing machine's fleet), at several ``(n, p)`` points.  A third
workload, ``dispatch``, runs a trivial program so that nothing but the
per-run fixed cost is measured: for cold variants that is machine
construction plus process spawn and shutdown, for persistent variants the
dispatch to the standing pool.  A fourth, ``warm_driver``, measures what
a plain repeated *top-level driver call* costs: its persistent variant is
the warm-by-default path through the process-wide default pool cache,
its cold variant the same permutation on a fresh machine per call.  A
fifth, ``crash_recovery``, measures crash-to-recovered latency: every
timed call injects a first-attempt rank crash (``CrashRank``
``at_run=0``) under ``retry=2`` and times the whole failed-attempt +
heal + bit-identical replay sequence -- for persistent variants against
a standing supervised pool (the raising rank keeps its process), for
cold variants against a fresh machine per call.  The ``persistent``
field of every record labels the variant.  Run with ``--benchmark-json``
to get the same pytest-benchmark JSON shape as the rest of the suite
(one record per (workload, backend, persistent, n, p) with the
parameters echoed in ``extra_info``).

Reading the numbers: the thread backend wins at small in-process problem
sizes (rank start-up is microseconds and NumPy releases the GIL), while
the cold process variant pays process spawn plus payload movement per
call.  Two gates isolate the *serialisation* share of that overhead
(shared-memory segments against the in-band path, :func:`in_band`);
the persistent dimension isolates the *spawn* share: a standing pool
pays it once, so one gate is that the persistent pool's per-run dispatch
overhead is at least 5x lower than a fresh machine's at the ``dispatch``
point.

Direct execution writes the tracked perf-trajectory artifact::

    PYTHONPATH=src python benchmarks/bench_backends.py --json benchmarks/BENCH_backends.json

producing per-(workload, backend, persistent, n, p) median
wall times so that future PRs can diff the trajectory
(``benchmarks/check_bench_regression.py`` is the CI smoke gate doing
exactly that for the 1M / p=4 cell and the persistent crash-recovery
cells).
"""

import argparse
import contextlib
import json
import statistics
import sys
import time

import numpy as np

try:
    import pytest
except ImportError:  # pragma: no cover - direct execution without pytest
    pytest = None

from repro.core.parallel_matrix import sample_matrix_parallel
from repro.core.permutation import random_permutation
from repro.pro.backends import sharedmem
from repro.pro.backends.process import ProcessBackend
from repro.pro.backends.sharedmem import SharedMemoryTransport
from repro.pro.machine import PROMachine

#: (n_items, n_procs) grid; inline only participates where p == 1.
POINTS = [(20_000, 1), (20_000, 2), (20_000, 4), (100_000, 4), (1_000_000, 4)]
#: The acceptance point of the shared-memory vs in-band comparison.
BIG_POINT = (1_000_000, 8)
#: The per-run fixed-cost workload runs a trivial program at this point.
DISPATCH_POINT = (0, 4)
#: The warm-driver workload point: small enough that the per-call fixed
#: cost (machine build + spawn vs warm-pool dispatch) dominates.
WARM_DRIVER_POINT = (2_000, 4)
#: The crash-to-recovered latency point (the canonical chaos p).
CRASH_RECOVERY_POINT = (20_000, 4)
#: (backend, persistent) variants; ``persistent=False`` is a fresh machine
#: per call.
VARIANTS = [
    ("inline", False),
    ("thread", False),
    ("process", False),
    ("process", True),
]


def _variant_id(backend, persistent=False):
    return f"{backend}-persistent" if persistent else backend


@contextlib.contextmanager
def in_band():
    """The process backend's degrade path: no shared memory in any process.

    Ranks forked inside the block inherit it, so a run moves every bulk
    byte -- arguments, exchange pieces and results -- in-band through
    its pipes, as on a host without ``/dev/shm``.  The default pool
    cache is cleared on entry and exit, so no fleet crosses the border.
    """
    from repro.pro.backends.pool import clear_default_pools

    clear_default_pools()
    saved = sharedmem._shm_module, sharedmem._PROBE
    sharedmem._shm_module, sharedmem._PROBE = None, (None, False)
    try:
        yield
    finally:
        clear_default_pools()
        sharedmem._shm_module, sharedmem._PROBE = saved


def _trivial_program(ctx):
    """Module-level no-op rank program (picklable for the rank pipes)."""
    return ctx.rank


def _run_matrix(backend, n_items, n_procs, machine):
    row_sums = np.full(n_procs, n_items // n_procs, dtype=np.int64)
    matrix, _ = sample_matrix_parallel(
        row_sums, algorithm="alg6" if n_procs > 1 else "root", machine=machine,
    )
    return matrix


def _run_permutation(backend, n_items, n_procs, machine):
    data = np.arange(n_items, dtype=np.int64)
    return random_permutation(data, n_procs=n_procs, machine=machine)


def _run_dispatch(backend, n_items, n_procs, machine):
    return machine.run(_trivial_program).results


def _run_warm_driver(backend, n_items, n_procs, machine=None):
    """One permutation call: a *top-level driver call* without ``machine``.

    The driver call is the workload the default pool cache exists for:
    it transparently borrows the process-wide warm fleet.
    """
    if machine is not None:
        return _run_permutation(backend, n_items, n_procs, machine)
    data = np.arange(n_items, dtype=np.int64)
    return random_permutation(data, n_procs=n_procs, backend=backend, seed=0)


def _on_fresh_machine(fn, backend, n_items, n_procs):
    """One cold call: spawn a fresh machine, run ``fn`` on it and close it."""
    with PROMachine(n_procs, seed=0, backend=backend) as machine:
        return fn(backend, n_items, n_procs, machine)


def _crash_recovery_runner(backend, persistent, n_items, n_procs):
    """``(callable, closer)`` timing one crash + heal + bit-exact replay.

    ``runs_started`` accumulates on a fault wrapper, so every call wraps
    a *fresh* ``FaultInjectingBackend`` (its ``at_run=0`` crash fires on
    the call's first attempt and the replay runs clean).  Persistent
    variants share one standing inner backend across calls: the timed
    quantity is then the supervised pool's recovery -- respawn the dead
    rank into the live fabric -- not a fleet rebuild.
    """
    from repro.pro.backends.faults import CrashRank, FaultInjectingBackend
    from repro.pro.backends.registry import get_backend

    inner = get_backend(backend) if persistent else None
    data = np.arange(n_items, dtype=np.int64)

    def call():
        faulty = FaultInjectingBackend(
            inner if inner is not None else backend,
            [CrashRank(rank=1, at_op=1, at_run=0)])
        machine = PROMachine(n_procs, seed=0, backend=faulty, retry=2)
        try:
            return random_permutation(data, machine=machine)
        finally:
            if inner is None:
                machine.close()  # shared inner backends outlive the call

    def closer():
        close = getattr(inner, "close", None)
        if close is not None:
            close()

    return call, closer


WORKLOADS = {"matrix": _run_matrix, "permutation": _run_permutation,
             "dispatch": _run_dispatch, "warm_driver": _run_warm_driver,
             "crash_recovery": _crash_recovery_runner}


def make_runner(workload, backend, persistent, n_items, n_procs):
    """Build ``(callable, closer)`` for one benchmark cell.

    Cold variants build a fresh machine inside every call and close it
    after the call (spawn, run and close: that is the cost being
    measured); persistent variants build one standing machine up front --
    the pool spawn happens on the warmup run -- and each call times a
    dispatch to the warm pool.  The persistent ``warm_driver`` variant has
    no pre-built machine at all: it measures what a plain repeated driver
    call costs now that the default pool cache keeps the fleet warm
    between calls, and its closer clears the cache so later cells start
    cold.
    """
    if workload == "crash_recovery":
        return _crash_recovery_runner(backend, persistent, n_items, n_procs)
    fn = WORKLOADS[workload]
    if not persistent:
        return ((lambda: _on_fresh_machine(fn, backend, n_items, n_procs)),
                (lambda: None))
    if workload == "warm_driver":
        from repro.pro.backends.pool import clear_default_pools

        clear_default_pools()  # this cell starts from a cold cache
        return ((lambda: _run_warm_driver(backend, n_items, n_procs)),
                clear_default_pools)
    machine = PROMachine(n_procs, seed=0, backend=backend)
    return (lambda: fn(backend, n_items, n_procs, machine), machine.close)


def median_seconds(workload, backend, n_items, n_procs,
                   *, persistent=False, rounds=3, warmup=1):
    """Median wall time of ``rounds`` runs after ``warmup`` throwaway runs."""
    runner, closer = make_runner(workload, backend, persistent,
                                 n_items, n_procs)
    try:
        for _ in range(warmup):
            runner()
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            runner()
            times.append(time.perf_counter() - start)
    finally:
        closer()
    return float(statistics.median(times))


# ----------------------------------------------------------------------------
# pytest-benchmark suite
# ----------------------------------------------------------------------------
if pytest is not None:

    def _skip_if_incompatible(backend, n_procs):
        if backend == "inline" and n_procs != 1:
            pytest.skip("the inline backend only runs single-rank machines")

    @pytest.mark.benchmark(group="backends-matrix")
    @pytest.mark.parametrize("backend,persistent", VARIANTS,
                             ids=[_variant_id(*v) for v in VARIANTS])
    @pytest.mark.parametrize("n_items,n_procs", POINTS[:4])
    def test_benchmark_matrix_sampling_backends(benchmark, backend,
                                                persistent, n_items, n_procs):
        _skip_if_incompatible(backend, n_procs)
        benchmark.extra_info.update({"backend": backend,
                                     "persistent": persistent,
                                     "n": n_items, "p": n_procs})
        runner, closer = make_runner("matrix", backend, persistent,
                                     n_items, n_procs)
        try:
            matrix = benchmark.pedantic(runner, rounds=3, iterations=1,
                                        warmup_rounds=1)
        finally:
            closer()
        assert matrix.sum() == n_procs * (n_items // n_procs)

    @pytest.mark.benchmark(group="backends-permutation")
    @pytest.mark.parametrize("backend,persistent", VARIANTS,
                             ids=[_variant_id(*v) for v in VARIANTS])
    @pytest.mark.parametrize("n_items,n_procs", POINTS[:4])
    def test_benchmark_permutation_backends(benchmark, backend,
                                            persistent, n_items, n_procs):
        _skip_if_incompatible(backend, n_procs)
        benchmark.extra_info.update({"backend": backend,
                                     "persistent": persistent,
                                     "n": n_items, "p": n_procs})
        runner, closer = make_runner("permutation", backend,
                                     persistent, n_items, n_procs)
        try:
            out = benchmark.pedantic(runner, rounds=3, iterations=1,
                                     warmup_rounds=1)
        finally:
            closer()
        assert out.shape == (n_items,)

    def test_backends_agree_for_fixed_seed():
        """Smoke-level determinism check inside the benchmark suite."""
        row_sums = np.full(4, 500, dtype=np.int64)
        reference, _ = sample_matrix_parallel(row_sums, backend="thread", seed=9)
        with PROMachine(4, seed=9, backend="process") as fresh:
            cold, _ = sample_matrix_parallel(row_sums, machine=fresh)
        warm, _ = sample_matrix_parallel(row_sums, backend="process", seed=9)
        assert np.array_equal(reference, cold)
        assert np.array_equal(reference, warm)

    def test_sharedmem_halves_process_overhead():
        """>= 2x lower process overhead than the in-band path at 1M / p=8.

        Overhead is the process-backend wall time in excess of the thread
        backend on the same workload (the thread backend shares the
        address space, so the excess is process spawn + payload movement).
        The in-band path is the degrade path (:func:`in_band`); a
        ``min_bytes`` alone would still pass Algorithm 1's vectors by
        reference.  On boxes without real parallelism the overhead is
        dominated by scheduler churn among p oversubscribed processes --
        a cost no payload path can influence -- so the 2x gate only
        applies where the process backend can actually run its ranks in
        parallel; elsewhere the weaker monotone property (sharedmem never
        slower) is asserted and the payload-isolated 2x gate below still
        runs.
        """
        import os

        n_items, n_procs = BIG_POINT
        parallel_box = (os.cpu_count() or 1) >= 4
        attempts = []
        for _ in range(3):  # best-of-3 measurement passes (noise shield)
            thread = median_seconds("permutation", "thread", n_items, n_procs)
            with in_band():
                in_band_t = median_seconds("permutation", "process",
                                           n_items, n_procs)
            shm_t = median_seconds("permutation", "process", n_items, n_procs)
            in_band_overhead = max(in_band_t - thread, 0.0)
            shm_overhead = max(shm_t - thread, 0.0)
            attempts.append(
                f"sharedmem overhead {shm_overhead:.3f}s vs in-band "
                f"{in_band_overhead:.3f}s (thread reference {thread:.3f}s)"
            )
            if parallel_box:
                if shm_overhead * 2 <= in_band_overhead:
                    break
            elif shm_t <= in_band_t * 1.05:
                break
        else:
            raise AssertionError("; ".join(attempts))

    def test_sharedmem_halves_payload_movement_overhead():
        """Payload-isolated 2x gate: shipping the 1M-element result blocks.

        Each rank returns its n/p block of a 1M-element vector to the
        caller -- exactly the bulk collection of a permutation run, with
        no compute to dilute the signal.  The payload-movement overhead
        (workload time minus a trivial run on the *same* backend and
        transport, i.e. minus spawn and synchronisation) must be at least
        2x smaller with zero-copy segments than in-band, through the pipe
        (a ``min_bytes`` above the block's size); this holds on a single
        core too, because the cost is pure data movement.  Every timed
        call is a cold one -- a fresh machine: spawn, run and close -- so
        the ranks ship their blocks from fresh address spaces.
        """
        n_items, n_procs = BIG_POINT
        block = n_items // n_procs
        min_bytes = {"sharedmem": 8192, "in-band": block * 8 + 1}

        def run_result_workload(path, payload_items):
            transport = SharedMemoryTransport(min_bytes=min_bytes[path])

            def program(ctx):
                return np.zeros(payload_items, dtype=np.int64)

            times = []
            for round_ in range(10):  # the first round is a warmup
                start = time.perf_counter()
                with PROMachine(n_procs, seed=0,
                                backend=ProcessBackend(transport=transport)) as machine:
                    machine.run(program)
                if round_:
                    times.append(time.perf_counter() - start)
            return min(times)

        attempts = []
        for _ in range(3):  # best-of-3 measurement passes (noise shield)
            overheads = {}
            for path in min_bytes:
                loaded = run_result_workload(path, block)
                trivial = run_result_workload(path, 1)
                overheads[path] = max(loaded - trivial, 1e-9)
            attempts.append(overheads)
            if overheads["sharedmem"] * 2 <= overheads["in-band"]:
                break
        else:
            raise AssertionError(f"payload overhead never halved: {attempts}")

    def test_warm_driver_beats_cold_3x_and_encodes_once_per_run():
        """Warm-by-default driver calls >= 3x cheaper than a fresh machine.

        Plain repeated driver calls (``backend="process"``, nothing else)
        borrow the process-wide warm fleet; the same call on a fresh
        machine pays machine build, p process spawns and their shutdown
        every time.  At the small warm-driver point the fixed cost dominates,
        so the warm:cold ratio is the cache's raison d'etre.  The warm
        path must also encode each run's dispatch arguments exactly once
        per call, not once per rank; since the driver stages its input in
        its shared output vector, whose slices cross by reference, that
        encode copies nothing and creates no staging segment.
        Both are asserted through the standing fleet's transport counters.
        """
        from repro.pro.backends.pool import clear_default_pools, default_pools

        n_items, n_procs = WARM_DRIVER_POINT
        attempts = []
        try:
            for _ in range(3):  # best-of-3 measurement passes (noise shield)
                cold = median_seconds("warm_driver", "process",
                                      n_items, n_procs, rounds=5)
                warm = median_seconds("warm_driver", "process",
                                      n_items, n_procs, persistent=True,
                                      rounds=5)
                attempts.append(
                    f"cold {cold * 1e3:.2f}ms vs warm {warm * 1e3:.2f}ms")
                if warm * 3 <= cold:
                    break
            else:
                raise AssertionError(
                    "warm driver calls never 3x cheaper: " + "; ".join(attempts)
                )
            # Encode-once-per-run: k warm driver calls on a fresh fleet
            # produce exactly k shared encodes, and -- the staged blocks
            # and output slices crossing by reference -- no segment and
            # no encoded byte at all.
            clear_default_pools()
            for _ in range(4):
                _run_warm_driver("process", 200_000, n_procs)
            pools = list(default_pools().values())
            assert len(pools) == 1, pools
            stats = pools[0].fabric.transport.stats
            assert stats.shared_encode_calls == 4, stats.snapshot()
            assert stats.segments_created == 0, stats.snapshot()
            assert stats.bytes_encoded == 0, stats.snapshot()
        finally:
            clear_default_pools()

    def test_persistent_pool_cuts_dispatch_overhead_5x():
        """Warm-pool dispatch >= 5x cheaper than a fresh machine per call.

        The ``dispatch`` workload runs a trivial program, so its wall time
        *is* the per-run fixed cost: machine construction, p process
        spawns and their shutdown for the cold variant, a pipe round-trip
        to the standing pool for the persistent one.  Spawn costs do not shrink
        on small boxes, so the gate applies everywhere; a best-of-3 shield
        absorbs scheduler noise.
        """
        n_items, n_procs = DISPATCH_POINT
        attempts = []
        for _ in range(3):
            cold = median_seconds("dispatch", "process",
                                  n_items, n_procs, rounds=5)
            warm = median_seconds("dispatch", "process",
                                  n_items, n_procs, persistent=True, rounds=5)
            attempts.append(f"cold {cold * 1e3:.2f}ms vs warm {warm * 1e3:.2f}ms")
            if warm * 5 <= cold:
                break
        else:
            raise AssertionError(
                "persistent dispatch never 5x cheaper: " + "; ".join(attempts)
            )


# ----------------------------------------------------------------------------
# Tracked perf-trajectory artifact (BENCH_backends.json)
# ----------------------------------------------------------------------------
def collect_records(*, rounds=3):
    """Median wall times over the full (workload, variant, n, p) grid."""
    records = []
    grid = POINTS + [BIG_POINT]
    thread_reference = {}
    for workload in sorted(WORKLOADS):
        if workload == "dispatch":
            points = [DISPATCH_POINT]  # fixed cost is n-independent
        elif workload == "warm_driver":
            points = [WARM_DRIVER_POINT]  # fixed-cost-dominated by design
        elif workload == "crash_recovery":
            points = [CRASH_RECOVERY_POINT]  # the canonical chaos p
        elif workload == "matrix":
            # The matrix workload is O(p^2) and n-independent: skip the
            # big-n duplicates of the p=4 cell.
            points = [pt for pt in grid
                      if pt not in (BIG_POINT, (1_000_000, 4))]
        else:
            points = grid
        for n_items, n_procs in points:
            for backend, persistent in VARIANTS:
                if backend == "inline" and n_procs != 1:
                    continue
                if workload == "warm_driver" and backend != "process":
                    continue  # the workload isolates process-spawn cost
                seconds = median_seconds(
                    workload, backend, n_items, n_procs,
                    persistent=persistent, rounds=rounds,
                )
                if backend == "thread":
                    thread_reference[(workload, n_items, n_procs)] = seconds
                records.append({
                    "workload": workload,
                    "backend": backend,
                    "persistent": persistent,
                    "n": n_items,
                    "p": n_procs,
                    "median_seconds": round(seconds, 6),
                })
    for record in records:
        reference = thread_reference.get(
            (record["workload"], record["n"], record["p"])
        )
        if reference is not None and record["backend"] == "process":
            record["overhead_vs_thread_seconds"] = round(
                max(record["median_seconds"] - reference, 0.0), 6
            )
    return records


def _workload_speedup(records, workload):
    """Cold / warm median ratio of one workload's process cells (or None)."""
    by_key = {}
    for r in records:
        if r["workload"] == workload and r["backend"] == "process":
            by_key[bool(r.get("persistent"))] = r["median_seconds"]
    if True in by_key and False in by_key and by_key[True] > 0:
        return by_key[False] / by_key[True]
    return None


def dispatch_speedup(records):
    """Cold-spawn / warm-pool dispatch ratio from a record list (or None)."""
    return _workload_speedup(records, "dispatch")


def fleet_telemetry_cells(*, n_items=100_000, n_procs=4, runs=3):
    """Observed fallback rate of the warm default fleet.

    ``runs`` permutations on one process machine
    with a :class:`~repro.pro.telemetry.Telemetry` recorder attached,
    summarised into the repatriated per-rank encode counts and the
    transport's in-band fallback rate.
    """
    from repro.pro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = PROMachine(n_procs, seed=0, backend="process",
                         telemetry=telemetry)
    try:
        data = np.arange(n_items, dtype=np.int64)
        for _ in range(runs):
            random_permutation(data, machine=machine)
    finally:
        machine.close()
    report = telemetry.last.to_dict()
    encodes = sum(r["transport"]["encode_calls"] for r in report["ranks"])
    fallbacks = sum(r["transport"]["oversize_fallbacks"] for r in report["ranks"])
    return {
        "runs": runs,
        "n": n_items,
        "p": n_procs,
        "encode_calls": encodes,
        "oversize_fallbacks": fallbacks,
        "fallback_rate": round(fallbacks / encodes, 6) if encodes else 0.0,
        "parent_shared_encode_calls":
            report["parent_transport"]["shared_encode_calls"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Write the tracked backend perf artifact."
    )
    parser.add_argument("--json", required=True,
                        help="output path, e.g. benchmarks/BENCH_backends.json")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    records = collect_records(rounds=args.rounds)
    payload = {
        "suite": "bench_backends",
        "schema": 6,
        "rounds": args.rounds,
        # Schema 5: observed fallback rate of a warm fleet (repatriated
        # telemetry).  Schema 6: records carry no transport.
        "fleet_telemetry": fleet_telemetry_cells(),
        "records": records,
    }
    # The artifact's other keys (bench_kernels.py's cells) are kept.
    try:
        with open(args.json) as fh:
            payload = {**json.load(fh), **payload}
    except (OSError, ValueError):
        pass
    speedup = dispatch_speedup(records)
    if speedup is not None:
        payload["dispatch_speedup_persistent_vs_cold"] = round(speedup, 2)
    warm_speedup = _workload_speedup(records, "warm_driver")
    if warm_speedup is not None:
        payload["warm_driver_speedup_vs_cold"] = round(warm_speedup, 2)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    big = [r for r in records if r["workload"] == "permutation"
           and r["backend"] == "process" and not r["persistent"]
           and (r["n"], r["p"]) == BIG_POINT]
    if big:
        print(f"1M/p=8 permutation: process {big[0]['median_seconds']:.3f}s")
    if speedup is not None:
        print(f"dispatch overhead: persistent pool {speedup:.1f}x cheaper "
              "than a fresh machine")
    if warm_speedup is not None:
        print(f"warm driver calls: default pool cache {warm_speedup:.1f}x "
              "cheaper than a fresh machine per call")
    print(f"wrote {len(records)} records to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
