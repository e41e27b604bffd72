"""Backend and transport comparison: inline vs thread vs process wall-time.

Times the two driver-level workloads -- communication-matrix sampling on a
PRO machine and the distributed permutation (Algorithm 1) -- on every
execution backend, for the process backend on *both* payload transports
(``pickle`` queue buffers vs ``sharedmem`` zero-copy segments), and for
each transport both *cold* (fresh processes per run) and *persistent*
(runs dispatched to a standing worker pool), at several ``(n, p)``
points.  A third workload, ``dispatch``, runs a trivial program so that
nothing but the per-run fixed cost is measured: for cold variants that is
machine construction plus process spawn, for persistent variants the
task-queue dispatch to the standing pool.  A fourth, ``warm_driver``,
measures what a plain repeated *top-level driver call* costs: its
persistent variant is the warm-by-default path through the process-wide
default pool cache (ISSUE 5), its cold variant the same call with
``persistent=False``.  A fifth, ``crash_recovery``, measures
crash-to-recovered latency: every timed call injects a first-attempt
rank crash (``CrashRank`` ``at_run=0``) under ``retry=2`` and times the
whole failed-attempt + heal + bit-identical replay sequence -- for
persistent variants against a standing supervised pool (only the dead
rank respawns), for cold variants against per-run process spawns.  Run
with ``--benchmark-json`` to get the same pytest-benchmark JSON shape as
the rest of the suite (one record per (workload, backend, transport,
persistent, n, p) with the parameters echoed in ``extra_info``).

Reading the numbers: the thread backend wins at small in-process problem
sizes (rank start-up is microseconds and NumPy releases the GIL), while
the cold process backend pays process spawn plus payload movement per
run.  The transport dimension isolates the *serialisation* share of that
overhead (sharedmem ships every bulk payload with one copy in and a
zero-copy view out); the persistent dimension isolates the *spawn* share:
a standing pool pays it once, so the acceptance gate of ISSUE 3 is that
the persistent pool's per-run dispatch overhead is at least 5x lower than
cold-spawn at the ``dispatch`` point on a multi-core box.

Direct execution writes the tracked perf-trajectory artifact::

    PYTHONPATH=src python benchmarks/bench_backends.py --json benchmarks/BENCH_backends.json

producing per-(workload, backend, transport, persistent, n, p) median
wall times so that future PRs can diff the trajectory
(``benchmarks/check_bench_regression.py`` is the CI smoke gate doing
exactly that for the 1M / p=4 cell and the persistent crash-recovery
cells).
"""

import argparse
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
from repro.pro.machine import PROMachine

#: (n_items, n_procs) grid; inline only participates where p == 1.
POINTS = [(20_000, 1), (20_000, 2), (20_000, 4), (100_000, 4), (1_000_000, 4)]
#: The acceptance point of the transport comparison (ISSUE 2).
BIG_POINT = (1_000_000, 8)
#: The per-run fixed-cost workload runs a trivial program at this point.
DISPATCH_POINT = (0, 4)
#: The warm-driver workload point: small enough that the per-call fixed
#: cost (machine build + spawn vs warm-pool dispatch) dominates.
WARM_DRIVER_POINT = (2_000, 4)
#: The crash-to-recovered latency point (the canonical chaos p).
CRASH_RECOVERY_POINT = (20_000, 4)
#: (backend, transport, persistent) variants; None means no transport.
VARIANTS = [
    ("inline", None, False),
    ("thread", None, False),
    ("process", "pickle", False),
    ("process", "sharedmem", False),
    ("process", "pickle", True),
    ("process", "sharedmem", True),
]


def _variant_id(backend, transport, persistent=False):
    vid = backend if transport is None else f"{backend}-{transport}"
    return f"{vid}-persistent" if persistent else vid


def _machine_options(transport):
    return {} if transport is None else {"transport": transport}


def _trivial_program(ctx):
    """Module-level no-op rank program (picklable for the persistent pool)."""
    return ctx.rank


def _run_matrix(backend, transport, n_items, n_procs, machine=None):
    row_sums = np.full(n_procs, n_items // n_procs, dtype=np.int64)
    matrix, _ = sample_matrix_parallel(
        row_sums, algorithm="alg6" if n_procs > 1 else "root",
        machine=machine,
        backend=None if machine is not None else backend,
        transport=None if machine is not None else transport,
        seed=None if machine is not None else 0,
    )
    return matrix


def _run_permutation(backend, transport, n_items, n_procs, machine=None):
    data = np.arange(n_items, dtype=np.int64)
    return random_permutation(
        data, n_procs=n_procs, machine=machine,
        backend=None if machine is not None else backend,
        transport=None if machine is not None else transport,
        seed=None if machine is not None else 0,
    )


def _run_dispatch(backend, transport, n_items, n_procs, machine=None):
    if machine is not None:
        return machine.run(_trivial_program).results
    cold = PROMachine(n_procs, seed=0, backend=backend,
                      backend_options=_machine_options(transport))
    return cold.run(_trivial_program).results


def _run_warm_driver(backend, transport, n_items, n_procs, *, persistent):
    """One *top-level driver call* (no pre-built machine).

    This is the workload the default pool cache exists for: with
    ``persistent=None`` the call transparently borrows the process-wide
    warm fleet (the tentpole of ISSUE 5); ``persistent=False`` forces the
    historic cold spawn per call.
    """
    data = np.arange(n_items, dtype=np.int64)
    return random_permutation(data, n_procs=n_procs, backend=backend,
                              transport=transport, seed=0,
                              persistent=persistent)


def _crash_recovery_runner(backend, transport, persistent, n_items, n_procs):
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

    options = _machine_options(transport)
    inner = (get_backend(backend, persistent=True, **options)
             if persistent else None)
    data = np.arange(n_items, dtype=np.int64)

    def call():
        faulty = FaultInjectingBackend(
            inner if inner is not None else backend,
            [CrashRank(rank=1, at_op=1, at_run=0)],
            **({} if inner is not None else options))
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


def make_runner(workload, backend, transport, persistent, n_items, n_procs):
    """Build ``(callable, closer)`` for one benchmark cell.

    Cold variants construct their machinery inside every call (that is the
    cost being measured); persistent variants build one standing machine
    up front -- the pool spawn happens on the warmup run -- and each call
    times a dispatch to the warm pool.  The ``warm_driver`` workload has
    no pre-built machine at all: its persistent variant measures what a
    plain repeated driver call costs now that the default pool cache
    keeps the fleet warm between calls, and its closer clears the cache
    so later cells start cold.
    """
    if workload == "crash_recovery":
        return _crash_recovery_runner(backend, transport, persistent,
                                      n_items, n_procs)
    if workload == "warm_driver":
        from repro.pro.backends.pool import clear_default_pools

        mode = None if persistent else False
        clear_default_pools()  # this cell starts from a cold cache

        def call():
            return _run_warm_driver(backend, transport, n_items, n_procs,
                                    persistent=mode)

        return call, clear_default_pools
    fn = WORKLOADS[workload]
    if not persistent:
        return (lambda: fn(backend, transport, n_items, n_procs)), (lambda: None)
    machine = PROMachine(n_procs, seed=0, backend=backend,
                         backend_options=_machine_options(transport),
                         persistent=True)
    return (lambda: fn(backend, transport, n_items, n_procs, machine=machine),
            machine.close)


def median_seconds(workload, backend, transport, n_items, n_procs,
                   *, persistent=False, rounds=3, warmup=1):
    """Median wall time of ``rounds`` runs after ``warmup`` throwaway runs."""
    runner, closer = make_runner(workload, backend, transport, persistent,
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
    @pytest.mark.parametrize("backend,transport,persistent", VARIANTS,
                             ids=[_variant_id(*v) for v in VARIANTS])
    @pytest.mark.parametrize("n_items,n_procs", POINTS[:4])
    def test_benchmark_matrix_sampling_backends(benchmark, backend, transport,
                                                persistent, n_items, n_procs):
        _skip_if_incompatible(backend, n_procs)
        benchmark.extra_info.update({"backend": backend, "transport": transport,
                                     "persistent": persistent,
                                     "n": n_items, "p": n_procs})
        runner, closer = make_runner("matrix", backend, transport, persistent,
                                     n_items, n_procs)
        try:
            matrix = benchmark.pedantic(runner, rounds=3, iterations=1,
                                        warmup_rounds=1)
        finally:
            closer()
        assert matrix.sum() == n_procs * (n_items // n_procs)

    @pytest.mark.benchmark(group="backends-permutation")
    @pytest.mark.parametrize("backend,transport,persistent", VARIANTS,
                             ids=[_variant_id(*v) for v in VARIANTS])
    @pytest.mark.parametrize("n_items,n_procs", POINTS[:4])
    def test_benchmark_permutation_backends(benchmark, backend, transport,
                                            persistent, n_items, n_procs):
        _skip_if_incompatible(backend, n_procs)
        benchmark.extra_info.update({"backend": backend, "transport": transport,
                                     "persistent": persistent,
                                     "n": n_items, "p": n_procs})
        runner, closer = make_runner("permutation", backend, transport,
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
        for backend, transport, persistent in VARIANTS[2:]:
            matrix, _ = sample_matrix_parallel(
                row_sums, backend=backend, transport=transport,
                persistent=persistent, seed=9,
            )
            assert np.array_equal(reference, matrix), (backend, transport,
                                                       persistent)

    def test_sharedmem_halves_process_overhead():
        """ISSUE 2 acceptance: >= 2x lower process overhead at 1M / p=8.

        Overhead is the process-backend wall time in excess of the thread
        backend on the same workload (the thread backend shares the
        address space, so the excess is process spawn + payload movement).
        On boxes without real parallelism the overhead is dominated by
        scheduler churn among p oversubscribed processes -- a cost no
        payload transport can influence -- so the 2x gate only applies
        where the process backend can actually run its ranks in parallel;
        elsewhere the weaker monotone property (sharedmem never slower)
        is asserted and the transport-isolated 2x gate below still runs.
        """
        import os

        n_items, n_procs = BIG_POINT
        parallel_box = (os.cpu_count() or 1) >= 4
        attempts = []
        for _ in range(3):  # best-of-3 measurement passes (noise shield)
            thread = median_seconds("permutation", "thread", None, n_items, n_procs)
            pickle_t = median_seconds("permutation", "process", "pickle",
                                      n_items, n_procs)
            shm_t = median_seconds("permutation", "process", "sharedmem",
                                   n_items, n_procs)
            pickle_overhead = max(pickle_t - thread, 0.0)
            shm_overhead = max(shm_t - thread, 0.0)
            attempts.append(
                f"sharedmem overhead {shm_overhead:.3f}s vs pickle "
                f"{pickle_overhead:.3f}s (thread reference {thread:.3f}s)"
            )
            if parallel_box:
                if shm_overhead * 2 <= pickle_overhead:
                    break
            elif shm_t <= pickle_t * 1.05:
                break
        else:
            raise AssertionError("; ".join(attempts))

    def test_sharedmem_halves_payload_movement_overhead():
        """Transport-isolated 2x gate: shipping the 1M-element result blocks.

        Each rank returns its n/p block of a 1M-element vector to the
        caller -- exactly the bulk collection of a permutation run, with
        no compute to dilute the signal.  The payload-movement overhead
        (workload time minus a trivial run on the *same* backend and
        transport, i.e. minus spawn and synchronisation) must be at least
        2x smaller with zero-copy segments than with queue pickling; this
        holds on a single core too, because the cost is pure data
        movement.
        """
        n_items, n_procs = BIG_POINT
        block = n_items // n_procs

        def run_result_workload(transport, payload_items):
            machine = PROMachine(n_procs, seed=0, backend="process",
                                 backend_options={"transport": transport})

            def program(ctx):
                return np.zeros(payload_items, dtype=np.int64)

            times = []
            machine.run(program)  # warmup
            for _ in range(9):
                start = time.perf_counter()
                machine.run(program)
                times.append(time.perf_counter() - start)
            return min(times)

        attempts = []
        for _ in range(3):  # best-of-3 measurement passes (noise shield)
            overheads = {}
            for transport in ("pickle", "sharedmem"):
                loaded = run_result_workload(transport, block)
                trivial = run_result_workload(transport, 1)
                overheads[transport] = max(loaded - trivial, 1e-9)
            attempts.append(overheads)
            if overheads["sharedmem"] * 2 <= overheads["pickle"]:
                break
        else:
            raise AssertionError(f"payload overhead never halved: {attempts}")

    def test_warm_driver_beats_cold_3x_and_encodes_once_per_run():
        """ISSUE 5 acceptance: warm-by-default driver calls >= 3x cheaper.

        Plain repeated driver calls (``backend="process"``, nothing else)
        now borrow the process-wide warm fleet; the same call with
        ``persistent=False`` pays machine build + p process spawns every
        time.  At the small warm-driver point the fixed cost dominates,
        so the warm:cold ratio is the cache's raison d'etre.  The warm
        path must also encode each run's bulk dispatch arguments exactly
        once (one multi-consumer segment per call, not one copy per
        rank), asserted through the standing fleet's transport counters.
        """
        from repro.pro.backends.pool import clear_default_pools, default_pools

        n_items, n_procs = WARM_DRIVER_POINT
        attempts = []
        try:
            for _ in range(3):  # best-of-3 measurement passes (noise shield)
                cold = median_seconds("warm_driver", "process", "sharedmem",
                                      n_items, n_procs, rounds=5)
                warm = median_seconds("warm_driver", "process", "sharedmem",
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
            # produce exactly k shared encodes, and -- once the blocks are
            # big enough to go out-of-band -- exactly k multi-consumer
            # segments (one per run, NOT one copy per rank).
            clear_default_pools()
            for _ in range(4):
                _run_warm_driver("process", "sharedmem", 200_000, n_procs,
                                 persistent=None)
            pools = list(default_pools().values())
            assert len(pools) == 1, pools
            stats = pools[0].fabric.transport.stats
            assert stats.shared_encode_calls == 4, stats.snapshot()
            assert stats.multi_segments_created == 4, stats.snapshot()
        finally:
            clear_default_pools()

    def test_persistent_pool_cuts_dispatch_overhead_5x():
        """ISSUE 3 acceptance: warm-pool dispatch >= 5x cheaper than cold spawn.

        The ``dispatch`` workload runs a trivial program, so its wall time
        *is* the per-run fixed cost: machine construction plus p process
        spawns for the cold backend, a task-queue round-trip to the
        standing pool for the persistent one.  Spawn costs do not shrink
        on small boxes, so the gate applies everywhere; a best-of-3 shield
        absorbs scheduler noise.
        """
        n_items, n_procs = DISPATCH_POINT
        attempts = []
        for _ in range(3):
            cold = median_seconds("dispatch", "process", "sharedmem",
                                  n_items, n_procs, rounds=5)
            warm = median_seconds("dispatch", "process", "sharedmem",
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
            for backend, transport, persistent in VARIANTS:
                if backend == "inline" and n_procs != 1:
                    continue
                if workload == "warm_driver" and backend != "process":
                    continue  # the workload isolates process-spawn cost
                seconds = median_seconds(
                    workload, backend, transport, n_items, n_procs,
                    persistent=persistent, rounds=rounds,
                )
                if backend == "thread":
                    thread_reference[(workload, n_items, n_procs)] = seconds
                records.append({
                    "workload": workload,
                    "backend": backend,
                    "transport": transport,
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


def _workload_speedup(records, workload, transport="sharedmem"):
    """Cold / warm median ratio of one workload's cells (or None)."""
    by_key = {}
    for r in records:
        if r["workload"] == workload and r["transport"] == transport:
            by_key[bool(r.get("persistent"))] = r["median_seconds"]
    if True in by_key and False in by_key and by_key[True] > 0:
        return by_key[False] / by_key[True]
    return None


def dispatch_speedup(records):
    """Cold-spawn / warm-pool dispatch ratio from a record list (or None)."""
    return _workload_speedup(records, "dispatch")


def fleet_telemetry_cells(*, n_items=100_000, n_procs=4, runs=3):
    """Observed ring geometry and fallback rate of the warm default fleet.

    ``runs`` permutations on one persistent process+sharedmem machine
    with a :class:`~repro.pro.telemetry.Telemetry` recorder attached,
    summarised into the repatriated per-rank ring geometry (capacity,
    wraps) and the transport's oversize-fallback rate.
    """
    from repro.pro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = PROMachine(n_procs, seed=0, backend="process",
                         backend_options={"transport": "sharedmem"},
                         persistent=True, telemetry=telemetry)
    try:
        data = np.arange(n_items, dtype=np.int64)
        for _ in range(runs):
            random_permutation(data, machine=machine)
    finally:
        machine.close()
    report = telemetry.last.to_dict()
    encodes = sum(r["transport"]["encode_calls"] for r in report["ranks"])
    fallbacks = sum(r["transport"]["oversize_fallbacks"] for r in report["ranks"])
    rings = [r["ring"] for r in report["ranks"] if r.get("ring")]
    return {
        "runs": runs,
        "n": n_items,
        "p": n_procs,
        "encode_calls": encodes,
        "oversize_fallbacks": fallbacks,
        "fallback_rate": round(fallbacks / encodes, 6) if encodes else 0.0,
        "ring_capacity_bytes": max((r["capacity"] for r in rings), default=None),
        "ring_wraps": sum(r["wraps"] for r in rings),
        "parent_shared_encode_calls":
            report["parent_transport"]["shared_encode_calls"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Write the tracked backend/transport perf artifact."
    )
    parser.add_argument("--json", required=True,
                        help="output path, e.g. benchmarks/BENCH_backends.json")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    records = collect_records(rounds=args.rounds)
    payload = {
        "suite": "bench_backends",
        "schema": 5,
        "rounds": args.rounds,
        # Schema 5: observed ring geometry + fallback rate of a warm fleet
        # (repatriated telemetry).
        "fleet_telemetry": fleet_telemetry_cells(),
        "records": records,
    }
    # Schema 4: the artifact also carries the kernel-tier throughput cells
    # written by bench_kernels.py; carry them over instead of dropping them
    # every time the backend grid is re-measured.
    try:
        with open(args.json) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = {}
    for key in ("kernel_records", "kernel_speedup_matrix_tree",
                "kernel_speedup_row_cut"):
        if key in previous:
            payload[key] = previous[key]
    speedup = dispatch_speedup(records)
    if speedup is not None:
        payload["dispatch_speedup_persistent_vs_cold"] = round(speedup, 2)
    warm_speedup = _workload_speedup(records, "warm_driver")
    if warm_speedup is not None:
        payload["warm_driver_speedup_vs_cold"] = round(warm_speedup, 2)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    by_key = {(r["workload"], r["backend"], r["transport"],
               r.get("persistent", False), r["n"], r["p"]): r for r in records}
    big = {t: by_key.get(("permutation", "process", t, False) + BIG_POINT)
           for t in ("pickle", "sharedmem")}
    if all(big.values()):
        print(f"1M/p=8 permutation: pickle {big['pickle']['median_seconds']:.3f}s, "
              f"sharedmem {big['sharedmem']['median_seconds']:.3f}s")
    if speedup is not None:
        print(f"dispatch overhead: persistent pool {speedup:.1f}x cheaper "
              "than cold spawn")
    if warm_speedup is not None:
        print(f"warm driver calls: default pool cache {warm_speedup:.1f}x "
              "cheaper than cold driver calls")
    print(f"wrote {len(records)} records to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
