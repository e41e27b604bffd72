"""CI perf-regression smoke gate for the backend benchmark trajectory.

Re-runs the 1M-item / p=4 permutation cell of ``bench_backends.py`` for
every variant present in the tracked ``benchmarks/BENCH_backends.json``
(plus the dispatch-overhead cell, which guards the persistent pool's
raison d'etre, and the persistent crash-recovery cells, which guard the
supervisor's heal latency), writes the fresh measurements as a JSON artifact for the
workflow to upload, and fails only when a fresh median exceeds the
tracked one by more than ``--factor`` (default 3x -- generous on purpose:
shared CI runners are noisy, and the gate is meant to catch "the backend
got an order of magnitude slower", not a 20% wobble).

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python benchmarks/check_bench_regression.py \
        --tracked benchmarks/BENCH_backends.json \
        --out bench-fresh.json

Exit code 0 = no regression, 1 = at least one cell regressed beyond the
tolerance, 2 = the tracked artifact is missing the expected cells.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_kernels  # noqa: E402
from bench_backends import (  # noqa: E402
    CRASH_RECOVERY_POINT,
    DISPATCH_POINT,
    WARM_DRIVER_POINT,
    median_seconds,
)

#: The gated cell: big enough that payload movement dominates noise,
#: p=4 so that it exercises real multi-rank traffic on standard runners.
GATE_N, GATE_P = 1_000_000, 4

#: Cells tracked below this are re-measured and reported but never fail
#: the gate: on a shared runner, scheduler noise alone routinely costs a
#: handful of milliseconds, which would dwarf a sub-millisecond tracked
#: median and trip the 3x factor with no real regression behind it.
MIN_GATED_SECONDS = 0.010

#: Supervision (a retry policy on the machine) may cost at most this much
#: over an unsupervised warm dispatch.  The tracked dispatch median
#: (~1.4ms) sits below the gate floor above, so this gate compares two
#: *fresh* fleets standing side by side on the same runner, their
#: dispatches interleaved, instead of comparing against a tracked number --
#: runner-speed noise cancels out, and the best of three trials filters
#: one-off scheduler hiccups.
SUPERVISION_FACTOR = 1.10

#: Attaching a Telemetry recorder may cost at most this much over a plain
#: warm dispatch.  Collection is passive -- the worker snapshots a handful
#: of counters it already maintains, and the parent folds them into one
#: FleetReport per run -- so the ratio should sit at ~1.0.  Measured the
#: same way as the supervision gate (see warm_dispatch_overhead).
TELEMETRY_FACTOR = 1.05


def warm_dispatch_overhead(*, rounds=6, trials=3, **option):
    """Best-of-``trials`` ratio of a warm dispatch with ``option`` to one without.

    Each trial stands up two persistent fleets at the dispatch point, one
    plain and one built with ``option`` (``retry=2`` for supervision,
    ``telemetry=Telemetry()`` for observation), and warms both outside the
    timing.  It then times ``rounds`` dispatches of the trivial program on
    each, interleaved and alternating which fleet goes first, so runner
    drift hits both alike.  Supervision only adds deadline bookkeeping
    around the dispatch and the recorder only snapshots counters the
    transport already keeps, so the ratio of the medians should sit at ~1.0.
    """
    import statistics
    import time

    from bench_backends import _trivial_program
    from repro.pro.machine import PROMachine

    _n, p = DISPATCH_POINT
    ratios = []
    for _ in range(trials):
        fleets = [PROMachine(p, seed=0, backend="process",
                             backend_options={"transport": "sharedmem"},
                             persistent=True, **extra)
                  for extra in ({}, option)]
        times = ([], [])
        try:
            for machine in fleets:
                machine.run(_trivial_program)  # spawn + warm outside the timing
            for round_ in range(rounds):
                for which in ((0, 1) if round_ % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    fleets[which].run(_trivial_program)
                    times[which].append(time.perf_counter() - start)
        finally:
            for machine in fleets:
                machine.close()
        plain, varied = (statistics.median(t) for t in times)
        ratios.append(varied / plain if plain > 0 else 1.0)
    return min(ratios)


def gated_cells(tracked_records):
    """The tracked records this gate re-measures."""
    cells = []
    for record in tracked_records:
        workload = record.get("workload")
        point_ok = (
            (workload == "permutation"
             and record.get("n") == GATE_N and record.get("p") == GATE_P)
            or (workload == "dispatch"
                and (record.get("n"), record.get("p")) == DISPATCH_POINT)
            or (workload == "warm_driver"
                and (record.get("n"), record.get("p")) == WARM_DRIVER_POINT)
            # Crash-to-recovered latency of a standing supervised pool: a
            # fixed timer creeping back into heal would show here first.
            or (workload == "crash_recovery" and record.get("persistent")
                and (record.get("n"), record.get("p")) == CRASH_RECOVERY_POINT)
        )
        if point_ok:
            cells.append(record)
    return cells


def remeasure(record, *, rounds):
    return median_seconds(
        record["workload"], record["backend"], record.get("transport"),
        record["n"], record["p"],
        persistent=bool(record.get("persistent", False)), rounds=rounds,
    )


def gated_kernel_cells(tracked):
    """Kernel-tier cells (schema 4) whose tier resolves the same way here.

    A cell recorded with an active numba tier on a host where the request
    now degrades to NumPy (or vice versa) is not comparable -- the gate
    skips it rather than mistaking a tier change for a perf change.
    """
    from repro.core.kernels import reset_kernels, resolve_kernels

    cells = []
    for record in tracked.get("kernel_records", []):
        reset_kernels()
        if resolve_kernels(record["kernels"]).name == record.get("tier_active"):
            cells.append(record)
    reset_kernels()
    return cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tracked", default="benchmarks/BENCH_backends.json",
                        help="tracked trajectory artifact to compare against")
    parser.add_argument("--out", default="bench-fresh.json",
                        help="where to write the fresh measurements (CI artifact)")
    parser.add_argument("--factor", type=float, default=3.0,
                        help="fail when fresh > factor * tracked (default 3)")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    with open(args.tracked) as fh:
        tracked = json.load(fh)
    cells = gated_cells(tracked.get("records", []))
    if not cells:
        print(f"ERROR: {args.tracked} holds no permutation records at "
              f"n={GATE_N}, p={GATE_P}; refresh it with bench_backends.py --json")
        return 2

    fresh_records = []
    regressions = []

    def judge(variant, record, seconds):
        fresh = dict(record, median_seconds=round(seconds, 6),
                     tracked_median_seconds=record["median_seconds"])
        fresh_records.append(fresh)
        tracked_median = float(record["median_seconds"])
        ratio = seconds / tracked_median if tracked_median > 0 else 1.0
        gated = tracked_median >= MIN_GATED_SECONDS
        regressed = gated and ratio > args.factor
        verdict = ("REGRESSED" if regressed
                   else "ok" if gated else "ok (below gate floor)")
        print(f"{variant:48s} tracked {tracked_median * 1e3:9.2f}ms  "
              f"fresh {seconds * 1e3:9.2f}ms  x{ratio:5.2f}  {verdict}")
        if regressed:
            regressions.append((variant, ratio))

    for record in cells:
        variant = "-".join(
            str(part) for part in (
                record["workload"], record["backend"], record.get("transport"),
                "persistent" if record.get("persistent") else "cold",
            ) if part
        )
        judge(variant, record, remeasure(record, rounds=args.rounds))

    for record in gated_kernel_cells(tracked):
        seconds = bench_kernels.median_seconds(
            record["workload"], record["kernels"], rounds=args.rounds
        )
        judge(f"kernels-{record['workload']}-{record['kernels']}",
              record, seconds)

    from repro.pro.telemetry import Telemetry

    for name, label, factor, option in (
        ("supervision-overhead", "supervised/plain", SUPERVISION_FACTOR, {"retry": 2}),
        ("telemetry-overhead", "observed/plain", TELEMETRY_FACTOR,
         {"telemetry": Telemetry()}),
    ):
        ratio = warm_dispatch_overhead(**option)
        ok = ratio <= factor
        fresh_records.append({
            "workload": name.replace("-", "_"),
            "ratio": round(ratio, 4),
            "factor": factor,
        })
        print(f"{name + ' (warm dispatch)':48s} {label} x{ratio:5.2f}  "
              f"{'ok' if ok else 'REGRESSED'} (gate {factor:.2f})")
        if not ok:
            regressions.append((name, ratio))

    with open(args.out, "w") as fh:
        json.dump({
            "suite": "bench_backends_regression_gate",
            "factor": args.factor,
            "rounds": args.rounds,
            "records": fresh_records,
        }, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(fresh_records)} fresh measurements to {args.out}")

    if regressions:
        print("PERF REGRESSION (>{}x): {}".format(
            args.factor,
            ", ".join(f"{name} x{ratio:.2f}" for name, ratio in regressions),
        ))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
