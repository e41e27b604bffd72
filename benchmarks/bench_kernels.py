"""Throughput benches for the sampling kernel tiers (repro.core.kernels).

Times the two hot paths the compiled tier accelerates, once per kernel
request (``numpy`` and ``numba``):

``matrix_tree``
    The batched hypergeometric splitting tree over a 256 x 256
    communication matrix (``SamplerEngine.sample_matrix_batched``),
    reported as hypergeometric samples (matrix cells) per second.

``row_cut``
    The permutation row-cut of Algorithm 1's local phase: a Fisher-Yates
    shuffle of 1M items (``local_shuffle``), reported as permuted items
    per second.

Each cell records the *requested* tier and the tier that actually ran
(``tier_active``): on hosts without numba the ``numba`` request degrades
to the NumPy tier and the two cells coincide, so the tracked artifact
stays comparable across hosts instead of growing holes.  The results are
bit-identical across tiers by construction (see
``tests/unit/test_kernel_equivalence.py``); these cells track the only
thing that may differ -- throughput.

Direct execution merges the cells into the tracked perf artifact
(``kernel_records`` key, schema 4)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --json benchmarks/BENCH_backends.json

``--check`` additionally enforces the acceptance speedups of the compiled
tier -- >= 3x on ``matrix_tree`` and >= 2x on ``row_cut`` -- whenever the
numba tier is actually active (and is a no-op otherwise, so the same CI
line is safe on numba-less runners).
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.core.engine import SamplerEngine
from repro.core.kernels import reset_kernels, resolve_kernels
from repro.core.permutation import local_shuffle

#: Requested kernel tiers; "numba" degrades to the NumPy tier when absent.
TIERS = ["numpy", "numba"]
#: The matrix-tree point: a 256 x 256 matrix with balanced marginals.
MATRIX_P, MATRIX_ROW_SUM = 256, 64
#: The row-cut point: one local shuffle of this many items.
ROWCUT_N = 1_000_000
#: Acceptance speedups (numba vs numpy median) enforced by --check.
REQUIRED_SPEEDUP = {"matrix_tree": 3.0, "row_cut": 2.0}


def _workload(name, tier):
    """A zero-argument timed body for one (workload, tier) cell."""
    if name == "matrix_tree":
        engine = SamplerEngine("auto", kernels=tier)
        marginals = np.full(MATRIX_P, MATRIX_ROW_SUM, dtype=np.int64)

        def body(seed):
            return engine.sample_matrix_batched(
                marginals, marginals, np.random.default_rng(seed)
            )

        return body, MATRIX_P * MATRIX_P
    if name == "row_cut":
        items = np.arange(ROWCUT_N, dtype=np.int64)

        def body(seed):
            return local_shuffle(items, np.random.default_rng(seed), kernels=tier)

        return body, ROWCUT_N
    raise ValueError(f"unknown workload {name!r}")


def median_seconds(workload, kernels, *, rounds=3):
    """Median wall seconds of one cell (tier resolved fresh, JIT pre-warmed)."""
    tier = resolve_kernels(kernels)
    body, _ = _workload(workload, tier)
    body(0)  # untimed warm call: JIT compiles never land in a timed round
    samples = []
    for round_index in range(max(rounds, 1)):
        start = time.perf_counter()
        body(round_index + 1)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def collect_records(*, rounds=3):
    """One record per (workload, requested tier), with throughput cells."""
    records = []
    for kernels in TIERS:
        reset_kernels()
        tier = resolve_kernels(kernels)
        for workload in ("matrix_tree", "row_cut"):
            _, units = _workload(workload, tier)
            seconds = median_seconds(workload, kernels, rounds=rounds)
            record = {
                "workload": workload,
                "kernels": kernels,
                "tier_active": tier.name,
                "units": units,
                "median_seconds": round(seconds, 6),
            }
            key = ("samples_per_second" if workload == "matrix_tree"
                   else "items_per_second")
            record[key] = round(units / seconds) if seconds > 0 else None
            records.append(record)
    reset_kernels()
    return records


def speedups(records):
    """numba-vs-numpy median ratio per workload (None when not comparable)."""
    out = {}
    by_cell = {(r["workload"], r["kernels"]): r for r in records}
    for workload in ("matrix_tree", "row_cut"):
        base = by_cell.get((workload, "numpy"))
        compiled = by_cell.get((workload, "numba"))
        if not base or not compiled or compiled["tier_active"] != "numba":
            out[workload] = None
        elif compiled["median_seconds"] > 0:
            out[workload] = base["median_seconds"] / compiled["median_seconds"]
    return out


def merge_into_artifact(path, records):
    """Attach the kernel cells to the tracked artifact (schema 4 or later).

    A newer artifact keeps its schema number: the kernel cells are one part
    of it, and ``bench_backends.py`` owns the rest.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = {"suite": "bench_backends", "records": []}
    payload["schema"] = max(payload.get("schema", 4), 4)
    payload["kernel_records"] = records
    ratios = speedups(records)
    for workload, ratio in ratios.items():
        key = f"kernel_speedup_{workload}"
        if ratio is None:
            payload.pop(key, None)
        else:
            payload[key] = round(ratio, 2)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Track (and optionally gate) kernel-tier throughput."
    )
    parser.add_argument("--json", default=None,
                        help="merge cells into this tracked artifact "
                             "(e.g. benchmarks/BENCH_backends.json)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--check", action="store_true",
                        help="fail unless an active numba tier meets the "
                             "acceptance speedups (no-op when degraded)")
    args = parser.parse_args(argv)

    records = collect_records(rounds=args.rounds)
    for record in records:
        throughput = record.get("samples_per_second") or record.get("items_per_second")
        print(f"{record['workload']:12s} kernels={record['kernels']:6s} "
              f"(active: {record['tier_active']:6s}) "
              f"{record['median_seconds'] * 1e3:9.2f} ms   "
              f"{throughput:,.0f}/s")

    ratios = speedups(records)
    for workload, ratio in ratios.items():
        if ratio is not None:
            print(f"{workload}: numba tier {ratio:.2f}x the numpy tier")

    if args.json:
        merge_into_artifact(args.json, records)
        print(f"merged {len(records)} kernel cells into {args.json}")

    if args.check:
        active = any(r["tier_active"] == "numba" for r in records)
        if not active:
            print("check: numba tier not active on this host; speedup gate skipped")
            return 0
        failures = [
            f"{workload} x{ratios[workload]:.2f} < x{required:.1f}"
            for workload, required in REQUIRED_SPEEDUP.items()
            if ratios.get(workload) is not None and ratios[workload] < required
        ]
        if failures:
            print("KERNEL SPEEDUP GATE FAILED: " + ", ".join(failures))
            return 1
        print("check: compiled-tier speedups meet the acceptance thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
