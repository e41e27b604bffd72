"""Throughput benches for the two NumPy sampling hot paths.

``matrix_tree``
    The batched hypergeometric splitting tree over a 256 x 256
    communication matrix (``SamplerEngine.sample_matrix_batched``),
    reported as hypergeometric samples (matrix cells) per second.

``row_cut``
    The permutation row-cut of Algorithm 1's local phase: a Fisher-Yates
    shuffle of 1M items (``local_shuffle``), reported as permuted items
    per second.

Direct execution merges the cells into the tracked perf artifact
(``kernel_records`` key), where ``check_bench_regression.py`` gates them::

    PYTHONPATH=src python benchmarks/bench_kernels.py --json benchmarks/BENCH_backends.json
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.core.engine import SamplerEngine
from repro.core.permutation import local_shuffle

#: The matrix-tree point: a 256 x 256 matrix with balanced marginals.
MATRIX_P, MATRIX_ROW_SUM = 256, 64
#: The row-cut point: one local shuffle of this many items.
ROWCUT_N = 1_000_000
#: Workload name -> the throughput key its record carries.
WORKLOADS = {"matrix_tree": "samples_per_second", "row_cut": "items_per_second"}


def _workload(name):
    """A timed body taking a seed, and the units one call processes."""
    if name == "matrix_tree":
        engine = SamplerEngine("auto")
        marginals = np.full(MATRIX_P, MATRIX_ROW_SUM, dtype=np.int64)

        def body(seed):
            return engine.sample_matrix_batched(
                marginals, marginals, np.random.default_rng(seed)
            )

        return body, MATRIX_P * MATRIX_P
    if name == "row_cut":
        items = np.arange(ROWCUT_N, dtype=np.int64)

        def body(seed):
            return local_shuffle(items, np.random.default_rng(seed))

        return body, ROWCUT_N
    raise ValueError(f"unknown workload {name!r}")


def median_seconds(workload, *, rounds=3):
    """Median wall seconds of one cell, after one untimed warm call."""
    body, _ = _workload(workload)
    body(0)
    samples = []
    for round_index in range(max(rounds, 1)):
        start = time.perf_counter()
        body(round_index + 1)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def collect_records(*, rounds=3):
    """One record per workload, with its throughput."""
    records = []
    for workload, key in WORKLOADS.items():
        _, units = _workload(workload)
        seconds = median_seconds(workload, rounds=rounds)
        records.append({
            "workload": workload,
            "units": units,
            "median_seconds": round(seconds, 6),
            key: round(units / seconds) if seconds > 0 else None,
        })
    return records


def merge_into_artifact(path, records):
    """Replace the ``kernel_records`` of the tracked artifact.

    Every other key is kept: ``bench_backends.py`` owns the rest.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = {"suite": "bench_backends", "records": []}
    payload["kernel_records"] = records
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Track the throughput of the NumPy sampling hot paths."
    )
    parser.add_argument("--json", default=None,
                        help="merge cells into this tracked artifact "
                             "(e.g. benchmarks/BENCH_backends.json)")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    records = collect_records(rounds=args.rounds)
    for record in records:
        throughput = record[WORKLOADS[record["workload"]]]
        print(f"{record['workload']:12s} {record['median_seconds'] * 1e3:9.2f} ms   "
              f"{throughput:,.0f}/s")
    if args.json:
        merge_into_artifact(args.json, records)
        print(f"merged {len(records)} kernel cells into {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
