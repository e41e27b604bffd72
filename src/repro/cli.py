"""Command-line interface.

The CLI wraps the most common library entry points so that the reproduction
can be exercised without writing Python::

    python -m repro permute --n 1000000 --procs 8 --seed 42
    python -m repro matrix --sizes 250,250,250,250 --algorithm alg6
    python -m repro scaling --paper
    python -m repro uniformity --n 4 --procs 2 --samples 5000
    python -m repro randoms --procs 16 --items-per-proc 2000
    python -m repro stats --procs 4 --backend process

Every sub-command prints a short plain-text report; ``--help`` on any
sub-command documents its options.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.util.errors import ValidationError
from repro.util.validation import as_int_array

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Coarse-grained parallel uniform random permutations "
                    "(reproduction of Gustedt, RR-4639 / SPAA 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The machine flags shared by permute, matrix and stats.
    machine_flags = argparse.ArgumentParser(add_help=False)
    machine_flags.add_argument(
        "--backend", choices=["thread", "process", "sim", "inline"], default=None,
        help="execution backend: thread (default), process (one OS process per "
             "rank, on a standing pool spawned once and reused by every "
             "run), sim (all ranks stepped under a deterministic schedule, see "
             "--schedule-seed) or inline (p == 1 only); results are "
             "seed-identical across backends (the in-process matrix "
             "algorithms reject it)")
    machine_flags.add_argument(
        "--schedule-seed", type=int, default=None, metavar="K",
        help="rank-interleaving seed of the sim backend (--backend sim): "
             "each K replays one deterministic schedule; rejected for other "
             "backends, seed-identical results under every schedule")
    machine_flags.add_argument(
        "--retries", type=int, default=None, metavar="K",
        help="total attempts a run gets against transient backend failures "
             "(crashed ranks, broken barriers): the supervised worker pool "
             "respawns dead ranks and replays the epoch with the same "
             "per-rank streams, so recovered output is seed-identical to a "
             "fault-free run; unset = fail fast (no retry)")
    machine_flags.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole run including retries; when it "
             "expires the run fails with a DeadlineError instead of waiting "
             "out communication timeouts; without --retries the run gets "
             "one attempt")
    telemetry_json_kwargs = dict(
        type=str, default=None, metavar="PATH",
        help="write the run's FleetReport (per-rank transport counters, "
             "pool/resilience events) to PATH as JSON; collection "
             "never perturbs the results",
    )

    permute = sub.add_parser("permute", parents=[machine_flags],
                             help="permute a vector of 0..n-1 and report resource usage")
    permute.add_argument("--n", type=int, required=True, help="number of items")
    permute.add_argument("--procs", type=int, default=4, help="number of virtual processors")
    permute.add_argument("--seed", type=int, default=None, help="machine seed")
    permute.add_argument("--matrix-algorithm", choices=["root", "alg5", "alg6"], default="root")
    permute.add_argument("--repeats", type=int, default=1,
                         help="how many permutations to run on the same machine "
                              "(a process backend pays its spawn cost once)")
    permute.add_argument("--head", type=int, default=10, help="how many output items to print")
    permute.add_argument("--verbose", action="store_true",
                         help="also print the fleet report (per-rank transport "
                              "counters and resilience events repatriated "
                              "with the results)")
    permute.add_argument("--telemetry-json", **telemetry_json_kwargs)

    matrix = sub.add_parser("matrix", parents=[machine_flags],
                            help="sample a communication matrix (Problem 2)")
    matrix.add_argument("--sizes", type=str, required=True,
                        help="comma-separated source block sizes, e.g. 10,10,10")
    matrix.add_argument("--target-sizes", type=str, default=None,
                        help="comma-separated target block sizes (default: same as --sizes)")
    matrix.add_argument("--algorithm",
                        choices=["sequential", "recursive", "batched", "alg5", "alg6", "root"],
                        default="sequential",
                        help="sequential/recursive/batched sample in-process; "
                             "alg5/alg6/root run on a PRO machine")
    matrix.add_argument("--telemetry-json", **telemetry_json_kwargs)
    matrix.add_argument("--seed", type=int, default=None)

    stats = sub.add_parser(
        "stats", parents=[machine_flags],
        help="run a fixed permutation workload and print its fleet report "
             "(repatriated telemetry: transport counters, events)")
    stats.add_argument("--n", type=int, default=100_000, help="number of items to permute")
    stats.add_argument("--procs", type=int, default=4, help="number of virtual processors")
    stats.add_argument("--seed", type=int, default=0, help="machine seed")
    stats.add_argument("--repeats", type=int, default=1,
                       help="how many permutations to run (each run appends one "
                            "FleetReport; the last one is printed)")
    stats.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="also write every collected FleetReport to PATH as "
                            "a JSON list")

    scaling = sub.add_parser("scaling", help="regenerate the paper's scaling table (experiment T1)")
    scaling.add_argument("--paper", action="store_true",
                         help="print the calibrated-model table for the paper's 480e6-item workload")
    scaling.add_argument("--measure", type=int, default=None, metavar="N",
                         help="measure the real implementation on N items on this machine")
    scaling.add_argument("--procs", type=str, default="2,4,8",
                         help="comma-separated processor counts for --measure")
    scaling.add_argument("--backend", choices=["thread", "process"], default="thread",
                         help="execution backend for --measure runs")

    uniformity = sub.add_parser("uniformity", help="chi-square uniformity test of the parallel permutation")
    uniformity.add_argument("--n", type=int, default=4, help="permutation size (<= 8 for the exhaustive test)")
    uniformity.add_argument("--procs", type=int, default=2)
    uniformity.add_argument("--samples", type=int, default=5000)
    uniformity.add_argument("--seed", type=int, default=0)

    randoms = sub.add_parser("randoms", help="uniform variates per h(,) call during matrix sampling (experiment E2)")
    randoms.add_argument("--procs", type=int, default=16)
    randoms.add_argument("--items-per-proc", type=int, default=2000)
    randoms.add_argument("--matrices", type=int, default=5)
    randoms.add_argument("--method", choices=["auto", "hin", "hrua"], default="auto")
    randoms.add_argument("--seed", type=int, default=42)

    explore = sub.add_parser(
        "explore",
        help="coverage-guided state-space exploration on the sim backend: "
             "schedules x fault plans x programs x p, with auto-shrunk "
             "reproducers for any schedule-dependent behaviour")
    explore.add_argument("--budget", type=int, default=500,
                         help="total simulated runs to spend (default 500)")
    explore.add_argument("--programs", type=str, default=",".join(
        ("alg1", "alg5", "alg6", "barrier-ring", "scatter-gather")),
        help="comma-separated explore programs (see repro.pro.explore."
             "EXPLORE_PROGRAMS); default sweeps the paper algorithms plus "
             "the barrier/scatter micro-programs")
    explore.add_argument("--procs", type=str, default="2,4,8",
                         help="comma-separated processor counts (default 2,4,8)")
    explore.add_argument("--plans", choices=["auto", "committed", "none"],
                         default="auto",
                         help="fault-plan axis: auto (committed chaos plans plus "
                              "single-fault plans derived from each cell's op "
                              "log, the default), committed, or none")
    explore.add_argument("--baseline", type=int, default=0, metavar="DRAWS",
                         help="also measure DRAWS plain schedule_seed draws as "
                              "the random baseline and report the coverage ratio")
    explore.add_argument("--seed", type=int, default=8128,
                         help="machine seed shared by every cell (default 8128)")
    explore.add_argument("--explore-seed", type=int, default=0,
                         help="seed of the PCT priority sampler (default 0)")
    explore.add_argument("--max-decisions", type=int, default=2048,
                         help="scheduling decisions before a run counts as a "
                              "hang (default 2048)")
    explore.add_argument("--json", type=str, default=None, metavar="PATH",
                         help="write the full coverage report to PATH as JSON")
    explore.add_argument("--commit", type=str, default=None, metavar="DIR",
                         help="emit a pytest reproducer for every finding into "
                              "DIR (conventionally tests/simulation/reproducers)")
    explore.add_argument("--min-distinct", type=int, default=None, metavar="N",
                         help="fail (exit 4) when fewer than N distinct trace "
                              "fingerprints were covered -- the CI coverage "
                              "regression gate")

    return parser


def _parse_sizes(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated integers, got {text!r}") from None
    return as_int_array(values, flag).tolist()


def _resolve_retry(args):
    """Build the RetryPolicy requested by --retries/--deadline (or None)."""
    if args.retries is None and args.deadline is None:
        return None
    from repro.pro.resilience import RetryPolicy

    # --deadline alone still gets a policy: a single bounded attempt.
    return RetryPolicy(max_attempts=args.retries if args.retries is not None else 1,
                       deadline=args.deadline)


def _resolve_telemetry(args):
    """Build the Telemetry recorder requested by --verbose/--telemetry-json."""
    wants = getattr(args, "verbose", False) or getattr(args, "telemetry_json", None)
    if not wants:
        return None
    from repro.pro.telemetry import Telemetry

    return Telemetry()


def _dump_telemetry_json(telemetry, path) -> None:
    """Write the recorder's last FleetReport to ``path`` as JSON."""
    if telemetry is None or path is None or telemetry.last is None:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(telemetry.last.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"fleet report written to {path}")


def _build_machine(args, telemetry):
    """The machine the permute/stats flags describe, counting random variates.

    A process backend runs on a private standing pool, spawned once and
    reused by every --repeats run.
    """
    from repro.pro.machine import PROMachine

    backend_options = ({} if args.schedule_seed is None
                       else {"schedule_seed": args.schedule_seed})
    return PROMachine(
        args.procs, seed=args.seed, backend=args.backend or "thread",
        backend_options=backend_options, count_random_variates=True,
        retry=_resolve_retry(args), telemetry=telemetry,
    )


def _cmd_permute(args) -> int:
    from repro.core.blocks import BlockDistribution
    from repro.core.permutation import permute_distributed

    telemetry = _resolve_telemetry(args)
    machine = _build_machine(args, telemetry)
    data = np.arange(args.n, dtype=np.int64)
    blocks = [b.copy() for b in BlockDistribution.balanced(args.n, args.procs).split(data)]
    try:
        repeats = max(int(args.repeats), 1)
        for iteration in range(repeats):
            out_blocks, run = permute_distributed(
                blocks, machine=machine, matrix_algorithm=args.matrix_algorithm
            )
            label = (f"run {iteration + 1}/{repeats}: " if repeats > 1 else "")
            print(f"{label}permuted {args.n} items on {args.procs} virtual processors "
                  f"in {run.wall_clock_seconds * 1e3:.1f} ms (wall clock, "
                  f"{machine.backend.name} backend)")
    finally:
        machine.close()
    out = np.concatenate([np.asarray(b) for b in out_blocks]) if args.n else np.empty(0, dtype=np.int64)
    print(f"first {min(args.head, args.n)} output items: {out[:args.head].tolist()}")
    print(run.cost_report.summary_table())
    # One formatting path for per-rank details: the FleetReport renders the
    # transport counters and resilience events in one place.
    if args.verbose and telemetry is not None and telemetry.last is not None:
        print(telemetry.last.summary())
    _dump_telemetry_json(telemetry, args.telemetry_json)
    return 0


def _cmd_matrix(args) -> int:
    from repro.core.api import sample_communication_matrix

    sizes = _parse_sizes(args.sizes, "--sizes")
    targets = _parse_sizes(args.target_sizes, "--target-sizes") if args.target_sizes else None
    parallel = args.algorithm in ("alg5", "alg6", "root")
    telemetry = _resolve_telemetry(args)
    matrix = sample_communication_matrix(
        sizes, targets, parallel=parallel,
        algorithm=args.algorithm if args.algorithm != "sequential" or parallel else None,
        # The API rejects the machine flags for the in-process path.
        backend=args.backend, schedule_seed=args.schedule_seed,
        retry=_resolve_retry(args), telemetry=telemetry,
        seed=args.seed,
    )
    print(f"communication matrix ({len(sizes)} x {len(targets) if targets else len(sizes)}), "
          f"algorithm={args.algorithm}")
    for row in matrix:
        print("  " + " ".join(f"{int(v):6d}" for v in row))
    print(f"row sums   : {matrix.sum(axis=1).tolist()}")
    print(f"column sums: {matrix.sum(axis=0).tolist()}")
    _dump_telemetry_json(telemetry, args.telemetry_json)
    return 0


def _cmd_stats(args) -> int:
    from repro.core.blocks import BlockDistribution
    from repro.core.permutation import permute_distributed
    from repro.pro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = _build_machine(args, telemetry)
    data = np.arange(args.n, dtype=np.int64)
    blocks = [b.copy() for b in BlockDistribution.balanced(args.n, args.procs).split(data)]
    try:
        for _ in range(max(int(args.repeats), 1)):
            permute_distributed(blocks, machine=machine)
    finally:
        machine.close()
    print(f"permuted {args.n} items x {max(int(args.repeats), 1)} run(s) on "
          f"{args.procs} virtual processors "
          f"({machine.backend.name} backend)")
    print(telemetry.last.summary())
    if args.json is not None:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([report.to_dict() for report in telemetry.reports],
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"{len(telemetry)} fleet report(s) written to {args.json}")
    return 0


def _cmd_scaling(args) -> int:
    from repro.bench.scaling import (
        crossover_processors,
        format_scaling_rows,
        measured_scaling_table,
        overhead_factor,
        predicted_scaling_table,
    )

    did_something = False
    if args.paper or args.measure is None:
        rows = predicted_scaling_table()
        print(format_scaling_rows(rows, seconds_key="predicted_seconds",
                                  title="Calibrated model vs the paper's table (480e6 items)"))
        print(f"overhead factor: {overhead_factor(rows):.2f}; "
              f"crossover at p = {crossover_processors(rows)}")
        did_something = True
    if args.measure is not None:
        procs = _parse_sizes(args.procs, "--procs")
        rows = measured_scaling_table(
            args.measure, proc_counts=procs, repeats=1, backend=args.backend,
        )
        print(format_scaling_rows(
            rows, seconds_key="measured_seconds",
            title=f"Measured on this machine ({args.measure} items, {args.backend} backend)"))
        did_something = True
    return 0 if did_something else 1


def _cmd_uniformity(args) -> int:
    from repro.core.permutation import random_permutation_indices
    from repro.pro.machine import PROMachine
    from repro.stats.uniformity import chi_square_permutation_uniformity, position_occupancy_test

    machine = PROMachine(args.procs, seed=args.seed)
    def sampler():
        return random_permutation_indices(args.n, machine=machine)

    if args.n <= 8:
        result = chi_square_permutation_uniformity(sampler, args.n, args.samples)
        kind = f"exhaustive over {args.n}! permutations"
    else:
        result = position_occupancy_test(sampler, args.n, args.samples)
        kind = "item/position occupancy"
    print(f"uniformity test ({kind}), {args.samples} samples, "
          f"n={args.n}, p={args.procs}")
    print(f"chi2 = {result.statistic:.1f} on {result.degrees_of_freedom} dof, "
          f"p-value = {result.p_value:.4f}")
    print("uniformity " + ("NOT rejected" if result.p_value > 0.001 else "REJECTED"))
    return 0 if result.p_value > 0.001 else 2


def _cmd_randoms(args) -> int:
    from repro.bench.randoms import uniforms_per_h_call

    result = uniforms_per_h_call(
        args.procs, args.items_per_proc, n_matrices=args.matrices,
        method=args.method, seed=args.seed,
    )
    print(f"matrix sampling with p={args.procs}, m={args.items_per_proc}, "
          f"{args.matrices} matrices, method={args.method}")
    print(f"h(,) calls          : {result['n_calls']}")
    print(f"uniforms per call   : mean {result['mean_uniforms']:.2f}, worst {result['max_uniforms']}")
    print("paper (Section 6)   : mean < 1.5, worst <= 10 (Zechner's HRUE sampler)")
    return 0


def _cmd_explore(args) -> int:
    from repro.pro.explore import explore

    report = explore(
        programs=[name for name in args.programs.split(",") if name.strip()],
        procs=_parse_sizes(args.procs, "--procs"),
        plans=args.plans,
        budget=args.budget,
        machine_seed=args.seed,
        baseline_draws=args.baseline,
        commit_dir=args.commit,
        max_decisions=args.max_decisions,
        explore_seed=args.explore_seed,
    )
    print(report.summary())
    if args.json is not None:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"coverage report written to {args.json}")
    if report.findings:
        return 3
    if args.min_distinct is not None and report.distinct_total < args.min_distinct:
        print(f"coverage regression: {report.distinct_total} distinct trace "
              f"fingerprints < required {args.min_distinct}")
        return 4
    return 0


_COMMANDS = {
    "permute": _cmd_permute,
    "matrix": _cmd_matrix,
    "stats": _cmd_stats,
    "scaling": _cmd_scaling,
    "uniformity": _cmd_uniformity,
    "randoms": _cmd_randoms,
    "explore": _cmd_explore,
}


def main(argv=None) -> int:
    """Entry point of ``python -m repro`` (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised through __main__.py
    sys.exit(main())
