"""CI chaos gate: every committed fault plan must recover bit-identically.

Sweeps the committed chaos plans
(:func:`repro.pro.resilience.committed_chaos_plans`) across the backend
matrix -- ``{thread, sim, process} x {sharedmem, pickle} x {persistent,
cold}`` at the canonical ``p = 4`` -- under ``RetryPolicy(max_attempts=2)``.
Each cell injects the plan's fault on the first attempt and must (a)
complete, (b) spend exactly one retry, and (c) return results
bit-identical to a fault-free reference run (results are
backend-invariant for a fixed seed, so one clean thread run references
every cell).  A persistent process cell must also (d) heal in scope:
its ``pool-heal`` events respawn no rank.  Every committed plan raises
(a crashed rank, a dropped message, a barrier timeout) rather than
kills, and a rank that raised, like one that only saw the abort,
reports and keeps its process; only a rank that dies makes heal respawn
the fleet.  Writes the per-cell outcomes, with each persistent cell's
observed respawn set and heal time (``heal_ms``), as a JSON artifact
for the workflow to upload.

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python benchmarks/check_chaos_recovery.py \
        --out chaos-report.json --fleet-report chaos-fleet-report.json

Exit code 0 = every cell recovered bit-identically, 1 = at least one
cell failed to recover (or recovered with different results).

``--fleet-report`` additionally attaches a
:class:`~repro.pro.telemetry.Telemetry` recorder to every cell's machine
and writes the collected :class:`~repro.pro.telemetry.FleetReport`
dictionaries -- one per (plan, cell), each carrying the heal/retry event
sequence the recovery produced -- as a second CI artifact.
"""

import argparse
import json
import sys
import time

from repro.pro.backends.faults import FaultInjectingBackend
from repro.pro.machine import PROMachine
from repro.pro.resilience import RetryPolicy, committed_chaos_plans
from repro.pro.telemetry import event_seq, events_since
from repro.util.timeouts import scale_timeout

P = 4  # the rank count the committed plans address
SEED = 20030607

#: (backend, transport, persistent) cells of the sweep.
CELLS = [
    ("thread", None, False),
    ("sim", None, False),
    ("process", "sharedmem", False),
    ("process", "pickle", False),
    ("process", "sharedmem", True),
    ("process", "pickle", True),
]

def _chaos_program(ctx):
    # One surface per committed fault class: an rng draw (stream parity
    # under replay), an all-to-all (messages for DropMessage, early fabric
    # ops for CrashRank) and a barrier (BarrierTimeout).
    value = float(ctx.rng.random())
    gathered = ctx.comm.alltoall([value * (j + 1) for j in range(ctx.comm.size)])
    ctx.comm.barrier()
    return value, gathered


def _cell_id(backend, transport, persistent):
    vid = backend if transport is None else f"{backend}-{transport}"
    return f"{vid}-persistent" if persistent else vid


def run_sweep(*, fleet_reports=None):
    """Run every (plan, cell) combination; returns (reports, failures).

    When ``fleet_reports`` is a list, every cell's machine gets a
    :class:`~repro.pro.telemetry.Telemetry` recorder and the collected
    FleetReport dicts (tagged with plan and cell) are appended to it.
    """
    from repro.pro.telemetry import Telemetry

    clean = PROMachine(P, seed=SEED, backend="thread")
    try:
        reference = clean.run(_chaos_program).results
    finally:
        clean.close()

    plans = committed_chaos_plans()
    policy = RetryPolicy(max_attempts=2)
    reports, failures = [], []
    for plan_name in sorted(plans):
        for backend, transport, persistent in CELLS:
            cell = _cell_id(backend, transport, persistent)
            options = {} if transport is None else {"transport": transport}
            if persistent:
                options["persistent"] = True
            wrapper = FaultInjectingBackend(backend, plans[plan_name], **options)
            telemetry = Telemetry() if fleet_reports is not None else None
            # The timeout bounds how long a dropped message takes to
            # surface; it is the recovery-latency ceiling of drop plans.
            machine = PROMachine(P, seed=SEED, backend=wrapper, retry=policy,
                                 timeout=scale_timeout(5), telemetry=telemetry)
            started = time.perf_counter()
            seq = event_seq()
            verdict, detail = "recovered", ""
            try:
                try:
                    result = machine.run(_chaos_program)
                finally:
                    machine.close()
                if result.results != reference:
                    verdict = "WRONG RESULTS"
                    detail = "recovered output differs from the fault-free run"
                elif result.cost_report.retries != 1:
                    verdict = "NO RETRY"
                    detail = (f"expected exactly one retry, saw "
                              f"{result.cost_report.retries}")
            except Exception as exc:  # noqa: BLE001 - report, do not abort sweep
                verdict = "FAILED"
                detail = repr(exc)
            elapsed = time.perf_counter() - started
            scope = {}
            if backend == "process" and persistent:
                heals = [event for event in events_since(seq)
                         if event["kind"] == "pool-heal"]
                scope = {
                    "respawned": sorted({rank for event in heals
                                         for rank in event["respawned"]}),
                    "heal_ms": [event["heal_ms"] for event in heals],
                }
                if verdict == "recovered" and not heals:
                    verdict, detail = "NO HEAL", "no pool-heal event"
                elif verdict == "recovered" and scope["respawned"]:
                    verdict = "WRONG SCOPE"
                    detail = (f"heal respawned {scope['respawned']}, "
                              "expected none")
            ok = verdict == "recovered"
            reports.append({
                "plan": plan_name,
                "cell": cell,
                "verdict": verdict,
                "detail": detail,
                "seconds": round(elapsed, 3),
                **scope,
            })
            if not ok:
                failures.append((plan_name, cell, verdict, detail))
            if telemetry is not None and telemetry.last is not None:
                fleet_reports.append({
                    "plan": plan_name, "cell": cell,
                    "fleet_report": telemetry.last.to_dict(),
                })
            print(f"{plan_name:28s} {cell:24s} {elapsed * 1e3:8.0f}ms  {verdict}"
                  + (f"  ({detail})" if detail and not ok else ""))
    return reports, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="chaos-report.json",
                        help="where to write per-cell outcomes (CI artifact)")
    parser.add_argument("--fleet-report", default=None, metavar="PATH",
                        help="also write every cell's repatriated FleetReport "
                             "(telemetry: retry/heal events, transport "
                             "counters) to PATH (CI artifact)")
    args = parser.parse_args(argv)

    fleet_reports = [] if args.fleet_report is not None else None
    reports, failures = run_sweep(fleet_reports=fleet_reports)

    if fleet_reports is not None:
        with open(args.fleet_report, "w") as fh:
            json.dump({
                "suite": "chaos_recovery_fleet_reports",
                "p": P,
                "seed": SEED,
                "reports": fleet_reports,
            }, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(fleet_reports)} fleet reports to {args.fleet_report}")

    with open(args.out, "w") as fh:
        json.dump({
            "suite": "chaos_recovery_gate",
            "p": P,
            "seed": SEED,
            "max_attempts": 2,
            "cells": reports,
        }, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(reports)} cell outcomes to {args.out}")

    if failures:
        print("CHAOS GATE FAILED: " + "; ".join(
            f"{plan} on {cell}: {verdict}" for plan, cell, verdict, _ in failures))
        return 1
    print(f"all {len(reports)} chaos cells recovered bit-identically "
          "(retry budget 2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
