"""Smoke check of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` at a tiny size (``--tiny``) in
both modes and asserts that the result line names every metric of the mode
with its unit and a finite value, that the run is correct, that
``error_rate`` is 0 and that no process the run started is left.  Then
checks that a tree holding only the benchmark (no program source) exits
non-zero without printing a result.  Run from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from run import pids_where

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int):
    """One tiny run in a session of its own: ``(completed, pids left in it)``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    child = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=180)
    finally:
        left = pids_where("session", child.pid)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
    return subprocess.CompletedProcess(cmd, child.returncode, stdout, stderr), left


def check_workload(spec: dict, workload: str, trace: int) -> list:
    problems = []
    child, left = run(ROOT, workload, trace)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return [f"exit code {child.returncode}: {child.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if left:
        problems.append(f"processes left running: {left}")
    if "error_rate = 0 " not in child.stdout:
        problems.append("error_rate is not 0")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry.get('value')!r}")
        if f"\n{name} = " not in child.stdout:
            problems.append(f"{name} is not printed")
    return problems


def check_without_source() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        shutil.copytree(HERE, tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        child, _ = run(tree, "matrix-large", 0)
    if child.returncode == 0 or child.stdout.strip().startswith("{") \
            or '"correct"' in child.stdout:
        return [f"without src/: exit code {child.returncode}, stdout {child.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_workload(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print("  " + problem)
            failures += bool(problems)
    problems = check_without_source()
    print(f"no program source: {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print("  " + problem)
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
