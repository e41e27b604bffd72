"""The repository benchmark: Algorithm 1's layers under four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload perm-large-thread --seed 1 --seconds 15 --trace 0

Each workload is a closed loop of checked calls from one caller (see
``workloads.py`` and ``README.md``).  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is the separate traced run that
wraps each layer from outside (``layers.py``) and reports the per-layer
metrics.  Every output is checked outside the timed region.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report including the host metadata.  The program under test
is imported from ``src/`` of the same checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
from layers import Tracer, call_layers
from workloads import (MAIN, METADATA, N_PROCS, RECOVERY, SETUP, WARMUP, WORKLOADS,
                       Checker, Recovery, call, call_seed, get_workload,
                       kernel_tiers, make_input, reference)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "items_per_s": "1/s",
    "parallel_efficiency": "ratio",
    "recovery_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "permutation.shuffle_ms": "ms",
    "permutation.program_ms": "ms",
    "permutation.rank_imbalance": "ratio",
    "blocks.split_ms": "ms",
    "blocks.concat_ms": "ms",
    "parallel_matrix.ms": "ms",
    "communicator.barrier_wait_ms": "ms",
    "communicator.alltoallv_ms": "ms",
    "communicator.messages": "count",
    "communicator.words": "count",
    "communicator.supersteps": "count",
    "machine.build_ms": "ms",
    "streams.spawn_ms": "ms",
    "streams.rebuild_ms": "ms",
    "machine.run_ms": "ms",
    "backend.overhead_ms": "ms",
    "driver.unattributed_ms": "ms",
    "driver.unattributed_share": "ratio",
    "pool.dispatch_ms": "ms",
    "pool.collect_ms": "ms",
    "pool.heal_ms": "ms",
    "resilience.attempts": "count",
    "transport.encode_calls": "count",
    "transport.shared_encode_calls": "count",
    "transport.bytes_encoded": "bytes",
    "transport.oversize_fallbacks": "count",
    "sharedmem.ring_wraps": "count",
    "sharedmem.ring_resizes": "count",
    "engine.sample_matrix_ms": "ms",
    "engine.multivariate_batch_ms": "ms",
    "engine.draw_many_calls": "count",
    "rng.variates": "count",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer counts: reported as the mean over the first ``COUNTED_CALLS``
#: traced calls, so two traced runs at one seed report identical values.
COUNTS = ("communicator.messages", "communicator.words", "communicator.supersteps",
          "transport.encode_calls", "transport.shared_encode_calls",
          "transport.bytes_encoded", "transport.oversize_fallbacks",
          "sharedmem.ring_wraps", "sharedmem.ring_resizes",
          "engine.draw_many_calls", "rng.variates")
RECOVERY_LAYERS = ("pool.heal_ms", "resilience.attempts")
RANK_SIDE = ("permutation.shuffle_ms", "permutation.program_ms",
             "permutation.rank_imbalance", "parallel_matrix.ms",
             "communicator.barrier_wait_ms", "communicator.alltoallv_ms",
             "backend.overhead_ms")

WARMUP_CALLS = 3
SETUP_REPS = 5
COUNTED_CALLS = 4
COUNTED_RECOVERIES = 3
#: Baselines in the running median that estimates the host's speed.
SPEED_WINDOW = 9
#: Length of one traced or untraced block of the traced run's main phase.
TRACE_BLOCK_S = 0.5


def pin_memory() -> bool:
    """Fix the process's memory mode: 4 KiB pages, a fixed mmap threshold.

    The reference host is a VM where transparent huge pages are granted or
    not depending on its other tenants, and glibc's dynamic mmap threshold
    flips a process between reusing freed heap memory and faulting in fresh
    pages depending on its thread-arena history.  Either made
    ``perm-large-thread`` latency jump between about 30 and 80 ms from run
    to run.  So huge pages are turned off (``PR_SET_THP_DISABLE``) and the
    mmap threshold is set to its 128 KiB default, which turns off its
    dynamic adjustment: every array of 128 KiB or more is mapped fresh in
    4 KiB pages and returned on free.  Must run before NumPy allocates;
    children inherit both.  Returns False where the C library lacks either
    call.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, prctl = libc.mallopt, libc.prctl
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    m_mmap_threshold, pr_set_thp_disable = -3, 41
    return (mallopt(m_mmap_threshold, 128 * 1024) == 1
            and prctl(pr_set_thp_disable, 1, 0, 0, 0) == 0)


class Tally:
    """Checked calls attempted and failed (raised or failed the check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


# ----------------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------------
def setup_probe(w, seed: int) -> int:
    """Child side of a set-up measurement: one fresh start to a first call."""
    inputs = make_input(w)
    out = call(w, inputs, seed)
    print(time.monotonic(), flush=True)
    return 0 if Checker(w, inputs)(out) else 1


def setup_seconds(w, args, tally: Tally) -> list:
    """Seconds from a fresh interpreter's start until its first call returns.

    Covers interpreter start, imports, input generation, kernel-tier
    resolution, and on the process backend the pool spawn.  One child
    process per repetition; each is waited for.
    """
    times = []
    for rep in range(1 if args.tiny else SETUP_REPS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", w.name, "--seed", str(call_seed(args.seed, SETUP, rep))]
        if args.tiny:
            cmd.append("--tiny")
        start = time.monotonic()
        # A session of its own, so a probe that hangs is killed together
        # with every process it started.
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True, start_new_session=True)
        try:
            stdout, stderr = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            tally.record(False)
            continue
        lines = stdout.split()
        if tally.record(child.returncode == 0 and len(lines) == 1):
            times.append(float(lines[0]) - start)
        else:
            sys.stderr.write(stderr)
    return times


# ----------------------------------------------------------------------------
# Teardown
# ----------------------------------------------------------------------------
def pids_where(field: str, value: int) -> list:
    """Pids of the processes, zombies included, whose ``field`` (``"ppid"``
    or ``"session"``) in ``/proc/<pid>/stat`` is ``value``."""
    index, pids = {"ppid": 1, "session": 3}[field], []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended meanwhile
        if int(fields[index]) == value:
            pids.append(int(stat.parent.name))
    return pids


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Closes the default pools, then stops multiprocessing's resource tracker,
    which the shared-memory transport starts: it exits only when its pipe
    closes, so left alone it outlives this process.  A child still alive
    ``grace`` seconds later is killed; every child is reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.pro.backends.pool import clear_default_pools

    clear_default_pools()
    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace
    for pid in pids_where("ppid", os.getpid()):
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass  # reaped elsewhere


# ----------------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process and its live workers.

    Pages a forked worker shares with the parent count in both.
    """
    import multiprocessing

    total_kb = 0
    for pid in ["self"] + [p.pid for p in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024


def sequential_seconds(n: int, seed: int) -> float:
    """One ``Generator.permutation(n)``: the sequential baseline."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    rng.permutation(n)
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """``(result, seconds)``, or ``(None, seconds)`` when ``fn`` raised."""
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failed call is counted, not fatal
        print(f"call failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        out = None
    return out, time.perf_counter() - start


def host_metadata(tiers, pinned: bool) -> dict:
    import multiprocessing

    from repro.pro.backends.process import ProcessBackend

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "kernel_tiers": tiers,
        "mp_start_method": ProcessBackend().start_method,
        "mp_default_start_method": multiprocessing.get_start_method(allow_none=True),
        "memory_mode_pinned": pinned,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------------
class HostSpeed:
    """The host's current speed, as the sequential baseline's recent time.

    Each sample times one ``Generator.permutation(n)``; the estimate is the
    median of the last ``SPEED_WINDOW`` samples.  It follows the host's
    speed changes, which last seconds, but not the noise of one sample.
    """

    def __init__(self, n: int):
        self.n = n
        self._recent: deque = deque(maxlen=SPEED_WINDOW)

    def sample(self, seed: int) -> float:
        self._recent.append(sequential_seconds(self.n, seed))
        return statistics.median(self._recent)


class Bench:
    def __init__(self, w, args):
        self.w = w
        self.args = args
        self.tally = Tally()
        self.inputs = make_input(w)
        self.check = Checker(w, self.inputs)
        self.speed = HostSpeed(w.n_items)
        self.notes: list = []
        self.rss = 0.0
        self.tiers = None

    def seed(self, phase: int, index: int) -> int:
        return call_seed(self.args.seed, phase, index)

    def checked_call(self, seed: int, **options):
        """One call; returns its seconds, or ``None`` when it failed."""
        out, seconds = timed(call, self.w, self.inputs, seed, **options)
        ok = out is not None and self.check(out)
        return seconds if self.tally.record(ok) else None

    def identical_to_thread(self, out, seed: int) -> bool:
        return bool(np.array_equal(out, reference(self.w, self.inputs, seed)))

    # -- phases ---------------------------------------------------------------
    def warm_up(self) -> None:
        """Let lazy set-up (pools, tiers, caches) finish before timing."""
        for index in range(WARMUP_CALLS):
            self.checked_call(self.seed(WARMUP, index))

    def main_phase(self, until: float):
        """Closed loop of checked calls.

        Returns the call seconds and, per call, its ratio to the host-speed
        estimate sampled just before it (see ``end_to_end``).
        """
        calls, ratios, index = [], [], 0
        while time.monotonic() < until or not calls:
            seed = self.seed(MAIN, index)
            baseline = self.speed.sample(seed)
            out, seconds = timed(call, self.w, self.inputs, seed)
            ok = out is not None and self.check(out)
            if ok and self.w.identity_every and index % self.w.identity_every == 0:
                ok = self.identical_to_thread(out, seed)
            if self.tally.record(ok):
                calls.append(seconds)
                ratios.append(seconds / baseline)
            index += 1
        return calls, ratios

    def recovery_phase(self, until: float, *, tracer=None, minimum: int = 1):
        """Crash-recovery calls; every output must equal the thread backend's.

        Returns the recovery seconds, their ratios to the host-speed
        estimate sampled just before each, and (traced) their per-layer values.
        """
        recovery = Recovery(self.w)
        samples, ratios, layers, index = [], [], [], 0
        try:
            # The first call also spawns a process pool: not timed.
            for index in range(WARMUP_CALLS):
                self._recover(recovery, self.seed(WARMUP, WARMUP_CALLS + index), tracer)
            while time.monotonic() < until or len(samples) < minimum:
                seed = self.seed(RECOVERY, index)
                index += 1
                baseline = self.speed.sample(seed)
                seconds, spans, runs = self._recover(recovery, seed, tracer)
                if seconds is None:
                    continue
                samples.append(seconds)
                ratios.append(seconds / baseline)
                if tracer is not None:
                    layers.append({
                        "pool.heal_ms": call_layers(spans, seconds)["pool.heal_ms"],
                        "resilience.attempts": runs[-1].cost_report.retries + 1,
                    })
            self.rss = max(self.rss, peak_rss_mb())
        finally:
            recovery.close()
        return samples, ratios, layers

    def _recover(self, recovery, seed: int, tracer):
        out, seconds = timed(recovery.call, self.inputs, seed)
        spans, runs = tracer.take() if tracer is not None else ([], [])
        ok = out is not None and self.check(out) and self.identical_to_thread(out, seed)
        # A failed attempt leaves reference cycles (traceback frames holding
        # rank arrays); free them now, so peak_rss_mb does not depend on
        # when the collector happens to run.
        del out
        gc.collect()
        return (seconds if self.tally.record(ok) else None), spans, runs

    def finish_main(self) -> list:
        """Kernel tiers, memory, and the release of the default pools."""
        tiers = kernel_tiers(self.w, self.inputs, self.seed(METADATA, 0))
        self.rss = max(self.rss, peak_rss_mb())
        if self.w.backend == "process":
            # At most p worker processes at a time: the recovery phase
            # brings its own standing pool.
            from repro.pro.backends.pool import clear_default_pools

            clear_default_pools()
        return tiers

    # -- the two kinds of run ---------------------------------------------------
    def end_to_end(self) -> dict:
        """The end-to-end metrics, latencies calibrated to the reference host.

        The host's speed drifts by up to a third within seconds (other
        tenants), so raw per-run medians spread more than any useful bound.
        Before each call the benchmark times ``Generator.permutation`` of the
        same ``n`` (``HostSpeed``).  A latency is reported as its ratio to
        that host-speed estimate times the baseline's median on the
        reference host (``seq_reference_ms``): milliseconds at
        reference-host speed.  The raw values are printed alongside.
        """
        setup = setup_seconds(self.w, self.args, self.tally)
        self.warm_up()
        start = time.monotonic()
        end = start + self.args.seconds
        calls, ratios = self.main_phase(end - self.w.recovery_share * self.args.seconds)
        self.tiers = self.finish_main()
        recoveries, recovery_ratios = [], []
        if self.w.recovery_share:
            recoveries, recovery_ratios, _ = self.recovery_phase(end)
        if not calls or not setup:
            return {}
        reference = self.w.seq_reference_ms
        calibrated = [ratio * reference for ratio in ratios]
        cores = min(N_PROCS, os.cpu_count() or 1)
        print(f"calls timed: {len(calls)}, recoveries: {len(recoveries)}, "
              f"set-ups: {len(setup)}")
        print(f"raw: call_ms_p50 = {statistics.median(calls) * 1e3:.6g} ms, "
              f"call_ms_p90 = {float(np.percentile(calls, 90)) * 1e3:.6g} ms, "
              f"recovery_ms_p50 = {statistics.median(recoveries or calls) * 1e3:.6g} ms")
        if not recoveries:
            self.notes.append("recovery_ms_p50: the call runs in the caller with no "
                              "machine to crash; recovering means re-issuing it, so "
                              "the value is the call latency")
        return {
            "setup_s": statistics.median(setup),
            "call_ms_p50": statistics.median(calibrated),
            "call_ms_p90": float(np.percentile(calibrated, 90)),
            "items_per_s": self.w.n_items * len(calibrated) / (sum(calibrated) / 1e3),
            "parallel_efficiency": 2 / (cores * statistics.median(ratios)),
            "recovery_ms_p50": (statistics.median(recovery_ratios or ratios) * reference
                                if self.w.recovery_calibrated
                                else statistics.median(recoveries) * 1e3),
            "peak_rss_mb": self.rss,
        }

    def per_layer(self) -> dict:
        self.warm_up()
        start = time.monotonic()
        end = start + self.args.seconds
        tracer = Tracer()
        traced, untraced, layers, counts = self.traced_main(
            tracer, end - self.w.recovery_share * self.args.seconds)
        self.tiers = self.finish_main()
        recovery_layers = []
        if self.w.recovery_share:
            with tracer.installed():
                _, _, recovery_layers = self.recovery_phase(
                    end, tracer=tracer, minimum=COUNTED_RECOVERIES)
        if not layers or not untraced or not counts:
            return {}
        metrics = {name: statistics.median(call[name] for call in layers)
                   for name in layers[0]}
        metrics.update({name: statistics.fmean(c[name] for c in counts) for name in COUNTS})
        for name in RECOVERY_LAYERS:
            values = [r[name] for r in recovery_layers[:COUNTED_RECOVERIES]]
            metrics[name] = statistics.median(values) if values else 0.0
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(untraced))
        print(f"traced calls: {len(traced)}, untraced calls: {len(untraced)}, "
              f"traced recoveries: {len(recovery_layers)}")
        self.explain_gaps()
        return metrics

    def traced_main(self, tracer, until: float):
        """Traced and untraced blocks of calls, alternating, traced first.

        The first traced call is the baseline of the cumulative fleet
        counters; counts come from the ``COUNTED_CALLS`` calls after it.
        """
        from repro.pro.telemetry import Telemetry

        traced, untraced, layers, counts = [], [], [], []
        telemetry = Telemetry() if self.w.is_permutation else None
        index, tracing, previous = 0, True, None
        while time.monotonic() < until or not untraced or len(counts) < COUNTED_CALLS:
            block_end = time.monotonic() + (0.1 if self.args.tiny else TRACE_BLOCK_S)
            if tracing:
                with tracer.installed():
                    while (time.monotonic() < block_end
                           or len(counts) < COUNTED_CALLS):
                        seed = self.seed(MAIN, index)
                        index += 1
                        before = parent_transport()
                        rng = self.counting_rng(seed)
                        seconds = self.checked_call(seed, telemetry=telemetry, rng=rng)
                        spans, runs = tracer.take()
                        if seconds is None:
                            continue
                        traced.append(seconds)
                        layers.append(call_layers(spans, seconds))
                        fleet = telemetry.last if telemetry is not None else None
                        if len(counts) < COUNTED_CALLS and (
                                telemetry is None or previous is not None):
                            counts.append(self.call_counts(
                                layers[-1], runs, fleet, previous, before, rng))
                        previous = fleet
            else:
                while time.monotonic() < block_end:
                    seconds = self.checked_call(self.seed(MAIN, index))
                    index += 1
                    if seconds is not None:
                        untraced.append(seconds)
            tracing = not tracing
        return traced, untraced, layers, counts

    def counting_rng(self, seed: int):
        """A ``CountingRNG`` for the in-caller matrix sampler (same stream as ``seed``)."""
        if self.w.is_permutation:
            return None
        from repro.rng.counting import CountingRNG

        return CountingRNG(np.random.default_rng(seed))

    def call_counts(self, layers, runs, fleet, previous, before, rng) -> dict:
        counts = dict.fromkeys(COUNTS, 0)
        counts["engine.draw_many_calls"] = layers["engine.draw_many_calls"]
        if rng is not None:
            counts["rng.variates"] = rng.total_variates
        if runs:
            report = runs[-1].cost_report
            counts["communicator.messages"] = report.total("messages_sent")
            counts["communicator.words"] = report.total("words_sent")
            counts["communicator.supersteps"] = report.n_supersteps()
            counts["rng.variates"] = report.total("random_variates")
        after = parent_transport()
        for key in ("encode_calls", "shared_encode_calls", "bytes_encoded",
                    "oversize_fallbacks"):
            counts["transport." + key] = after.get(key, 0) - before.get(key, 0)
        if fleet is not None and previous is not None:
            old = {rank["rank"]: rank for rank in previous.ranks}
            for rank in fleet.ranks:
                prior = old.get(rank["rank"], {})
                for key in ("encode_calls", "shared_encode_calls", "bytes_encoded",
                            "oversize_fallbacks"):
                    counts["transport." + key] += (
                        rank["transport"][key] - (prior.get("transport") or {}).get(key, 0))
                ring, prior_ring = rank.get("ring") or {}, prior.get("ring") or {}
                counts["sharedmem.ring_wraps"] += ring.get("wraps", 0) - prior_ring.get("wraps", 0)
                counts["sharedmem.ring_resizes"] += (ring.get("resizes", 0)
                                                     - prior_ring.get("resizes", 0))
        return counts

    def explain_gaps(self) -> None:
        w = self.w
        if w.backend == "process":
            self.notes.append(
                "unavailable on the process backend: " + ", ".join(RANK_SIDE)
                + " (ranks run in worker processes, which the benchmark cannot "
                "time from outside; parent-side spans and repatriated counts only)")
        if w.backend == "thread":
            self.notes.append("zero on the thread backend: pool.*, transport.*, "
                              "sharedmem.* (ranks share the caller's address space)")
        if not w.is_permutation:
            self.notes.append("zero on matrix-large: every permutation, blocks, "
                              "machine, communicator, pool and resilience metric "
                              "(the sampler runs in the caller with no machine)")
        else:
            self.notes.append("rng.variates: 0 here; variates are counted through "
                              "a CountingRNG on matrix-large only")


def parent_transport() -> dict:
    """Summed transport counters of the caller's standing default pools."""
    from repro.pro.backends.pool import default_pools

    total: dict = {}
    for pool in default_pools().values():
        for key, value in pool.fabric.transport.stats.snapshot().items():
            total[key] = total.get(key, 0) + value
    return total


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up repetition (smoke check)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_memory()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = get_workload(args.workload, tiny=args.tiny)
    try:
        if args.setup_probe:
            return setup_probe(w, args.seed)
        bench = Bench(w, args)
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        stop_children()
    units = PER_LAYER if args.trace else END_TO_END
    tally = bench.tally
    correct = tally.failed == 0 and set(values) == set(units)
    print(f"workload {w.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("host " + json.dumps(host_metadata(bench.tiers, pinned)))
    for name, unit in units.items():
        if name in values:
            print(f"{name} = {values[name]:.6g} {unit}")
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for note in bench.notes:
        print("note: " + note)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
