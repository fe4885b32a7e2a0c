"""Measurement machinery shared by every e2ebench workload.

Nothing in here knows a workload: it locates the checkout's ``src/``, times a
closed loop of passes, checks every answer, and records the noise controls
(calibration loop, GC discipline, host block) beside the numbers instead of
assuming them.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def require_repro() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or exit non-zero.

    The benchmark measures the engine *of the checkout it sits in*, never an
    installed copy, so a directory that holds only the benchmark must fail.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no engine to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# Noise controls
# ----------------------------------------------------------------------
_CALIBRATION_STEPS = 200_000


def calibrate(rounds: int = 5) -> float:
    """Best-of-``rounds`` speed of a fixed pure-Python loop, in loop steps per second.

    The loop touches nothing of the engine, so two calls that disagree mean
    the host moved, not the code.
    """
    best = math.inf
    for _ in range(rounds):
        started = time.perf_counter()
        value = 0
        for step in range(_CALIBRATION_STEPS):
            value = (value * 31 + step) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return _CALIBRATION_STEPS / best


_PROBE_STEPS = 1_500


def host_probe() -> float:
    """Seconds a ~0.1 ms slice of the calibration loop takes right now.

    Run between ops, off their clock, it says how fast the *host* was around
    each op without looking at the op: see :func:`quiet_samples`.
    """
    started = time.perf_counter()
    value = 0
    for step in range(_PROBE_STEPS):
        value = (value * 31 + step) % 1_000_003
    return time.perf_counter() - started


def pin_to_one_cpu() -> None:
    """Confine this process (and every thread it starts) to the last CPU it may use.

    The wire workloads hand each op across three threads.  Left free on a
    2-vCPU guest those threads sit on different vCPUs, every hand-off wakes a
    halted vCPU through the hypervisor, and when the host is busy that wake-up
    is what gets measured: alternating runs during a noisy spell gave
    480-760 ops/s unpinned against 900-1020 pinned on ``wire-ldbc-hot``
    (both 1000-1035 when the host was quiet).  The GIL lets one thread run at
    a time anyway, so one CPU costs nothing; no workload forks.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_block() -> dict:
    """What the numbers were measured on (call after :func:`pin_to_one_cpu`)."""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "load": "closed loop, 1 client, at most nproc threads/connections, process pinned to the one CPU listed in affinity",
    }


@contextmanager
def quiesced():
    """No collector pauses inside a timed pass; everything older is frozen out."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(ordered: list[float], quantile: float) -> float:
    """The smallest value of a sorted, non-empty list with less than ``1 - quantile`` of it above.

    A pass is a few dozen to a few hundred fixed ops, so the pooled sample has
    cliffs between one op's executions and the next heavier op's, and
    ``quantile`` of a whole number of slots lands exactly on one
    (``closure-sparse``: 40 slots, p95 = 38 of them).  This rank takes the
    lowest sample above the cliff; the nearest rank takes the highest below
    it, which is the noisiest sample of 38 ops and moved 25 % run to run.
    """
    return ordered[min(len(ordered) - 1, math.floor(quantile * len(ordered)))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Answer checking
# ----------------------------------------------------------------------
def sha256_lines(lines) -> str:
    """SHA-256 of the canonical one-row-per-line rendering (the replay gate's recipe)."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def rendered_digest(paths) -> str:
    """The replay gate's digest of a path set: sorted paths, one ``str(path)`` per line."""
    return sha256_lines(str(path) for path in paths.sorted())


def fingerprint(paths) -> tuple[int, int]:
    """Order-independent (row count, 64-bit hash sum) of a path collection.

    ``hash(Path)`` is salted per process, so a fingerprint only compares with
    one taken in the same process — which is where the reference answers
    live.  It costs ~0.1 µs per row where the rendered digest costs ~3 µs,
    which is what lets *every* measured op of the closure workloads be
    checked without the check outweighing the query.
    """
    total = 0
    count = 0
    for path in paths:
        total += hash(path)
        count += 1
    return count, total & 0xFFFFFFFFFFFFFFFF


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Measurement:
    """Everything one untraced run of one workload observed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds, every op of every pass
        # slot -> one (host probe, latency, CPU) triple, all in seconds, per pass.
        # A slot is one place in the fixed multiset: (op, n-th time it comes up
        # in the pass), so every slot is executed exactly once per pass.
        self.samples: dict[tuple, list[tuple[float, float, float]]] = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # first few, for the report

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def run_pass(workload, measurement: Measurement, *, strict: bool = False) -> None:
    """One pass: every op of the workload's fixed multiset once, timed one by one.

    The clock runs from the call into the system until the last row is in the
    client's hands; checking the answer and probing the host happen between
    ops, off the clock.  CPU is read around the same interval for the whole
    process, so server and worker threads count and the checker does not.
    Each sample carries the slower of the two host probes either side of it.
    """
    ops = workload.begin_pass()
    seen: dict = {}
    try:
        with quiesced():
            probe = host_probe()
            for op in ops:
                measurement.attempted += 1
                slot = (op, seen.get(op, 0))
                seen[op] = slot[1] + 1
                cpu_started = time.process_time()
                started = time.perf_counter()
                try:
                    result = workload.run(op)
                except Exception as error:  # a failed op is a counted outcome, not a crash
                    measurement.fail(f"{op.key}: {type(error).__name__}: {error}")
                    probe = host_probe()
                    continue
                elapsed = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                before, probe = probe, host_probe()
                measurement.latencies.append(elapsed)
                measurement.samples.setdefault(slot, []).append((max(before, probe), elapsed, cpu))
                if not workload.check(op, result, strict=strict):
                    measurement.fail(f"{op.key}: wrong answer")
    finally:
        workload.end_pass()
    measurement.passes += 1


def measure(workload, seconds: float, max_passes: int | None = None) -> Measurement:
    """Run whole passes until ``seconds`` of wall clock are used up."""
    measurement = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workload, measurement)
        if time.perf_counter() >= deadline:
            break
        if max_passes is not None and measurement.passes >= max_passes:
            break
    return measurement


def peak_rss_mib() -> float:
    """High-water resident set of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


QUIET_SHARE = 0.125


def quiet_samples(measurement: Measurement) -> list[tuple[float, float, float]]:
    """Of every slot's executions, the eighth the host was fastest around.

    The host runs at two speeds ~1.5x apart and changes between them every
    few hundred milliseconds to seconds (the calibration loop alone shows it,
    with no steal in /proc/stat).  The probes either side of an op tell which
    speed it met and know nothing of the op itself, so choosing by them
    cannot hide a slow op, a cache that stopped hitting or a pause inside the
    engine: those stay in the kept samples at the rate they happen.  Choosing
    per slot keeps the multiset whole — every op weighs in the pooled
    percentiles as often as it does in a pass.
    """
    kept: list[tuple[float, float, float]] = []
    for executions in measurement.samples.values():
        quietest = sorted(executions)
        kept += quietest[: max(1, round(len(quietest) * QUIET_SHARE))]
    return kept


def end_to_end_metrics(measurement: Measurement, setup_seconds: float) -> dict:
    """The end-to-end metrics of BENCHMARK.json, by name, with units and context.

    Throughput is ops per second of time spent inside ops, the latencies are
    percentiles of the pooled sample, CPU is process CPU per op — each over
    :func:`quiet_samples`, with the same figure over *all* samples beside it
    (``all``) so that what the selection set aside stays visible.  Nothing is
    a minimum and nothing is keyed by answer: every kept execution counts.
    """
    kept = quiet_samples(measurement)
    everything = [sample for executions in measurement.samples.values() for sample in executions]

    def figures(samples) -> dict:
        latencies = sorted(latency for _, latency, _ in samples)
        return {
            "throughput_ops_s": len(samples) / sum(latencies),
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
            "cpu_ms_per_op": sum(cpu for _, _, cpu in samples) / len(samples) * 1e3,
        }

    quiet, whole = figures(kept), figures(everything)
    units = {"throughput_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms", "cpu_ms_per_op": "ms"}
    metrics = {"setup_s": {"value": setup_seconds, "unit": "s"}}
    for name, unit in units.items():
        metrics[name] = {
            "value": quiet[name], "unit": unit, "all": whole[name],
            "samples": len(kept), "of": len(everything), "passes": measurement.passes,
        }
    metrics["peak_rss_mb"] = {"value": peak_rss_mib(), "unit": "MiB"}
    return metrics
