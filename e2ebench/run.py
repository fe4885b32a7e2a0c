#!/usr/bin/env python3
"""e2ebench — the repository's one benchmark.

Two ways in, one code path:

* ``python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as its last line, the JSON
  object BENCHMARK.json's contract asks for (end-to-end metrics untraced,
  per-layer metrics traced).
* ``python3 e2ebench/run.py [--seed N] [--runs R] [--traced] [--smoke] [--out FILE]``
  runs every workload that way, each in its own subprocess, with a
  calibration loop before and after, and writes one report that
  ``e2ebench/diff.py`` compares against another.

See e2ebench/README.md for what each number means and which should move when.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness

SETUP_REPEATS = 3  # set-up runs this often per run; setup_s is the median


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    """Set up, warm up, measure (or trace) one workload; returns the full record."""
    harness.require_repro()
    harness.pin_to_one_cpu()
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"e2ebench: unknown workload {name!r}; one of {', '.join(workloads.WORKLOADS)}")
    rounds = 1 if smoke else 5
    calibration_before = harness.calibrate(rounds)
    setups: list[float] = []
    warmup = harness.Measurement()
    workload = None
    try:
        for _ in range(1 if smoke or trace else SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
            workload = workloads.WORKLOADS[name](seed, smoke)
            started = time.perf_counter()
            workload.setup()
            # The warm-up pass fills caches and lazily built state, and is the one
            # pass whose answers are checked with the full SHA-256 recipe.
            harness.run_pass(workload, warmup, strict=True)
            setups.append(time.perf_counter() - started)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "host": harness.host_block(),
            "ops_per_pass": len(workload.multiset),
            "setup_runs_s": setups,
        }
        record["golden"] = check_golden(workload, seed, smoke)
        if trace:
            import layers

            units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
            measurement, metrics = layers.traced_run(workload, units)
        else:
            measurement = harness.measure(workload, seconds, max_passes=1 if smoke else None)
            metrics = harness.end_to_end_metrics(measurement, statistics.median(setups))
    finally:
        if workload is not None:
            workload.teardown()
    attempted = warmup.attempted + measurement.attempted
    failed = warmup.failed + measurement.failed
    failures = warmup.failures + measurement.failures
    calibration_after = harness.calibrate(rounds)
    drift = abs(calibration_after - calibration_before) / calibration_before
    record.update(
        {
            "correct": failed == 0 and record["golden"] in ("skipped", "match"),
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "failures": failures,
            "metrics": metrics,
            "calibration_ops_s": [calibration_before, calibration_after],
            "calibration_drift": drift,
            "noisy": drift > 0.10,
        }
    )
    return record


def check_golden(workload, seed: int, smoke: bool) -> str:
    """This run's reference answers against the committed ones (full size, seed 7 only):
    ``"skipped"``, ``"match"``, or what differs."""
    path = harness.BENCH_DIR / "golden" / "seed-7.json"
    if smoke or seed != 7 or not path.is_file():
        return "skipped"
    with open(path, encoding="utf-8") as handle:
        committed = json.load(handle).get(workload.name)
    if committed is None:
        return "skipped"
    current = workload.golden()
    changed = sorted(key for key in set(committed) | set(current) if committed.get(key) != current.get(key))
    return "match" if not changed else f"{len(changed)} answers differ, first: {changed[0]}"


def write_golden(spec: dict) -> int:
    """Regenerate e2ebench/golden/seed-7.json from this checkout's reference answers."""
    harness.require_repro()
    import workloads

    golden = {}
    for entry in spec["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]](7, False)
        workload.setup()
        try:
            golden[workload.name] = workload.golden()
        finally:
            workload.teardown()
    path = harness.BENCH_DIR / "golden" / "seed-7.json"
    path.parent.mkdir(exist_ok=True)
    # One answer per line, so an answer that changes across commits is a one-line diff.
    blocks = [
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in answers.items())
        + "\n }"
        for name, answers in sorted(golden.items())
    ]
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"{sum(len(answers) for answers in golden.values())} reference answers written to {path}")
    return 0


def contract_line(record: dict, spec: dict) -> str:
    """The one JSON object the driver reads: exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = record["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"## {record['workload']}  seed={record['seed']}  {kind}")
    for name, got in record["metrics"].items():
        extra = "  ".join(
            f"{key}={got[key]:.6g}" if isinstance(got[key], float) else f"{key}={got[key]}"
            for key in got
            if key not in ("value", "unit")
        )
        print(f"  {name:<40} {got['value']:>14.6g} {got['unit']:<8} {extra}")
    print(
        f"  {'failed_ratio':<40} {record['failed_ratio']:>14.6g} {'ratio':<8} "
        f"attempted={record['attempted']} failed={record['failed']} golden={record['golden']}"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    before, after = record["calibration_ops_s"]
    print(
        f"  calibration_ops_s before={before:.0f} after={after:.0f} "
        f"drift={record['calibration_drift']:.1%}{'  NOISY' if record['noisy'] else ''}"
    )


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in a fresh interpreter and read its full record back."""
    command = [
        sys.executable, str(harness.BENCH_DIR / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--emit-record",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"e2ebench: workload {name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(args, spec: dict) -> int:
    names = args.workloads or [entry["name"] for entry in spec["workloads"]]
    report = {
        "benchmark": "e2ebench",
        "claim": None,
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": harness.host_block(),
        "records": [],
    }
    for name in names:
        for index in range(args.runs):
            for trace in (False, True) if args.traced else (False,):
                record = run_child(name, args.seed + index, args.seconds, trace, args.smoke)
                if record["noisy"] and not args.smoke:
                    # The host moved under this workload: one second chance, first try kept on file.
                    retry = run_child(name, args.seed + index, args.seconds, trace, args.smoke)
                    retry["noisy_first_try"] = record["metrics"]
                    record = retry
                report["records"].append(record)
                print_record(record)
    out = args.out or str(harness.OUT_DIR / f"run-seed{args.seed}.json")
    harness.OUT_DIR.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"report written to {out}")
    return 0 if all(record["correct"] for record in report["records"]) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=7, help="orders the ops; 7 also checks the golden answers")
    parser.add_argument("--seconds", type=float, default=None, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="contract mode: 1 = per-layer run")
    parser.add_argument("--traced", action="store_true", help="suite mode: also do the per-layer run")
    parser.add_argument("--runs", type=int, default=1, help="suite mode: runs per workload (seed, seed+1, ...)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--out", help="suite mode: report file (default e2ebench/out/)")
    parser.add_argument("--write-golden", action="store_true", help="rewrite golden/seed-7.json (answers changed on purpose)")
    parser.add_argument("--emit-record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.write_golden:
        return write_golden(spec)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(spec["run_seconds"])
    if args.trace is None:
        return run_suite(args, spec)
    if not args.workloads or len(args.workloads) != 1:
        parser.error("--trace needs exactly one --workload")
    record = run_workload(args.workloads[0], args.seed, args.seconds, bool(args.trace), args.smoke, spec)
    if args.emit_record:
        print(json.dumps(record))
        return 0
    print_record(record)
    print(contract_line(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
