"""E-S6 — trace replay: differential correctness gate plus honest tail latency.

The replay harness (PERFORMANCE.md, "Recording and replaying query streams")
exists to answer two questions at once about any serving-layer change:

* **did the answers change?** — every event's canonical rendering is hashed
  and diffed byte-for-byte against the baseline configuration's replay;
* **did the tail move?** — per-event latency (queue wait + execution, what a
  closed-loop client observes) lands in a log-bucketed histogram whose
  p50/p95/p99 goes into ``BENCH_replay.json``.

This session generates a deterministic LDBC-interactive-style trace
(:func:`repro.bench.replay.generate_ldbc_trace` — weighted short reads,
friend-of-friend expansions, a capped shortest-path probe, a heavier scan)
and replays it under three configurations of :class:`~repro.service.QueryService`:

* ``serial`` — 0 workers, the inline baseline every diff is computed against;
* ``threads-2`` — the default serving configuration;
* ``process-2`` — forked workers (real CPU parallelism on multi-core hosts;
  on the 1-CPU container this trajectory was recorded on, an honest loss to
  fork/IPC overhead — the host block in the JSON metadata says which).

The differential gate must come back clean (``identical: true``) for the
timings to count; a corruption smoke-check then proves the gate *can* fail
(an injected wrong answer is flagged at its exact event index), so a green
report means something.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.replay import (
    ReplayConfig,
    generate_ldbc_trace,
    run_replay,
)
from repro.bench.reporting import print_table
from repro.bench.workloads import quick_mode
from repro.datasets.ldbc import LDBCParameters


NUM_EVENTS = 16 if quick_mode() else 60
PARAMETERS = LDBCParameters(num_persons=50, num_messages=100, seed=42)
CONFIGS = (
    ReplayConfig(name="serial", execution_mode="threads", workers=0),
    ReplayConfig(name="threads-2", execution_mode="threads", workers=2),
    ReplayConfig(name="process-2", execution_mode="processes", workers=2),
)


@pytest.fixture(scope="module")
def report(bench_json_path) -> dict:
    trace = generate_ldbc_trace(
        num_events=NUM_EVENTS, seed=7, parameters=PARAMETERS
    )
    return run_replay(
        trace,
        list(CONFIGS),
        json_path=bench_json_path("BENCH_replay.json"),
    )


@pytest.mark.quick
def test_all_configurations_agree_byte_for_byte(report) -> None:
    """The gate itself: every configuration reproduces the baseline exactly."""
    assert report["identical"] is True, report["diffs"]
    assert report["baseline"] == "serial"
    for name, mismatches in report["diffs"].items():
        assert mismatches == [], name


@pytest.mark.quick
def test_report_covers_every_configuration(report) -> None:
    names = [entry["config"] for entry in report["entries"]]
    assert names == [config.name for config in CONFIGS]
    for entry in report["entries"]:
        assert entry["events"] == NUM_EVENTS
        assert entry["failures"] == 0
        assert entry["throughput_qps"] > 0
        assert entry["latency_p99_ms"] >= entry["latency_p95_ms"] >= entry["latency_p50_ms"]


@pytest.mark.quick
def test_gate_catches_an_injected_wrong_answer(report) -> None:
    """A green gate is only evidence if the gate can go red: corrupt one
    event's rendering and demand the diff names exactly that event."""
    trace = generate_ldbc_trace(num_events=8, seed=7, parameters=PARAMETERS)

    def corrupt(rendering: str, event) -> str:
        return rendering + "\n(bogus)" if event.index == 3 else rendering

    poisoned = run_replay(
        trace,
        [
            ReplayConfig(name="honest", workers=0),
            ReplayConfig(name="buggy", workers=0, result_transform=corrupt),
        ],
    )
    assert poisoned["identical"] is False
    assert [record["index"] for record in poisoned["diffs"]["buggy"]] == [3]


@pytest.fixture(scope="module", autouse=True)
def print_report(report) -> None:
    yield
    print_table(
        ["config", "mode", "workers", "qps", "p50 ms", "p95 ms", "p99 ms", "failures"],
        [
            (
                entry["config"],
                entry["execution_mode"],
                entry["workers"],
                entry["throughput_qps"],
                entry["latency_p50_ms"],
                entry["latency_p95_ms"],
                entry["latency_p99_ms"],
                entry["failures"],
            )
            for entry in report["entries"]
        ],
        title=(
            f"Trace replay ({NUM_EVENTS} LDBC-interactive events, "
            f"{len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else os.cpu_count()} CPU)"
        ),
    )
