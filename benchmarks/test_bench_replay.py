"""E-S6 — trace replay: the differential correctness gate.

The replay harness (PERFORMANCE.md, "Recording and replaying query streams")
answers the question every serving-layer change must answer: **did the
answers change?** Every event's canonical rendering is hashed and diffed
byte-for-byte against the baseline configuration's replay.

This module generates a deterministic LDBC-interactive-style trace
(:func:`repro.bench.replay.generate_ldbc_trace` — weighted short reads,
friend-of-friend expansions, a capped shortest-path probe, a heavier scan)
and replays it under three configurations of :class:`~repro.service.QueryService`:

* ``serial`` — 0 workers, the inline baseline every diff is computed against;
* ``threads-2`` — the default serving configuration;
* ``process-2`` — forked workers.

The differential gate must come back clean (``identical: true``); a
corruption smoke-check then proves the gate *can* fail (an injected wrong
answer is flagged at its exact event index), so a green report means
something.
"""

from __future__ import annotations

import pytest

from repro.bench.replay import (
    ReplayConfig,
    generate_ldbc_trace,
    run_replay,
)
from repro.datasets.ldbc import LDBCParameters


NUM_EVENTS = 60
PARAMETERS = LDBCParameters(num_persons=50, num_messages=100, seed=42)
CONFIGS = (
    ReplayConfig(name="serial", execution_mode="threads", workers=0),
    ReplayConfig(name="threads-2", execution_mode="threads", workers=2),
    ReplayConfig(name="process-2", execution_mode="processes", workers=2),
)


@pytest.fixture(scope="module")
def report() -> dict:
    trace = generate_ldbc_trace(
        num_events=NUM_EVENTS, seed=7, parameters=PARAMETERS
    )
    return run_replay(trace, list(CONFIGS))


def test_all_configurations_agree_byte_for_byte(report) -> None:
    """The gate itself: every configuration reproduces the baseline exactly."""
    assert report["identical"] is True, report["diffs"]
    assert report["baseline"] == "serial"
    for name, mismatches in report["diffs"].items():
        assert mismatches == [], name


def test_report_covers_every_configuration(report) -> None:
    names = [entry["config"] for entry in report["entries"]]
    assert names == [config.name for config in CONFIGS]
    for entry in report["entries"]:
        assert entry["events"] == NUM_EVENTS
        assert entry["failures"] == 0
        assert entry["latency_p99_ms"] >= entry["latency_p95_ms"] >= entry["latency_p50_ms"]


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

