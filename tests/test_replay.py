"""Tests for the record/replay harness (`repro.bench.replay`).

The harness's job is to be a *regression oracle*: record a query stream
once, replay it under two configurations, and fail loudly on any byte-level
divergence.  These tests pin down the three properties that make that
trustworthy:

1. the trace format is lossless (record → save → load → replay reproduces
   the exact workload);
2. the differential gate is quiet on genuinely identical replays (no false
   alarms from scheduling nondeterminism);
3. the gate *fires* when an answer is wrong — proven by injecting a
   corruption via ``ReplayConfig.result_transform`` and watching the exact
   event index surface in the diff.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.replay import (
    ReplayConfig,
    Trace,
    TraceEvent,
    TraceRecorder,
    build_trace_graph,
    diff_outcomes,
    generate_ldbc_trace,
    replay_trace,
    run_replay,
)
from repro.api import connect
from repro.datasets.ldbc import LDBCParameters, ldbc_like_graph
from repro.service import LatencyHistogram

SMALL = LDBCParameters(num_persons=20, num_messages=30, num_forums=2, seed=11)


@pytest.fixture(scope="module")
def small_trace() -> Trace:
    return generate_ldbc_trace(num_events=12, seed=3, parameters=SMALL)


# ----------------------------------------------------------------------
# Trace format
# ----------------------------------------------------------------------
class TestTraceFormat:
    def test_round_trip_is_lossless(self, small_trace, tmp_path) -> None:
        path = str(tmp_path / "trace.jsonl")
        small_trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == small_trace.name
        assert loaded.seed == small_trace.seed
        assert loaded.graph_spec == small_trace.graph_spec
        assert loaded.events == small_trace.events  # frozen dataclass equality

    def test_round_trip_preserves_optional_fields(self, tmp_path) -> None:
        recorder = TraceRecorder("caps", graph_spec={"kind": "ldbc", "seed": 1})
        recorder.record(
            "MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[Knows]->+(?y)",
            {"name": "Moe"},
            version=7,
            limit=10,
            max_length=3,
            at=1.25,
        )
        path = str(tmp_path / "caps.jsonl")
        recorder.trace.save(path)
        event = Trace.load(path).events[0]
        assert event.params == {"name": "Moe"}
        assert event.version == 7
        assert event.limit == 10
        assert event.max_length == 3
        assert event.at == 1.25

    def test_file_is_one_json_object_per_line(self, small_trace, tmp_path) -> None:
        path = str(tmp_path / "trace.jsonl")
        small_trace.save(path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == 1
        assert header["events"] == len(lines) - 1
        for line in lines[1:]:
            assert isinstance(json.loads(line), dict)

    def test_load_rejects_unknown_format(self, tmp_path) -> None:
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"format": 99, "events": 0}) + "\n")
        with pytest.raises(ValueError, match="format"):
            Trace.load(str(path))

    def test_load_rejects_truncated_trace(self, small_trace, tmp_path) -> None:
        path = tmp_path / "cut.jsonl"
        full = str(tmp_path / "full.jsonl")
        small_trace.save(full)
        with open(full, encoding="utf-8") as handle:
            lines = handle.readlines()
        path.write_text("".join(lines[:-1]))  # drop the last event
        with pytest.raises(ValueError, match="declares"):
            Trace.load(str(path))

    def test_load_rejects_empty_file(self, tmp_path) -> None:
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            Trace.load(str(path))


# ----------------------------------------------------------------------
# Trace generation and recording
# ----------------------------------------------------------------------
class TestGeneration:
    def test_generator_is_deterministic(self) -> None:
        first = generate_ldbc_trace(num_events=10, seed=5, parameters=SMALL)
        second = generate_ldbc_trace(num_events=10, seed=5, parameters=SMALL)
        assert first.events == second.events
        assert first.graph_spec == second.graph_spec

    def test_different_seeds_differ(self) -> None:
        first = generate_ldbc_trace(num_events=10, seed=5, parameters=SMALL)
        second = generate_ldbc_trace(num_events=10, seed=6, parameters=SMALL)
        assert first.events != second.events

    def test_parameters_name_persons_in_the_graph(self, small_trace) -> None:
        graph = build_trace_graph(small_trace)
        present = {
            node.properties.get("name")
            for node in graph.nodes()
            if node.label == "Person"
        }
        for event in small_trace.events:
            for value in event.params.values():
                assert value in present

    def test_pacing_gaps_are_monotonic(self) -> None:
        trace = generate_ldbc_trace(
            num_events=10, seed=5, parameters=SMALL, mean_gap_seconds=0.5
        )
        offsets = [event.at for event in trace.events]
        assert offsets == sorted(offsets)
        assert offsets[-1] > 0.0

    def test_build_trace_graph_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValueError, match="unknown graph_spec"):
            build_trace_graph(Trace(name="x", graph_spec={"kind": "martian"}))


class TestRecorder:
    def test_wrap_records_and_still_executes(self) -> None:
        graph = ldbc_like_graph(SMALL)
        db = connect(graph)
        recorder = TraceRecorder("wrapped", graph_spec={"kind": "ldbc"})
        try:
            with db.session() as session:
                recording = recorder.wrap(session)
                result = recording.query(
                    "MATCH ALL TRAIL p = (?x)-[Has_member]->(?y)"
                )
                rows = len(result)
                # Attribute passthrough: the proxy is still a session.
                assert recording.version == session.version
                pinned = session.version
        finally:
            db.close()
        assert rows > 0
        assert len(recorder.trace.events) == 1
        event = recorder.trace.events[0]
        assert "Has_member" in event.text
        assert event.version == pinned
        assert event.index == 0

    def test_record_assigns_dense_indices(self) -> None:
        recorder = TraceRecorder("dense")
        for _ in range(4):
            recorder.record("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert [event.index for event in recorder.trace.events] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Replay and the differential gate
# ----------------------------------------------------------------------
class TestReplay:
    def test_same_trace_twice_yields_zero_diffs(self, small_trace) -> None:
        graph = build_trace_graph(small_trace)
        config = ReplayConfig(name="threads", execution_mode="threads", workers=2)
        first = replay_trace(small_trace, config, graph=graph)
        second = replay_trace(small_trace, config, graph=graph)
        assert diff_outcomes(first, second) == []
        assert first.failures == 0

    def test_thread_and_serial_configs_agree(self, small_trace) -> None:
        report = run_replay(
            small_trace,
            [
                ReplayConfig(name="threads", execution_mode="threads", workers=2),
                ReplayConfig(name="serial", execution_mode="threads", workers=0),
            ],
        )
        assert report["identical"] is True
        assert report["diffs"]["serial"] == []
        assert report["baseline"] == "threads"
        assert len(report["entries"]) == 2

    def test_round_trip_replay_reproduces_digests(self, small_trace, tmp_path) -> None:
        """Record → save → load → replay matches a replay of the original."""
        path = str(tmp_path / "trace.jsonl")
        small_trace.save(path)
        loaded = Trace.load(path)
        graph = build_trace_graph(small_trace)
        config = ReplayConfig(name="threads", workers=2)
        original = replay_trace(small_trace, config, graph=graph)
        reloaded = replay_trace(loaded, config, graph=graph)
        assert diff_outcomes(original, reloaded) == []

    def test_injected_wrong_answer_is_caught(self, small_trace) -> None:
        """The regression oracle: corrupt one answer, see exactly it flagged."""

        def corrupt(rendering: str, event: TraceEvent) -> str:
            if event.index == 7:
                return rendering + "\n(ghost)-[Knows]->(row)"
            return rendering

        report = run_replay(
            small_trace,
            [
                ReplayConfig(name="honest", workers=2),
                ReplayConfig(name="buggy", workers=2, result_transform=corrupt),
            ],
        )
        assert report["identical"] is False
        mismatches = report["diffs"]["buggy"]
        assert [record["index"] for record in mismatches] == [7]
        assert mismatches[0]["kind"] == "digest"
        assert mismatches[0]["baseline"] != mismatches[0]["candidate"]

    def test_lost_events_reported_as_length_mismatch(self, small_trace) -> None:
        graph = build_trace_graph(small_trace)
        config = ReplayConfig(name="threads", workers=2)
        full = replay_trace(small_trace, config, graph=graph)
        truncated = Trace(
            name=small_trace.name,
            events=small_trace.events[:-2],
            graph_spec=small_trace.graph_spec,
            seed=small_trace.seed,
        )
        partial = replay_trace(truncated, config, graph=graph)
        mismatches = diff_outcomes(full, partial)
        assert mismatches[0]["kind"] == "length"
        assert mismatches[0]["baseline"] == str(len(small_trace.events))

    def test_run_replay_requires_a_config(self, small_trace) -> None:
        with pytest.raises(ValueError, match="at least one"):
            run_replay(small_trace, [])

    def test_event_results_carry_latency_and_counts(self, small_trace) -> None:
        result = replay_trace(small_trace, ReplayConfig(name="threads", workers=2))
        assert len(result.events) == len(small_trace.events)
        assert all(event.latency_seconds >= 0.0 for event in result.events)
        assert any(event.count > 0 for event in result.events)
        assert result.latency.count == len(small_trace.events)
        assert result.throughput_qps > 0.0


class TestBenchReport:
    def test_json_report_contents(self, small_trace, tmp_path) -> None:
        path = str(tmp_path / "BENCH_replay.json")
        run_replay(
            small_trace,
            [
                ReplayConfig(name="threads", workers=2),
                ReplayConfig(name="serial", workers=0),
            ],
            json_path=path,
        )
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["benchmark"] == "replay"
        assert payload["metadata"]["identical"] is True
        assert payload["metadata"]["baseline"] == "threads"
        assert payload["metadata"]["mismatches"] == {"serial": 0}
        names = [entry["config"] for entry in payload["entries"]]
        assert names == ["threads", "serial"]
        for entry in payload["entries"]:
            assert entry["events"] == len(small_trace.events)
            assert entry["failures"] == 0
            assert entry["throughput_qps"] > 0
            assert entry["latency_p50_ms"] >= 0
            assert entry["latency_p95_ms"] >= entry["latency_p50_ms"]
            assert entry["latency_p99_ms"] >= entry["latency_p95_ms"]


# ----------------------------------------------------------------------
# The histogram underneath the latency numbers
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_percentiles_bracket_observations(self) -> None:
        histogram = LatencyHistogram()
        for milliseconds in (1, 2, 3, 4, 5, 6, 7, 8, 9, 1000):
            histogram.observe(milliseconds / 1e3)
        assert histogram.count == 10
        assert histogram.percentile(1.0) == pytest.approx(1.0)
        # p50 overestimates by at most one factor-2 bucket.
        assert 0.004 <= histogram.percentile(0.5) <= 0.016
        assert histogram.percentile(0.99) == pytest.approx(1.0)

    def test_empty_histogram_is_all_zeros(self) -> None:
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0
        assert summary["p99_seconds"] == 0.0
        assert summary["mean_seconds"] == 0.0
        assert summary["buckets"] == {}

    def test_negative_observations_clamp(self) -> None:
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.count == 1
        assert histogram.max_seconds == 0.0

    def test_summary_round_trip(self) -> None:
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.5, 3.0):
            histogram.observe(value)
        rebuilt = LatencyHistogram.from_summary(histogram.summary())
        assert rebuilt.summary() == histogram.summary()

    def test_merge_summaries_recomputes_percentiles(self) -> None:
        fast, slow = LatencyHistogram(), LatencyHistogram()
        for _ in range(99):
            fast.observe(0.001)
        slow.observe(10.0)
        merged = LatencyHistogram.merge_summaries(fast.summary(), slow.summary())
        assert merged["count"] == 100
        assert merged["max_seconds"] == 10.0
        # The single slow outlier is exactly the tail: p99 must see it.
        assert merged["p99_seconds"] < 10.0 or merged["p99_seconds"] == 10.0
        assert merged["p50_seconds"] < 0.01
        assert LatencyHistogram.from_summary(merged).count == 100

    def test_invalid_quantile_rejected(self) -> None:
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestReplayCli:
    def test_generate_then_run_round_trip(self, tmp_path, capsys) -> None:
        from repro.cli import main

        trace_path = str(tmp_path / "trace.jsonl")
        json_path = str(tmp_path / "BENCH_replay.json")
        assert (
            main(
                [
                    "replay",
                    "generate",
                    "--output",
                    trace_path,
                    "--events",
                    "8",
                    "--seed",
                    "3",
                    "--persons",
                    "20",
                    "--messages",
                    "30",
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "replay",
                "run",
                trace_path,
                "--config",
                "threads=threads:2",
                "--config",
                "serial=threads:0",
                "--json",
                json_path,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "byte-identical" in captured.out
        with open(json_path, encoding="utf-8") as handle:
            assert json.load(handle)["metadata"]["identical"] is True

    def test_run_rejects_duplicate_config_names(self, tmp_path, capsys) -> None:
        from repro.cli import main

        trace_path = str(tmp_path / "trace.jsonl")
        main(["replay", "generate", "--output", trace_path, "--events", "2",
              "--persons", "10", "--messages", "10"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(
                [
                    "replay",
                    "run",
                    trace_path,
                    "--config",
                    "same=threads:2",
                    "--config",
                    "same=threads:0",
                ]
            )

    @pytest.mark.parametrize(
        "spec", ["name=threads:2:version", "name=race:2", "name=threads", "=threads:2"]
    )
    def test_run_rejects_malformed_config_with_the_accepted_form(
        self, spec, tmp_path, capsys
    ) -> None:
        from repro.cli import main

        trace_path = str(tmp_path / "trace.jsonl")
        main(["replay", "generate", "--output", trace_path, "--events", "2",
              "--persons", "10", "--messages", "10"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "run", trace_path, "--config", spec])
        message = str(excinfo.value.code)
        assert message.startswith("error: --config expects NAME=MODE:WORKERS"), message
        assert "threads, processes" in message
        assert repr(spec) in message
