"""Record-and-replay: captured query streams as differential regression gates.

The serving layer now has enough moving parts — executor selection, result
caching, delta invalidation, thread/process pools, a network
front-end — that "same answers, acceptable speed" needs checking as a
*workload* property, not just per-query.  This module captures a query
stream once and replays it byte-exactly against any number of
configurations:

* **Recording** (:class:`TraceRecorder`) captures each query's text,
  parameter bindings, session graph version and timestamp offset into a
  :class:`Trace` — a JSONL file (header line + one event per line) that is
  diffable, versionable and independent of the code that produced it.
* **Generation** (:func:`generate_ldbc_trace`) synthesizes an
  LDBC-interactive-style trace over :func:`~repro.datasets.ldbc.ldbc_like_graph`:
  a seeded mix of short name lookups, friend-of-friend hops, like/creator
  joins, shortest-path probes and forum-membership scans — deterministic
  for a given seed, so CI replays the same workload forever.
* **Replay** (:func:`replay_trace`) runs a trace against one
  :class:`ReplayConfig` (execution mode, worker count) through a fresh :class:`~repro.service.QueryService` over a
  shared graph, hashing every result's canonical rendering
  (:meth:`~repro.service.QueryOutcome.rendered`, SHA-256).
* **Differential check** (:func:`diff_outcomes` / :func:`run_replay`):
  two configurations replaying the same trace must produce *byte-identical*
  digests event for event — any mismatch names the event, the query and
  both digests.  Throughput and p50/p95/p99 tail latency per configuration
  land in the same report (PERFORMANCE.md, "Recording and replaying query
  streams"), so performance regressions are caught by the same gate as
  correctness ones.

Fault injection: ``ReplayConfig.result_transform`` rewrites each rendered
result before hashing — the test suite uses it to prove the gate actually
fires (an injected wrong answer must produce a non-empty diff).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.bench.reporting import write_bench_json
from repro.datasets.ldbc import _FIRST_NAMES as _NAME_POOL
from repro.datasets.ldbc import LDBCParameters, ldbc_like_graph
from repro.graph.model import PropertyGraph
from repro.service.latency import LatencyHistogram
from repro.service.service import QueryService

__all__ = [
    "TraceEvent",
    "Trace",
    "TraceRecorder",
    "ReplayConfig",
    "EventResult",
    "ReplayResult",
    "generate_ldbc_trace",
    "build_trace_graph",
    "replay_trace",
    "diff_outcomes",
    "run_replay",
]

_TRACE_FORMAT = 1

# The LDBC-interactive-style query mix: (weight, text, param names, max_length).
# Parameter values are drawn by the generator's seeded RNG from the names
# actually present in the generated graph, so lookups are selective but
# non-empty.  The shortest-path probe carries a length cap: uncapped TRAIL
# recursion over the friendship network is exponential — that is the
# engine's restrictor semantics, not a workload we want in a pacing trace.
_LDBC_MIX: tuple[tuple[int, str, tuple[str, ...], int | None], ...] = (
    # Short point lookup: the person's direct friends (interactive IS-style).
    (4, "MATCH ALL TRAIL p = (?x {name: $name})-[Knows]->(?y)", ("name",), None),
    # Friend-of-friend expansion (interactive IC-1 flavor).
    (3, "MATCH ALL TRAIL p = (?x {name: $name})-[Knows/Knows]->(?y)", ("name",), None),
    # Content join: messages a person liked, joined to their creators.
    (2, "MATCH ALL TRAIL p = (?x {name: $name})-[Likes/Has_creator]->(?y)", ("name",), None),
    # Shortest-path probe from a named person (IC-13 flavor), length-capped.
    (2, "MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[Knows]->+(?y)", ("name",), 3),
    # Forum membership scan (unparameterized, heavier).
    (1, "MATCH ALL TRAIL p = (?x)-[Has_member]->(?y)", (), None),
)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded query submission.

    Attributes:
        index: Position in the trace (0-based, dense).
        at: Seconds since the start of the recording (pacing information;
            replay may honor or ignore it).
        text: The query text, with ``$name`` placeholders unexpanded.
        params: The parameter bindings at submission.
        version: The graph version the recording session was pinned to.
        limit: Result limit the submitter used (``None`` = unlimited).
        max_length: Path-length cap the submitter used (``None`` = uncapped).
    """

    index: int
    at: float
    text: str
    params: dict[str, Any] = field(default_factory=dict)
    version: int = 0
    limit: int | None = None
    max_length: int | None = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "at": self.at,
            "text": self.text,
            "params": self.params,
            "version": self.version,
            "limit": self.limit,
            "max_length": self.max_length,
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            index=int(record["index"]),
            at=float(record.get("at", 0.0)),
            text=str(record["text"]),
            params=dict(record.get("params") or {}),
            version=int(record.get("version", 0)),
            limit=record.get("limit"),
            max_length=record.get("max_length"),
        )


@dataclass
class Trace:
    """A recorded query stream plus the recipe for its graph.

    ``graph_spec`` makes the trace self-contained: :func:`build_trace_graph`
    rebuilds the exact graph the queries ran against (the generators are
    seeded and deterministic), so a trace file alone reproduces the
    workload on any checkout.
    """

    name: str
    events: list[TraceEvent] = field(default_factory=list)
    graph_spec: dict = field(default_factory=dict)
    seed: int | None = None

    def save(self, path: str) -> None:
        """Write the trace as JSONL: one header line, one line per event."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "format": _TRACE_FORMAT,
                "name": self.name,
                "graph": self.graph_spec,
                "seed": self.seed,
                "events": len(self.events),
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(json.dumps(event.to_json(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise ValueError(f"empty trace file: {path}")
        header = json.loads(lines[0])
        if header.get("format") != _TRACE_FORMAT:
            raise ValueError(
                f"unsupported trace format {header.get('format')!r} in {path}"
            )
        trace = cls(
            name=str(header.get("name", "trace")),
            graph_spec=dict(header.get("graph") or {}),
            seed=header.get("seed"),
        )
        trace.events = [TraceEvent.from_json(json.loads(line)) for line in lines[1:]]
        declared = header.get("events")
        if declared is not None and declared != len(trace.events):
            raise ValueError(
                f"trace {path} declares {declared} events but contains {len(trace.events)}"
            )
        return trace


class TraceRecorder:
    """Capture query submissions into a :class:`Trace`.

    Use directly (:meth:`record` per query) or as a shim in front of a
    session::

        recorder = TraceRecorder("prod-sample", graph_spec={...})
        with db.session() as session:
            recording = recorder.wrap(session)
            recording.execute("MATCH ...", {"name": "Moe"})   # runs AND records

    Timestamps are offsets from the recorder's construction, so replay can
    reproduce the original pacing.
    """

    def __init__(
        self, name: str, graph_spec: Mapping[str, Any] | None = None, seed: int | None = None
    ) -> None:
        self.trace = Trace(name=name, graph_spec=dict(graph_spec or {}), seed=seed)
        self._started = time.monotonic()

    def record(
        self,
        text: str,
        params: Mapping[str, Any] | None = None,
        *,
        version: int = 0,
        limit: int | None = None,
        max_length: int | None = None,
        at: float | None = None,
    ) -> TraceEvent:
        """Append one event; returns it."""
        event = TraceEvent(
            index=len(self.trace.events),
            at=at if at is not None else (time.monotonic() - self._started),
            text=text,
            params=dict(params or {}),
            version=version,
            limit=limit,
            max_length=max_length,
        )
        self.trace.events.append(event)
        return event

    def wrap(self, session) -> "_RecordingSession":
        """A session proxy that records every ``execute``/``query`` call."""
        return _RecordingSession(self, session)


class _RecordingSession:
    """Proxy recording each query a :class:`~repro.api.Session` runs."""

    def __init__(self, recorder: TraceRecorder, session) -> None:
        self._recorder = recorder
        self._session = session

    def execute(self, text: str, params: Mapping[str, Any] | None = None, **options):
        self._recorder.record(
            text,
            params,
            version=self._session.version,
            limit=options.get("limit"),
            max_length=options.get("max_length"),
        )
        return self._session.execute(text, params, **options)

    def query(self, text: str, params: Mapping[str, Any] | None = None, **options):
        self._recorder.record(
            text,
            params,
            version=self._session.version,
            limit=options.get("limit"),
            max_length=options.get("max_length"),
        )
        return self._session.query(text, params, **options)

    def __getattr__(self, name: str):
        return getattr(self._session, name)


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------
def generate_ldbc_trace(
    num_events: int = 50,
    seed: int = 7,
    parameters: LDBCParameters | None = None,
    *,
    mean_gap_seconds: float = 0.0,
    name: str = "ldbc-interactive",
) -> Trace:
    """Synthesize a deterministic LDBC-interactive-style trace.

    The query mix is weighted toward short reads with a tail of heavier
    traversals (the interactive workload's shape); parameters draw from the
    generator's own name pool so lookups are selective but non-empty.
    ``mean_gap_seconds > 0`` spaces events with exponential inter-arrival
    gaps (open-loop arrivals); zero packs them back to back.
    """
    import random

    parameters = parameters or LDBCParameters()
    rng = random.Random(seed)
    spec = {
        "kind": "ldbc",
        "num_persons": parameters.num_persons,
        "num_messages": parameters.num_messages,
        "num_forums": parameters.num_forums,
        "avg_knows_degree": parameters.avg_knows_degree,
        "avg_likes_per_person": parameters.avg_likes_per_person,
        "knows_reciprocity": parameters.knows_reciprocity,
        "seed": parameters.seed,
    }
    # Build the (deterministic) graph once to learn which names actually
    # occur — drawing from the raw name pool would generate lookups for
    # persons the seed never created.
    graph = ldbc_like_graph(parameters)
    present = sorted(
        {
            node.properties.get("name")
            for node in graph.nodes()
            if node.label == "Person" and node.properties.get("name")
        }
    )
    name_pool = present or list(_NAME_POOL)
    recorder = TraceRecorder(name, graph_spec=spec, seed=seed)
    weighted: list[tuple[str, tuple[str, ...], int | None]] = []
    for weight, text, param_names, max_length in _LDBC_MIX:
        weighted.extend([(text, param_names, max_length)] * weight)
    clock = 0.0
    for _ in range(num_events):
        text, param_names, max_length = rng.choice(weighted)
        params = {key: rng.choice(name_pool) for key in param_names}
        recorder.record(text, params, max_length=max_length, at=clock)
        if mean_gap_seconds > 0.0:
            clock += rng.expovariate(1.0 / mean_gap_seconds)
    return recorder.trace


def build_trace_graph(trace: Trace) -> PropertyGraph:
    """Rebuild the graph a trace's ``graph_spec`` describes."""
    spec = trace.graph_spec
    kind = spec.get("kind")
    if kind == "ldbc":
        return ldbc_like_graph(
            LDBCParameters(
                num_persons=int(spec.get("num_persons", 50)),
                num_messages=int(spec.get("num_messages", 100)),
                num_forums=int(spec.get("num_forums", 5)),
                avg_knows_degree=float(spec.get("avg_knows_degree", 3.0)),
                avg_likes_per_person=float(spec.get("avg_likes_per_person", 2.0)),
                knows_reciprocity=float(spec.get("knows_reciprocity", 0.3)),
                seed=int(spec.get("seed", 42)),
            )
        )
    raise ValueError(f"unknown graph_spec kind {kind!r} in trace {trace.name!r}")


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayConfig:
    """One configuration to replay a trace against.

    Attributes:
        name: Label used in reports and diffs.
        execution_mode: ``"threads"`` or ``"processes"``.
        workers: Worker count for the service.
        result_cache_size: Forwarded to :class:`~repro.service.QueryService`.
        honor_pacing: Sleep out the recorded inter-arrival gaps (open-loop
            replay) instead of submitting as fast as possible (closed-loop).
        result_transform: Fault-injection hook — rewrites each canonical
            rendering *before* hashing.  Production replays leave it
            ``None``; tests inject corruption to prove the differential
            gate fires.
        service_options: Extra :class:`~repro.service.QueryService` kwargs.
    """

    name: str
    execution_mode: str = "threads"
    workers: int = 2
    result_cache_size: int = 256
    honor_pacing: bool = False
    result_transform: Callable[[str, TraceEvent], str] | None = None
    service_options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EventResult:
    """The replayed outcome of one trace event.

    ``digest`` is the SHA-256 of the canonical one-path-per-line rendering
    (prefixed ``error:``/``timeout:`` sentinel renderings for failures, so
    a query that *starts* failing also shows up as a diff).
    """

    index: int
    text: str
    digest: str
    count: int
    latency_seconds: float
    error: str | None = None
    timed_out: bool = False


@dataclass
class ReplayResult:
    """Everything one configuration's replay produced."""

    config: ReplayConfig
    trace_name: str
    events: list[EventResult]
    wall_seconds: float
    latency: LatencyHistogram

    @property
    def throughput_qps(self) -> float:
        """Completed events per wall-clock second."""
        return len(self.events) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def failures(self) -> int:
        return sum(1 for event in self.events if event.error or event.timed_out)

    def entry(self) -> dict:
        """The flat report entry for this configuration."""
        summary = self.latency.summary()
        return {
            "config": self.config.name,
            "execution_mode": self.config.execution_mode,
            "workers": self.config.workers,
            "events": len(self.events),
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_qps": round(self.throughput_qps, 3),
            "latency_p50_ms": round(summary["p50_seconds"] * 1e3, 3),
            "latency_p95_ms": round(summary["p95_seconds"] * 1e3, 3),
            "latency_p99_ms": round(summary["p99_seconds"] * 1e3, 3),
            "latency_mean_ms": round(summary["mean_seconds"] * 1e3, 3),
            "latency_max_ms": round(summary["max_seconds"] * 1e3, 3),
        }


def _digest(rendering: str) -> str:
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()


def replay_trace(
    trace: Trace,
    config: ReplayConfig,
    graph: PropertyGraph | None = None,
) -> ReplayResult:
    """Replay every event of ``trace`` through a fresh service.

    ``graph`` defaults to rebuilding the trace's ``graph_spec``; pass a
    shared instance when replaying several configurations so all of them
    query the identical data (the differential contract).  Events submit in
    trace order (results are awaited per event — latency is queue wait plus
    execution, what a closed-loop client observes).
    """
    if graph is None:
        graph = build_trace_graph(trace)
    service = QueryService(
        graph,
        workers=config.workers,
        execution_mode=config.execution_mode,
        result_cache_size=config.result_cache_size,
        **config.service_options,
    )
    events: list[EventResult] = []
    histogram = LatencyHistogram()
    started = time.monotonic()
    try:
        previous_at = trace.events[0].at if trace.events else 0.0
        for event in trace.events:
            if config.honor_pacing and event.at > previous_at:
                time.sleep(event.at - previous_at)
            previous_at = event.at
            ticket = service.submit(
                event.text,
                params=event.params or None,
                limit=event.limit,
                max_length=event.max_length,
            )
            outcome = ticket.result()
            latency = outcome.queued_seconds + outcome.elapsed_seconds
            histogram.observe(latency)
            if outcome.timed_out:
                rendering = f"timeout:{outcome.budget_reason}"
            elif outcome.error is not None:
                rendering = f"error:{outcome.error}"
            else:
                rendering = outcome.rendered()
            if config.result_transform is not None:
                rendering = config.result_transform(rendering, event)
            events.append(
                EventResult(
                    index=event.index,
                    text=event.text,
                    digest=_digest(rendering),
                    count=len(outcome),
                    latency_seconds=latency,
                    error=outcome.error,
                    timed_out=outcome.timed_out,
                )
            )
    finally:
        service.close()
    return ReplayResult(
        config=config,
        trace_name=trace.name,
        events=events,
        wall_seconds=time.monotonic() - started,
        latency=histogram,
    )


def diff_outcomes(
    baseline: ReplayResult, candidate: ReplayResult
) -> list[dict]:
    """Byte-level differential: events whose digests disagree.

    Returns one record per mismatch — the empty list is the green gate.
    A length mismatch (a replay lost events) is itself reported.
    """
    mismatches: list[dict] = []
    if len(baseline.events) != len(candidate.events):
        mismatches.append(
            {
                "index": -1,
                "text": "<event count>",
                "baseline": str(len(baseline.events)),
                "candidate": str(len(candidate.events)),
                "kind": "length",
            }
        )
    for mine, theirs in zip(baseline.events, candidate.events):
        if mine.digest != theirs.digest:
            mismatches.append(
                {
                    "index": mine.index,
                    "text": mine.text,
                    "baseline": mine.digest,
                    "candidate": theirs.digest,
                    "kind": "digest",
                }
            )
    return mismatches


def run_replay(
    trace: Trace,
    configs: Sequence[ReplayConfig],
    json_path: str | None = None,
    graph: PropertyGraph | None = None,
) -> dict:
    """Replay ``trace`` under every config; diff all against the first.

    The first configuration is the baseline.  Returns the report payload::

        {
          "entries": [<per-config throughput/latency>, ...],
          "diffs": {"<config>": [<mismatch>, ...], ...},
          "identical": <bool — True iff every diff list is empty>,
        }

    With ``json_path`` the report is also written via
    :func:`~repro.bench.reporting.write_bench_json` (``replay run --json``).
    """
    if not configs:
        raise ValueError("run_replay needs at least one configuration")
    if graph is None:
        graph = build_trace_graph(trace)
    results = [replay_trace(trace, config, graph=graph) for config in configs]
    baseline = results[0]
    diffs = {
        result.config.name: diff_outcomes(baseline, result) for result in results[1:]
    }
    identical = all(not mismatches for mismatches in diffs.values())
    entries = [result.entry() for result in results]
    payload = {
        "entries": entries,
        "diffs": diffs,
        "identical": identical,
        "trace": {
            "name": trace.name,
            "events": len(trace.events),
            "graph": trace.graph_spec,
            "seed": trace.seed,
        },
        "baseline": baseline.config.name,
    }
    if json_path is not None:
        write_bench_json(
            json_path,
            "replay",
            entries,
            metadata={
                "trace": payload["trace"],
                "baseline": baseline.config.name,
                "identical": identical,
                "mismatches": {
                    name: len(mismatches) for name, mismatches in diffs.items()
                },
            },
        )
    return payload
