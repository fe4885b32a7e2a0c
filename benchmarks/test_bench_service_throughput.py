"""E-S5 — query service vs serial engine: same answers, less work.

The serving layer (PERFORMANCE.md, "Serving queries concurrently") pins every
submitted query to a graph snapshot and shares a lock-striped plan cache and
a delta-validated result cache across its workers.  This experiment runs a
read-only batch two ways on the :func:`repro.bench.workloads.service_workloads`
pair:

* **cache-hot** — the batch repeats a small hot set of queries; the service's
  result cache collapses the duplicates to one evaluation per distinct query
  and graph version, which is where its throughput win comes from;
* **cache-cold** — every query is distinct, so nothing is reusable and every
  query is evaluated once.

Each workload runs through a bare :class:`PathQueryEngine` loop (the
"serial" baseline: no serving layer, plan cache enabled), through
:class:`QueryService` instances with 0, 2, 4 and 8 thread workers, and under
``execution_mode="processes"`` with 2 and 4 forked workers (``process-N``
rows).  Every service row must return the serial results path for path; the
rest is asserted as counts (what was executed, what the result cache served,
which workers did it), never as wall-clock ratios — those live in e2ebench.

Two durability-era checks ride along (PERFORMANCE.md, "Durability and
delta-aware invalidation"):

* **mixed-read-write** — one deterministic schedule of hot reads and
  mostly-disjoint writes; its cross-version hits and delta rejections are
  counted, and every read is checked byte-for-byte against a cache-free
  reference replay of the same schedule;
* **wal-fsync** — the sync count of a :class:`DurableStore` under each
  fsync policy.
"""

from __future__ import annotations

import tempfile
from pathlib import Path as FilePath

import pytest

from repro.bench.workloads import mixed_service_workload, service_workloads
from repro.engine.engine import PathQueryEngine
from repro.graph.wal import FSYNC_POLICIES, DurableStore
from repro.service import QueryService


WORKLOADS = service_workloads()
MIXED = mixed_service_workload()
WORKER_COUNTS = (0, 2, 4, 8)
#: Worker counts of the process-backed rows.
PROCESS_WORKER_COUNTS = (2, 4)
WAL_WRITES = 400


def _serial_run(workload) -> list[tuple[str, ...]]:
    """Canonical per-query results of a bare engine loop."""
    engine = PathQueryEngine(workload.build_graph())
    return [
        tuple(str(path) for path in engine.query(text).paths.sorted())
        for text in workload.queries
    ]


def _service_run(workload, workers: int, execution_mode: str = "threads") -> dict:
    """One QueryService.run_batch over a fresh graph and a cold result cache."""
    with QueryService(
        workload.build_graph(), workers=workers, execution_mode=execution_mode
    ) as service:
        outcomes = service.run_batch(workload.queries)
        snapshot = service.statistics()
    assert all(outcome.ok for outcome in outcomes), workload.name
    return {
        "queries": len(workload.queries),
        "unique_queries": workload.parameters["unique_queries"],
        "rendered": [outcome.path_strings() for outcome in outcomes],
        "executed": snapshot.executed,
        "result_cache_served": snapshot.result_cache_served,
        # Who evaluated: thread names, or one ``proc-N`` per forked pid.
        "workers_served": sorted({o.worker for o in outcomes if not o.result_cache_hit}),
    }


def _measure_workload(workload) -> dict[str, object]:
    rows: dict[str, object] = {"serial-engine": _serial_run(workload)}
    for workers in WORKER_COUNTS:
        rows[f"service-{workers}"] = _service_run(workload, workers)
    for workers in PROCESS_WORKER_COUNTS:
        rows[f"process-{workers}"] = _service_run(workload, workers, "processes")
    return rows


def _apply_mixed_write(graph, step: tuple) -> None:
    kind = step[0]
    if kind == "audit-node":
        graph.add_node(step[1], "Audit")
    elif kind == "audit-edge":
        graph.add_edge(step[1], step[2], step[3], "Flagged")
    else:  # hot-edge: intersects every footprint that reads Knows
        graph.add_edge(step[1], step[2], step[3], "Knows")


def _mixed_reference() -> list[tuple[str, ...]]:
    """Replay the schedule through a cache-free engine: ground-truth reads."""
    graph = MIXED.build_graph()
    engine = PathQueryEngine(graph, plan_cache_size=0)
    rendered: list[tuple[str, ...]] = []
    for step in MIXED.parameters["steps"]:
        if step[0] == "query":
            result = engine.query(step[1])
            rendered.append(tuple(str(path) for path in result.paths.sorted()))
        else:
            _apply_mixed_write(graph, step)
    return rendered


def _mixed_run() -> tuple[dict, list[tuple[str, ...]]]:
    """Replay the mixed schedule through a delta-invalidating service."""
    graph = MIXED.build_graph()
    rendered: list[tuple[str, ...]] = []
    with QueryService(graph, workers=0) as service:
        for step in MIXED.parameters["steps"]:
            if step[0] == "query":
                outcome = service.submit(step[1]).result()
                assert outcome.ok, step
                rendered.append(outcome.path_strings())
            else:
                _apply_mixed_write(graph, step)
        stats = service.statistics()
    entry = {
        "cross_version_hits": stats.result_cache_cross_version_hits,
        "delta_rejected": stats.result_cache_delta_rejected,
    }
    return entry, rendered


def _fsync_syncs(policy: str) -> int:
    """How often a DurableStore synced its WAL over WAL_WRITES mutations."""
    with tempfile.TemporaryDirectory() as tmp:
        with DurableStore(FilePath(tmp) / "store", fsync=policy) as store:
            for index in range(WAL_WRITES):
                store.graph.add_node(f"n{index}", "Person")
            return store.wal.syncs


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[str, object]]:
    return {workload.name: _measure_workload(workload) for workload in WORKLOADS}


@pytest.fixture(scope="module")
def mixed_measured() -> dict:
    entry, rendered = _mixed_run()
    # Byte-identical reads: the result cache may change how often a query is
    # evaluated, never what it returns.
    assert rendered == _mixed_reference()
    return entry


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_service_results_match_serial(measured, workload) -> None:
    """Every thread and process row returns exactly the serial paths, query by query.

    The serving layer may reorder execution and reuse outcomes; it may never
    change an answer.
    """
    rows = measured[workload.name]
    assert set(rows) == {
        "serial-engine",
        *(f"service-{workers}" for workers in WORKER_COUNTS),
        *(f"process-{workers}" for workers in PROCESS_WORKER_COUNTS),
    }
    serial = rows["serial-engine"]
    for mode, row in rows.items():
        if mode != "serial-engine":
            assert row["rendered"] == serial, (workload.name, mode)


def test_cache_cold_process_rows_run_in_forked_workers(measured) -> None:
    """What the process rows stand for, as facts that do not depend on the clock.

    Since scans read the label index and joins expand along adjacency, a cold
    query runs in about a millisecond — less than a fork-pool round trip — so
    the speedup over serial is below 1 on any core count (PERFORMANCE.md,
    "Process-parallel execution").  What must hold: every query was evaluated
    by a worker process, and more than one forked process shared the batch.
    """
    for workers in PROCESS_WORKER_COUNTS:
        row = measured["cache-cold"][f"process-{workers}"]
        assert row["executed"] == row["queries"], row
        served = row["workers_served"]
        assert all(name.startswith("proc-") for name in served), row
        assert 2 <= len(served) <= workers, row


def test_cache_hot_duplicates_are_served_not_executed(measured) -> None:
    """Where the cache-hot throughput win comes from, as counts.

    On the repeat-heavy read-only batch the shared result cache serves the
    duplicates without re-evaluating, where the serial loop evaluates all of
    them.  Inline (0 workers) each distinct query runs exactly once.  With 4
    workers two of them can pick up the same text before either has cached
    it, so the exact count varies from run to run; what is fixed is the
    bound: a duplicate evaluation needs a free worker, so no distinct query
    runs more than 4 times, and every other request is a cache hit.
    """
    rows = measured["cache-hot"]
    inline, four = rows["service-0"], rows["service-4"]
    assert inline["executed"] == inline["unique_queries"], inline
    assert inline["result_cache_served"] == inline["queries"] - inline["unique_queries"], inline
    assert four["unique_queries"] <= four["executed"] <= 4 * four["unique_queries"], four
    assert four["result_cache_served"] == four["queries"] - four["executed"], four


def test_cache_cold_thread_rows_execute_every_query_once(measured) -> None:
    """Cold traffic has nothing to reuse: every thread row evaluates the whole batch.

    Nothing is served from the result cache, every query is executed once,
    and with workers the batch is shared among them.
    """
    for mode, row in measured["cache-cold"].items():
        if mode.startswith("service-"):
            assert row["executed"] == row["queries"], row
            assert row["result_cache_served"] == 0, row
            workers = int(mode.removeprefix("service-"))
            assert 1 <= len(row["workers_served"]) <= max(workers, 1), row


def test_delta_invalidation_beats_whole_version_hit_rate(mixed_measured) -> None:
    """Delta-aware invalidation's margin over whole-version keying, as counts.

    Under whole-version invalidation every write turns the next repeat of a
    hot query into a miss; delta-aware invalidation recomputes only when the
    write's labels intersect the query's footprint.  Each cross-version hit is
    therefore a hit whole-version keying could not have served, so a positive
    count *is* the margin over it (reads are byte-identical to a cache-free
    replay, asserted in the fixture).
    """
    assert mixed_measured["cross_version_hits"] > 0, mixed_measured
    # Honesty check: delta is not a free pass — the Knows writes in the mix
    # really do evict the footprints they touch.
    assert mixed_measured["delta_rejected"] > 0, mixed_measured


def test_fsync_policies_are_ordered_and_counted() -> None:
    """fsync=always must actually sync every write; off must never sync."""
    syncs = {policy: _fsync_syncs(policy) for policy in FSYNC_POLICIES}
    assert syncs["always"] == WAL_WRITES
    assert syncs["off"] == 0
    assert 0 < syncs["batch"] < WAL_WRITES
