"""E-S4 — executor comparison: materializing evaluator vs pull-based pipeline.

The pluggable execution layer (PERFORMANCE.md, "One routing fact") routes
every ``auto`` query through one of these two executors.  This experiment
runs both end to end through the engine facade on the join/union workloads
of :func:`repro.bench.workloads.executor_workloads`:

* **full-result**: both executors produce the complete path set, and it is
  the same set; ``auto`` materializes a drained result;
* **early termination** (``LIMIT k``): the pipeline stops pulling after ``k``
  paths while the materializing evaluator computes the full join first — the
  workload the pipeline must win, and why ``auto`` streams a limited one;
* **plan cache**: a repeated hot query skips parse/plan/optimize entirely.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table
from repro.bench.workloads import executor_workloads
from repro.engine.engine import PathQueryEngine
from repro.rpq.compile import compile_regex


WORKLOADS = executor_workloads()


@pytest.fixture(scope="module")
def engines() -> dict[str, PathQueryEngine]:
    return {workload.name: PathQueryEngine(workload.build_graph()) for workload in WORKLOADS}


def _measure_workload(workload, engine: PathQueryEngine) -> dict:
    plan = compile_regex(workload.regex)
    limit = workload.parameters["limit"]
    full = engine.query_plan(plan, executor="materialize")
    limited = engine.query_plan(plan, executor="pipeline", limit=limit)
    assert len(limited) == min(limit, len(full))
    return {
        "workload": workload.name,
        "paths": len(full),
        "limit": limit,
        "materialize_intermediate": full.statistics.intermediate_paths,
        "pipeline_limit_intermediate": limited.statistics.intermediate_paths,
    }


@pytest.fixture(scope="module")
def measured(engines) -> list[dict]:
    return [_measure_workload(workload, engines[workload.name]) for workload in WORKLOADS]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_executors_agree_through_facade(engines, workload) -> None:
    engine = engines[workload.name]
    assert engine.execute_regex(workload.regex, executor="materialize") == engine.execute_regex(
        workload.regex, executor="pipeline"
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_auto_routes_streaming_workloads_to_pipeline(engines, workload) -> None:
    """A limited (streaming) query goes to the pipeline; a drained one materializes."""
    engine = engines[workload.name]
    plan = compile_regex(workload.regex)
    limit = workload.parameters["limit"]
    assert engine.query_plan(plan, limit=limit).executor == "pipeline"
    assert engine.query_plan(plan).executor == "materialize"


def test_limited_pipeline_builds_fewer_intermediate_paths(measured) -> None:
    """LIMIT-k pulls touch fewer intermediate paths than full materialization.

    Counted, not timed: the limited pipeline stops after the first ``k``
    rows, so on every workload it builds fewer intermediate paths than the
    materializing evaluator's complete join.
    """
    assert measured
    for entry in measured:
        assert entry["pipeline_limit_intermediate"] < entry["materialize_intermediate"], entry


def test_plan_cache_serves_hot_queries(engines) -> None:
    workload = WORKLOADS[0]
    engine = PathQueryEngine(workload.build_graph())
    engine.execute_regex(workload.regex)
    engine.execute_regex(workload.regex)
    engine.execute_regex(workload.regex)
    assert len(engine.plan_cache) == 1
    assert engine.plan_cache.hits == 2


def test_executor_report(measured) -> None:
    print()
    print(
        format_table(
            ["workload", "paths", "materialize intermediate", "limit", "pipeline_limit intermediate"],
            [
                (
                    entry["workload"],
                    entry["paths"],
                    entry["materialize_intermediate"],
                    entry["limit"],
                    entry["pipeline_limit_intermediate"],
                )
                for entry in measured
            ],
            title="Executor comparison (end to end through PathQueryEngine)",
        )
    )
