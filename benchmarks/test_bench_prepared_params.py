"""Benchmark: parameterized prepared queries vs. constant-varying raw texts.

The workload the client API's prepared queries exist for: the *same* query
shape executed many times with a different constant each time (a lookup
endpoint serving per-user requests).  Raw texts differ byte-for-byte per
constant, so the plan cache misses every single time and every request pays
parse + plan + optimize; a prepared ``$name`` query is planned once and every
binding is a plan-cache hit.

The measured comparison (same bindings, same results, asserted identical)
lands in ``BENCH_engine.json`` under the ``prepared_queries`` key, merged
into the file the executor benchmark writes — the single engine-level perf
trajectory.  PERFORMANCE.md discusses the numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path as FilePath

import pytest

from repro.api import connect
from repro.bench.workloads import quick_mode
from repro.datasets.ldbc import LDBCParameters, ldbc_like_graph


#: Requests per run.  Every request carries a *distinct* constant (ages
#: 18..80 are unique per request), the defining property of the workload:
#: a text-keyed plan cache can never hit, a parameter-keyed one always does.
NUM_BINDINGS = 30 if quick_mode() else 60

RAW_TEXT = "MATCH ALL TRAIL p = (?x {age: %d})-[:Knows]->(?y)"
PARAM_TEXT = "MATCH ALL TRAIL p = (?x {age: $age})-[:Knows]->(?y)"


@pytest.fixture(scope="module")
def graph():
    return ldbc_like_graph(LDBCParameters(num_persons=60, num_messages=40, seed=7))


@pytest.fixture(scope="module")
def measured(graph) -> dict:
    bindings = [18 + index for index in range(NUM_BINDINGS)]  # all distinct

    raw_db = connect(graph)
    with raw_db.session() as session:
        started = time.perf_counter()
        raw_results = [
            tuple(str(path) for path in session.query(RAW_TEXT % value).paths.sorted())
            for value in bindings
        ]
        raw_seconds = time.perf_counter() - started
    raw_stats = raw_db.cache_stats()

    prepared_db = connect(graph)
    with prepared_db.session() as session:
        prepared = session.prepare(PARAM_TEXT)
        started = time.perf_counter()
        prepared_results = [
            tuple(str(path) for path in prepared.query(age=value).paths.sorted())
            for value in bindings
        ]
        prepared_seconds = time.perf_counter() - started
    prepared_stats = prepared_db.cache_stats()

    assert prepared_results == raw_results  # identical answers, binding by binding
    return {
        "bindings": NUM_BINDINGS,
        "distinct_constants": len(set(bindings)),
        "raw_s": round(raw_seconds, 6),
        "prepared_s": round(prepared_seconds, 6),
        "speedup_prepared_vs_raw": round(raw_seconds / prepared_seconds, 2),
        "raw_plan_cache": {
            "hits": raw_stats["hits"], "misses": raw_stats["misses"]
        },
        "prepared_plan_cache": {
            "hits": prepared_stats["hits"], "misses": prepared_stats["misses"]
        },
    }


def test_prepared_query_plans_exactly_once(measured) -> None:
    """The acceptance property, measured on a real workload: one plan, N-1+ hits."""
    assert measured["prepared_plan_cache"]["misses"] == 1
    assert measured["prepared_plan_cache"]["hits"] >= NUM_BINDINGS - 1


def test_raw_constant_varying_texts_never_hit(measured) -> None:
    """Distinct constants defeat a text-keyed cache beyond exact repeats."""
    # Only byte-identical repeats can hit; the distinct constants all miss.
    assert measured["raw_plan_cache"]["misses"] >= measured["distinct_constants"]


def test_prepared_plans_once_raw_plans_per_constant(measured) -> None:
    """Why prepared wins, as counts: one parse against one per binding.

    The speedup itself (``speedup_prepared_vs_raw``) is a reported column —
    a wall-clock inequality over 30-60 millisecond-scale requests is noise
    on a shared host — but what it stands for is exact: the prepared side
    planned once and hit for every binding, the raw side planned per constant.
    """
    assert measured["prepared_plan_cache"]["misses"] == 1
    assert measured["prepared_plan_cache"]["hits"] >= NUM_BINDINGS - 1
    assert measured["raw_plan_cache"]["misses"] == measured["distinct_constants"]
    assert measured["speedup_prepared_vs_raw"] > 0.0


def test_report(measured) -> None:
    hit_rate = measured["prepared_plan_cache"]["hits"] / measured["bindings"]
    print(
        f"\nprepared-vs-raw over {measured['bindings']} bindings "
        f"({measured['distinct_constants']} distinct constants): "
        f"raw {measured['raw_s'] * 1e3:.1f} ms, "
        f"prepared {measured['prepared_s'] * 1e3:.1f} ms "
        f"({measured['speedup_prepared_vs_raw']}x, "
        f"plan-cache hit rate {hit_rate:.1%})"
    )


@pytest.fixture(scope="module", autouse=True)
def merge_into_engine_trajectory(measured, bench_json_path) -> None:
    """Merge the ``prepared_queries`` section into BENCH_engine.json.

    The executor benchmark owns the file (it rewrites it wholesale); this
    module runs after it alphabetically and merges its own section in,
    preserving whatever else the file holds.  When the file is absent or
    unreadable a minimal skeleton is created, so the module also works
    standalone.
    """
    yield
    path = FilePath(bench_json_path("BENCH_engine.json"))
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = {"benchmark": "executor-materialize-vs-pipeline", "entries": []}
    payload["prepared_queries"] = {
        "mode": "quick" if quick_mode() else "full",
        "note": (
            "constant-varying lookup workload: N raw texts (plan cache "
            "misses every distinct constant) vs one prepared $name query "
            "(planned once, every binding a hit); identical results asserted"
        ),
        **measured,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
