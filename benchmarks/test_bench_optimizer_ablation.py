"""E-S2 — optimizer ablation: rewrite rules on vs. off across label selectivities.

Two design decisions are ablated: selection pushdown (Figure 6) and the
walk-to-shortest rewrite (Section 7.3).  This experiment
measures both on synthetic graphs whose label selectivity varies, comparing
the optimized and unoptimized plans' evaluation cost and intermediate result
counts; results must agree in every configuration.
"""

from __future__ import annotations

import pytest

from repro.algebra.conditions import label_of_edge, prop_of_first
from repro.algebra.evaluator import Evaluator
from repro.algebra.expressions import (
    EdgesScan,
    GroupBy,
    Join,
    OrderBy,
    Projection,
    Recursive,
    Selection,
)
from repro.algebra.solution_space import GroupByKey, OrderByKey, ProjectionSpec
from repro.bench.reporting import format_table
from repro.bench.workloads import selectivity_workloads
from repro.optimizer.engine import optimize
from repro.semantics.restrictors import Restrictor

WORKLOADS = {workload.name: workload for workload in selectivity_workloads(num_nodes=100, seed=11)}


def pushdown_plan() -> Selection:
    knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
    return Selection(prop_of_first("name", "p1"), Join(knows, knows))


def any_shortest_walk_plan(max_length: int | None = 4) -> Projection:
    knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
    return Projection(
        OrderBy(GroupBy(Recursive(knows, Restrictor.WALK, max_length), GroupByKey.ST), OrderByKey.A),
        ProjectionSpec("*", "*", 1),
    )


@pytest.fixture(scope="module")
def graphs():
    return {name: workload.build_graph() for name, workload in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS), ids=list(WORKLOADS))
def test_pushdown_off(benchmark, graphs, name) -> None:
    graph = graphs[name]
    plan = pushdown_plan()
    result = benchmark(lambda: Evaluator(graph).evaluate_paths(plan))
    assert result == Evaluator(graph).evaluate_paths(optimize(plan).optimized)


@pytest.mark.parametrize("name", list(WORKLOADS), ids=list(WORKLOADS))
def test_pushdown_on(benchmark, graphs, name) -> None:
    graph = graphs[name]
    optimized = optimize(pushdown_plan()).optimized
    benchmark(lambda: Evaluator(graph).evaluate_paths(optimized))


@pytest.mark.parametrize("name", list(WORKLOADS), ids=list(WORKLOADS))
def test_walk_to_shortest_off(benchmark, graphs, name) -> None:
    graph = graphs[name]
    plan = any_shortest_walk_plan(max_length=4)
    result = benchmark(lambda: Evaluator(graph).evaluate_paths(plan))
    assert len(result) > 0


@pytest.mark.parametrize("name", list(WORKLOADS), ids=list(WORKLOADS))
def test_walk_to_shortest_on(benchmark, graphs, name) -> None:
    graph = graphs[name]
    optimized = optimize(any_shortest_walk_plan(max_length=4)).optimized
    result = benchmark(lambda: Evaluator(graph).evaluate_paths(optimized))
    assert len(result) > 0


def test_ablation_report(graphs) -> None:
    """Print intermediate-result counts with each rule on/off per selectivity mix."""
    rows = []
    for name, graph in graphs.items():
        pushdown_off = Evaluator(graph)
        pushdown_off.evaluate_paths(pushdown_plan())
        pushdown_on = Evaluator(graph)
        pushdown_on.evaluate_paths(optimize(pushdown_plan()).optimized)

        walk_off = Evaluator(graph)
        walk_off_result = walk_off.evaluate_paths(any_shortest_walk_plan(max_length=4))
        walk_on = Evaluator(graph)
        walk_on_result = walk_on.evaluate_paths(optimize(any_shortest_walk_plan(max_length=4)).optimized)

        rows.append(
            (
                name,
                pushdown_off.statistics.intermediate_paths,
                pushdown_on.statistics.intermediate_paths,
                walk_off.statistics.intermediate_paths,
                walk_on.statistics.intermediate_paths,
            )
        )
        # The bounded WALK pipeline and the SHORTEST pipeline agree on the
        # shortest-path answers they return per endpoint pair.
        assert {p.endpoints() for p in walk_on_result} == {p.endpoints() for p in walk_off_result}

    print()
    print(
        format_table(
            [
                "workload",
                "pushdown OFF (paths)",
                "pushdown ON (paths)",
                "ϕWalk≤4 pipeline (paths)",
                "ϕShortest pipeline (paths)",
            ],
            rows,
            title="E-S2 — optimizer ablation: intermediate result counts",
        )
    )
    for row in rows:
        assert row[2] <= row[1]
