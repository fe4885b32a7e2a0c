"""Tests for the pull-based physical pipeline (logical/physical equivalence)."""

from __future__ import annotations

import pytest

from repro.algebra.conditions import label_of_edge, prop_of_first
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import (
    Difference,
    EdgesScan,
    GroupBy,
    Intersection,
    Join,
    NodesScan,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    Union,
)
from repro.algebra.solution_space import GroupByKey, OrderByKey, ProjectionSpec
from repro.datasets.generators import cycle_graph
from repro.engine.engine import PathQueryEngine
from repro.engine.physical import build_pipeline, execute_pipeline
from repro.errors import EvaluationError
from repro.gql.planner import plan_text
from repro.semantics.restrictors import Restrictor


def knows_scan() -> Selection:
    return Selection(label_of_edge(1, "Knows"), EdgesScan())


def figure5_plan() -> Projection:
    return Projection(
        OrderBy(
            GroupBy(Recursive(knows_scan(), Restrictor.TRAIL), GroupByKey.ST),
            OrderByKey.A,
        ),
        ProjectionSpec("*", "*", 1),
    )


class TestEquivalenceWithLogicalEvaluator:
    @pytest.mark.parametrize(
        "plan_factory",
        [
            lambda: NodesScan(),
            lambda: EdgesScan(),
            lambda: knows_scan(),
            lambda: Join(knows_scan(), knows_scan()),
            lambda: Union(knows_scan(), Selection(label_of_edge(1, "Likes"), EdgesScan())),
            lambda: Intersection(
                Recursive(knows_scan(), Restrictor.TRAIL),
                Recursive(knows_scan(), Restrictor.ACYCLIC),
            ),
            lambda: Difference(
                Recursive(knows_scan(), Restrictor.TRAIL),
                Recursive(knows_scan(), Restrictor.ACYCLIC),
            ),
            lambda: Recursive(knows_scan(), Restrictor.SIMPLE),
            lambda: figure5_plan(),
            lambda: Selection(prop_of_first("name", "Moe"), Join(knows_scan(), knows_scan())),
        ],
        ids=[
            "nodes",
            "edges",
            "selection",
            "join",
            "union",
            "intersection",
            "difference",
            "recursive-simple",
            "figure5-pipeline",
            "selection-over-join",
        ],
    )
    def test_pipeline_matches_materializing_evaluator(self, figure1, plan_factory) -> None:
        plan = plan_factory()
        assert execute_pipeline(plan, figure1) == evaluate_to_paths(plan, figure1)

    def test_gql_query_through_pipeline(self, figure1) -> None:
        plan = plan_text(
            'MATCH ALL SIMPLE p = (?x {name: "Moe"})-[(:Knows+)|((:Likes/:Has_creator)+)]->'
            '(?y {name: "Apu"})'
        )
        assert execute_pipeline(plan, figure1) == evaluate_to_paths(plan, figure1)

    def test_default_max_length_applies_to_walk(self, figure1) -> None:
        plan = Recursive(knows_scan(), Restrictor.WALK)
        result = execute_pipeline(plan, figure1, default_max_length=3)
        assert result == evaluate_to_paths(plan, figure1, default_max_length=3)
        assert all(path.len() <= 3 for path in result)


class TestStreaming:
    def test_stream_yields_lazily_with_limit(self, figure1) -> None:
        pipeline = build_pipeline(EdgesScan(), figure1)
        first_three = list(pipeline.stream(limit=3))
        assert len(first_three) == 3
        # Only three paths crossed the scan boundary — the scan did not run to completion.
        assert pipeline.statistics.operator_output_sizes["Edges(G)"] == 3

    def test_stream_without_limit_produces_everything(self, figure1) -> None:
        pipeline = build_pipeline(knows_scan(), figure1)
        assert len(list(pipeline.stream())) == 4

    def test_selection_streams_through_join(self, figure1) -> None:
        plan = Join(knows_scan(), knows_scan())
        pipeline = build_pipeline(plan, figure1)
        next(pipeline.stream(limit=1))
        counters = pipeline.statistics.operator_output_sizes
        assert counters["⋈"] == 1
        # The probe side stops early; only the build side is fully consumed.
        assert counters[f"σ[{label_of_edge(1, 'Knows')}]"] <= 8

    def test_limited_any_shortest_streams(self) -> None:
        """ANY SHORTEST is a quota search, not a blocking crown: a limit stops the closure."""
        engine = PathQueryEngine(cycle_graph(64))
        text = "MATCH ANY SHORTEST WALK p = (?x)-[Knows]->+(?y)"
        drained = engine.query(text, executor="pipeline")
        limited = engine.query(text, executor="pipeline", limit=5)
        assert len(drained.paths) == 64 * 64
        assert list(limited.paths) == list(drained.paths)[:5]
        # A blocking crown would build all 4 096 closure paths before its first row.
        assert limited.statistics.intermediate_paths < len(drained.paths)
        assert limited.statistics.intermediate_paths < drained.statistics.intermediate_paths


class TestStatisticsAndErrors:
    def test_operator_counters(self, figure1) -> None:
        pipeline = build_pipeline(Union(knows_scan(), knows_scan()), figure1)
        result = pipeline.execute()
        assert len(result) == 4
        stats = pipeline.statistics
        assert stats.operators == 5  # union + two selections + two scans
        assert stats.operator_output_sizes["∪"] == 4
        assert stats.total_rows() >= 4 + 8

    def test_solution_space_chain_collapsed_into_one_operator(self, figure1) -> None:
        pipeline = build_pipeline(figure5_plan(), figure1)
        pipeline.execute()
        # Projection+OrderBy+GroupBy execute as a single blocking stage.
        assert pipeline.statistics.operators == 4  # scan, selection, recursion, solution-space stage

    def test_order_by_without_group_by_rejected(self, figure1) -> None:
        plan = OrderBy(knows_scan(), OrderByKey.A)
        with pytest.raises(EvaluationError):
            execute_pipeline(plan, figure1)

    def test_unknown_expression_rejected(self, figure1) -> None:
        class Strange:
            pass

        with pytest.raises(EvaluationError):
            build_pipeline(Strange(), figure1)  # type: ignore[arg-type]
