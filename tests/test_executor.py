"""Tests for the pluggable execution layer: parity, selection, plan cache.

The parity suite runs the seeded 50-graph corpus (shared with
``test_closure_equivalence``) through the engine facade with both executors
and asserts identical :class:`~repro.paths.pathset.PathSet` results and sane
unified statistics — the logical/physical-equivalence property, this time at
the engine level rather than per operator.
"""

from __future__ import annotations

import pytest

from graph_corpus import closure_corpus
from repro.algebra.expressions import EdgesScan, Join, Recursive, Selection
from repro.algebra.conditions import label_of_edge
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import cycle_graph
from repro.engine import engine as engine_module
from repro.engine.engine import PHASES, PathQueryEngine
from repro.engine.executor import (
    MaterializeExecutor,
    PipelineExecutor,
    choose_executor,
    resolve_executor,
)
from repro.errors import BudgetExceeded
from repro.execution import QueryBudget
from repro.graph import stats as graph_stats
from repro.graph.model import PropertyGraph
from repro.optimizer import cost as cost_module
from repro.semantics.restrictors import Restrictor

CORPUS: list[PropertyGraph] = closure_corpus()

#: Facade queries covering streaming plans, every-restrictor recursion and
#: the selector pipelines; the bound keeps the corpus sweep fast.
PARITY_QUERIES = (
    "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)",
    "MATCH ALL ACYCLIC p = (?x)-[Knows*]->(?y)",
    "MATCH ALL SHORTEST SIMPLE p = (?x)-[Knows+]->(?y)",
    "MATCH ALL WALK p = (?x)-[Knows+]->(?y)",
)
PARITY_BOUND = 4


@pytest.fixture
def figure1() -> PropertyGraph:
    return figure1_graph()


class TestExecutorParity:
    @pytest.mark.parametrize("graph", CORPUS, ids=lambda graph: graph.name)
    def test_both_executors_agree_on_corpus(self, graph: PropertyGraph) -> None:
        engine = PathQueryEngine(graph, default_max_length=PARITY_BOUND)
        for text in PARITY_QUERIES:
            materialized = engine.query(text, max_length=PARITY_BOUND, executor="materialize")
            pipelined = engine.query(text, max_length=PARITY_BOUND, executor="pipeline")
            assert materialized.paths == pipelined.paths, (graph.name, text)
            assert materialized.statistics.executor == "materialize"
            assert pipelined.statistics.executor == "pipeline"
            assert materialized.statistics.intermediate_paths >= len(materialized.paths)
            assert pipelined.statistics.intermediate_paths >= len(pipelined.paths)
            assert pipelined.statistics.operators > 0

    @pytest.mark.parametrize("graph", CORPUS[:10], ids=lambda graph: graph.name)
    def test_execute_regex_parity(self, graph: PropertyGraph) -> None:
        engine = PathQueryEngine(graph)
        for restrictor in (Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE):
            materialized = engine.execute_regex(
                "Knows+", restrictor=restrictor, max_length=PARITY_BOUND, executor="materialize"
            )
            pipelined = engine.execute_regex(
                "Knows+", restrictor=restrictor, max_length=PARITY_BOUND, executor="pipeline"
            )
            assert materialized == pipelined, (graph.name, restrictor)


#: A ϕ-free join and a ϕShortest closure: the two plan shapes the retired
#: cost thresholds sent to different executors.
AUTO_TEXTS = (
    "MATCH ALL TRAIL p = (?x)-[Knows/Likes]->(?y)",
    "MATCH ALL SHORTEST p = (?x)-[Knows]->+(?y)",
)


class TestAutoSelection:
    def test_auto_picks_pipeline_for_streaming_plan(self, figure1) -> None:
        """A query that can stop early streams: any limit, and every cursor."""
        engine = PathQueryEngine(figure1)
        for text in AUTO_TEXTS:
            assert engine.query(text, limit=2).executor == "pipeline", text
            assert engine.open_cursor(text).executor == "pipeline", text
            assert engine.open_cursor(text, limit=2).executor == "pipeline", text

    def test_auto_picks_materialize_for_recursive_plan(self, figure1) -> None:
        engine = PathQueryEngine(figure1, default_max_length=6)
        result = engine.query("MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)")
        assert result.executor == "materialize"

    def test_auto_materializes_every_drained_query(self, figure1, monkeypatch) -> None:
        routes: list[str] = []
        resolve = engine_module.resolve_executor
        monkeypatch.setattr(
            engine_module, "resolve_executor", lambda name: routes.append(name) or resolve(name)
        )
        engine = PathQueryEngine(figure1)
        for text in AUTO_TEXTS:
            assert engine.query(text).executor == "materialize", text
            assert engine.query_plan(engine.prepare(text).optimized).executor == "materialize"
        engine.execute_regex("Knows/Likes")
        engine.execute_regex("Knows+", restrictor=Restrictor.SHORTEST)
        assert routes == ["materialize"] * 6
        engine.execute_regex("Knows+", restrictor=Restrictor.SHORTEST, limit=1)
        assert routes[-1] == "pipeline"

    def test_choose_executor_reads_only_the_limit(self, figure1) -> None:
        knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
        for plan in (knows, Join(knows, knows), Recursive(knows, Restrictor.SHORTEST)):
            assert choose_executor(plan) == "materialize"
            assert choose_executor(plan, None) == "materialize"
            for limit in (0, 1, 10**6):
                assert choose_executor(plan, limit) == "pipeline"

    def test_limited_auto_closure_stops_inside_a_budget_the_closure_exceeds(self) -> None:
        engine = PathQueryEngine(cycle_graph(24))
        text = "MATCH ALL TRAIL p = (?x)-[Knows]->+(?y)"
        result = engine.query(text, limit=5, budget=QueryBudget(max_visited=120))
        assert result.executor == "pipeline"
        assert len(result) == 5
        assert result.truncated and result.total_paths is None
        with pytest.raises(BudgetExceeded):
            engine.query(text, budget=QueryBudget(max_visited=120))

    def test_explain_reports_chosen_executor(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        explanation = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert explanation.chosen_executor == "materialize"
        assert "Executor (auto): materialize" in explanation.render()

    def test_explain_respects_fixed_executor(self, figure1) -> None:
        engine = PathQueryEngine(figure1, executor="materialize")
        explanation = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert explanation.chosen_executor == "materialize"
        assert "Executor: materialize" in explanation.render()

    def test_engine_rejects_unknown_executor(self, figure1) -> None:
        with pytest.raises(ValueError):
            PathQueryEngine(figure1, executor="vectorized")
        with pytest.raises(ValueError, match="unknown executor"):
            PathQueryEngine(figure1).query(
                "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", executor="materialise"
            )
        with pytest.raises(ValueError):
            resolve_executor("auto")  # auto must be resolved before this layer

    def test_engine_default_executor_knob(self, figure1) -> None:
        engine = PathQueryEngine(figure1, executor="materialize")
        result = engine.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert result.executor == "materialize"


class TestLimitPushdown:
    def test_pipeline_limit_stops_pulling(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
        full = engine.query_plan(Join(knows, knows), executor="pipeline")
        limited = engine.query_plan(Join(knows, knows), executor="pipeline", limit=1)
        assert len(limited) == 1
        assert limited.truncated
        assert limited.total_paths is None
        # Early termination: fewer paths crossed operator boundaries.
        assert limited.statistics.total_rows() < full.statistics.total_rows()

    def test_materialize_limit_truncates_but_reports_total(self, figure1) -> None:
        engine = PathQueryEngine(figure1, default_max_length=6)
        result = engine.query(
            "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="materialize", limit=2
        )
        assert len(result) == 2
        assert result.truncated
        assert result.total_paths == 12
        # Materialize truncation is deterministic: the smallest paths survive.
        full = engine.query("MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="materialize")
        assert result.paths.sorted() == full.paths.sorted()[:2]

    def test_limit_larger_than_result_is_not_truncated(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        result = engine.query(
            "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", executor="pipeline", limit=100
        )
        assert len(result) == 4
        assert not result.truncated
        assert result.total_paths == 4

    def test_limit_equal_to_result_is_not_truncated(self, figure1) -> None:
        # The pipeline probes one path beyond the limit, so an exactly-full
        # result is correctly reported as complete.
        engine = PathQueryEngine(figure1)
        result = engine.query(
            "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", executor="pipeline", limit=4
        )
        assert len(result) == 4
        assert not result.truncated
        assert result.total_paths == 4

    def test_limit_zero_returns_no_paths(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        for executor in ("materialize", "pipeline"):
            result = engine.query(
                "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", executor=executor, limit=0
            )
            assert len(result) == 0, executor
            assert result.truncated, executor

    def test_execute_regex_limit(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        paths = engine.execute_regex("Knows/Knows", executor="pipeline", limit=2)
        assert len(paths) == 2


class TestPlanCache:
    TEXT = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"

    def test_cache_hit_skips_parse_plan_optimize(self, figure1, monkeypatch) -> None:
        engine = PathQueryEngine(figure1)
        first = engine.query(self.TEXT)
        assert not first.cache_hit
        assert engine.plan_cache.misses == 1

        def boom(plan):
            raise AssertionError("optimizer must not re-run on a plan-cache hit")

        monkeypatch.setattr(engine._optimizer, "optimize", boom)
        second = engine.query(self.TEXT)
        assert second.cache_hit
        assert engine.plan_cache.hits == 1
        assert second.paths == first.paths
        assert second.phase_seconds["parse"] == 0.0
        assert second.phase_seconds["plan"] == 0.0
        assert second.phase_seconds["optimize"] == 0.0
        assert second.phase_seconds["execute"] > 0.0

    def test_queries_never_compute_graph_statistics(self, figure1, monkeypatch) -> None:
        """``auto`` routes without statistics: a query, a write in its footprint, the query again."""
        calls: list[PropertyGraph] = []
        compute = graph_stats.compute_statistics
        spy = lambda graph: calls.append(graph) or compute(graph)  # noqa: E731
        for module in (graph_stats, cost_module):
            monkeypatch.setattr(module, "compute_statistics", spy)
        engine = PathQueryEngine(figure1)
        first = engine.query(self.TEXT)
        figure1.add_node("n99", "Person")
        figure1.add_edge("e99", "n99", "n1", "Knows")
        second = engine.query(self.TEXT)
        assert second.cache_hit
        assert len(second) == len(first) + 1
        engine.query(self.TEXT, limit=1)
        engine.open_cursor(self.TEXT).fetchall()
        assert calls == []
        # explain is the one caller left: one CostModel for its two estimates.
        engine.explain(self.TEXT)
        assert len(calls) == 1

    def test_mutation_reuses_plan_under_delta_invalidation(self, figure1) -> None:
        # Plans are pure functions of text + options, so the default delta
        # mode keeps serving the cached plan across version bumps — the
        # results must still reflect the mutated graph.
        engine = PathQueryEngine(figure1)
        first = engine.query(self.TEXT)
        figure1.add_node("n99", "Person")
        second = engine.query(self.TEXT)
        assert second.cache_hit
        assert second.paths == first.paths
        figure1.add_edge("e99", "n99", "n1", "Knows")
        third = engine.query(self.TEXT)
        assert third.cache_hit
        assert third.paths != first.paths

    def test_distinct_options_get_distinct_entries(self, figure1) -> None:
        engine = PathQueryEngine(figure1, default_max_length=6)
        engine.query("MATCH ALL WALK p = (?x)-[Knows+]->(?y)")
        engine.query("MATCH ALL WALK p = (?x)-[Knows+]->(?y)", max_length=2)
        assert len(engine.plan_cache) == 2
        assert engine.plan_cache.hits == 0

    def test_lru_eviction(self, figure1) -> None:
        engine = PathQueryEngine(figure1, plan_cache_size=2)
        engine.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        engine.query("MATCH ALL TRAIL p = (?x)-[Likes]->(?y)")
        engine.query("MATCH ALL TRAIL p = (?x)-[Follows]->(?y)")
        assert len(engine.plan_cache) == 2
        # The first entry was least recently used and is gone again.
        result = engine.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert not result.cache_hit

    def test_cache_can_be_disabled(self, figure1) -> None:
        engine = PathQueryEngine(figure1, plan_cache_size=0)
        engine.query(self.TEXT)
        engine.query(self.TEXT)
        assert len(engine.plan_cache) == 0
        assert engine.plan_cache.hits == 0

    def test_regex_plans_are_cached_too(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        engine.execute_regex("Knows/Knows")
        engine.execute_regex("Knows/Knows")
        assert engine.plan_cache.hits == 1


class TestPhaseTimings:
    def test_query_reports_all_phases(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        result = engine.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert tuple(result.phase_seconds) == PHASES
        assert result.phase_seconds["parse"] > 0.0
        assert result.phase_seconds["execute"] > 0.0
        # elapsed_seconds covers every phase (the pre-refactor timer started
        # only inside query_plan and missed parse + plan).
        assert result.elapsed_seconds >= sum(result.phase_seconds.values()) * 0.5
        assert result.elapsed_seconds >= result.phase_seconds["execute"]

    def test_query_plan_has_no_parse_phase(self, figure1) -> None:
        engine = PathQueryEngine(figure1)
        knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
        result = engine.query_plan(knows)
        assert result.phase_seconds["parse"] == 0.0
        assert result.phase_seconds["plan"] == 0.0
        assert result.phase_seconds["execute"] > 0.0


class TestUnifiedStatistics:
    def test_materialize_statistics_shape(self, figure1) -> None:
        result = PathQueryEngine(figure1, default_max_length=6).query(
            "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="materialize"
        )
        stats = result.statistics
        assert stats.executor == "materialize"
        assert stats.total_calls() > 0
        assert stats.operators == 0  # no physical operators were instantiated
        assert stats.intermediate_paths >= len(result.paths)

    def test_pipeline_statistics_shape(self, figure1) -> None:
        result = PathQueryEngine(figure1).query(
            "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", executor="pipeline"
        )
        stats = result.statistics
        assert stats.executor == "pipeline"
        assert stats.operators > 0
        assert stats.total_rows() == stats.intermediate_paths

    def test_executor_instances_are_addressable(self, figure1) -> None:
        knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
        for executor in (MaterializeExecutor(), PipelineExecutor()):
            outcome = executor.execute(knows, figure1)
            assert len(outcome.paths) == 4
            assert outcome.statistics.executor == executor.name
            assert outcome.total_paths == 4
