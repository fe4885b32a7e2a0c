"""Budget / cooperative-cancellation tests (ISSUE 4).

The contract under test: a :class:`~repro.execution.QueryBudget` threaded
into any entry point of the execution stack — the engine facade, either
executor, the closure strategies, ``PathSet.join`` or the traversal/automaton
baselines — kills the execution within one check interval of its deadline (or
deterministically at a resource cap), raises a typed
:class:`~repro.errors.BudgetExceeded` carrying the partial progress, and
costs nothing when absent: a generous budget never changes a result.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.automaton_eval import (
    evaluate_rpq_pairs,
    evaluate_rpq_shortest_witnesses,
)
from repro.baselines.closure import recursive_closure_baseline
from repro.baselines.traversal import TraversalOptions, evaluate_rpq_traversal
from repro.datasets.generators import complete_graph, cycle_graph
from repro.datasets.ldbc import ldbc_like_graph
from repro.engine.engine import PathQueryEngine
from repro.errors import BudgetExceeded
from repro.execution import ExecutionStatistics, QueryBudget
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import Restrictor, recursive_closure

#: A Walk recursion over the cyclic LDBC-like Knows network: the workload the
#: issue names as the one that wedges a worker when budgets don't exist.
HEAVY_WALK = "MATCH ALL WALK p = (?x)-[Knows+]->(?y)"
HEAVY_MAX_LENGTH = 7

#: An already-expired budget: the first checkpoint anywhere must trip it.
def _expired() -> QueryBudget:
    return QueryBudget(deadline=time.monotonic() - 1.0)


def _generous() -> QueryBudget:
    return QueryBudget.from_timeout(300.0, max_visited=10**12)


class TestQueryBudgetUnit:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            QueryBudget(max_visited=-1)
        with pytest.raises(ValueError):
            QueryBudget(max_results=-5)
        with pytest.raises(ValueError):
            QueryBudget(check_interval=0)

    def test_unlimited(self) -> None:
        assert QueryBudget().unlimited
        assert not QueryBudget(max_visited=10).unlimited
        assert not QueryBudget.from_timeout(1.0).unlimited

    def test_charge_trips_visited_cap(self) -> None:
        budget = QueryBudget(max_visited=100)
        budget.charge(100, "op")  # exactly at the cap: fine
        with pytest.raises(BudgetExceeded) as info:
            budget.charge(1, "op")
        assert info.value.reason == "max_visited"
        assert info.value.paths_visited == 101
        assert info.value.stopped_at == "op"

    def test_charge_checks_clock_every_interval(self) -> None:
        budget = QueryBudget(deadline=time.monotonic() - 1.0, check_interval=10)
        # Nine paths stay under the interval: the clock is never consulted.
        for _ in range(9):
            budget.charge(1, "hot-loop")
        with pytest.raises(BudgetExceeded) as info:
            budget.charge(1, "hot-loop")
        assert info.value.reason == "deadline"

    def test_checkpoint_always_checks_clock(self) -> None:
        budget = _expired()
        with pytest.raises(BudgetExceeded):
            budget.checkpoint("frontier")

    def test_checkpoint_records_depth(self) -> None:
        budget = QueryBudget()
        budget.checkpoint("round", depth=3)
        budget.checkpoint("round", depth=2)  # never decreases
        budget.note_depth(7)
        assert budget.depth_reached == 7

    def test_result_size_cap(self) -> None:
        budget = QueryBudget(max_results=5)
        budget.check_result_size(5, "result")
        with pytest.raises(BudgetExceeded) as info:
            budget.check_result_size(6, "result")
        assert info.value.reason == "max_results"

    def test_from_timeout_and_remaining(self) -> None:
        budget = QueryBudget.from_timeout(60.0)
        remaining = budget.remaining_seconds()
        assert remaining is not None and 55.0 < remaining <= 60.0
        assert QueryBudget().remaining_seconds() is None

    def test_exception_message_carries_progress(self) -> None:
        error = BudgetExceeded("deadline", paths_visited=42, depth_reached=3, stopped_at="ϕWalk")
        text = str(error)
        assert "deadline" in text and "42" in text and "ϕWalk" in text

    def test_capture_budget_into_statistics(self) -> None:
        budget = QueryBudget()
        budget.charge(10, "op")
        budget.note_depth(2)
        statistics = ExecutionStatistics()
        statistics.capture_budget(budget)
        assert statistics.budget_paths_visited == 10
        assert statistics.budget_depth_reached == 2
        statistics.capture_budget(None)  # no-op
        assert statistics.budget_paths_visited == 10


class TestClosureBudgets:
    @pytest.mark.parametrize(
        "restrictor",
        [Restrictor.WALK, Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE],
    )
    def test_visited_cap_kills_closure(self, restrictor: Restrictor) -> None:
        base = PathSet.edges_of(complete_graph(6))
        budget = QueryBudget(max_visited=50)
        with pytest.raises(BudgetExceeded) as info:
            recursive_closure(base, restrictor, max_length=5, budget=budget)
        assert info.value.reason == "max_visited"
        assert info.value.paths_visited > 50

    def test_visited_cap_kills_shortest(self) -> None:
        budget = QueryBudget(max_visited=10)
        with pytest.raises(BudgetExceeded) as info:
            recursive_closure(
                PathSet.edges_of(complete_graph(6)), Restrictor.SHORTEST, budget=budget
            )
        assert info.value.reason == "max_visited"

    def test_expired_deadline_kills_at_first_frontier(self) -> None:
        base = PathSet.edges_of(cycle_graph(8))
        with pytest.raises(BudgetExceeded) as info:
            recursive_closure(base, Restrictor.TRAIL, budget=_expired())
        assert info.value.reason == "deadline"
        assert info.value.stopped_at == "ϕTrail"

    @pytest.mark.parametrize(
        "restrictor",
        [
            Restrictor.WALK,
            Restrictor.TRAIL,
            Restrictor.ACYCLIC,
            Restrictor.SIMPLE,
            Restrictor.SHORTEST,
        ],
    )
    def test_generous_budget_is_invisible(self, restrictor: Restrictor) -> None:
        base = PathSet.edges_of(complete_graph(5))
        unbudgeted = recursive_closure(base, restrictor, max_length=4)
        budget = _generous()
        budgeted = recursive_closure(base, restrictor, max_length=4, budget=budget)
        assert budgeted == unbudgeted
        assert budget.paths_visited > 0

    def test_baseline_closure_honours_budget(self) -> None:
        base = PathSet.edges_of(complete_graph(6))
        with pytest.raises(BudgetExceeded):
            recursive_closure_baseline(
                base, Restrictor.TRAIL, max_length=5, budget=QueryBudget(max_visited=50)
            )
        with pytest.raises(BudgetExceeded):
            recursive_closure_baseline(
                base, Restrictor.SHORTEST, budget=QueryBudget(max_visited=10)
            )

    def test_pathset_join_honours_budget(self) -> None:
        base = PathSet.edges_of(complete_graph(8))
        with pytest.raises(BudgetExceeded) as info:
            base.join(base, budget=QueryBudget(max_visited=100))
        assert info.value.stopped_at == "⋈"
        # Without a cap the join result matches the budget-free join.
        assert base.join(base, budget=_generous()) == base.join(base)


class TestEngineBudgets:
    @pytest.fixture(scope="class")
    def ldbc(self):
        return ldbc_like_graph()

    @pytest.mark.parametrize("executor", ["materialize", "pipeline"])
    def test_deadline_kills_heavy_walk_in_flight(self, ldbc, executor: str) -> None:
        engine = PathQueryEngine(ldbc)
        budget = QueryBudget.from_timeout(0.1)
        started = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            engine.query(
                HEAVY_WALK, max_length=HEAVY_MAX_LENGTH, executor=executor, budget=budget
            )
        elapsed = time.monotonic() - started
        # The unbudgeted query runs for many seconds; the kill must land
        # within a small multiple of the deadline (one check interval plus
        # scheduling noise — generous slack for loaded CI hosts).
        assert elapsed < 1.0
        assert info.value.reason == "deadline"
        assert info.value.paths_visited > 0
        assert info.value.depth_reached >= 1
        assert info.value.stopped_at

    def test_visited_cap_is_deterministic(self, ldbc) -> None:
        engine = PathQueryEngine(ldbc)
        with pytest.raises(BudgetExceeded) as info:
            engine.query(
                HEAVY_WALK,
                max_length=HEAVY_MAX_LENGTH,
                budget=QueryBudget(max_visited=10_000),
            )
        assert info.value.reason == "max_visited"
        assert info.value.paths_visited > 10_000

    def test_result_size_cap(self, ldbc) -> None:
        engine = PathQueryEngine(ldbc)
        with pytest.raises(BudgetExceeded) as info:
            engine.query(
                HEAVY_WALK, max_length=4, budget=QueryBudget(max_results=1_000)
            )
        assert info.value.reason == "max_results"

    def test_generous_budget_matches_unbudgeted_result(self, ldbc) -> None:
        engine = PathQueryEngine(ldbc)
        plain = engine.query(HEAVY_WALK, max_length=4)
        budgeted = engine.query(HEAVY_WALK, max_length=4, budget=_generous())
        assert budgeted.paths == plain.paths
        assert budgeted.statistics.budget_paths_visited > 0
        assert budgeted.statistics.budget_depth_reached >= 1
        assert budgeted.statistics.budget_stopped_at == ""

    def test_killed_query_does_not_poison_the_plan_cache(self, ldbc) -> None:
        engine = PathQueryEngine(ldbc)
        with pytest.raises(BudgetExceeded):
            engine.query(HEAVY_WALK, max_length=4, budget=QueryBudget(max_visited=100))
        # The second run reuses the cached plan (budgets are not part of the
        # key) and must produce the complete result.
        rerun = engine.query(HEAVY_WALK, max_length=4)
        assert rerun.cache_hit
        baseline = PathQueryEngine(ldbc, plan_cache_size=0).query(HEAVY_WALK, max_length=4)
        assert rerun.paths == baseline.paths

    def test_execute_regex_accepts_budget(self, ldbc) -> None:
        engine = PathQueryEngine(ldbc)
        with pytest.raises(BudgetExceeded):
            engine.execute_regex(
                "Knows+",
                restrictor=Restrictor.WALK,
                max_length=HEAVY_MAX_LENGTH,
                budget=QueryBudget(max_visited=10_000),
            )
        paths = engine.execute_regex(
            "Knows+", restrictor=Restrictor.TRAIL, max_length=2, budget=_generous()
        )
        assert len(paths) > 0

    def test_expired_budget_dies_before_execution(self, ldbc) -> None:
        engine = PathQueryEngine(ldbc)
        started = time.monotonic()
        with pytest.raises(BudgetExceeded):
            engine.query(HEAVY_WALK, max_length=HEAVY_MAX_LENGTH, budget=_expired())
        # Killed at a phase checkpoint — far too fast to have evaluated the
        # multi-second recursion.
        assert time.monotonic() - started < 0.5


class TestBaselineBudgets:
    def test_traversal_dfs_budget(self) -> None:
        graph = complete_graph(7)
        options = TraversalOptions(restrictor=Restrictor.WALK, max_length=6)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rpq_traversal(graph, "Knows+", options, budget=QueryBudget(max_visited=500))
        assert info.value.reason == "max_visited"
        assert info.value.stopped_at == "traversal-dfs"
        budgeted = evaluate_rpq_traversal(graph, "Knows+", TraversalOptions(
            restrictor=Restrictor.TRAIL, max_length=3), budget=_generous())
        plain = evaluate_rpq_traversal(graph, "Knows+", TraversalOptions(
            restrictor=Restrictor.TRAIL, max_length=3))
        assert budgeted == plain

    def test_product_bfs_budget(self) -> None:
        graph = complete_graph(8)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rpq_pairs(graph, "Knows+", budget=QueryBudget(max_visited=5))
        assert info.value.reason == "max_visited"
        plain = evaluate_rpq_pairs(graph, "Knows+")
        budgeted = evaluate_rpq_pairs(graph, "Knows+", budget=_generous())
        assert budgeted.pairs == plain.pairs

    def test_witness_bfs_budget(self) -> None:
        graph = complete_graph(8)
        with pytest.raises(BudgetExceeded):
            evaluate_rpq_shortest_witnesses(graph, "Knows+", budget=QueryBudget(max_visited=5))
        plain = evaluate_rpq_shortest_witnesses(graph, "Knows+")
        budgeted = evaluate_rpq_shortest_witnesses(graph, "Knows+", budget=_generous())
        assert budgeted == plain

    def test_expired_deadline_checked_per_source(self) -> None:
        graph = cycle_graph(5)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rpq_pairs(graph, "Knows", budget=_expired())
        assert info.value.reason == "deadline"
