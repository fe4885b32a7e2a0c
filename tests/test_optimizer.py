"""Tests for the rewrite rules, the rule driver, and the cost model (Section 7.3)."""

from __future__ import annotations

import pytest

from repro.algebra.conditions import And, label_of_edge, prop_of_first, prop_of_last
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import (
    EdgesScan,
    GroupBy,
    Join,
    NodesScan,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    Union,
)
from repro.algebra.solution_space import GroupByKey, OrderByKey, ProjectionSpec
from repro.optimizer.cost import CostModel, estimate_cost
from repro.optimizer.engine import Optimizer, optimize
from repro.optimizer.rules import (
    MergeSelections,
    PushSelectionBelowUnion,
    PushSelectionIntoJoin,
    RemoveRedundantOrderBy,
    SimplifyUnionDuplicates,
    WalkToShortest,
)
from repro.semantics.restrictors import Restrictor


def knows_scan() -> Selection:
    return Selection(label_of_edge(1, "Knows"), EdgesScan())


class TestPushSelectionBelowUnion:
    def test_rewrite_shape(self) -> None:
        rule = PushSelectionBelowUnion()
        plan = Selection(prop_of_first("name", "Moe"), Union(knows_scan(), EdgesScan()))
        rewritten = rule.apply(plan)
        assert isinstance(rewritten, Union)
        assert isinstance(rewritten.left, Selection)
        assert isinstance(rewritten.right, Selection)

    def test_no_match(self) -> None:
        assert PushSelectionBelowUnion().apply(knows_scan()) is None
        assert PushSelectionBelowUnion().apply(Union(EdgesScan(), NodesScan())) is None

    def test_semantics_preserved(self, figure1) -> None:
        plan = Selection(prop_of_first("name", "Moe"), Union(knows_scan(), EdgesScan()))
        rewritten = PushSelectionBelowUnion().apply(plan)
        assert evaluate_to_paths(plan, figure1) == evaluate_to_paths(rewritten, figure1)


class TestPushSelectionIntoJoin:
    """The Figure 6 pushdown."""

    def test_figure6_rewrite(self) -> None:
        rule = PushSelectionIntoJoin()
        plan = Selection(prop_of_first("name", "Moe"), Join(knows_scan(), knows_scan()))
        rewritten = rule.apply(plan)
        assert isinstance(rewritten, Join)
        assert isinstance(rewritten.left, Selection)
        assert rewritten.left.condition == prop_of_first("name", "Moe")

    def test_last_condition_moves_right(self) -> None:
        plan = Selection(prop_of_last("name", "Apu"), Join(knows_scan(), knows_scan()))
        rewritten = PushSelectionIntoJoin().apply(plan)
        assert isinstance(rewritten, Join)
        assert isinstance(rewritten.right, Selection)

    def test_mixed_conjunction_splits(self) -> None:
        condition = And(prop_of_first("name", "Moe"), prop_of_last("name", "Apu"))
        plan = Selection(condition, Join(knows_scan(), knows_scan()))
        rewritten = PushSelectionIntoJoin().apply(plan)
        assert isinstance(rewritten, Join)
        assert isinstance(rewritten.left, Selection)
        assert isinstance(rewritten.right, Selection)

    def test_non_endpoint_condition_stays(self) -> None:
        plan = Selection(label_of_edge(2, "Knows"), Join(knows_scan(), knows_scan()))
        assert PushSelectionIntoJoin().apply(plan) is None

    def test_remaining_conjunct_stays_above(self) -> None:
        condition = And(prop_of_first("name", "Moe"), label_of_edge(2, "Knows"))
        plan = Selection(condition, Join(knows_scan(), knows_scan()))
        rewritten = PushSelectionIntoJoin().apply(plan)
        assert isinstance(rewritten, Selection)
        assert rewritten.condition == label_of_edge(2, "Knows")
        assert isinstance(rewritten.child, Join)

    def test_semantics_preserved(self, figure1) -> None:
        condition = And(prop_of_first("name", "Moe"), prop_of_last("name", "Apu"))
        plan = Selection(condition, Join(knows_scan(), knows_scan()))
        rewritten = PushSelectionIntoJoin().apply(plan)
        assert evaluate_to_paths(plan, figure1) == evaluate_to_paths(rewritten, figure1)


class TestMergeSelections:
    def test_merge(self) -> None:
        plan = Selection(prop_of_first("name", "Moe"), Selection(label_of_edge(1, "Knows"), EdgesScan()))
        rewritten = MergeSelections().apply(plan)
        assert isinstance(rewritten, Selection)
        assert isinstance(rewritten.condition, And)
        assert isinstance(rewritten.child, EdgesScan)

    def test_semantics_preserved(self, figure1) -> None:
        plan = Selection(prop_of_first("name", "Lisa"), knows_scan())
        rewritten = MergeSelections().apply(plan)
        assert evaluate_to_paths(plan, figure1) == evaluate_to_paths(rewritten, figure1)


class TestRemoveRedundantOrderBy:
    def test_drops_useless_partition_group_ordering(self) -> None:
        """The paper's π(*,*,1)(τPG(γ(...))) example: the τPG disappears."""
        plan = OrderBy(GroupBy(knows_scan(), GroupByKey.NONE), OrderByKey.PG)
        rewritten = RemoveRedundantOrderBy().apply(plan)
        assert isinstance(rewritten, GroupBy)

    def test_keeps_path_ordering(self) -> None:
        plan = OrderBy(GroupBy(knows_scan(), GroupByKey.NONE), OrderByKey.PGA)
        rewritten = RemoveRedundantOrderBy().apply(plan)
        assert isinstance(rewritten, OrderBy)
        assert rewritten.key is OrderByKey.A

    def test_group_ordering_redundant_for_st(self) -> None:
        plan = OrderBy(GroupBy(knows_scan(), GroupByKey.ST), OrderByKey.GA)
        rewritten = RemoveRedundantOrderBy().apply(plan)
        assert rewritten.key is OrderByKey.A

    def test_useful_ordering_untouched(self) -> None:
        plan = OrderBy(GroupBy(knows_scan(), GroupByKey.STL), OrderByKey.PGA)
        assert RemoveRedundantOrderBy().apply(plan) is None

    def test_semantics_preserved(self, figure1) -> None:
        inner = Recursive(knows_scan(), Restrictor.TRAIL)
        plan = Projection(
            OrderBy(GroupBy(inner, GroupByKey.NONE), OrderByKey.PG), ProjectionSpec("*", "*", 1)
        )
        optimized = optimize(plan).optimized
        assert evaluate_to_paths(plan, figure1) == evaluate_to_paths(optimized, figure1)


class TestWalkToShortest:
    def _any_shortest_walk_plan(self, max_length: int | None = None) -> Projection:
        return Projection(
            OrderBy(
                GroupBy(Recursive(knows_scan(), Restrictor.WALK, max_length), GroupByKey.ST),
                OrderByKey.A,
            ),
            ProjectionSpec("*", "*", 1),
        )

    def test_any_shortest_walk_rewritten(self) -> None:
        rewritten = WalkToShortest().apply(self._any_shortest_walk_plan())
        assert rewritten is not None
        recursive = next(n for n in rewritten.iter_subtree() if isinstance(n, Recursive))
        assert recursive.restrictor is Restrictor.SHORTEST

    def test_all_shortest_walk_rewritten(self) -> None:
        plan = Projection(
            OrderBy(
                GroupBy(Recursive(knows_scan(), Restrictor.WALK), GroupByKey.STL),
                OrderByKey.G,
            ),
            ProjectionSpec("*", 1, "*"),
        )
        rewritten = WalkToShortest().apply(plan)
        assert rewritten is not None

    def test_shortest_k_not_rewritten(self) -> None:
        plan = Projection(
            OrderBy(
                GroupBy(Recursive(knows_scan(), Restrictor.WALK), GroupByKey.ST),
                OrderByKey.A,
            ),
            ProjectionSpec("*", "*", 2),
        )
        assert WalkToShortest().apply(plan) is None

    @staticmethod
    def _any_shortest_plan(base, restrictor: Restrictor) -> Projection:
        return Projection(
            OrderBy(GroupBy(Recursive(base, restrictor), GroupByKey.ST), OrderByKey.A),
            ProjectionSpec("*", "*", 1),
        )

    @pytest.mark.parametrize("restrictor", [Restrictor.TRAIL, Restrictor.SIMPLE, Restrictor.ACYCLIC])
    def test_trail_over_a_multi_edge_base_not_rewritten(self, restrictor: Restrictor) -> None:
        """A shortest trail over Knows/Knows may be longer than the shortest walk."""
        plan = self._any_shortest_plan(Join(knows_scan(), knows_scan()), restrictor)
        assert WalkToShortest().apply(plan) is None

    @pytest.mark.parametrize("restrictor", [Restrictor.TRAIL, Restrictor.SIMPLE])
    @pytest.mark.parametrize("base", [knows_scan(), EdgesScan()], ids=["label-scan", "edges"])
    def test_trail_over_a_label_scan_rewritten(self, base, restrictor: Restrictor) -> None:
        """Over single edges the shortest trails (simple paths) are the shortest walks."""
        rewritten = WalkToShortest().apply(self._any_shortest_plan(base, restrictor))
        assert rewritten == self._any_shortest_plan(base, Restrictor.SHORTEST)

    def test_acyclic_over_a_label_scan_not_rewritten(self) -> None:
        """ϕAcyclic drops the closed paths ϕShortest keeps."""
        plan = self._any_shortest_plan(knows_scan(), Restrictor.ACYCLIC)
        assert WalkToShortest().apply(plan) is None

    def test_rewrite_restores_termination(self, figure1) -> None:
        """The unbounded ANY SHORTEST WALK plan only terminates after the rewrite."""
        plan = self._any_shortest_walk_plan(max_length=None)
        optimized = optimize(plan).optimized
        result = evaluate_to_paths(optimized, figure1)
        assert len(result) == 9  # one shortest Knows+ path per connected pair

    def test_rewrite_preserves_results_with_bound(self, figure1) -> None:
        plan = self._any_shortest_walk_plan(max_length=4)
        optimized = optimize(plan).optimized
        assert evaluate_to_paths(plan, figure1) == evaluate_to_paths(optimized, figure1)

    def test_selection_between_projection_and_recursion_handled(self) -> None:
        inner = Selection(prop_of_first("name", "Moe"), Recursive(knows_scan(), Restrictor.WALK))
        plan = Projection(
            OrderBy(GroupBy(inner, GroupByKey.ST), OrderByKey.A), ProjectionSpec("*", "*", 1)
        )
        rewritten = WalkToShortest().apply(plan)
        assert rewritten is not None
        recursive = next(n for n in rewritten.iter_subtree() if isinstance(n, Recursive))
        assert recursive.restrictor is Restrictor.SHORTEST


class TestSimplifyUnionDuplicates:
    def test_identical_operands_collapse(self) -> None:
        plan = Union(knows_scan(), knows_scan())
        assert SimplifyUnionDuplicates().apply(plan) == knows_scan()

    def test_distinct_operands_untouched(self) -> None:
        assert SimplifyUnionDuplicates().apply(Union(knows_scan(), EdgesScan())) is None


class TestOptimizerDriver:
    def test_reaches_fixpoint_and_records_rules(self) -> None:
        plan = Selection(
            And(prop_of_first("name", "Moe"), prop_of_last("name", "Apu")),
            Union(Join(knows_scan(), knows_scan()), Join(knows_scan(), knows_scan())),
        )
        result = optimize(plan)
        assert result.changed
        assert "simplify-union-duplicates" in result.applied_rules
        assert result.passes >= 1

    def test_every_output_is_a_fix_point(self) -> None:
        """The driver skips the confirming pass after rewrites that built no
        node (a crown or a duplicate union arm dropped); whatever it returns,
        another run must find nothing left to do."""
        from repro.bench.workloads import service_workloads
        from repro.gql.planner import plan_text
        from repro.semantics.translate import (
            all_selector_restrictor_combinations,
            translate_selector_restrictor,
        )

        plans = [plan_text(text) for text in service_workloads()[1].queries]
        plans += [
            translate_selector_restrictor(selector, restrictor, knows_scan(), already_recursive=False)
            for selector, restrictor in all_selector_restrictor_combinations()
        ]
        # Both no-build rules at once, and a crown above a rewrite that does build.
        plans.append(Projection(GroupBy(Union(knows_scan(), knows_scan()), GroupByKey.ST)))
        plans.append(
            Projection(GroupBy(Selection(prop_of_first("name", "Moe"), Join(knows_scan(), knows_scan()))))
        )
        for plan in plans:
            once = optimize(plan)
            again = optimize(once.optimized)
            assert again.applied_rules == [] and again.optimized == once.optimized, plan

    def test_no_rules_applied_on_atoms(self) -> None:
        result = optimize(EdgesScan())
        assert not result.changed
        assert result.optimized == EdgesScan()

    def test_custom_rule_set(self) -> None:
        plan = Union(knows_scan(), knows_scan())
        result = Optimizer(rules=[SimplifyUnionDuplicates()]).optimize(plan)
        assert result.optimized == knows_scan()

    def test_optimized_plan_is_equivalent(self, figure1) -> None:
        plan = Selection(
            And(prop_of_first("name", "Moe"), prop_of_last("name", "Apu")),
            Union(
                Recursive(knows_scan(), Restrictor.SIMPLE),
                Recursive(
                    Join(
                        Selection(label_of_edge(1, "Likes"), EdgesScan()),
                        Selection(label_of_edge(1, "Has_creator"), EdgesScan()),
                    ),
                    Restrictor.SIMPLE,
                ),
            ),
        )
        result = optimize(plan)
        assert evaluate_to_paths(plan, figure1) == evaluate_to_paths(result.optimized, figure1)


class TestCostModel:
    def test_atom_cardinalities(self, figure1) -> None:
        model = CostModel(figure1)
        assert model.estimate(NodesScan()).output_cardinality == 7
        assert model.estimate(EdgesScan()).output_cardinality == 11

    def test_selection_uses_label_selectivity(self, figure1) -> None:
        model = CostModel(figure1)
        estimate = model.estimate(knows_scan())
        assert estimate.output_cardinality == pytest.approx(11 * 4 / 11)

    def test_pushdown_reduces_estimated_cost(self, figure1) -> None:
        plan = Selection(prop_of_first("name", "Moe"), Join(knows_scan(), knows_scan()))
        optimized = optimize(plan).optimized
        model = CostModel(figure1)
        assert model.estimate(optimized).total_cost < model.estimate(plan).total_cost
        assert model.compare(optimized, plan) == -1

    def test_walk_to_shortest_reduces_estimated_cost(self, figure1) -> None:
        plan = Projection(
            OrderBy(
                GroupBy(Recursive(knows_scan(), Restrictor.WALK), GroupByKey.ST),
                OrderByKey.A,
            ),
            ProjectionSpec("*", "*", 1),
        )
        optimized = optimize(plan).optimized
        assert estimate_cost(optimized, figure1).total_cost < estimate_cost(plan, figure1).total_cost

    def test_compare_equal_plans(self, figure1) -> None:
        assert CostModel(figure1).compare(knows_scan(), knows_scan()) == 0
