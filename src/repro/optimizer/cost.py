"""A simple cardinality-based cost model for logical plans.

The paper argues that an algebra enables cost-based optimization; this module
provides the minimal machinery: per-operator output-cardinality estimates
derived from graph statistics, and a total plan cost defined as the sum of
estimated intermediate result sizes (a common proxy for execution effort in
textbook optimizers).  The estimates are deliberately coarse — they are meant
to rank alternative plans for the same query, not to predict wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.conditions import (
    And,
    Condition,
    LabelCondition,
    LengthCondition,
    Not,
    Or,
    PropertyCondition,
)
from repro.algebra.conditions import Target as ConditionTarget
from repro.algebra.expressions import (
    Difference,
    EdgesScan,
    Expression,
    GroupBy,
    Intersection,
    Join,
    NodesScan,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    Union,
    seeded_closure_input,
)
from repro.graph.model import PropertyGraph
from repro.graph.stats import GraphStatistics, compute_statistics
from repro.semantics.restrictors import Restrictor

__all__ = ["CostModel", "PlanCost", "estimate_cost"]

_DEFAULT_PROPERTY_SELECTIVITY = 0.1
_RECURSION_EXPANSION = {
    Restrictor.WALK: 8.0,
    Restrictor.TRAIL: 6.0,
    Restrictor.ACYCLIC: 4.0,
    Restrictor.SIMPLE: 4.0,
    Restrictor.SHORTEST: 2.0,
}


@dataclass(frozen=True)
class PlanCost:
    """Estimated cost of a plan: output cardinality and total intermediate work."""

    output_cardinality: float
    total_cost: float


class CostModel:
    """Estimate cardinalities and costs of plans over a specific graph."""

    def __init__(self, graph: PropertyGraph, statistics: GraphStatistics | None = None) -> None:
        self.graph = graph
        self.statistics = statistics or compute_statistics(graph)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self, plan: Expression) -> PlanCost:
        """Return the estimated :class:`PlanCost` of ``plan``."""
        cardinality, cost = self._estimate(plan)
        return PlanCost(output_cardinality=cardinality, total_cost=cost)

    def compare(self, left: Expression, right: Expression) -> int:
        """Return -1/0/+1 depending on which plan is estimated to be cheaper."""
        left_cost = self.estimate(left).total_cost
        right_cost = self.estimate(right).total_cost
        if left_cost < right_cost:
            return -1
        if left_cost > right_cost:
            return 1
        return 0

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _estimate(self, plan: Expression) -> tuple[float, float]:
        if isinstance(plan, NodesScan):
            cardinality = float(self.statistics.num_nodes)
            return cardinality, cardinality
        if isinstance(plan, EdgesScan):
            cardinality = float(self.statistics.num_edges)
            return cardinality, cardinality
        if isinstance(plan, Selection):
            seeded = seeded_closure_input(plan)
            if seeded is not None:
                # A seeded closure builds only the seeds' share of the closure:
                # child scan + selectivity(seed) × (closure cardinality × expansion).
                recursive, seed, residual = seeded
                child_card, child_cost = self._estimate(recursive.child)
                expansion = _RECURSION_EXPANSION[recursive.restrictor]
                built = child_card * expansion * self._condition_selectivity(seed)
                if residual is None:
                    return built, child_cost + built * expansion
                cardinality = built * self._condition_selectivity(residual)
                return cardinality, child_cost + built * expansion + cardinality
            child_card, child_cost = self._estimate(plan.child)
            selectivity = self._condition_selectivity(plan.condition)
            cardinality = child_card * selectivity
            return cardinality, child_cost + cardinality
        if isinstance(plan, Join):
            left_card, left_cost = self._estimate(plan.left)
            right_card, right_cost = self._estimate(plan.right)
            nodes = max(self.statistics.num_nodes, 1)
            cardinality = left_card * right_card / nodes
            return cardinality, left_cost + right_cost + cardinality
        if isinstance(plan, Union):
            left_card, left_cost = self._estimate(plan.left)
            right_card, right_cost = self._estimate(plan.right)
            cardinality = left_card + right_card
            return cardinality, left_cost + right_cost + cardinality
        if isinstance(plan, Intersection):
            left_card, left_cost = self._estimate(plan.left)
            right_card, right_cost = self._estimate(plan.right)
            cardinality = min(left_card, right_card) * 0.5
            return cardinality, left_cost + right_cost + cardinality
        if isinstance(plan, Difference):
            left_card, left_cost = self._estimate(plan.left)
            right_card, right_cost = self._estimate(plan.right)
            cardinality = max(left_card * 0.5, left_card - right_card)
            return cardinality, left_cost + right_cost + cardinality
        if isinstance(plan, Recursive):
            child_card, child_cost = self._estimate(plan.child)
            expansion = _RECURSION_EXPANSION[plan.restrictor]
            cardinality = child_card * expansion
            return cardinality, child_cost + cardinality * expansion
        if isinstance(plan, (GroupBy, OrderBy)):
            child_card, child_cost = self._estimate(plan.child)
            return child_card, child_cost + child_card
        if isinstance(plan, Projection):
            child_card, child_cost = self._estimate(plan.child)
            spec = plan.spec
            fraction = 1.0
            if spec.paths != "*":
                fraction *= 0.5
            if spec.groups != "*":
                fraction *= 0.5
            if spec.partitions != "*":
                fraction *= 0.5
            cardinality = max(child_card * fraction, 1.0)
            return cardinality, child_cost + cardinality
        return 1.0, 1.0

    def _condition_selectivity(self, condition: Condition) -> float:
        if isinstance(condition, LabelCondition):
            if condition.target is ConditionTarget.EDGE:
                return max(self.statistics.edge_label_fraction(condition.value), 0.01)
            return max(self.statistics.node_label_fraction(condition.value), 0.01)
        if isinstance(condition, PropertyCondition):
            return _DEFAULT_PROPERTY_SELECTIVITY
        if isinstance(condition, LengthCondition):
            return 0.3
        if isinstance(condition, And):
            return self._condition_selectivity(condition.left) * self._condition_selectivity(
                condition.right
            )
        if isinstance(condition, Or):
            left = self._condition_selectivity(condition.left)
            right = self._condition_selectivity(condition.right)
            return min(left + right, 1.0)
        if isinstance(condition, Not):
            return 1.0 - self._condition_selectivity(condition.operand)
        return 0.5


def estimate_cost(plan: Expression, graph: PropertyGraph) -> PlanCost:
    """Convenience wrapper: estimate the cost of ``plan`` over ``graph``."""
    return CostModel(graph).estimate(plan)
