"""Logical plan optimization: rewrite rules, rule driver, and a cost model."""

from repro.optimizer.cost import CostModel, PlanCost, estimate_cost
from repro.optimizer.engine import OptimizationResult, Optimizer, optimize
from repro.optimizer.rules import (
    DEFAULT_RULES,
    EliminateIdentityCrown,
    MergeSelections,
    PushSelectionBelowUnion,
    PushSelectionIntoJoin,
    RemoveRedundantOrderBy,
    RewriteRule,
    SimplifyUnionDuplicates,
    WalkToShortest,
)

__all__ = [
    "Optimizer",
    "OptimizationResult",
    "optimize",
    "RewriteRule",
    "DEFAULT_RULES",
    "PushSelectionBelowUnion",
    "PushSelectionIntoJoin",
    "MergeSelections",
    "RemoveRedundantOrderBy",
    "WalkToShortest",
    "SimplifyUnionDuplicates",
    "EliminateIdentityCrown",
    "CostModel",
    "PlanCost",
    "estimate_cost",
]
