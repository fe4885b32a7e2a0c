"""The pre-access-path executors, kept verbatim as the test oracle.

Before scans read the label and endpoint indexes and joins expanded along
adjacency, both executors realized ``σ[c](Edges(G))`` as a filter over a full
scan, a seeded closure's seeds as a filter over its whole base, and every
``⋈`` as a hash join built over its whole right operand.  Those bodies live
on here — ``Edges(G)`` with its compact-or-not branch, the evaluator's
selection and hash join, the pipeline's scan / filter / hash-join operators
and the ``_build`` branches that wired them (the other operators are the
live ones; the seeds are filtered because the oracle's selections never ask
``seeded_closure_input``) — so ``test_access_paths`` can demand the same
rows *in the same order* from the index-backed route.  This is the only
place the naive route survives; nothing in ``src/`` can select it.

:func:`reference_execute` runs one of the real executors with the naive
bodies patched in underneath it, so limits, truncation and the automaton's
materializing fallback are the executors' own.
"""

from __future__ import annotations

from typing import Iterator
from unittest import mock

from repro.algebra.evaluator import Evaluator
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
)
from repro.engine import physical
from repro.engine.executor import ExecutionResult, resolve_executor
from repro.engine.physical import PhysicalPlan, _PhysicalOperator
from repro.errors import EvaluationError
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.compact import compact_core_of
from repro.paths.join_index import JoinIndex
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = [
    "ReferenceEvaluator",
    "reference_build_pipeline",
    "reference_edge_paths",
    "reference_execute",
]


def reference_edge_paths(graph) -> Iterator[Path]:
    """The old full ``Edges(G)`` scan: compact columns when current, else per-edge lookups."""
    compact = compact_core_of(graph)
    if compact is not None:
        node_ids = compact._node_ids
        src = compact._edge_src
        dst = compact._edge_dst
        for e, edge_id in enumerate(compact._edge_ids):
            yield Path._unchecked(graph, (node_ids[src[e]], edge_id, node_ids[dst[e]]))
        return
    for edge_id in graph.edge_ids():
        yield Path.from_edge(graph, edge_id)


class ReferenceEvaluator(Evaluator):
    """The materializing evaluator with the old scan and selection bodies."""

    def _eval(self, expression):
        if isinstance(expression, EdgesScan):
            return self._record(expression, PathSet.from_unique(reference_edge_paths(self.graph)))
        return super()._eval(expression)

    def _eval_selection(self, expression: Selection, one_per_pair: bool = False) -> PathSet:
        if one_per_pair:
            # σ(ϕShortest) under ANY SHORTEST: the quota closure, unseeded.
            child = self._eval_recursive(expression.child, one_per_pair=True)
        else:
            child = self._eval_paths(expression.child, "selection")
        result = child.filter(expression.condition.evaluate)
        return self._record(expression, result)

    def _eval_join(self, expression: Join) -> PathSet:
        left = self._eval_paths(expression.left, "join")
        right = self._eval_paths(expression.right, "join")
        result = left.join(right, budget=self.budget)
        return self._record(expression, result, already_charged=True)


class _EdgesScanOp(_PhysicalOperator):
    def __init__(self, graph, statistics, budget=None) -> None:
        super().__init__("Edges(G)", statistics, budget)
        self._graph = graph

    def paths(self) -> Iterator[Path]:
        for path in reference_edge_paths(self._graph):
            yield self._emit(path)


class _FilterOp(_PhysicalOperator):
    def __init__(self, expression: Selection, child, statistics, budget=None) -> None:
        super().__init__(f"σ[{expression.condition}]", statistics, budget)
        self._condition = expression.condition
        self._child = child

    def paths(self) -> Iterator[Path]:
        for path in self._child.paths():
            if self._condition.evaluate(path):
                yield self._emit(path)


class _HashJoinOp(_PhysicalOperator):
    """Streaming hash join: builds on the right input, probes with the left."""

    def __init__(self, left, right, statistics, budget=None) -> None:
        super().__init__("⋈", statistics, budget)
        self._left = left
        self._right = right

    def paths(self) -> Iterator[Path]:
        index = JoinIndex(self._right.paths())
        seen: set[Path] = set()
        for left_path in self._left.paths():
            for joined in index.join_from(left_path):
                if joined not in seen:
                    seen.add(joined)
                    yield self._emit(joined)


def _build(plan, graph, statistics, default_max_length, budget=None) -> _PhysicalOperator:
    if isinstance(plan, NodesScan):
        return physical._NodesScanOp(graph, statistics, budget)
    if isinstance(plan, EdgesScan):
        return _EdgesScanOp(graph, statistics, budget)
    if isinstance(plan, Selection):
        return _FilterOp(
            plan,
            _build(plan.child, graph, statistics, default_max_length, budget),
            statistics,
            budget,
        )
    if isinstance(plan, Join):
        return _HashJoinOp(
            _build(plan.left, graph, statistics, default_max_length, budget),
            _build(plan.right, graph, statistics, default_max_length, budget),
            statistics,
            budget,
        )
    for kind, operator in (
        (Union, physical._UnionOp),
        (Intersection, physical._IntersectionOp),
        (Difference, physical._DifferenceOp),
    ):
        if isinstance(plan, kind):
            return operator(
                _build(plan.left, graph, statistics, default_max_length, budget),
                _build(plan.right, graph, statistics, default_max_length, budget),
                statistics,
                budget,
            )
    if isinstance(plan, Recursive):
        return physical._RecursiveOp(
            plan,
            _build(plan.child, graph, statistics, default_max_length, budget),
            graph,
            statistics,
            default_max_length,
            budget,
        )
    if isinstance(plan, (GroupBy, OrderBy, Projection)):
        pipeline, base = physical._collect_solution_space_pipeline(plan)
        child = _build(base, graph, statistics, default_max_length, budget)
        return physical._SolutionSpaceOp(child, pipeline, statistics, budget)
    raise EvaluationError(f"cannot build a physical operator for {type(plan).__name__}")


def reference_build_pipeline(
    plan: Expression,
    graph,
    default_max_length: int | None = None,
    budget: QueryBudget | None = None,
) -> PhysicalPlan:
    """``build_pipeline`` as it was: full scans, filters, hash joins."""
    statistics = ExecutionStatistics()
    root = _build(plan, graph, statistics, default_max_length, budget)
    return PhysicalPlan(root=root, statistics=statistics, logical_plan=plan)


def reference_execute(
    executor: str,
    plan: Expression,
    graph,
    *,
    default_max_length: int | None = None,
    limit: int | None = None,
    budget: QueryBudget | None = None,
) -> ExecutionResult:
    """Run ``plan`` through the named executor over the naive scan/selection/join bodies."""
    with (
        mock.patch("repro.engine.executor.Evaluator", ReferenceEvaluator),
        mock.patch("repro.engine.executor.build_pipeline", reference_build_pipeline),
    ):
        return resolve_executor(executor).execute(
            plan, graph, default_max_length=default_max_length, limit=limit, budget=budget
        )
