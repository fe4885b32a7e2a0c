"""Bottom-up evaluation of path-algebra expression trees (logical plans).

The evaluator walks an :class:`~repro.algebra.expressions.Expression` tree and
produces a :class:`~repro.paths.pathset.PathSet` (or a
:class:`~repro.algebra.solution_space.SolutionSpace` for group-by / order-by
roots) over a concrete property graph.  It is a direct transcription of the
paper's operator definitions except where an operator reads the graph: index
lookups for σ over ``Edges(G)``, adjacency expands for ``⋈`` against one,
seeded closures — access paths the pipeline (:mod:`repro.engine.physical`)
takes too, through the helpers below, with the same rows in the same order.

Evaluation also records per-operator statistics (output cardinalities and
invocation counts), which the benchmarks and the EXPLAIN facility report.
"""

from __future__ import annotations

from repro.algebra.conditions import Condition, join_conjunction
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
    endpoint_ids_input,
    label_scan_input,
    seeded_closure_input,
    shortest_selector_input,
)
from repro.algebra.solution_space import SolutionSpace, group_by, order_by, project
from repro.errors import EvaluationError
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.model import PropertyGraph
from repro.paths.access import Adjacency, edge_paths
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import recursive_closure

__all__ = ["Evaluator", "endpoint_sources", "evaluate", "evaluate_to_paths", "seed_paths"]

#: Reading one node's adjacency costs about as much as scanning this many
#: edges of a label and bucketing them by source: 1.9–2.0 µs a node against
#: 0.5–0.7 µs an edge (CPython 3.11; snapshot and frozen graphs of 150 and
#: 305 nodes).  A drained join whose left operand holds a third as many paths
#: as the label has edges may end at that many nodes: one scan and a hash join
#: is then the cheaper route, and telling it costs only the two sizes.
_NODE_READ_EDGES = 3


def endpoint_sources(
    graph: PropertyGraph, condition: Condition | None
) -> tuple[tuple[str, ...] | None, Condition | None]:
    """``(ids, residual)``: the start nodes ``condition`` allows, and the rest of it.

    When ``condition`` has a ``first.p = v`` conjunct (``endpoint_ids_input``)
    and the graph's endpoint index can answer it, ``ids`` are the matching
    node ids and ``residual`` the other conjuncts; otherwise ``(None,
    condition)``.  Over a label scan both executors read σ's edges, and a
    seeded closure's seeds, as ``edge_paths(graph, L, ids)``.
    """
    anchored = endpoint_ids_input(condition)
    if anchored is not None:
        name, value, residual = anchored
        ids = graph.node_ids_with(name, value)
        if ids is not None:
            return ids, residual
    return None, condition


def seed_paths(
    graph: PropertyGraph, base_plan: Expression, base: PathSet, seed: Condition
) -> PathSet:
    """``σ[seed](base)``, the start of a seeded closure over ``base = base_plan``.

    Over a label scan whose seed the endpoint index can answer
    (:func:`endpoint_sources`), the matching nodes' edges, filtered by both
    residuals; otherwise ``base`` filtered.  Both executors seed this way.
    """
    indexed = label_scan_input(base_plan)
    if indexed is not None:
        ids, residual = endpoint_sources(graph, seed)
        if ids is not None:
            label, scan_residual = indexed
            rest = [c for c in (scan_residual, residual) if c is not None]
            paths = edge_paths(graph, label, ids)
            if rest:
                paths = filter(join_conjunction(rest).evaluate, paths)
            return PathSet.from_unique(paths)
    return base.filter(seed.evaluate)


class Evaluator:
    """Evaluate algebra expressions over a fixed property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        default_max_length: int | None = None,
        budget: QueryBudget | None = None,
    ) -> None:
        """Create an evaluator.

        Args:
            graph: The property graph every atom (``Nodes(G)`` / ``Edges(G)``)
                refers to.
            default_max_length: Optional bound applied to every ϕ node that
                does not carry its own ``max_length``; keeps exploratory
                queries from tripping ϕWalk's non-termination guard.
            budget: Optional cooperative :class:`QueryBudget`.  Checked at every
                operator boundary (and inside the closure / join loops), so an
                exhausted budget raises :class:`~repro.errors.BudgetExceeded`
                mid-evaluation instead of materializing to completion.
        """
        self.graph = graph
        self.default_max_length = default_max_length
        self.budget = budget
        self.statistics = ExecutionStatistics()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, expression: Expression) -> PathSet | SolutionSpace:
        """Evaluate ``expression`` and return its natural result type."""
        return self._eval(expression)

    def evaluate_paths(self, expression: Expression) -> PathSet:
        """Evaluate ``expression`` and coerce the result to a path set.

        Group-by / order-by roots are flattened back to their underlying set
        of paths (the paper treats solution spaces as an intermediate
        structure; only projection turns them back into path sets).
        """
        result = self._eval(expression)
        if isinstance(result, SolutionSpace):
            return result.all_paths()
        return result

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _eval(self, expression: Expression) -> PathSet | SolutionSpace:
        if isinstance(expression, NodesScan):
            return self._record(expression, PathSet.nodes_of(self.graph))
        if isinstance(expression, EdgesScan):
            return self._record(expression, PathSet.edges_of(self.graph))
        if isinstance(expression, Selection):
            return self._eval_selection(expression)
        if isinstance(expression, Join):
            return self._eval_join(expression)
        if isinstance(expression, Union):
            return self._eval_union(expression)
        if isinstance(expression, Intersection):
            return self._eval_intersection(expression)
        if isinstance(expression, Difference):
            return self._eval_difference(expression)
        if isinstance(expression, Recursive):
            return self._eval_recursive(expression)
        if isinstance(expression, GroupBy):
            return self._eval_group_by(expression)
        if isinstance(expression, OrderBy):
            return self._eval_order_by(expression)
        if isinstance(expression, Projection):
            return self._eval_projection(expression)
        raise EvaluationError(f"unknown expression node: {type(expression).__name__}")

    def _record(
        self, expression: Expression, result: PathSet, already_charged: bool = False
    ) -> PathSet:
        name = expression.operator_name()
        self.statistics.record(name, len(result))
        if self.budget is not None:
            # Operator boundary: charge the output cardinality and consult
            # the clock, so plans without long inner loops (pure scans,
            # set operations) still die within one operator.  Joins and
            # closures charge per produced path inside their loops and only
            # take the clock check here.
            if not already_charged:
                self.budget.charge(len(result), name)
            self.budget.checkpoint(name)
        return result

    def _eval_paths(self, expression: Expression, context: str) -> PathSet:
        result = self._eval(expression)
        if isinstance(result, SolutionSpace):
            raise EvaluationError(
                f"{context} expects a set of paths but its input is a solution space; "
                "apply a projection first"
            )
        return result

    def _eval_space(self, expression: Expression, context: str) -> SolutionSpace:
        result = self._eval(expression)
        if isinstance(result, SolutionSpace):
            return result
        raise EvaluationError(
            f"{context} expects a solution space but its input is a set of paths; "
            "apply a group-by first"
        )

    # ------------------------------------------------------------------
    # Operator implementations
    # ------------------------------------------------------------------
    def _eval_selection(self, expression: Selection, one_per_pair: bool = False) -> PathSet:
        """``one_per_pair``: ``expression`` is σ(ϕShortest) under an ANY SHORTEST
        crown (``shortest_selector_input``); its endpoint filter keeps or drops
        whole pairs, so, seeded or not, it commutes with the quota."""
        seeded = seeded_closure_input(expression)
        indexed = label_scan_input(expression)
        if seeded is not None:
            # A seeded closure: ϕ's row counts the paths built from the seeds,
            # σ's row what is left of them after the residual.
            recursive, seed, condition = seeded
            child = self._eval_recursive(recursive, seed, one_per_pair)
        elif one_per_pair:
            assert isinstance(expression.child, Recursive)
            child = self._eval_recursive(expression.child, one_per_pair=True)
            condition = expression.condition
        elif indexed is None:
            child = self._eval_paths(expression.child, "selection")
            condition = expression.condition
        else:
            # An index lookup: Edges(G) still gets its row, counting the
            # paths read off the label (or endpoint) index, not every edge.
            label, condition = indexed
            ids, condition = endpoint_sources(self.graph, condition)
            paths = PathSet.from_unique(edge_paths(self.graph, label, ids))
            child = self._record(expression.child, paths)
        result = child if condition is None else child.filter(condition.evaluate)
        return self._record(expression, result)

    def _eval_join(self, expression: Join) -> PathSet:
        left = self._eval_paths(expression.left, "join")
        indexed = label_scan_input(expression.right)
        # The left operand is held here, unlike in the pipeline (which always
        # expands), so its size can choose the route.
        if indexed is not None:
            label, condition = indexed
            if len(left) * _NODE_READ_EDGES < self.graph.num_edges_labelled(label):
                result = self._expand(left, expression.right, label, condition)
                return self._record(expression, result, already_charged=True)
        right = self._eval_paths(expression.right, "join")
        result = left.join(right, budget=self.budget)
        return self._record(expression, result, already_charged=True)

    def _expand(
        self, left: PathSet, right: Selection, label: str, condition: Condition | None
    ) -> PathSet:
        """``left ⋈ right`` for an index-lookup ``right``, as an adjacency expand.

        Each left path is extended by its last node's :class:`Adjacency`
        extensions — the bucket a hash join over ``right`` would probe, in
        the same order — so ``right`` is never scanned whole.  Its
        ``Edges(G)`` and ``σ`` rows count the edges read and kept, and are
        charged as they are read; the joined paths are charged in batches.
        A one-edge extension of a duplicate-free input is duplicate-free.
        """
        budget = self.budget
        filter_name = right.operator_name()
        read = kept = 0

        def account(read_here: int, kept_here: int) -> None:
            nonlocal read, kept
            read += read_here
            kept += kept_here
            if budget is not None:
                budget.charge(read_here, "Edges(G)")
                budget.charge(kept_here, filter_name)

        adjacency = Adjacency(self.graph, label, condition, account)
        paths: list[Path] = []
        pending = 0
        for left_path in left:
            extensions = adjacency.extensions(left_path.last())
            paths.extend([left_path.concat(extension) for extension in extensions])
            if budget is not None:
                pending += len(extensions)
                if pending >= QueryBudget.CHARGE_BATCH:
                    budget.charge(pending, "⋈")
                    pending = 0
        if pending:
            budget.charge(pending, "⋈")
        self.statistics.record("Edges(G)", read)
        self.statistics.record(filter_name, kept)
        return PathSet.from_unique(paths)

    def _eval_union(self, expression: Union) -> PathSet:
        left = self._eval_paths(expression.left, "union")
        right = self._eval_paths(expression.right, "union")
        result = left.union(right)
        return self._record(expression, result)

    def _eval_intersection(self, expression: Intersection) -> PathSet:
        left = self._eval_paths(expression.left, "intersection")
        right = self._eval_paths(expression.right, "intersection")
        result = left.intersection(right)
        return self._record(expression, result)

    def _eval_difference(self, expression: Difference) -> PathSet:
        left = self._eval_paths(expression.left, "difference")
        right = self._eval_paths(expression.right, "difference")
        result = left.difference(right)
        return self._record(expression, result)

    def _eval_recursive(
        self, expression: Recursive, seed: Condition | None = None, one_per_pair: bool = False
    ) -> PathSet:
        child = self._eval_paths(expression.child, "recursion")
        seeds = None if seed is None else seed_paths(self.graph, expression.child, child, seed)
        max_length = expression.max_length
        if max_length is None:
            max_length = self.default_max_length
        result = recursive_closure(
            child, expression.restrictor, max_length, self.budget, seeds, one_per_pair
        )
        return self._record(expression, result, already_charged=True)

    def _eval_group_by(self, expression: GroupBy) -> SolutionSpace:
        child = self._eval_paths(expression.child, "group-by")
        space = group_by(child, expression.key)
        self.statistics.record(expression.operator_name(), space.num_paths())
        return space

    def _eval_order_by(self, expression: OrderBy) -> SolutionSpace:
        child = self._eval_space(expression.child, "order-by")
        space = order_by(child, expression.key)
        self.statistics.record(expression.operator_name(), space.num_paths())
        return space

    def _eval_projection(self, expression: Projection) -> PathSet:
        closure = shortest_selector_input(expression)
        if closure is not None:
            # ANY SHORTEST as one search: the quota closure is the crown's
            # result, so γ and τ are never built (and get no row).
            if isinstance(closure, Selection):
                result = self._eval_selection(closure, one_per_pair=True)
            else:
                result = self._eval_recursive(closure, one_per_pair=True)
            return self._record(expression, result)
        child = self._eval(expression.child)
        if isinstance(child, PathSet):
            # The paper always projects a solution space; projecting a bare
            # path set is treated as projecting γ(child), which is convenient
            # for composing plans programmatically.
            child = group_by(child)
        result = project(child, expression.spec)
        return self._record(expression, result)


def evaluate(
    expression: Expression,
    graph: PropertyGraph,
    default_max_length: int | None = None,
) -> PathSet | SolutionSpace:
    """Evaluate ``expression`` over ``graph`` (convenience wrapper around :class:`Evaluator`)."""
    return Evaluator(graph, default_max_length).evaluate(expression)


def evaluate_to_paths(
    expression: Expression,
    graph: PropertyGraph,
    default_max_length: int | None = None,
) -> PathSet:
    """Evaluate ``expression`` over ``graph`` and always return a :class:`PathSet`."""
    return Evaluator(graph, default_max_length).evaluate_paths(expression)
