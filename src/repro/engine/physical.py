"""Pipelined physical operators for path-algebra plans.

The paper separates *logical* plans (algebra expression trees) from their
*physical* realization and argues that, once an algorithm is fixed for each
operator, a reference implementation of GQL / SQL-PGQ follows.  The default
:class:`~repro.algebra.evaluator.Evaluator` materializes every intermediate
path set; this module provides the other classical execution style — a
pull-based iterator pipeline — with three practical benefits:

* **early termination** — a projection that only needs ``k`` paths per group
  stops pulling once those paths cannot change anymore (exploited for the
  ``ALL`` selector and for bare selections/joins);
* **bounded memory for streaming stages** — selections, unions and joins
  stream their inputs instead of materializing them up front (the join builds
  a hash table on its right input only);
* **per-operator counters** — the number of paths flowing across each edge of
  the plan, which the benchmarks report.

Recursive operators materialize their input (then stream the closure) and
solution-space operators materialize where grouping requires it; results are
always identical to the logical evaluator (asserted by the test suite), which is exactly the
logical/physical-equivalence property a query engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.algebra.conditions import Condition
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
    identity_crown_input,
    label_scan_input,
    seeded_closure_input,
    shortest_selector_input,
)
from repro.algebra.evaluator import endpoint_sources, seed_paths
from repro.algebra.solution_space import group_by, order_by, project
from repro.errors import EvaluationError
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.model import PropertyGraph
from repro.paths.access import Adjacency, edge_paths, node_paths
from repro.paths.join_index import JoinIndex
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import iter_recursive_closure

__all__ = [
    "PhysicalPlan",
    "access_paths",
    "build_pipeline",
    "execute_pipeline",
]


class _PhysicalOperator:
    """Base class of physical operators: an iterator factory over paths.

    Every operator carries the (possibly ``None``) :class:`QueryBudget` of
    the pipeline; :meth:`_emit` charges each path crossing the operator's
    output boundary against it, so a budgeted pipeline is killed within one
    check interval no matter which operator is doing the work.
    """

    def __init__(
        self,
        name: str,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        self.name = name
        self.statistics = statistics
        self.statistics.register_operator(name)
        self._budget = budget
        self._pending = 0

    def paths(self) -> Iterator[Path]:
        """Yield result paths one at a time."""
        raise NotImplementedError

    def _emit(self, path: Path) -> Path:
        self.statistics.count(self.name)
        if self._budget is not None:
            # Batched like every other charging site: an early-terminated
            # stream leaves at most one partial batch per operator
            # unaccounted, the same granularity the caps promise anyway.
            self._pending += 1
            if self._pending >= QueryBudget.CHARGE_BATCH:
                self._budget.charge(self._pending, self.name)
                self._pending = 0
        return path


class _NodesScanOp(_PhysicalOperator):
    def __init__(
        self,
        graph: PropertyGraph,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        super().__init__("Nodes(G)", statistics, budget)
        self._graph = graph

    def paths(self) -> Iterator[Path]:
        for path in node_paths(self._graph):
            yield self._emit(path)


class _EdgesScanOp(_PhysicalOperator):
    """``Edges(G)``; with a ``label`` (and ``sources``), only the paths read
    off the label index (and those nodes' adjacency, ``endpoint_sources``)."""

    def __init__(
        self,
        graph: PropertyGraph,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
        label: str | None = None,
        sources: tuple[str, ...] | None = None,
    ) -> None:
        super().__init__("Edges(G)", statistics, budget)
        self._graph = graph
        self._label = label
        self._sources = sources

    def paths(self) -> Iterator[Path]:
        for path in edge_paths(self._graph, self._label, self._sources):
            yield self._emit(path)


class _FilterOp(_PhysicalOperator):
    """``σ[c]``; over a label-index scan or a seeded closure, ``condition`` is
    only the residual of ``c`` (or ``None``).  Named π with no condition, the
    pass-through of an ANY SHORTEST crown (``shortest_selector_input``)."""

    def __init__(
        self,
        name: str,
        condition: Condition | None,
        child: _PhysicalOperator,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        super().__init__(name, statistics, budget)
        self._condition = condition
        self._child = child

    def paths(self) -> Iterator[Path]:
        condition = self._condition
        for path in self._child.paths():
            if condition is None or condition.evaluate(path):
                yield self._emit(path)


class _HashJoinOp(_PhysicalOperator):
    """Streaming hash join: builds on the right input, probes with the left."""

    def __init__(
        self,
        left: _PhysicalOperator,
        right: _PhysicalOperator,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
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


class _ExpandOp(_PhysicalOperator):
    """``left ⋈ σ[c](Edges(G))`` as an adjacency expand (no hash build).

    The right operand is an index lookup (``label_scan_input``), so instead of
    scanning and hashing it, each left path is extended by its last node's
    :class:`~repro.paths.access.Adjacency` extensions — the bucket the hash
    join would have probed, in the same order.  The right operand's
    ``Edges(G)`` and ``σ[c]`` rows are kept: they count the edges read off the
    adjacency index and the ones that passed.  A one-edge extension of a
    duplicate-free input is duplicate-free, so there is no ``seen`` set.
    """

    def __init__(
        self,
        left: _PhysicalOperator,
        filter_name: str,
        label: str,
        condition: Condition | None,
        graph: PropertyGraph,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        statistics.register_operator("Edges(G)")
        statistics.register_operator(filter_name)
        super().__init__("⋈", statistics, budget)
        self._left = left
        self._filter_name = filter_name
        self._label = label
        self._condition = condition
        self._graph = graph

    def _account(self, read: int, kept: int) -> None:
        self.statistics.count("Edges(G)", read)
        self.statistics.count(self._filter_name, kept)
        if self._budget is not None:
            self._budget.charge(read, "Edges(G)")
            self._budget.charge(kept, self._filter_name)

    def paths(self) -> Iterator[Path]:
        adjacency = Adjacency(self._graph, self._label, self._condition, self._account)
        for left_path in self._left.paths():
            for extension in adjacency.extensions(left_path.last()):
                yield self._emit(left_path.concat(extension))


class _UnionOp(_PhysicalOperator):
    def __init__(
        self,
        left: _PhysicalOperator,
        right: _PhysicalOperator,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        super().__init__("∪", statistics, budget)
        self._left = left
        self._right = right

    def paths(self) -> Iterator[Path]:
        seen: set[Path] = set()
        for source in (self._left, self._right):
            for path in source.paths():
                if path not in seen:
                    seen.add(path)
                    yield self._emit(path)


class _IntersectionOp(_PhysicalOperator):
    def __init__(
        self,
        left: _PhysicalOperator,
        right: _PhysicalOperator,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        super().__init__("∩", statistics, budget)
        self._left = left
        self._right = right

    def paths(self) -> Iterator[Path]:
        right_paths = set(self._right.paths())
        seen: set[Path] = set()
        for path in self._left.paths():
            if path in right_paths and path not in seen:
                seen.add(path)
                yield self._emit(path)


class _DifferenceOp(_PhysicalOperator):
    def __init__(
        self,
        left: _PhysicalOperator,
        right: _PhysicalOperator,
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        super().__init__("∖", statistics, budget)
        self._left = left
        self._right = right

    def paths(self) -> Iterator[Path]:
        right_paths = set(self._right.paths())
        seen: set[Path] = set()
        for path in self._left.paths():
            if path not in right_paths and path not in seen:
                seen.add(path)
                yield self._emit(path)


class _RecursiveOp(_PhysicalOperator):
    """Materializes its input, then *streams* the fix-point closure round by round.

    The input must be materialized (every frontier round joins against the
    full base), but the closure itself is produced through
    :func:`~repro.semantics.restrictors.iter_recursive_closure`: each newly
    discovered path is yielded immediately, so a limited pull (LIMIT
    pushdown, a :class:`~repro.engine.results.ResultCursor` consuming a few
    rows) suspends the fix point instead of paying for the whole closure —
    under every restrictor, SHORTEST included.  With a ``seed`` condition (``seeded_closure_input``)
    the fix point starts from the input paths that satisfy it (``seed_paths``:
    read off the endpoint index when it can answer); extensions still come
    from the whole input.  With ``one_per_pair`` (``shortest_selector_input``)
    ϕShortest yields the first path of every endpoint pair only.
    """

    def __init__(
        self,
        expression: Recursive,
        child: _PhysicalOperator,
        graph: PropertyGraph,
        statistics: ExecutionStatistics,
        default_max_length: int | None,
        budget: QueryBudget | None = None,
        seed: Condition | None = None,
        one_per_pair: bool = False,
    ) -> None:
        super().__init__(expression.operator_name(), statistics, budget)
        self._expression = expression
        self._child = child
        self._graph = graph
        self._default_max_length = default_max_length
        self._seed = seed
        self._one_per_pair = one_per_pair

    def paths(self) -> Iterator[Path]:
        # Every upstream operator deduplicates while streaming, so the base
        # can be bulk-materialized without re-probing each path.
        base = PathSet.from_unique(self._child.paths())
        seeds = (
            None
            if self._seed is None
            else seed_paths(self._graph, self._expression.child, base, self._seed)
        )
        max_length = self._expression.max_length
        if max_length is None:
            max_length = self._default_max_length
        closure = iter_recursive_closure(
            base, self._expression.restrictor, max_length, self._budget, seeds, self._one_per_pair
        )
        for path in closure:
            yield self._emit(path)


class _SolutionSpaceOp(_PhysicalOperator):
    """Operator covering GroupBy / OrderBy / Projection chains.

    A projection over (order-by over) group-by is executed as one unit so the
    projection limits can be applied without materializing more than the
    grouped structure requires.  The chain is inherently blocking *only when
    it can drop or reorder paths*: a chain of identity crowns (a GQL ``ALL``
    selector the optimizer did not see: ``optimize=False``) returns exactly the
    child's path set, so it streams the child through instead of materializing it.
    """

    def __init__(
        self,
        child: _PhysicalOperator,
        pipeline: list[Expression],
        statistics: ExecutionStatistics,
        budget: QueryBudget | None = None,
    ) -> None:
        super().__init__(pipeline[-1].operator_name(), statistics, budget)
        self._child = child
        self._pipeline = pipeline

    def _streams_through(self) -> bool:
        """``True`` when the whole chain peels off as identity crowns."""
        node: Expression | None = self._pipeline[-1]
        while isinstance(node, (GroupBy, OrderBy, Projection)):
            node = identity_crown_input(node)
        return node is not None

    def paths(self) -> Iterator[Path]:
        if self._streams_through():
            for path in self._child.paths():
                yield self._emit(path)
            return
        current = PathSet.from_unique(self._child.paths())
        space = None
        for stage in self._pipeline:
            if isinstance(stage, GroupBy):
                space = group_by(current, stage.key)
            elif isinstance(stage, OrderBy):
                if space is None:
                    raise EvaluationError("order-by requires a group-by below it")
                space = order_by(space, stage.key)
            elif isinstance(stage, Projection):
                if space is None:
                    space = group_by(current)
                current = project(space, stage.spec)
                space = None
        if space is not None:
            current = space.all_paths()
        for path in current:
            yield self._emit(path)


@dataclass
class PhysicalPlan:
    """A compiled physical pipeline ready for execution."""

    root: _PhysicalOperator
    statistics: ExecutionStatistics
    logical_plan: Expression

    def execute(self) -> PathSet:
        """Run the pipeline to completion and return the result paths.

        Physical operators deduplicate while streaming, so the root's output
        is bulk-collected without a second round of dedup probes.
        """
        return PathSet.from_unique(self.root.paths())

    def stream(self, limit: int | None = None) -> Iterator[Path]:
        """Yield result paths lazily; stop after ``limit`` paths when given."""
        if limit is not None and limit <= 0:
            return
        produced = 0
        for path in self.root.paths():
            yield path
            produced += 1
            if limit is not None and produced >= limit:
                return


def build_pipeline(
    plan: Expression,
    graph: PropertyGraph,
    default_max_length: int | None = None,
    budget: QueryBudget | None = None,
) -> PhysicalPlan:
    """Compile a logical plan into a pull-based physical pipeline.

    A :class:`QueryBudget` is shared by every operator of the pipeline; each
    path crossing any operator boundary is charged against it.
    """
    statistics = ExecutionStatistics()
    root = _build(plan, graph, statistics, default_max_length, budget)
    return PhysicalPlan(root=root, statistics=statistics, logical_plan=plan)


def execute_pipeline(
    plan: Expression,
    graph: PropertyGraph,
    default_max_length: int | None = None,
) -> PathSet:
    """Compile and run a physical pipeline for ``plan`` over ``graph``."""
    return build_pipeline(plan, graph, default_max_length).execute()


def _build(
    plan: Expression,
    graph: PropertyGraph,
    statistics: ExecutionStatistics,
    default_max_length: int | None,
    budget: QueryBudget | None = None,
    one_per_pair: bool = False,
) -> _PhysicalOperator:
    """``one_per_pair``: ``plan`` is the input of an ANY SHORTEST crown that
    ``shortest_selector_input`` recognised, so its ϕShortest runs with the quota."""
    if isinstance(plan, NodesScan):
        return _NodesScanOp(graph, statistics, budget)
    if isinstance(plan, EdgesScan):
        return _EdgesScanOp(graph, statistics, budget)
    if isinstance(plan, Selection):
        seeded = seeded_closure_input(plan)
        indexed = label_scan_input(plan)
        if seeded is not None:
            recursive, seed, condition = seeded
            child = _RecursiveOp(
                recursive,
                _build(recursive.child, graph, statistics, default_max_length, budget),
                graph,
                statistics,
                default_max_length,
                budget,
                seed,
                one_per_pair,
            )
        elif indexed is None:
            condition = plan.condition
            child = _build(plan.child, graph, statistics, default_max_length, budget, one_per_pair)
        else:
            label, condition = indexed
            sources, condition = endpoint_sources(graph, condition)
            child = _EdgesScanOp(graph, statistics, budget, label, sources)
        return _FilterOp(plan.operator_name(), condition, child, statistics, budget)
    if isinstance(plan, Join):
        left = _build(plan.left, graph, statistics, default_max_length, budget)
        indexed = label_scan_input(plan.right)
        if indexed is not None:
            return _ExpandOp(left, plan.right.operator_name(), *indexed, graph, statistics, budget)
        return _HashJoinOp(
            left,
            _build(plan.right, graph, statistics, default_max_length, budget),
            statistics,
            budget,
        )
    if isinstance(plan, Union):
        return _UnionOp(
            _build(plan.left, graph, statistics, default_max_length, budget),
            _build(plan.right, graph, statistics, default_max_length, budget),
            statistics,
            budget,
        )
    if isinstance(plan, Intersection):
        return _IntersectionOp(
            _build(plan.left, graph, statistics, default_max_length, budget),
            _build(plan.right, graph, statistics, default_max_length, budget),
            statistics,
            budget,
        )
    if isinstance(plan, Difference):
        return _DifferenceOp(
            _build(plan.left, graph, statistics, default_max_length, budget),
            _build(plan.right, graph, statistics, default_max_length, budget),
            statistics,
            budget,
        )
    if isinstance(plan, Recursive):
        return _RecursiveOp(
            plan,
            _build(plan.child, graph, statistics, default_max_length, budget),
            graph,
            statistics,
            default_max_length,
            budget,
            one_per_pair=one_per_pair,
        )
    if isinstance(plan, (GroupBy, OrderBy, Projection)):
        closure = shortest_selector_input(plan)
        if closure is not None:
            # ANY SHORTEST streams: π passes the quota closure through.
            child = _build(closure, graph, statistics, default_max_length, budget, True)
            return _FilterOp(plan.operator_name(), None, child, statistics, budget)
        pipeline, base = _collect_solution_space_pipeline(plan)
        child = _build(base, graph, statistics, default_max_length, budget)
        return _SolutionSpaceOp(child, pipeline, statistics, budget)
    raise EvaluationError(f"cannot build a physical operator for {type(plan).__name__}")


def access_paths(plan: Expression) -> list[str | None]:
    """Name the access path of every scan and join of ``plan``, for ``explain``.

    One entry per node of ``plan.iter_subtree()`` (``None`` where the node is
    neither): ``label-index(L)`` on a selection read off the label index,
    ``endpoint-index(first.p, L)`` on one whose ``first.p = v`` conjunct is
    read off the endpoint index first (the matching nodes' ``L`` out-edges
    are then all that is read), ``full scan`` on an atom read whole, ``hash
    join``, ``expand(out, L)`` on a join whose right operand is such an index
    lookup (that operand is then part of the expand and carries no note of
    its own), ``seeded closure(first: c)`` on a selection whose ϕ starts from
    the input paths satisfying ``c`` — and ``seeds: endpoint-index(first.p,
    L)`` on that ϕ when the seeds are read off the endpoint index —, and
    ``shortest search (1 per pair)`` on an ANY SHORTEST projection whose
    ϕShortest runs with a quota of one path per endpoint pair.  The
    materializing evaluator and the pipeline take the same access paths,
    with one decision left to the data: the evaluator, which holds its left
    operand before it joins, scans ``L`` once and hashes instead of
    expanding when that operand holds at least a third as many paths as
    ``L`` has edges.  The notes follow the ``label_scan_input`` /
    ``endpoint_ids_input`` / ``seeded_closure_input`` /
    ``shortest_selector_input`` decisions both make.
    """
    notes: list[str | None] = []

    def endpoint_note(condition: Condition | None, label: str) -> str | None:
        anchored = endpoint_ids_input(condition)
        return None if anchored is None else f"endpoint-index(first.{anchored[0]}, {label})"

    def visit(node: Expression, fused: bool = False, note: str | None = None) -> None:
        """``fused``: the node is part of an index lookup or expand noted above it;
        ``note``: the node's note as its parent decided it (a closure's seeds)."""
        indexed = label_scan_input(node)
        seeded = seeded_closure_input(node)
        expand = label_scan_input(node.right) if isinstance(node, Join) else None
        seeds = None
        if fused:
            notes.append(None)
        elif note is not None:
            notes.append(note)
        elif seeded is not None:
            notes.append(f"seeded closure(first: {seeded[1]})")
            base = label_scan_input(seeded[0].child)
            anchored = None if base is None else endpoint_note(seeded[1], base[0])
            seeds = None if anchored is None else f"seeds: {anchored}"
        elif shortest_selector_input(node) is not None:
            notes.append("shortest search (1 per pair)")
        elif indexed is not None:
            notes.append(endpoint_note(indexed[1], indexed[0]) or f"label-index({indexed[0]})")
        elif isinstance(node, (EdgesScan, NodesScan)):
            notes.append("full scan")
        elif isinstance(node, Join):
            notes.append("hash join" if expand is None else f"expand(out, {expand[0]})")
        else:
            notes.append(None)
        for position, child in enumerate(node.children()):
            fuse = fused or indexed is not None or (expand is not None and position == 1)
            visit(child, fuse, seeds)

    visit(plan)
    return notes


def _collect_solution_space_pipeline(plan: Expression) -> tuple[list[Expression], Expression]:
    """Collect a maximal GroupBy/OrderBy/Projection chain and return (stages bottom-up, base plan)."""
    stages: list[Expression] = []
    node: Expression = plan
    while isinstance(node, (GroupBy, OrderBy, Projection)):
        stages.append(node)
        node = node.child
    stages.reverse()
    return stages, node
