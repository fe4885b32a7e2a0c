"""The product-graph automaton executor (third member of the executor layer).

``AutomatonExecutor`` evaluates the plan shapes of
:func:`~repro.engine.automaton.decompile.classify_plan` by lazy search over
``graph × NFA`` — see :mod:`repro.engine.automaton.product`.  Plans outside
the native envelope delegate to the materializing evaluator, so an explicit
``executor="automaton"`` request is always safe: results are identical on
every plan, only the evaluation strategy differs.  ``statistics.executor``
reports ``"automaton"`` either way (the strategy the caller addressed);
``operator_calls`` reveals which route ran.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.algebra.expressions import Expression
from repro.engine.automaton.decompile import AutomatonPlan, classify_plan
from repro.engine.automaton.int_product import iter_shortest_compact
from repro.engine.automaton.product import iter_product_plan
from repro.engine.executor import ExecutionResult, MaterializeExecutor
from repro.engine.footprint import plan_footprint
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.compact import compact_core_of
from repro.graph.delta import QueryFootprint
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import Restrictor

__all__ = ["AutomatonExecutor", "stream_product_paths"]


def stream_product_paths(
    graph: PropertyGraph, spec: AutomatonPlan, budget: QueryBudget | None
) -> Iterator[Path]:
    """Stream the result of a classified plan, routing ϕShortest closures to
    the int-encoded CSR search when a compact core is current."""
    if spec.restrictor is Restrictor.SHORTEST and spec.kind in (
        "closure",
        "closure_with_nodes",
    ):
        compact = compact_core_of(graph)
        if compact is not None:
            closure = iter_shortest_compact(
                graph,
                compact,
                spec.regex,
                spec.max_length,
                budget,
                None if spec.sources is None else spec.source_nodes(graph),
            )
            if spec.kind == "closure":
                return closure
            return _nodes_then_closure(graph, closure)
    return iter_product_plan(graph, spec, budget)


def _nodes_then_closure(
    graph: PropertyGraph, closure: Iterator[Path]
) -> Iterator[Path]:
    """The ``closure ∪ NodesScan`` union, zero-length duplicates suppressed."""
    zero_emitted = set()
    for node_id in graph.node_ids():
        zero_emitted.add(node_id)
        yield Path.from_node(graph, node_id)
    for path in closure:
        if path.len() == 0 and path.first() in zero_emitted:
            continue
        yield path


class AutomatonExecutor:
    """Executor backed by lazy BFS/Dijkstra over the product automaton.

    SHORTEST closures stream: witnesses for an endpoint pair are emitted the
    moment their distance level completes, so a cursor sees first rows while
    deeper levels are still unexplored.  A ``limit`` therefore stops the
    search early, exactly like the pipeline executor.
    """

    name = "automaton"

    def execute(
        self,
        plan: Expression,
        graph: PropertyGraph,
        *,
        default_max_length: int | None = None,
        limit: int | None = None,
        budget: QueryBudget | None = None,
        footprint: QueryFootprint | None = None,
    ) -> ExecutionResult:
        spec = classify_plan(plan, default_max_length)
        if spec is None:
            result = MaterializeExecutor().execute(
                plan,
                graph,
                default_max_length=default_max_length,
                limit=limit,
                budget=budget,
                footprint=footprint,
            )
            result.statistics.executor = self.name
            return result
        statistics = ExecutionStatistics()
        statistics.executor = self.name
        statistics.footprint = (
            footprint if footprint is not None else plan_footprint(plan)
        )
        stream = stream_product_paths(graph, spec, budget)
        if limit is None:
            paths = PathSet.from_unique(stream)
            statistics.record("automaton-product", len(paths))
            if budget is not None:
                budget.check_result_size(len(paths), "result")
                statistics.capture_budget(budget)
            return ExecutionResult(
                paths=paths, statistics=statistics, total_paths=len(paths)
            )
        paths = PathSet.from_unique(islice(stream, max(limit, 0)))
        # Same one-pull probe as the pipeline executor: exhausting the stream
        # here means the limit did not actually cut anything off.
        truncated = next(stream, None) is not None
        close = getattr(stream, "close", None)
        if close is not None:
            close()
        statistics.record("automaton-product", len(paths))
        if budget is not None:
            budget.check_result_size(len(paths), "result")
            statistics.capture_budget(budget)
        return ExecutionResult(
            paths=paths,
            statistics=statistics,
            truncated=truncated,
            total_paths=None if truncated else len(paths),
        )

    def stream(
        self,
        plan: Expression,
        graph: PropertyGraph,
        *,
        default_max_length: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Iterator[Path] | None:
        """A lazy path stream for cursors, or ``None`` if the plan needs the
        materializing fallback (the caller then runs :meth:`execute`)."""
        spec = classify_plan(plan, default_max_length)
        if spec is None:
            return None
        return stream_product_paths(graph, spec, budget)
