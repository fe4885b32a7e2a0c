"""The product-graph automaton executor (third member of the executor layer).

``AutomatonExecutor`` evaluates the ϕShortest shapes of
:func:`~repro.engine.automaton.decompile.classify_plan` by lazy search over
``graph × NFA`` — see :mod:`repro.engine.automaton.product`.  Every other
plan, including closures under the other restrictors, delegates to the
materializing evaluator, so an explicit ``executor="automaton"`` request is
always safe: results are identical on every plan, only the evaluation
strategy differs.  ``statistics.executor`` reports ``"automaton"`` either way
(the strategy the caller addressed); ``operator_calls`` reveals which route
ran.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.algebra.expressions import Expression
from repro.engine.automaton.decompile import classify_plan
from repro.engine.automaton.product import iter_product_plan
from repro.engine.executor import ExecutionResult, MaterializeExecutor
from repro.engine.footprint import plan_footprint
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.delta import QueryFootprint
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = ["AutomatonExecutor"]


class AutomatonExecutor:
    """Executor backed by a lazy level-synchronized BFS over the product automaton.

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
        stream = iter_product_plan(graph, spec, budget)
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
        return iter_product_plan(graph, spec, budget)
