"""The pluggable execution layer: one interface, two physical realizations.

The paper separates *logical* plans from their *physical* realization; this
module is where the engine makes that separation operational.  An
:class:`Executor` takes a logical :class:`~repro.algebra.expressions.Expression`
and a :class:`~repro.graph.model.PropertyGraph` and produces an
:class:`ExecutionResult` — the result paths plus unified
:class:`~repro.execution.ExecutionStatistics`.  Three executors exist:

* :class:`MaterializeExecutor` — the bottom-up materializing
  :class:`~repro.algebra.evaluator.Evaluator` (every intermediate path set is
  built in full); robust, and the cheapest option when the plan is dominated
  by inherently blocking recursion;
* :class:`PipelineExecutor` — the pull-based iterator pipeline of
  :mod:`repro.engine.physical`; streams selections, joins and unions, and
  honours a ``limit`` by simply not pulling more paths (early termination);
* ``AutomatonExecutor`` (:mod:`repro.engine.automaton`) — lazy BFS over the
  product of graph × NFA for ϕShortest closures; falls back to the
  materializing evaluator on every other plan.  Only an explicit
  ``executor="automaton"`` runs it.

:func:`choose_executor` implements the ``"auto"`` policy on one fact — does
the caller take the whole result?  A drained result runs the materializing
evaluator (measured faster on every full result, recursive or not); a result
the caller may cut short runs the pipeline, which stops pulling at the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Protocol, runtime_checkable

from repro.algebra.evaluator import Evaluator
from repro.algebra.expressions import Expression
from repro.engine.footprint import plan_footprint
from repro.engine.physical import build_pipeline
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.delta import QueryFootprint
from repro.graph.model import PropertyGraph
from repro.paths.pathset import PathSet

__all__ = [
    "AUTOMATON_EXECUTOR_NAME",
    "EXECUTOR_NAMES",
    "ExecutionResult",
    "Executor",
    "MaterializeExecutor",
    "PipelineExecutor",
    "choose_executor",
    "resolve_executor",
]

#: The values accepted by every ``executor=`` knob in the engine and the CLI.
EXECUTOR_NAMES = ("auto", "materialize", "pipeline", "automaton")

#: Name of the product-automaton executor (class in
#: :mod:`repro.engine.automaton`; referenced by name here because that
#: package builds on this module).
AUTOMATON_EXECUTOR_NAME = "automaton"


@dataclass
class ExecutionResult:
    """What an executor returns: paths, statistics, and truncation info.

    Attributes:
        paths: The result paths (possibly truncated when ``limit`` was given).
        statistics: Unified per-operator counters.
        truncated: ``True`` when a ``limit`` stopped the executor before the
            full result was produced (more paths may exist).
        total_paths: Size of the *full* result when the executor computed it
            (the materializing executor always knows it; the pipeline only
            when it ran to exhaustion).  ``None`` under early termination.
    """

    paths: PathSet
    statistics: ExecutionStatistics
    truncated: bool = False
    total_paths: int | None = None


@runtime_checkable
class Executor(Protocol):
    """Execute a logical plan over a property graph."""

    name: str

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
        """Run ``plan`` over ``graph`` and return paths plus statistics.

        ``footprint`` is the plan's precomputed static footprint; the engine
        passes the once-per-cached-plan value so repeat executions (prepared
        bindings, plan-cache hits) skip the per-call plan walk.  When absent
        the executor computes it from ``plan``.

        ``budget`` is a cooperative cancellation token; executors thread it
        into every loop that can run long and raise
        :class:`~repro.errors.BudgetExceeded` when it is exhausted.
        """
        ...  # pragma: no cover - protocol definition


class MaterializeExecutor:
    """Executor backed by the bottom-up materializing :class:`Evaluator`.

    Cannot terminate early: a ``limit`` keeps the smallest ``limit`` paths of
    the fully materialized result (path order is lexicographic, so limited
    output is deterministic and matches the sorted-then-truncate behavior a
    caller displaying sorted paths expects), and the full result size is
    still reported via :attr:`ExecutionResult.total_paths`.
    """

    name = "materialize"

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
        evaluator = Evaluator(graph, default_max_length=default_max_length, budget=budget)
        paths = evaluator.evaluate_paths(plan)
        statistics = evaluator.statistics
        statistics.executor = self.name
        statistics.footprint = footprint if footprint is not None else plan_footprint(plan)
        total = len(paths)
        truncated = False
        if limit is not None and total > limit:
            paths = PathSet.from_unique(islice(iter(paths.sorted()), max(limit, 0)))
            truncated = True
        if budget is not None:
            # The cap applies to the result the caller receives — checked
            # after any limit truncation so both executors agree on whether
            # a limited query fits its budget.
            budget.check_result_size(len(paths), "result")
            statistics.capture_budget(budget)
        return ExecutionResult(
            paths=paths, statistics=statistics, truncated=truncated, total_paths=total
        )


class PipelineExecutor:
    """Executor backed by the pull-based physical pipeline.

    A ``limit`` is pushed into the pipeline: the root iterator is pulled at
    most ``limit`` times, so streaming stages (scans, selections, joins,
    unions) never produce paths beyond what the limit requires.
    """

    name = "pipeline"

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
        pipeline = build_pipeline(plan, graph, default_max_length, budget=budget)
        statistics = pipeline.statistics
        statistics.executor = self.name
        statistics.footprint = footprint if footprint is not None else plan_footprint(plan)
        if limit is None:
            paths = pipeline.execute()
            if budget is not None:
                budget.check_result_size(len(paths), "result")
                statistics.capture_budget(budget)
            return ExecutionResult(
                paths=paths, statistics=statistics, total_paths=len(paths)
            )
        stream = pipeline.stream()
        paths = PathSet.from_unique(islice(stream, max(limit, 0)))
        # One extra pull decides whether the limit actually cut the stream:
        # exhausting the root here is the exact situation where the limit did
        # not matter, so the probe costs at most one surplus path.
        truncated = next(stream, None) is not None
        if budget is not None:
            budget.check_result_size(len(paths), "result")
            statistics.capture_budget(budget)
        return ExecutionResult(
            paths=paths,
            statistics=statistics,
            truncated=truncated,
            total_paths=None if truncated else len(paths),
        )


def choose_executor(plan: Expression, limit: int | None = None) -> str:
    """The ``"auto"`` policy: ``"pipeline"`` iff the caller may stop at ``limit`` rows.

    A result the caller drains runs the materializing evaluator, whatever
    ``plan``'s shape: on full results it beats the pipeline's per-path
    iterators and the automaton's product search alike (PERFORMANCE.md,
    "One routing fact").  A limited result runs the pipeline, which stops
    pulling at the limit.  Cursors can stop at any fetch, so
    :meth:`~repro.engine.engine.PathQueryEngine.open_cursor` streams them
    without asking.
    """
    return MaterializeExecutor.name if limit is None else PipelineExecutor.name


def resolve_executor(name: str) -> Executor:
    """Return the executor instance for a non-``auto`` executor name."""
    if name == MaterializeExecutor.name:
        return MaterializeExecutor()
    if name == PipelineExecutor.name:
        return PipelineExecutor()
    if name == AUTOMATON_EXECUTOR_NAME:
        from repro.engine.automaton.executor import AutomatonExecutor

        return AutomatonExecutor()
    raise ValueError(
        f"unresolvable executor {name!r}; expected "
        f"{MaterializeExecutor.name!r}, {PipelineExecutor.name!r} or "
        f"{AUTOMATON_EXECUTOR_NAME!r} "
        "('auto' must be resolved by the engine first)"
    )
