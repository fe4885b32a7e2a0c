"""Unified execution statistics and query budgets shared by every executor.

The materializing :class:`~repro.algebra.evaluator.Evaluator` (operator call
counts and output cardinalities) and the pull-based pipeline in
:mod:`repro.engine.physical` (paths crossing each operator boundary) both
record into the single :class:`ExecutionStatistics` defined here, so
:class:`~repro.engine.engine.QueryResult` carries one statistics type
regardless of which executor ran the plan.

The module also defines :class:`QueryBudget`, the cooperative deadline and
resource-cap token threaded through the whole execution stack: the engine
facade, both executors, the physical operators' recursion loops, the closure
frontier loops and the traversal/automaton baselines all accept an optional
budget and check it at frontier-expansion boundaries (plus an amortized clock
check every :attr:`QueryBudget.check_interval` visited paths), so a deadline
or a resource cap kills an in-flight query within one check interval instead
of never.  Exhausted budgets raise :class:`~repro.errors.BudgetExceeded`.

The module is deliberately dependency-free (standard library plus
:mod:`repro.errors`, itself standard-library only): it is imported by both
the algebra layer and the engine layer, which otherwise sit on opposite
sides of the package's import graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import BudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps the module leaf-level)
    from repro.graph.delta import QueryFootprint

__all__ = ["ExecutionStatistics", "QueryBudget"]


class QueryBudget:
    """A cooperative deadline plus resource caps for one query.

    The budget is *checked*, never *enforced preemptively*: every loop that
    can run for a long time (closure fix points, DFS/BFS traversals, the
    physical pipeline) calls :meth:`charge` as it visits paths and
    :meth:`checkpoint` at frontier-expansion boundaries.  ``charge`` is cheap
    — an integer add and a cap comparison — and only consults the monotonic
    clock once every :attr:`check_interval` visited paths, which keeps the
    overhead on budget-free hot loops at zero and on budgeted ones below the
    noise floor (see PERFORMANCE.md, "Cooperative cancellation").

    All deadline math uses ``time.monotonic()``: deadlines must survive
    wall-clock adjustments, and using one clock everywhere (the service's
    queue stamps included) keeps every interval arithmetically comparable.

    Args:
        deadline: Absolute ``time.monotonic()`` instant after which the query
            is killed (``None`` — no deadline).  Use :meth:`from_timeout` to
            build one from a relative number of seconds.
        max_visited: Cap on the number of paths the execution may visit or
            construct, summed across operators (``None`` — unlimited).  A
            scan is charged for the paths it actually reads: a selection
            served off the label index, or a join run as an adjacency
            expand, charges the edges read off the index, not ``|E|``.
        max_results: Cap on the size of the result set the caller receives,
            checked after any ``limit`` truncation (``None`` — unlimited).
        check_interval: How many visited paths may pass between two clock
            reads.  Caps are enforced to within one :meth:`charge` batch.
    """

    #: How many paths/pops a hot loop may process between two budget calls.
    #: Every batched charging site in the execution stack (closure frontier
    #: chunks, `PathSet.join`, the DFS/BFS baselines) derives its batch size
    #: from this single knob, so check granularity is tuned in one place.
    CHARGE_BATCH = 512

    __slots__ = (
        "deadline",
        "max_visited",
        "max_results",
        "check_interval",
        "paths_visited",
        "depth_reached",
        "stopped_at",
        "_uncounted",
    )

    def __init__(
        self,
        deadline: float | None = None,
        max_visited: int | None = None,
        max_results: int | None = None,
        check_interval: int = 1024,
    ) -> None:
        if max_visited is not None and max_visited < 0:
            raise ValueError(f"max_visited must be >= 0, got {max_visited}")
        if max_results is not None and max_results < 0:
            raise ValueError(f"max_results must be >= 0, got {max_results}")
        if check_interval <= 0:
            raise ValueError(f"check_interval must be > 0, got {check_interval}")
        self.deadline = deadline
        self.max_visited = max_visited
        self.max_results = max_results
        self.check_interval = check_interval
        #: Partial-progress counters, readable after a kill (they are also
        #: copied into :class:`ExecutionStatistics` on successful completion).
        self.paths_visited = 0
        self.depth_reached = 0
        self.stopped_at = ""
        self._uncounted = 0

    @classmethod
    def from_timeout(
        cls,
        seconds: float,
        max_visited: int | None = None,
        max_results: int | None = None,
        check_interval: int = 1024,
    ) -> "QueryBudget":
        """Build a budget whose deadline is ``seconds`` from now (monotonic)."""
        return cls(
            deadline=time.monotonic() + seconds,
            max_visited=max_visited,
            max_results=max_results,
            check_interval=check_interval,
        )

    @property
    def unlimited(self) -> bool:
        """``True`` when no dimension of the budget can ever trip."""
        return (
            self.deadline is None
            and self.max_visited is None
            and self.max_results is None
        )

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (negative once past); ``None`` without one."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    # ------------------------------------------------------------------
    # Checkpoints (called from the execution stack)
    # ------------------------------------------------------------------
    def charge(self, amount: int = 1, where: str = "") -> None:
        """Account for ``amount`` visited paths; amortized deadline check.

        Hot loops batch their calls (an integer counter per produced path,
        one ``charge`` per batch), so the per-path cost with a budget
        attached is an add and a compare.

        Raises:
            BudgetExceeded: when the visited-paths cap is exceeded, or the
                deadline has passed at a clock-check boundary.
        """
        self.paths_visited += amount
        if self.max_visited is not None and self.paths_visited > self.max_visited:
            self._exceed("max_visited", where)
        self._uncounted += amount
        if self._uncounted >= self.check_interval:
            self._uncounted = 0
            if self.deadline is not None and time.monotonic() >= self.deadline:
                self._exceed("deadline", where)

    def checkpoint(self, where: str = "", depth: int | None = None) -> None:
        """Frontier-expansion boundary: always consult the clock.

        Also records ``depth`` (fix-point round / traversal depth) into the
        partial-progress counters when given.
        """
        if depth is not None and depth > self.depth_reached:
            self.depth_reached = depth
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._exceed("deadline", where)

    def note_depth(self, depth: int) -> None:
        """Record reaching ``depth`` without a clock check (hot-loop safe)."""
        if depth > self.depth_reached:
            self.depth_reached = depth

    def check_result_size(self, size: int, where: str = "") -> None:
        """Enforce the result-size cap against a materialized result."""
        if self.max_results is not None and size > self.max_results:
            self._exceed("max_results", where)

    def _exceed(self, reason: str, where: str) -> None:
        self.stopped_at = where
        raise BudgetExceeded(
            reason,
            paths_visited=self.paths_visited,
            depth_reached=self.depth_reached,
            stopped_at=where,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        remaining = self.remaining_seconds()
        clause = f"{remaining:.3f}s left" if remaining is not None else "no deadline"
        return (
            f"QueryBudget({clause}, max_visited={self.max_visited}, "
            f"max_results={self.max_results}, visited={self.paths_visited})"
        )


@dataclass
class ExecutionStatistics:
    """Counters collected while executing a logical plan.

    Attributes:
        executor: Name of the executor that filled these counters
            (``"materialize"`` or ``"pipeline"``; empty when the plan was run
            through a bare :class:`~repro.algebra.evaluator.Evaluator` or
            pipeline rather than through the engine's executor layer).
        operator_calls: How often each operator was evaluated.  The
            materializing evaluator counts one call per evaluation of an
            expression node; the pipeline counts one call per operator
            instantiated in the compiled plan.
        operator_output_sizes: Paths produced per operator.  For the pipeline
            this is the number of paths that crossed the operator's output
            boundary — under early termination it can be far smaller than the
            operator's full output.
        intermediate_paths: Total paths produced across all operators (the
            classical "intermediate result size" proxy for execution effort).
            Index-backed access paths keep the rows of the operators they
            realize — ``Edges(G)`` and ``σ[…]`` for a label-index scan, both
            plus ``⋈`` for an adjacency expand — but the ``Edges(G)`` row
            counts the paths read off the index, so this total reflects work
            done, not the size of the graph.
        operators: Number of physical operators instantiated (pipeline only;
            zero for the materializing evaluator).
        plan_cache_hits: Cumulative hit count of the plan cache that served
            this query, captured when the query finished.  Together with
            ``plan_cache_misses`` and ``plan_cache_evictions`` this surfaces
            the cache trajectory of a serving engine (or of a
            :class:`~repro.service.QueryService` whose workers share one
            lock-striped cache) without a separate stats endpoint.  All three
            are zero when the plan was run outside the engine facade.
        plan_cache_misses: Cumulative miss count of the serving plan cache.
        plan_cache_evictions: Cumulative LRU evictions of the serving plan cache.
        budget_paths_visited: Paths visited as accounted by the query's
            :class:`QueryBudget` (zero when the query ran without one).  On a
            budget kill these counters describe the partial progress made
            before the :class:`~repro.errors.BudgetExceeded` was raised.
        budget_depth_reached: Deepest fix-point round / traversal depth the
            budgeted execution reached.
        budget_stopped_at: Operator or loop that observed the kill (empty
            when the query completed within budget).
        footprint: The :class:`~repro.graph.delta.QueryFootprint` of the
            executed plan — which label classes and property reads the result
            depends on, recorded by the executors and consumed by the
            delta-aware caches.  ``None`` when the plan was run outside the
            executor layer (treated as universal by consumers).
    """

    executor: str = ""
    operator_calls: dict[str, int] = field(default_factory=dict)
    operator_output_sizes: dict[str, int] = field(default_factory=dict)
    intermediate_paths: int = 0
    operators: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    budget_paths_visited: int = 0
    budget_depth_reached: int = 0
    budget_stopped_at: str = ""
    footprint: "QueryFootprint | None" = None

    def capture_budget(self, budget: "QueryBudget | None") -> None:
        """Copy a budget's partial-progress counters into these statistics."""
        if budget is None:
            return
        self.budget_paths_visited = budget.paths_visited
        self.budget_depth_reached = budget.depth_reached
        self.budget_stopped_at = budget.stopped_at

    # -- materializing-evaluator recording style -----------------------
    def record(self, operator: str, output_size: int) -> None:
        """Record one evaluation of ``operator`` producing ``output_size`` paths."""
        self.operator_calls[operator] = self.operator_calls.get(operator, 0) + 1
        self.operator_output_sizes[operator] = (
            self.operator_output_sizes.get(operator, 0) + output_size
        )
        self.intermediate_paths += output_size

    # -- pipeline recording style ---------------------------------------
    def count(self, operator: str, amount: int = 1) -> None:
        """Record ``amount`` paths crossing the output boundary of ``operator``."""
        self.operator_output_sizes[operator] = (
            self.operator_output_sizes.get(operator, 0) + amount
        )
        self.intermediate_paths += amount

    def register_operator(self, operator: str) -> None:
        """Record the instantiation of one physical operator named ``operator``."""
        self.operators += 1
        self.operator_calls[operator] = self.operator_calls.get(operator, 0) + 1

    # -- derived views ---------------------------------------------------
    def total_calls(self) -> int:
        """Total number of operator evaluations (or instantiations, for the pipeline)."""
        return sum(self.operator_calls.values())

    def total_rows(self) -> int:
        """Total paths that crossed any operator boundary."""
        return sum(self.operator_output_sizes.values())
