"""The query engine facade.

:class:`PathQueryEngine` ties the whole pipeline together:

    GQL text --parse--> AST --plan--> logical plan --optimize--> plan
             --execute--> paths / solution space

and exposes the convenience entry points a downstream application would use:
``query`` (text in, paths out), ``query_plan`` (programmatic plans),
``explain`` (plan + cost + rewrite trace without executing), and
``execute_regex`` (bare RPQs).

Execution is routed through the pluggable executor layer
(:mod:`repro.engine.executor`): the ``executor`` knob selects the
materializing evaluator, the pull-based pipeline, the product automaton, or
``"auto"`` — materialize what the caller drains, stream what it can stop
early (a ``limit``, any cursor).  Parsed-and-optimized plans are memoized in
an LRU :class:`PlanCache` keyed on the query text and the planning options,
so hot queries skip parse/plan/optimize entirely at every graph version.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.algebra.expressions import Expression
from repro.algebra.printer import to_algebra_notation, to_plan_tree
from repro.engine.automaton import AutomatonExecutor
from repro.engine.automaton.decompile import classify_plan
from repro.engine.executor import (
    EXECUTOR_NAMES,
    ExecutionResult,
    PipelineExecutor,
    choose_executor,
    resolve_executor,
)
from repro.engine.footprint import plan_footprint
from repro.engine.physical import access_paths, build_pipeline
from repro.engine.results import ResultCursor
from repro.errors import ParameterError
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.delta import QueryFootprint
from repro.graph.model import PropertyGraph
from repro.gql.params import bind_parameters, collect_parameters
from repro.gql.parser import parse_query
from repro.gql.planner import plan_query
from repro.optimizer.cost import CostModel, PlanCost
from repro.optimizer.engine import Optimizer
from repro.paths.pathset import PathSet
from repro.rpq.compile import CompileOptions, compile_regex
from repro.semantics.restrictors import Restrictor

__all__ = ["QueryResult", "ExplainResult", "PlanCache", "CachedPlan", "PathQueryEngine"]

#: The execution phases reported in :attr:`QueryResult.phase_seconds`.
PHASES = ("parse", "plan", "optimize", "execute")


@dataclass
class QueryResult:
    """The outcome of executing a path query."""

    paths: PathSet
    plan: Expression
    optimized_plan: Expression
    applied_rules: list[str] = field(default_factory=list)
    statistics: ExecutionStatistics = field(default_factory=ExecutionStatistics)
    elapsed_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    executor: str = ""
    cache_hit: bool = False
    truncated: bool = False
    total_paths: int | None = None

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


@dataclass
class ExplainResult:
    """The outcome of explaining (but not executing) a path query."""

    plan: Expression
    optimized_plan: Expression
    applied_rules: list[str]
    estimated_cost: PlanCost
    estimated_cost_unoptimized: PlanCost
    chosen_executor: str = ""
    executor_policy: str = "auto"

    def render(self) -> str:
        """Return a human-readable explanation."""
        lines = [
            "Logical plan:",
            "  " + to_algebra_notation(self.plan),
            "Optimized plan:",
            "  " + to_algebra_notation(self.optimized_plan),
            f"Applied rules: {', '.join(self.applied_rules) or '(none)'}",
            f"Estimated cost: {self.estimated_cost.total_cost:.1f} "
            f"(unoptimized: {self.estimated_cost_unoptimized.total_cost:.1f})",
        ]
        if self.chosen_executor:
            if self.executor_policy == "auto":
                lines.append(f"Executor (auto): {self.chosen_executor}")
            else:
                lines.append(f"Executor: {self.chosen_executor}")
        # The algebra tree is the paper's; the bracketed notes beside it name
        # how the chosen executor reads each scan and join.  A plan the product
        # automaton runs natively walks adjacency per NFA state instead, from
        # every node or from the sources a seeded closure restricts it to.
        native = (
            classify_plan(self.optimized_plan)
            if self.chosen_executor == AutomatonExecutor.name
            else None
        )
        if native is not None:
            restriction = "" if native.sources is None else f" (sources: {native.sources})"
            lines.append(f"Access paths: product-graph search{restriction}")
            notes = None
        else:
            notes = access_paths(
                self.optimized_plan, pipelined=self.chosen_executor == PipelineExecutor.name
            )
        lines += [
            "Plan tree:",
            to_plan_tree(self.optimized_plan, notes),
        ]
        return "\n".join(lines)


@dataclass
class CachedPlan:
    """A parse/plan/optimize outcome memoized by the :class:`PlanCache`."""

    plan: Expression
    optimized: Expression
    applied_rules: list[str]
    #: Lazily computed static footprint of the optimized plan, shared by every
    #: execution and by anything keying caches on what the plan reads.
    footprint: QueryFootprint | None = None

    def compute_footprint(self) -> QueryFootprint:
        """The optimized plan's footprint, computed once per cached plan."""
        if self.footprint is None:
            self.footprint = plan_footprint(self.optimized)
        return self.footprint
    #: ``$name`` placeholders the query declares — the parse-level set when
    #: the plan came from GQL text (the surface contract, even if a rewrite
    #: were to eliminate a parameterized selection), the plan-derived set for
    #: programmatic plans.  A parameterized plan is cached under its
    #: parameterized text and re-bound per execution; executing it without
    #: (complete) bindings is an error.
    parameters: tuple[str, ...] = ()


class PlanCache:
    """A bounded LRU cache of :class:`CachedPlan` entries.

    Keys are opaque tuples built by the engine from the query text and the
    planning options.  They are version-free — parse/plan/optimize is a pure
    function of text and options, so one entry serves every graph version.

    A single instance is *not* thread-safe; concurrent workers share plans
    through the lock-striped :class:`~repro.service.StripedLRUCache`, which
    composes instances of this class (one per stripe, each behind its own
    lock) and exposes the same ``get``/``put``/counter surface.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()

    def get(self, key: tuple) -> CachedPlan | None:
        """Return the cached entry for ``key`` (marking it most-recently used)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: CachedPlan) -> None:
        """Insert ``entry``, evicting the least-recently-used entry when full."""
        if self.maxsize <= 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters are kept)."""
        self._entries.clear()

    def remove(self, key: tuple) -> None:
        """Drop one entry if present (no-op otherwise, no counter changes)."""
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries


class PathQueryEngine:
    """Execute extended-GQL path queries over a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        optimize: bool = True,
        default_max_length: int | None = None,
        executor: str = "auto",
        plan_cache_size: int = 128,
        plan_cache: "PlanCache | None" = None,
    ) -> None:
        """Create an engine.

        Args:
            graph: The property graph to query (a mutable
                :class:`~repro.graph.model.PropertyGraph` or an immutable
                :class:`~repro.graph.snapshot.GraphSnapshot`).
            optimize: Whether to run the rewrite-rule optimizer on every plan.
            default_max_length: Bound applied to ϕWalk operators that carry no
                explicit bound (prevents non-termination errors on cyclic
                graphs for exploratory WALK queries).
            executor: Default execution strategy — ``"materialize"`` (the
                bottom-up evaluator), ``"pipeline"`` (the pull-based iterator
                pipeline), ``"automaton"`` (the product-graph search) or
                ``"auto"`` (materialize a drained result; stream a limited one
                and every cursor).
            plan_cache_size: Maximum number of parsed-and-optimized plans
                memoized by the plan cache (``0`` disables caching).
            plan_cache: An externally owned cache to use instead of building a
                private one — how :class:`~repro.service.QueryService` shares
                one lock-striped cache across its worker engines.  Anything
                with the :class:`PlanCache` surface works;
                ``plan_cache_size`` is ignored when this is given.
        """
        if executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        self.graph = graph
        self.optimize_plans = optimize
        self.default_max_length = default_max_length
        self.default_executor = executor
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(plan_cache_size)
        self._optimizer = Optimizer()

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        text: str,
        max_length: int | None = None,
        executor: str | None = None,
        limit: int | None = None,
        graph: PropertyGraph | None = None,
        budget: QueryBudget | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> QueryResult:
        """Parse, plan, optimize, and execute an extended-GQL query.

        Args:
            text: The extended-GQL query text.
            max_length: Bound forwarded to the parser for ϕWalk recursion.
            executor: Per-call override of the engine's default executor.
            limit: Produce at most this many paths.  The pipeline executor
                pushes the limit into the plan (it stops pulling); the
                materializing executor truncates after full evaluation.
                Under ``"auto"`` a limit selects the pipeline.
            graph: Per-call override of the graph to execute against — the
                engine's own graph or a
                :class:`~repro.graph.snapshot.GraphSnapshot` of it, pinning
                the query to one version while other threads keep mutating
                (an unrelated graph is rejected, see :meth:`_target_graph`).
                Plan-cache keys carry no version, so snapshot queries hit the
                same entries as live queries.
            budget: Optional :class:`~repro.execution.QueryBudget` enforced
                cooperatively throughout execution (deadline, visited-path
                and result-size caps).  An exhausted budget raises
                :class:`~repro.errors.BudgetExceeded` carrying the partial
                progress; budgets are *not* part of the plan-cache key, and a
                budget-killed query leaves only the (valid) parsed plan in
                the cache — never a partial result.
            params: Bindings for the query's ``$name`` placeholders.  The
                plan is cached under the *parameterized* text — distinct
                bindings share one cached plan — and the concrete values are
                substituted into a fresh copy of the plan per execution, so
                bindings can never leak between executions.  Executing a
                parameterized query with missing, surplus or absent bindings
                raises :class:`~repro.errors.ParameterError`.
        """
        started = time.perf_counter()
        target = self._target_graph(graph)
        phase_seconds = dict.fromkeys(PHASES, 0.0)
        cached, cache_hit = self._cached_gql(text, max_length, budget, phase_seconds)
        return self._finish(
            cached, executor, limit, cache_hit, started, phase_seconds, target, budget, params
        )

    def query_plan(
        self,
        plan: Expression,
        executor: str | None = None,
        limit: int | None = None,
        graph: PropertyGraph | None = None,
        budget: QueryBudget | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> QueryResult:
        """Optimize and execute an already-constructed logical plan."""
        started = time.perf_counter()
        target = self._target_graph(graph)
        phase_seconds = dict.fromkeys(PHASES, 0.0)
        cached = self._optimize_into(plan, phase_seconds)
        return self._finish(
            cached, executor, limit, False, started, phase_seconds, target, budget, params
        )

    def prepare(
        self,
        text: str,
        max_length: int | None = None,
        graph: PropertyGraph | None = None,
    ) -> CachedPlan:
        """Parse, plan and optimize ``text`` without executing it.

        The workhorse behind :meth:`repro.api.Session.prepare`: the
        parsed-and-optimized plan lands in the plan cache under the
        parameterized text, so every subsequent execution — whatever its
        bindings — is a cache hit.  Returns the :class:`CachedPlan`, whose
        :attr:`~CachedPlan.parameters` lists the ``$name`` placeholders the
        caller must bind.
        """
        self._target_graph(graph)  # rejects a foreign graph= override
        cached, _ = self._cached_gql(text, max_length, None, dict.fromkeys(PHASES, 0.0))
        return cached

    def open_cursor(
        self,
        text: str,
        params: Mapping[str, Any] | None = None,
        max_length: int | None = None,
        executor: str | None = None,
        limit: int | None = None,
        graph: PropertyGraph | None = None,
        budget: QueryBudget | None = None,
    ) -> ResultCursor:
        """Execute a query and return a streaming :class:`ResultCursor`.

        The cursor-shaped twin of :meth:`query` (same plan cache, same
        parameter binding) with one behavioral difference: a cursor can stop
        at any fetch, so ``"auto"`` runs it on the pipeline and nothing is
        materialized up front — paths are pulled from the physical pipeline
        as the consumer iterates, with a ``limit`` applied at the cursor
        boundary, so fetching a handful of rows of a huge query touches a
        correspondingly small part of the search space.  Under the
        materializing executor the result is computed eagerly (that executor
        cannot terminate early) and the cursor iterates it; the surface is
        identical either way.
        """
        started = time.perf_counter()
        target = self._target_graph(graph)
        phase_seconds = dict.fromkeys(PHASES, 0.0)
        cached, cache_hit = self._cached_gql(text, max_length, budget, phase_seconds)
        plan_to_run = self._bound_plan(cached, params)
        if budget is not None:
            budget.checkpoint("optimize")
        name = self._executor_knob(executor)
        if name == "auto":
            name = PipelineExecutor.name
        truncated: bool | None = None
        total_paths: int | None = None
        cursor_limit = limit
        if name == PipelineExecutor.name:
            pipeline = build_pipeline(
                plan_to_run, target, self.default_max_length, budget=budget
            )
            statistics = pipeline.statistics
            statistics.executor = name
            statistics.footprint = cached.compute_footprint()
            source = pipeline.stream()
        elif name == AutomatonExecutor.name and (
            stream := AutomatonExecutor().stream(
                plan_to_run,
                target,
                default_max_length=self.default_max_length,
                budget=budget,
            )
        ) is not None:
            # Native product-graph stream: SHORTEST rows are yielded per
            # endpoint pair as soon as their BFS level completes, so the
            # cursor sees first rows while the closure is still running.
            statistics = ExecutionStatistics()
            statistics.executor = name
            statistics.footprint = cached.compute_footprint()
            source = stream
        else:
            execution = resolve_executor(name).execute(
                plan_to_run,
                target,
                default_max_length=self.default_max_length,
                limit=limit,
                budget=budget,
                footprint=cached.compute_footprint(),
            )
            statistics = execution.statistics
            source = iter(execution.paths)
            truncated = execution.truncated
            total_paths = execution.total_paths
            cursor_limit = None  # already applied by the executor
        cache = self.plan_cache
        statistics.plan_cache_hits = cache.hits
        statistics.plan_cache_misses = cache.misses
        statistics.plan_cache_evictions = cache.evictions
        return ResultCursor(
            source,
            statistics=statistics,
            executor=name,
            plan=cached.plan,
            optimized_plan=plan_to_run,
            applied_rules=list(cached.applied_rules),
            cache_hit=cache_hit,
            limit=cursor_limit,
            budget=budget,
            truncated=truncated,
            total_paths=total_paths,
            started=started,
            phase_seconds=phase_seconds,
            graph_version=target.version,
        )

    def _cached_gql(
        self,
        text: str,
        max_length: int | None,
        budget: QueryBudget | None,
        phase_seconds: dict[str, float],
    ) -> tuple[CachedPlan, bool]:
        """Serve the parsed-and-optimized plan for ``text`` from the plan cache."""
        key = ("gql", text, max_length, self.optimize_plans)
        cached = self.plan_cache.get(key)
        cache_hit = cached is not None
        if cached is None:
            phase_started = time.perf_counter()
            ast = parse_query(text, max_length=max_length)
            phase_seconds["parse"] = time.perf_counter() - phase_started
            if budget is not None:
                budget.checkpoint("parse")
            phase_started = time.perf_counter()
            plan = plan_query(ast)
            phase_seconds["plan"] = time.perf_counter() - phase_started
            cached = self._optimize_into(plan, phase_seconds, declared=ast.parameters)
            self.plan_cache.put(key, cached)
        return cached, cache_hit

    def _bound_plan(
        self, cached: CachedPlan, params: Mapping[str, Any] | None
    ) -> Expression:
        """Substitute ``params`` into the cached plan, validating the binding set."""
        if not cached.parameters:
            if params:
                raise ParameterError(
                    f"query declares no parameters, got binding(s) for "
                    f"{', '.join('$' + name for name in sorted(params))}"
                )
            return cached.optimized
        supplied = params or {}
        missing = [name for name in cached.parameters if name not in supplied]
        if missing:
            raise ParameterError(
                "missing binding(s) for "
                + ", ".join(f"${name}" for name in missing)
            )
        extra = sorted(set(supplied) - set(cached.parameters))
        if extra:
            raise ParameterError(
                "unknown parameter(s) "
                + ", ".join(f"${name}" for name in extra)
                + "; the query declares "
                + ", ".join(f"${name}" for name in cached.parameters)
            )
        return bind_parameters(cached.optimized, supplied)

    def execute_regex(
        self,
        regex: str,
        restrictor: Restrictor = Restrictor.TRAIL,
        max_length: int | None = None,
        executor: str | None = None,
        limit: int | None = None,
        graph: PropertyGraph | None = None,
        budget: QueryBudget | None = None,
    ) -> PathSet:
        """Evaluate a bare regular path query under the given restrictor.

        Compiled-and-optimized regex plans go through the same plan cache as
        GQL queries (keyed on the regex text and the compile options).
        """
        started = time.perf_counter()
        target = self._target_graph(graph)
        phase_seconds = dict.fromkeys(PHASES, 0.0)
        key = ("rpq", regex, restrictor, max_length, self.optimize_plans)
        cached = self.plan_cache.get(key)
        cache_hit = cached is not None
        if cached is None:
            phase_started = time.perf_counter()
            plan = compile_regex(
                regex, CompileOptions(restrictor=restrictor, max_length=max_length)
            )
            phase_seconds["plan"] = time.perf_counter() - phase_started
            cached = self._optimize_into(plan, phase_seconds)
            self.plan_cache.put(key, cached)
        return self._finish(
            cached, executor, limit, cache_hit, started, phase_seconds, target, budget
        ).paths

    def _target_graph(self, graph: PropertyGraph | None) -> PropertyGraph:
        """Resolve a per-call ``graph`` override, rejecting foreign graphs.

        An engine serves one graph lineage: the version a result reports —
        and the service's result cache keys on — names data only within that
        lineage.  A snapshot of the engine's graph (or the graph itself)
        belongs to it; an unrelated graph whose mutation counter happens to
        coincide would be indistinguishable from one of its versions.
        """
        if graph is None:
            return self.graph
        if graph is self.graph:
            return graph
        own = self.graph
        if getattr(graph, "parent", graph) is getattr(own, "parent", own):
            return graph
        raise ValueError(
            "graph= override must be the engine's graph or a snapshot of it; "
            "build a separate engine for a different graph"
        )

    # ------------------------------------------------------------------
    # Executor selection
    # ------------------------------------------------------------------
    def executor_for(
        self, plan: Expression, executor: str | None = None, limit: int | None = None
    ) -> str:
        """Resolve an executor knob to a concrete name for a query over ``plan``.

        ``"auto"`` becomes :func:`~repro.engine.executor.choose_executor`'s
        answer for ``limit``.  :meth:`query`, :meth:`query_plan`,
        :meth:`execute_regex` and :meth:`explain` call it, and so does the
        process-mode dispatcher of :class:`~repro.service.QueryService`
        before it ships a task; :meth:`open_cursor` streams ``"auto"``.
        """
        name = self._executor_knob(executor)
        return choose_executor(plan, limit) if name == "auto" else name

    def _executor_knob(self, executor: str | None) -> str:
        """The per-call ``executor`` or the engine default, validated."""
        name = executor if executor is not None else self.default_executor
        if name not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        return name

    # ------------------------------------------------------------------
    # Shared pipeline tail
    # ------------------------------------------------------------------
    def _optimize_into(
        self,
        plan: Expression,
        phase_seconds: dict[str, float],
        declared: tuple[str, ...] | None = None,
    ) -> CachedPlan:
        phase_started = time.perf_counter()
        optimized = plan
        applied: list[str] = []
        if self.optimize_plans:
            result = self._optimizer.optimize(plan)
            optimized = result.optimized
            applied = result.applied_rules
        phase_seconds["optimize"] = time.perf_counter() - phase_started
        return CachedPlan(
            plan=plan,
            optimized=optimized,
            applied_rules=applied,
            parameters=declared if declared is not None else collect_parameters(optimized),
        )

    def _finish(
        self,
        cached: CachedPlan,
        executor: str | None,
        limit: int | None,
        cache_hit: bool,
        started: float,
        phase_seconds: dict[str, float],
        graph: PropertyGraph | None = None,
        budget: QueryBudget | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> QueryResult:
        target = graph if graph is not None else self.graph
        plan_to_run = self._bound_plan(cached, params)
        if budget is not None:
            # The planning phases are over; one clock read here kills queries
            # whose deadline expired while parsing/optimizing before any
            # execution work starts.
            budget.checkpoint("optimize")
        phase_started = time.perf_counter()
        chosen = resolve_executor(self.executor_for(plan_to_run, executor, limit))
        execution: ExecutionResult = chosen.execute(
            plan_to_run,
            target,
            default_max_length=self.default_max_length,
            limit=limit,
            budget=budget,
            footprint=cached.compute_footprint(),
        )
        phase_seconds["execute"] = time.perf_counter() - phase_started
        cache = self.plan_cache
        execution.statistics.plan_cache_hits = cache.hits
        execution.statistics.plan_cache_misses = cache.misses
        execution.statistics.plan_cache_evictions = cache.evictions
        return QueryResult(
            paths=execution.paths,
            plan=cached.plan,
            optimized_plan=plan_to_run,
            applied_rules=list(cached.applied_rules),
            statistics=execution.statistics,
            elapsed_seconds=time.perf_counter() - started,
            phase_seconds=phase_seconds,
            executor=chosen.name,
            cache_hit=cache_hit,
            truncated=execution.truncated,
            total_paths=execution.total_paths,
        )

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------
    def explain(self, text: str, max_length: int | None = None) -> ExplainResult:
        """Plan and optimize a query without executing it; report costs and rewrites.

        Shares the plan cache with :meth:`query`: explaining a query warms
        the cache for a subsequent execution and vice versa.
        """
        cached, _ = self._cached_gql(text, max_length, None, dict.fromkeys(PHASES, 0.0))
        return self._explain_cached(cached)

    def explain_plan(self, plan: Expression) -> ExplainResult:
        """Explain an already-constructed logical plan."""
        return self._explain_cached(self._optimize_into(plan, dict.fromkeys(PHASES, 0.0)))

    def _explain_cached(self, cached: CachedPlan) -> ExplainResult:
        model = CostModel(self.graph)
        return ExplainResult(
            plan=cached.plan,
            optimized_plan=cached.optimized,
            applied_rules=list(cached.applied_rules),
            estimated_cost=model.estimate(cached.optimized),
            estimated_cost_unoptimized=model.estimate(cached.plan),
            chosen_executor=self.executor_for(cached.optimized),
            executor_policy=self.default_executor,
        )
