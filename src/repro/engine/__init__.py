"""Query engine facade: parse, plan, optimize and execute path queries."""

from repro.engine.automaton import AutomatonExecutor
from repro.engine.engine import (
    CachedPlan,
    ExplainResult,
    PathQueryEngine,
    PlanCache,
    QueryResult,
)
from repro.engine.executor import (
    EXECUTOR_NAMES,
    ExecutionResult,
    Executor,
    MaterializeExecutor,
    PipelineExecutor,
    choose_executor,
    resolve_executor,
)
from repro.engine.physical import PhysicalPlan, build_pipeline, execute_pipeline
from repro.engine.results import BindingTable, PathBinding, ResultCursor, bind_paths
from repro.execution import ExecutionStatistics

__all__ = [
    "AutomatonExecutor",
    "PathQueryEngine",
    "QueryResult",
    "ExplainResult",
    "PlanCache",
    "CachedPlan",
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutionResult",
    "ExecutionStatistics",
    "MaterializeExecutor",
    "PipelineExecutor",
    "choose_executor",
    "resolve_executor",
    "PhysicalPlan",
    "build_pipeline",
    "execute_pipeline",
    "BindingTable",
    "PathBinding",
    "ResultCursor",
    "bind_paths",
]
