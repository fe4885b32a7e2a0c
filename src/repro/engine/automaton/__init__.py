"""Product-graph automaton evaluation (graph × NFA), the third executor.

The paper's automaton semantics — evaluate a regular path query by searching
the product of the graph with the Thompson NFA of the regex — as an
:class:`AutomatonExecutor` behind the engine's cost-based selection.  It runs
one search, a streaming ϕShortest (witnesses per endpoint pair as soon as
their BFS level completes) over the graph's own node and edge ids, with full
:class:`~repro.execution.QueryBudget` integration; every other plan falls
back to the materializing evaluator.  The §8.2 baseline it grew from stays in
:mod:`repro.baselines.automaton_eval` as a test reference.
"""

from repro.engine.automaton.decompile import (
    AutomatonPlan,
    classify_plan,
    decompile_plan,
    plan_supported,
)
from repro.engine.automaton.executor import AutomatonExecutor

__all__ = [
    "AutomatonExecutor",
    "AutomatonPlan",
    "classify_plan",
    "decompile_plan",
    "plan_supported",
]
