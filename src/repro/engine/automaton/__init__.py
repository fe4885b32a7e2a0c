"""Product-graph automaton evaluation (graph × NFA), the third executor.

The paper's automaton semantics — evaluate a regular path query by searching
the product of the graph with the Thompson NFA of the regex — as an
:class:`AutomatonExecutor` that runs when a caller names it
(``executor="automaton"``); ``"auto"`` never picks it, because the closure
kernel is measured faster on full ϕShortest results and as fast on first rows.
It runs one search, a streaming ϕShortest (witnesses per endpoint pair as soon
as their BFS level completes) over the graph's own node and edge ids, with
full :class:`~repro.execution.QueryBudget` integration; every other plan falls
back to the materializing evaluator.  The §8.2 baseline it grew from stays in
:mod:`repro.baselines.automaton_eval` as a test reference.
"""

from repro.engine.automaton.decompile import AutomatonPlan, classify_plan, decompile_plan
from repro.engine.automaton.executor import AutomatonExecutor

__all__ = [
    "AutomatonExecutor",
    "AutomatonPlan",
    "classify_plan",
    "decompile_plan",
]
