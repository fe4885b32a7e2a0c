"""E-F3 — Figure 3: the core-algebra plan for friends and friends-of-friends of Moe.

Regenerates Figure 3: the plan
``σ[first.name='Moe']( σKnows(Edges) ∪ (σKnows(Edges) ⋈ σKnows(Edges)) )``
is built as drawn, evaluated, and checked to return the 1-hop and 2-hop Knows
paths starting at Moe; the unoptimized plan is compared with its
selection-pushdown rewrite.
"""

from __future__ import annotations

from repro.algebra.conditions import label_of_edge, prop_of_first
from repro.algebra.evaluator import Evaluator, evaluate_to_paths
from repro.algebra.expressions import EdgesScan, Join, Selection, Union
from repro.bench.reporting import format_table
from repro.optimizer.engine import optimize

EXPECTED = {
    ("n1", "e1", "n2"),
    ("n1", "e1", "n2", "e2", "n3"),
    ("n1", "e1", "n2", "e4", "n4"),
}


def figure3_plan() -> Selection:
    knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
    return Selection(prop_of_first("name", "Moe"), Union(knows, Join(knows, knows)))


def test_figure3_plan_results(figure1) -> None:
    result = evaluate_to_paths(figure3_plan(), figure1)
    assert {path.interleaved() for path in result} == EXPECTED


def test_figure3_optimized_plan_results(figure1) -> None:
    optimized = optimize(figure3_plan()).optimized
    result = evaluate_to_paths(optimized, figure1)
    assert {path.interleaved() for path in result} == EXPECTED


def test_figure3_report(figure1) -> None:
    """Print the Figure 3 reproduction and the intermediate-result comparison."""
    plan = figure3_plan()
    optimized = optimize(plan).optimized

    rows = []
    for name, candidate in (("as drawn (Figure 3)", plan), ("after pushdown (Figure 6b)", optimized)):
        evaluator = Evaluator(figure1)
        result = evaluator.evaluate_paths(candidate)
        rows.append((name, len(result), evaluator.statistics.intermediate_paths))
    print()
    print(
        format_table(
            ["Plan", "|result|", "intermediate paths"],
            rows,
            title="Figure 3 — friends and friends-of-friends of Moe (Knows | Knows/Knows)",
        )
    )
    assert rows[0][1] == rows[1][1] == len(EXPECTED)
    assert rows[1][2] <= rows[0][2]
