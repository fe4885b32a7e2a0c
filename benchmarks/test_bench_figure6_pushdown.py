"""E-F6 — Figure 6: selection pushdown and its effect on intermediate results.

Regenerates Figure 6: the unoptimized plan 6a
``σ[first.name='Moe'](σKnows(E) ⋈ σKnows(E))`` and the optimized plan 6b with
the selection pushed into the left join input.  The harness verifies the
rewrite produces exactly the 6b shape, that both plans return the same
answer, and that the pushdown reduces intermediate results, on Figure 1 and
on a larger synthetic SNB-like graph.
"""

from __future__ import annotations

import pytest

from repro.algebra.conditions import label_of_edge, prop_of_first
from repro.algebra.evaluator import Evaluator, evaluate_to_paths
from repro.algebra.expressions import EdgesScan, Join, Selection
from repro.bench.reporting import format_table
from repro.datasets.ldbc import LDBCParameters, ldbc_like_graph
from repro.optimizer.engine import optimize
from repro.optimizer.rules import PushSelectionIntoJoin


def knows_scan() -> Selection:
    return Selection(label_of_edge(1, "Knows"), EdgesScan())


def figure6a_plan(name: str = "Moe") -> Selection:
    return Selection(prop_of_first("name", name), Join(knows_scan(), knows_scan()))


@pytest.fixture(scope="module")
def snb_graph():
    return ldbc_like_graph(LDBCParameters(num_persons=150, num_messages=150, seed=21))


def test_figure6_rewrite_shape() -> None:
    rewritten = PushSelectionIntoJoin().apply(figure6a_plan())
    assert isinstance(rewritten, Join)
    assert isinstance(rewritten.left, Selection)
    assert rewritten.left.condition == prop_of_first("name", "Moe")
    assert isinstance(rewritten.left.child, Selection)  # the Knows label scan below


def test_figure6_unoptimized_figure1(figure1) -> None:
    result = evaluate_to_paths(figure6a_plan(), figure1)
    assert {path.interleaved() for path in result} == {
        ("n1", "e1", "n2", "e2", "n3"),
        ("n1", "e1", "n2", "e4", "n4"),
    }


def test_figure6_optimized_figure1(figure1) -> None:
    optimized = optimize(figure6a_plan()).optimized
    result = evaluate_to_paths(optimized, figure1)
    assert {path.interleaved() for path in result} == {
        ("n1", "e1", "n2", "e2", "n3"),
        ("n1", "e1", "n2", "e4", "n4"),
    }


def test_figure6_unoptimized_snb(snb_graph) -> None:
    result = evaluate_to_paths(figure6a_plan(), snb_graph)
    optimized_result = evaluate_to_paths(optimize(figure6a_plan()).optimized, snb_graph)
    assert result == optimized_result


def test_figure6_optimized_snb(snb_graph) -> None:
    optimized = optimize(figure6a_plan()).optimized
    result = evaluate_to_paths(optimized, snb_graph)
    assert len(result) >= 0


def test_figure6_report(figure1, snb_graph) -> None:
    """Print the intermediate-result comparison of plans 6a and 6b on both graphs."""
    rows = []
    for graph_name, graph in (("figure1", figure1), ("ldbc-like (150 persons)", snb_graph)):
        plan = figure6a_plan()
        optimized = optimize(plan).optimized
        eval_plain = Evaluator(graph)
        plain_result = eval_plain.evaluate_paths(plan)
        eval_opt = Evaluator(graph)
        opt_result = eval_opt.evaluate_paths(optimized)
        assert plain_result == opt_result
        rows.append(
            (
                graph_name,
                len(plain_result),
                eval_plain.statistics.intermediate_paths,
                eval_opt.statistics.intermediate_paths,
            )
        )
    print()
    print(
        format_table(
            ["graph", "|result|", "intermediate paths (6a)", "intermediate paths (6b, pushdown)"],
            rows,
            title="Figure 6 — selection pushdown: plan 6a vs. plan 6b",
        )
    )
    for row in rows:
        assert row[3] <= row[2]
