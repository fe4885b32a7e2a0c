"""E-X1 — query composition (Section 2.3) and beyond-GQL operators.

The paper's composability claim is architectural rather than experimental;
this added experiment exercises it end to end: the Section 2.3 concatenation
example, union composition, and the intersection/difference operators the
paper lists as natural extensions, all run on Figure 1 and on a
synthetic SNB-like graph.  It also compares the materializing logical
evaluator with the pull-based physical pipeline on the same plans.
"""

from __future__ import annotations

import pytest

from repro.algebra.conditions import label_of_edge
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import Difference, EdgesScan, Intersection, Join, Recursive, Selection
from repro.bench.reporting import format_table
from repro.datasets.ldbc import LDBCParameters, ldbc_like_graph
from repro.engine.physical import execute_pipeline
from repro.paths.predicates import is_trail
from repro.semantics.compose import QueryStep, compose_concatenation, evaluate_composition, paper_example_composition
from repro.semantics.restrictors import Restrictor
from repro.semantics.selectors import Selector, SelectorKind


def knows_scan() -> Selection:
    return Selection(label_of_edge(1, "Knows"), EdgesScan())


def likes_creator_scan() -> Join:
    return Join(
        Selection(label_of_edge(1, "Likes"), EdgesScan()),
        Selection(label_of_edge(1, "Has_creator"), EdgesScan()),
    )


@pytest.fixture(scope="module")
def snb_graph():
    return ldbc_like_graph(LDBCParameters(num_persons=60, num_messages=120, seed=17))


def test_composition_paper_example_figure1(figure1) -> None:
    query = paper_example_composition(knows_scan(), likes_creator_scan())
    result = evaluate_composition(query, figure1)
    assert len(result) > 0
    assert all(is_trail(path) for path in result)


def test_composition_paper_example_snb(snb_graph) -> None:
    query = compose_concatenation(
        Selector(SelectorKind.ALL_SHORTEST),
        Restrictor.TRAIL,
        QueryStep(Selector(SelectorKind.ANY_SHORTEST), Restrictor.WALK, knows_scan()),
        QueryStep(Selector(SelectorKind.ALL), Restrictor.ACYCLIC, likes_creator_scan(), max_length=4),
    )
    result = evaluate_composition(query, snb_graph)
    assert all(is_trail(path) for path in result)


def test_intersection_operator(figure1) -> None:
    plan = Intersection(
        Recursive(knows_scan(), Restrictor.TRAIL), Recursive(knows_scan(), Restrictor.ACYCLIC)
    )
    result = evaluate_to_paths(plan, figure1)
    assert len(result) == 7


def test_difference_operator(figure1) -> None:
    plan = Difference(
        Recursive(knows_scan(), Restrictor.TRAIL), Recursive(knows_scan(), Restrictor.ACYCLIC)
    )
    result = evaluate_to_paths(plan, figure1)
    assert len(result) == 5


def test_logical_evaluator_on_snb(snb_graph) -> None:
    plan = Recursive(knows_scan(), Restrictor.ACYCLIC, max_length=4)
    result = evaluate_to_paths(plan, snb_graph)
    assert len(result) > 0


def test_physical_pipeline_on_snb(snb_graph) -> None:
    plan = Recursive(knows_scan(), Restrictor.ACYCLIC, max_length=4)
    result = execute_pipeline(plan, snb_graph)
    assert result == evaluate_to_paths(plan, snb_graph)


def test_composition_report(figure1, snb_graph) -> None:
    """Print result sizes for the composition and extension operators."""
    rows = []

    figure1_query = paper_example_composition(knows_scan(), likes_creator_scan())
    rows.append(
        (
            "figure1",
            "ALL TRAIL [Knows+] · ANY SHORTEST WALK [(L/H)+]  as ALL SHORTEST TRAIL",
            len(evaluate_composition(figure1_query, figure1)),
        )
    )
    trails = Recursive(knows_scan(), Restrictor.TRAIL)
    acyclic = Recursive(knows_scan(), Restrictor.ACYCLIC)
    rows.append(("figure1", "ϕTrail(Knows) ∩ ϕAcyclic(Knows)", len(evaluate_to_paths(Intersection(trails, acyclic), figure1))))
    rows.append(("figure1", "ϕTrail(Knows) ∖ ϕAcyclic(Knows)", len(evaluate_to_paths(Difference(trails, acyclic), figure1))))

    snb_query = compose_concatenation(
        Selector(SelectorKind.ALL_SHORTEST),
        Restrictor.TRAIL,
        QueryStep(Selector(SelectorKind.ANY_SHORTEST), Restrictor.WALK, knows_scan()),
        QueryStep(Selector(SelectorKind.ALL), Restrictor.ACYCLIC, likes_creator_scan(), max_length=4),
    )
    rows.append(
        (
            "ldbc-like (60 persons)",
            "shortest Knows chain · acyclic (Likes/Has_creator)+  as ALL SHORTEST TRAIL",
            len(evaluate_composition(snb_query, snb_graph)),
        )
    )
    print()
    print(
        format_table(
            ["graph", "composition", "|result|"],
            rows,
            title="E-X1 — query composition and beyond-GQL set operators",
        )
    )
    assert all(row[2] >= 0 for row in rows)
