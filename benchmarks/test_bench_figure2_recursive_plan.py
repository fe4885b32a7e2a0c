"""E-F2 — Figure 2: the recursive plan of the introduction's Moe-to-Apu query.

Regenerates Figure 2: the algebraic plan
``σ[first.name='Moe' ∧ last.name='Apu']( ϕ(Knows) ∪ ϕ(Likes ⋈ Has_creator) )``
is built exactly as drawn, evaluated under ϕSimple (the paper explains that
the default ϕWalk does not terminate on this cyclic graph), and the result is
checked against the two simple paths the introduction quotes, both through
the GQL front end and through a hand-built plan.
"""

from __future__ import annotations

from repro.algebra.conditions import label_of_edge, prop_of_first, prop_of_last
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import EdgesScan, Join, Recursive, Selection, Union
from repro.bench.reporting import format_table
from repro.engine.engine import PathQueryEngine
from repro.errors import NonTerminatingQueryError
from repro.semantics.restrictors import Restrictor

INTRO_QUERY = (
    'MATCH ALL SIMPLE p = (?x {name: "Moe"})-[(:Knows+)|((:Likes/:Has_creator)+)]->'
    '(?y {name: "Apu"})'
)

EXPECTED_PATHS = {
    ("n1", "e1", "n2", "e4", "n4"),
    ("n1", "e8", "n6", "e11", "n3", "e7", "n7", "e10", "n4"),
}


def figure2_plan(restrictor: Restrictor) -> Selection:
    knows = Selection(label_of_edge(1, "Knows"), EdgesScan())
    likes = Selection(label_of_edge(1, "Likes"), EdgesScan())
    creator = Selection(label_of_edge(1, "Has_creator"), EdgesScan())
    return Selection(
        prop_of_first("name", "Moe") & prop_of_last("name", "Apu"),
        Union(
            Recursive(knows, restrictor),
            Recursive(Join(likes, creator), restrictor),
        ),
    )


def test_figure2_hand_built_plan(figure1) -> None:
    plan = figure2_plan(Restrictor.SIMPLE)
    result = evaluate_to_paths(plan, figure1)
    assert {path.interleaved() for path in result} == EXPECTED_PATHS


def test_figure2_through_gql_front_end(figure1) -> None:
    # Plan caching is disabled so the query runs the full
    # parse/plan/optimize/execute path.
    engine = PathQueryEngine(figure1, plan_cache_size=0)
    result = engine.query(INTRO_QUERY)
    assert {path.interleaved() for path in result.paths} == EXPECTED_PATHS


def test_figure2_walk_semantics_does_not_terminate(figure1) -> None:
    """The paper's point: under arbitrary (WALK) semantics the query has infinite answers."""
    plan = figure2_plan(Restrictor.WALK)
    try:
        evaluate_to_paths(plan, figure1)
        raise AssertionError("unbounded ϕWalk over the cyclic Figure 1 graph must be rejected")
    except NonTerminatingQueryError:
        pass


def test_figure2_report(figure1) -> None:
    """Print the Figure 2 reproduction: restrictor choice vs. result."""
    rows = []
    for restrictor in (Restrictor.SIMPLE, Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SHORTEST):
        result = evaluate_to_paths(figure2_plan(restrictor), figure1)
        rows.append((f"ϕ{restrictor.value.title()}", len(result), "; ".join(str(p) for p in result.sorted())))
    print()
    print(
        format_table(
            ["Recursive operator", "|paths Moe→Apu|", "paths"],
            rows,
            title="Figure 2 — the introduction's query under different ϕ variants",
        )
    )
    simple_paths = evaluate_to_paths(figure2_plan(Restrictor.SIMPLE), figure1)
    assert {p.interleaved() for p in simple_paths} == EXPECTED_PATHS
