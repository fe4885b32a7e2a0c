"""ANY SHORTEST as a search: the paths an ``ANY SHORTEST`` query builds, counted.

The paper evaluates a selector as a crown π(*,*,1) τA γST over a *complete*
closure.  The engine recognises that crown over ϕShortest and runs the
closure with a quota of one path per endpoint pair, and it collapses
``ANY SHORTEST TRAIL`` / ``SIMPLE`` over single edges to ϕShortest
(PERFORMANCE.md, "The crown").  These are count assertions on that work:

* on an n×n grid, ``ANY SHORTEST WALK`` has exponentially many shortest
  paths per pair, yet builds at most four paths per row — ``Edges(G)``,
  the label scan, the closure and the projection each count once per path
  they produce, and the closure produces one path per row;
* ``ANY SHORTEST TRAIL`` on the 5-clique (20 edges) returns its 25 rows
  inside a visited-path budget of 1 000.  Enumerating the trails first
  exceeds that budget at depth 3; unbudgeted, it visited over five million
  trails before an 8 s deadline stopped it (ROADMAP item 3).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table
from repro.datasets.generators import complete_graph, grid_graph
from repro.engine.engine import PathQueryEngine
from repro.execution import QueryBudget

KNOWS_PLUS = "(?x)-[Knows]->+(?y)"
GRID_SIZES = (6, 8, 10)
EXECUTORS = ("materialize", "pipeline")


@pytest.mark.parametrize("executor", EXECUTORS)
def test_any_shortest_walk_on_grids_builds_a_few_paths_per_row(executor: str) -> None:
    rows = []
    for size in GRID_SIZES:
        graph = grid_graph(size, size)
        result = PathQueryEngine(graph).query(
            f"MATCH ANY SHORTEST WALK p = {KNOWS_PLUS}", executor=executor
        )
        built = result.statistics.intermediate_paths
        # Pairs (a, b) with b right of and below a, a itself excluded.
        expected_rows = (size * (size + 1) // 2) ** 2 - size * size
        assert len(result.paths) == expected_rows
        assert built <= 4 * len(result.paths), (size, built)
        rows.append((f"grid-{size}", len(result.paths), built))
    print()
    print(format_table(["graph", "rows", "intermediate paths"], rows))


@pytest.mark.parametrize("restrictor", ["TRAIL", "SIMPLE"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_any_shortest_trail_on_the_5_clique_fits_a_small_budget(restrictor: str, executor: str) -> None:
    engine = PathQueryEngine(complete_graph(5))
    result = engine.query(
        f"MATCH ANY SHORTEST {restrictor} p = {KNOWS_PLUS}",
        executor=executor,
        budget=QueryBudget(max_visited=1_000),
    )
    assert len(result.paths) == 25
    assert {path.len() for path in result.paths} == {1, 2}
    assert "walk-to-shortest" in result.applied_rules
