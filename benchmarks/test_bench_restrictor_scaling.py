"""E-S3 — restrictor profile: pruning inside ϕ vs. enumerate-then-filter.

The design decision under test (PERFORMANCE.md, "The closure kernel"): the
production evaluator prunes non-conforming paths *during* the fix point,
while the reference strategy enumerates bounded walks and filters
afterwards.  This experiment runs both strategies for each restrictor on
cyclic graphs, layered DAGs and dense cliques of increasing size, asserts
they agree, and reports how the restrictor choice affects the result size
(the shape the paper's Section 4 discussion predicts: Walk ⊇ Trail ⊇
Acyclic, Shortest smallest).

The clique tier stresses the restrictor *checks* themselves: almost every
frontier extension is rejected, which is exactly the case the closure kernel
turns from an O(path length) re-scan into an O(1) probe.
"""

from __future__ import annotations

import pytest

from repro.baselines.closure import recursive_closure_baseline
from repro.bench.reporting import format_table
from repro.datasets.generators import complete_graph, cycle_graph, layered_graph
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import (
    Restrictor,
    recursive_closure,
    recursive_closure_postfilter,
)

CYCLE_SIZES = (4, 8, 16)
CLIQUE_SIZES = (4, 5, 6)
POSTFILTER_BOUND = 8
RESTRICTORS = (Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE, Restrictor.SHORTEST)


@pytest.fixture(scope="module")
def cycle_bases():
    return {size: PathSet.edges_of(cycle_graph(size)) for size in CYCLE_SIZES}


@pytest.fixture(scope="module")
def clique_bases():
    return {size: PathSet.edges_of(complete_graph(size)) for size in CLIQUE_SIZES}


@pytest.fixture(scope="module")
def dag_base():
    return PathSet.edges_of(layered_graph(layers=5, width=4, fanout=2, seed=3))


@pytest.mark.parametrize("size", CYCLE_SIZES)
@pytest.mark.parametrize("restrictor", RESTRICTORS, ids=[r.value for r in RESTRICTORS])
def test_pruned_closure_on_cycles(cycle_bases, size, restrictor) -> None:
    base = cycle_bases[size]
    result = recursive_closure(base, restrictor)
    assert len(result) > 0


@pytest.mark.parametrize("size", CLIQUE_SIZES)
@pytest.mark.parametrize("restrictor", RESTRICTORS, ids=[r.value for r in RESTRICTORS])
def test_pruned_closure_on_cliques(clique_bases, size, restrictor) -> None:
    """Dense tier: out-degree n-1 everywhere, so restrictor checks dominate.

    The bound ``n - 1`` covers every acyclic/simple path and keeps the Trail
    closure tractable on the larger cliques.
    """
    base = clique_bases[size]
    result = recursive_closure(base, restrictor, size - 1)
    assert len(result) > 0


@pytest.mark.parametrize("restrictor", RESTRICTORS, ids=[r.value for r in RESTRICTORS])
def test_incremental_equals_baseline_on_largest_clique(clique_bases, restrictor) -> None:
    """The incremental engine and the per-round-rebuild baseline agree exactly."""
    size = max(CLIQUE_SIZES)
    base = clique_bases[size]
    assert recursive_closure(base, restrictor, size - 1) == recursive_closure_baseline(
        base, restrictor, size - 1
    )


@pytest.mark.parametrize("restrictor", RESTRICTORS, ids=[r.value for r in RESTRICTORS])
def test_postfilter_closure_on_cycle8(cycle_bases, restrictor) -> None:
    """The enumerate-then-filter strategy pays the walk-closure cost regardless of restrictor."""
    base = cycle_bases[8]
    result = recursive_closure_postfilter(base, restrictor, POSTFILTER_BOUND)
    pruned = recursive_closure(base, restrictor, max_length=POSTFILTER_BOUND)
    assert result == pruned


@pytest.mark.parametrize("restrictor", RESTRICTORS, ids=[r.value for r in RESTRICTORS])
def test_pruned_closure_on_dag(dag_base, restrictor) -> None:
    result = recursive_closure(dag_base, restrictor)
    assert len(result) > 0


def test_restrictor_scaling_report(cycle_bases, dag_base) -> None:
    """Print result sizes per restrictor and graph (the who-wins shape of Section 4)."""
    rows = []
    for size, base in cycle_bases.items():
        counts = {
            restrictor.value: len(recursive_closure(base, restrictor)) for restrictor in RESTRICTORS
        }
        walk_bounded = len(recursive_closure(base, Restrictor.WALK, max_length=size))
        rows.append(
            (
                f"cycle-{size}",
                walk_bounded,
                counts["TRAIL"],
                counts["ACYCLIC"],
                counts["SIMPLE"],
                counts["SHORTEST"],
            )
        )
    dag_counts = {
        restrictor.value: len(recursive_closure(dag_base, restrictor)) for restrictor in RESTRICTORS
    }
    rows.append(
        (
            "layered-DAG(5x4)",
            len(recursive_closure(dag_base, Restrictor.WALK)),
            dag_counts["TRAIL"],
            dag_counts["ACYCLIC"],
            dag_counts["SIMPLE"],
            dag_counts["SHORTEST"],
        )
    )
    print()
    print(
        format_table(
            ["graph", "Walk (bounded)", "Trail", "Acyclic", "Simple", "Shortest"],
            rows,
            title="E-S3 — closure sizes per restrictor",
        )
    )
    for row in rows:
        # Acyclic ⊆ Simple ⊆ Trail and Shortest never exceeds Trail.
        assert row[3] <= row[4] <= row[2]
        assert row[5] <= row[2]
