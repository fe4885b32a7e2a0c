"""E-S1 — scaling: the algebra evaluator vs. classical RPQ algorithms.

The paper has no performance study; this added experiment checks the
contrast its Section 8 discussion draws: specialized algorithms (traversal
with NFA simulation, automaton product BFS, boolean matrix closure) answer
reachability pairs, while the algebraic evaluator returns full paths and
composes with the rest of the algebra.  Each test evaluates the same
``Knows+`` query under ACYCLIC semantics on random graphs of increasing size;
agreement between approaches is asserted.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_to_paths
from repro.baselines.automaton_eval import evaluate_rpq_pairs
from repro.baselines.matrix import MatrixRPQEvaluator
from repro.baselines.traversal import TraversalOptions, evaluate_rpq_traversal
from repro.bench.reporting import format_table
from repro.datasets.generators import random_graph
from repro.rpq.compile import CompileOptions, compile_regex
from repro.semantics.restrictors import Restrictor

REGEX = "Knows+"
SIZES = (50, 100, 200)


def _graph(size: int):
    return random_graph(size, int(1.5 * size), labels=("Knows", "Likes"), seed=13, name=f"rand{size}")


@pytest.fixture(scope="module")
def graphs():
    return {size: _graph(size) for size in SIZES}


@pytest.mark.parametrize("size", SIZES)
def test_scaling_algebra(graphs, size) -> None:
    graph = graphs[size]
    plan = compile_regex(REGEX, CompileOptions(restrictor=Restrictor.ACYCLIC))
    result = evaluate_to_paths(plan, graph)
    assert len(result) > 0


@pytest.mark.parametrize("size", SIZES)
def test_scaling_traversal_baseline(graphs, size) -> None:
    graph = graphs[size]
    result = evaluate_rpq_traversal(graph, REGEX, TraversalOptions(restrictor=Restrictor.ACYCLIC))
    plan = compile_regex(REGEX, CompileOptions(restrictor=Restrictor.ACYCLIC))
    assert result == evaluate_to_paths(plan, graph)


@pytest.mark.parametrize("size", SIZES)
def test_scaling_automaton_baseline(graphs, size) -> None:
    graph = graphs[size]
    result = evaluate_rpq_pairs(graph, REGEX)
    assert len(result.pairs) > 0


@pytest.mark.parametrize("size", SIZES)
def test_scaling_matrix_baseline(graphs, size) -> None:
    graph = graphs[size]
    evaluator = MatrixRPQEvaluator(graph)
    pairs = evaluator.pairs(REGEX)
    assert pairs == evaluate_rpq_pairs(graph, REGEX).pairs


def test_scaling_report(graphs) -> None:
    """Print result sizes per approach and graph size (pairs vs. full paths)."""
    rows = []
    for size, graph in graphs.items():
        plan = compile_regex(REGEX, CompileOptions(restrictor=Restrictor.ACYCLIC))
        paths = evaluate_to_paths(plan, graph)
        pairs = evaluate_rpq_pairs(graph, REGEX).pairs
        rows.append((size, graph.num_edges(), len(paths), len(pairs)))
    print()
    print(
        format_table(
            ["nodes", "edges", "acyclic Knows+ paths (algebra)", "reachable pairs (baselines)"],
            rows,
            title="E-S1 — workload sizes for the algebra vs. baseline scaling experiment",
        )
    )
    # Full path enumeration returns at least as many results as pair reachability.
    for row in rows:
        assert row[2] >= row[3]
