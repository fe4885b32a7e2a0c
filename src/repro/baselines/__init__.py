"""Reference evaluators: classical RPQ baselines (traversal, automaton product,
matrix algebra) and the pre-incremental closure oracle."""

from repro.baselines.automaton_eval import (
    ProductSearchResult,
    evaluate_rpq_pairs,
    evaluate_rpq_shortest_witnesses,
)
from repro.baselines.closure import recursive_closure_baseline
from repro.baselines.matrix import MatrixRPQEvaluator, evaluate_rpq_matrix
from repro.baselines.traversal import TraversalOptions, evaluate_rpq_traversal

__all__ = [
    "TraversalOptions",
    "evaluate_rpq_traversal",
    "ProductSearchResult",
    "evaluate_rpq_pairs",
    "evaluate_rpq_shortest_witnesses",
    "MatrixRPQEvaluator",
    "evaluate_rpq_matrix",
    "recursive_closure_baseline",
]
