"""Traversal-based RPQ evaluation (the classical baseline of Section 8.2).

This is the "extend a graph traversal algorithm with regular-expression
matching" approach: a depth-first search from every start node, tracking the
set of NFA states reached so far, emitting a path whenever the state set is
accepting.  Restrictors are enforced during the traversal by pruning branches
that repeat edges (trail), repeat nodes (acyclic / simple), or exceed a
length bound (walk).

The baseline returns full paths, like the algebra, so results can be compared
path-for-path; the benchmark harness uses it to quantify the constant-factor
gap between a specialized algorithm and the algebraic evaluator
(``benchmarks/test_bench_scaling_baselines.py``, experiment E-S1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.rpq.ast import RegexNode
from repro.rpq.automaton import NFA, build_nfa
from repro.semantics.restrictors import Restrictor, shortest_paths_per_pair

__all__ = ["TraversalOptions", "evaluate_rpq_traversal"]


@dataclass(frozen=True)
class TraversalOptions:
    """Options for the traversal baseline.

    Attributes:
        restrictor: The path semantics to enforce during traversal.
        max_length: Length bound; mandatory for WALK on cyclic graphs.
        sources: Optional subset of start node identifiers (defaults to all).
        targets: Optional subset of end node identifiers (defaults to all).
    """

    restrictor: Restrictor = Restrictor.WALK
    max_length: int | None = None
    sources: tuple[str, ...] | None = None
    targets: tuple[str, ...] | None = None


def evaluate_rpq_traversal(
    graph: PropertyGraph,
    regex: RegexNode | str,
    options: TraversalOptions | None = None,
    budget: QueryBudget | None = None,
) -> PathSet:
    """Evaluate a regular path query by DFS + NFA simulation and return full paths.

    ``budget`` is checked once per traversal root and every few hundred DFS
    expansions, so a deadline interrupts even a single deep exploration.
    """
    options = options or TraversalOptions()
    nfa = build_nfa(regex)

    if options.restrictor in (Restrictor.WALK, Restrictor.SHORTEST) and options.max_length is None:
        raise EvaluationError(
            "the traversal baseline requires max_length under WALK/SHORTEST semantics "
            "(the exploration may be infinite otherwise); use the automaton baseline "
            "for unbounded shortest paths"
        )

    results = PathSet()
    sources = options.sources if options.sources is not None else tuple(graph.node_ids())
    targets = set(options.targets) if options.targets is not None else None

    for source in sources:
        if budget is not None:
            budget.checkpoint("traversal-dfs")
        _traverse_from(graph, nfa, source, options, targets, results, budget)

    if options.restrictor is Restrictor.SHORTEST:
        return shortest_paths_per_pair(results)
    return results


def _traverse_from(
    graph: PropertyGraph,
    nfa: NFA,
    source: str,
    options: TraversalOptions,
    targets: set[str] | None,
    results: PathSet,
    budget: QueryBudget | None = None,
) -> None:
    """DFS from ``source`` carrying the NFA state set along the partial path."""
    max_length = options.max_length
    restrictor = options.restrictor

    initial_states = nfa.initial_states()

    def emit(nodes: list[str], edges: list[str]) -> None:
        if targets is not None and nodes[-1] not in targets:
            return
        results.add(Path(graph, list(nodes), list(edges), validate=False))

    if nfa.matches_empty_word():
        emit([source], [])

    # Iterative DFS over (current node, states, node stack, edge stack).
    stack: list[tuple[str, frozenset[int], tuple[str, ...], tuple[str, ...]]] = [
        (source, initial_states, (source,), ())
    ]
    budgeted = budget is not None
    batch = QueryBudget.CHARGE_BATCH
    pending = 0
    while stack:
        node, states, nodes, edges = stack.pop()
        if budgeted:
            pending += 1
            if pending >= batch:
                budget.note_depth(len(edges))
                budget.charge(pending, "traversal-dfs")
                pending = 0
        if max_length is not None and len(edges) >= max_length:
            continue
        for edge in graph.out_edges(node):
            next_states = nfa.step(states, edge.label)
            if not next_states:
                continue
            if not _admissible(restrictor, nodes, edges, edge.id, edge.target):
                continue
            new_nodes = nodes + (edge.target,)
            new_edges = edges + (edge.id,)
            if nfa.is_accepting(next_states):
                emit(list(new_nodes), list(new_edges))
            stack.append((edge.target, next_states, new_nodes, new_edges))
    if budgeted and pending:
        budget.charge(pending, "traversal-dfs")


def _admissible(
    restrictor: Restrictor,
    nodes: tuple[str, ...],
    edges: tuple[str, ...],
    new_edge: str,
    new_node: str,
) -> bool:
    """Return whether extending the partial path stays within the restrictor."""
    if restrictor is Restrictor.TRAIL:
        return new_edge not in edges
    if restrictor is Restrictor.ACYCLIC:
        return new_node not in nodes
    if restrictor is Restrictor.SIMPLE:
        # The new node may close the cycle onto the very first node, but may
        # not revisit any interior node; a path that already closed the cycle
        # cannot be extended further without repeating its first node.
        already_closed = len(edges) > 0 and nodes[-1] == nodes[0]
        return not already_closed and new_node not in nodes[1:]
    # WALK and SHORTEST explore freely; SHORTEST is filtered afterwards and
    # relies on max_length or acyclicity of the shortest witnesses for
    # termination of the bounded exploration.
    return True
