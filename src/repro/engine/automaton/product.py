"""Streaming ϕShortest as a search over ``graph × NFA(R+)``.

The one product walker of the automaton executor.  A classified plan
(:mod:`repro.engine.automaton.decompile`) is a ϕShortest closure over a base
regex ``R``; instead of running the closure kernel over the base paths, this
module runs a *level-synchronized* BFS across all sources at once over product
states ``(source, node, NFA(R+) state set)``.  Every product state stores all
its predecessors at the previous level, so when level ``d`` completes, each
endpoint pair first reached at distance ``d`` is final and **all** of its
minimal witnesses are emitted immediately — the stream yields rows before
deeper levels are explored.

Nodes and edges are the graph's own ids and adjacency is read through
``graph.out_edges``, so mutable, frozen and snapshot-pinned graphs run this
same code.  Each walk corresponds to exactly one determinized product trace,
so the enumeration is duplicate-free by construction and the results feed
``PathSet.from_unique`` directly.

The search charges the :class:`~repro.execution.QueryBudget` in
``CHARGE_BATCH`` steps with per-level checkpoints, so budget kills carry
partial progress exactly like the closure kernel does.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.automaton.decompile import AutomatonPlan
from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.rpq.ast import Plus, RegexNode
from repro.rpq.automaton import NFA, build_nfa

__all__ = ["iter_product_plan"]

#: Budget labels for the product search (mirrors the ϕ-closure conventions).
_PRODUCT_LABEL = "automaton-product"
_WITNESS_LABEL = "automaton-witness"


class _BudgetMeter:
    """Batched charge helper for the search loop and the witness enumeration."""

    __slots__ = ("budget", "pending", "batch")

    def __init__(self, budget: QueryBudget | None) -> None:
        self.budget = budget
        self.pending = 0
        self.batch = QueryBudget.CHARGE_BATCH

    def tick(self, label: str = _PRODUCT_LABEL) -> None:
        if self.budget is None:
            return
        self.pending += 1
        if self.pending >= self.batch:
            self.budget.charge(self.pending, label)
            self.pending = 0

    def checkpoint(self, label: str, depth: int | None = None) -> None:
        if self.budget is None:
            return
        if self.pending:
            self.budget.charge(self.pending, label)
            self.pending = 0
        if depth is not None:
            self.budget.note_depth(depth)
        self.budget.checkpoint(label, depth=depth)

    def flush(self, label: str = _PRODUCT_LABEL) -> None:
        if self.budget is not None and self.pending:
            self.budget.charge(self.pending, label)
            self.pending = 0


class _CachedNFA:
    """Memoizes ``step`` and ``is_accepting`` over determinized state sets.

    The product search revisits the same (state set, label) transition once
    per *graph* edge, but only a handful of distinct determinized sets ever
    arise — caching turns the per-edge epsilon closures into dict lookups.
    """

    __slots__ = ("nfa", "steps", "accepting")

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa
        self.steps: dict[tuple[frozenset, str | None], frozenset] = {}
        self.accepting: dict[frozenset, bool] = {}

    def initial(self) -> frozenset:
        return self.nfa.initial_states()

    def step(self, states: frozenset, label: str | None) -> frozenset:
        key = (states, label)
        hit = self.steps.get(key)
        if hit is None:
            hit = self.steps[key] = self.nfa.step(states, label)
        return hit

    def accepts(self, states: frozenset) -> bool:
        hit = self.accepting.get(states)
        if hit is None:
            hit = self.accepting[states] = self.nfa.is_accepting(states)
        return hit


def _adjacency(graph: PropertyGraph) -> dict[str, tuple[tuple[str | None, str, str], ...]]:
    """Per-node ``(label, edge id, target)`` triples, fetched once per search."""
    return {
        node_id: tuple(
            (edge.label, edge.id, edge.target) for edge in graph.out_edges(node_id)
        )
        for node_id in graph.node_ids()
    }


def iter_product_plan(
    graph: PropertyGraph, spec: AutomatonPlan, budget: QueryBudget | None = None
) -> Iterator[Path]:
    """Stream the result paths of a classified plan shape."""
    sources = spec.source_nodes(graph)
    if spec.kind == "closure_with_nodes":
        # The R* compile shape unions NodesScan *after* the closure, so every
        # node path joins the result unconditionally; emit them first (they
        # are free) and suppress the closure's own zero-length duplicates.
        zero_emitted = set()
        for node_id in graph.node_ids():
            zero_emitted.add(node_id)
            yield Path.from_node(graph, node_id)
        for path in _iter_shortest(graph, sources, spec.regex, spec.max_length, budget):
            if path.len() == 0 and path.first() in zero_emitted:
                continue
            yield path
        return
    yield from _iter_shortest(graph, sources, spec.regex, spec.max_length, budget)


def _iter_shortest(
    graph: PropertyGraph,
    sources: list[str],
    regex: RegexNode,
    max_length: int | None,
    budget: QueryBudget | None,
) -> Iterator[Path]:
    """Streaming ϕShortest: all minimal witnesses per endpoint pair.

    Level-synchronized BFS over ``(source, node, states)`` product states for
    every source simultaneously.  ``preds`` stores *all* incoming
    ``(predecessor state, edge)`` arcs at ``distance - 1``, forming a DAG
    whose source-to-state traces are exactly the minimal walks; once a level
    is fully expanded, every pair first reached in it is final and its
    witnesses are yielded before deeper levels are explored.
    """
    nfa = _CachedNFA(build_nfa(Plus(regex)))
    init = nfa.initial()
    adj = _adjacency(graph)
    meter = _BudgetMeter(budget)
    dist: dict[tuple, int] = {}
    preds: dict[tuple, list] = {}
    finalized: set[tuple[str, str]] = set()
    frontier: list[tuple] = []
    for source in sources:
        key = (source, source, init)
        dist[key] = 0
        preds[key] = []
        frontier.append(key)
    accepts = nfa.accepts

    depth = 0
    while frontier:
        meter.checkpoint(_PRODUCT_LABEL, depth=depth)
        # Finalize pairs whose first accepting state appears in this level.
        ready: dict[tuple[str, str], list[tuple]] = {}
        for key in frontier:
            if not accepts(key[2]):
                continue
            pair = (key[0], key[1])
            if pair in finalized:
                continue
            ready.setdefault(pair, []).append(key)
        for pair, keys in ready.items():
            finalized.add(pair)
            for key in keys:
                yield from _witness_paths(graph, key, dist, preds, meter)
        if max_length is not None and depth >= max_length:
            break
        next_frontier: list[tuple] = []
        next_depth = depth + 1
        step = nfa.step
        for key in frontier:
            source, node, states = key
            for label, edge_id, target in adj[node]:
                moved = step(states, label)
                if not moved:
                    continue
                meter.tick()
                child = (source, target, moved)
                seen = dist.get(child)
                if seen is None:
                    dist[child] = next_depth
                    preds[child] = [(key, edge_id)]
                    next_frontier.append(child)
                elif seen == next_depth:
                    preds[child].append((key, edge_id))
                # seen < next_depth: already reached strictly earlier — any
                # walk through this arc is non-minimal, drop it.
        frontier = next_frontier
        depth = next_depth
    meter.flush()


def _witness_paths(
    graph: PropertyGraph,
    key: tuple,
    dist: dict[tuple, int],
    preds: dict[tuple, list],
    meter: _BudgetMeter,
) -> Iterator[Path]:
    """Enumerate every minimal walk ending in product state ``key``."""
    if dist[key] == 0:
        meter.tick(_WITNESS_LABEL)
        yield Path.from_node(graph, key[1])
        return
    # Backward DFS over the predecessor DAG; suffixes accumulate reversed.
    stack = [(key, (key[1],))]
    while stack:
        state, rev_seq = stack.pop()
        if dist[state] == 0:
            meter.tick(_WITNESS_LABEL)
            yield Path._unchecked(graph, rev_seq[::-1])
            continue
        for prev, edge_id in preds[state]:
            stack.append((prev, rev_seq + (edge_id, prev[1])))
