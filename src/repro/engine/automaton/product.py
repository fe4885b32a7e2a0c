"""Lazy product-graph search over ``graph × NFA`` (object-path route).

Evaluates the shapes recognized by :mod:`repro.engine.automaton.decompile`
directly on the product of the property graph with the Thompson NFA of the
decompiled regex, instead of composing materialized path sets:

* ``"walks"`` — depth-first enumeration of all walks whose label word the
  (star-free) regex accepts; the regex's maximum word length bounds the
  search, so no closure machinery is needed.
* ``"closure"`` under ϕWalk / ϕTrail / ϕAcyclic / ϕSimple — the same
  enumeration against *two* NFAs tracked jointly: ``NFA(R+)`` (compositions,
  bounded by ``max_length``) and ``NFA(R)`` (single base segments, which the
  closure includes regardless of the bound).  Restrictor predicates prune
  edge-by-edge: every prefix of a trail is a trail, every prefix of an
  acyclic path is acyclic, and a simple path is an acyclic prefix that may
  close on its first node once.
* ``"closure"`` under ϕShortest — a *level-synchronized* BFS across all
  sources at once over ``NFA(R+)``.  Every product state stores all its
  predecessors at the previous level, so when level ``d`` completes, each
  endpoint pair first reached at distance ``d`` is final and **all** of its
  minimal witnesses are emitted immediately — this is what makes SHORTEST
  stream instead of blocking on the whole closure.

Each walk corresponds to exactly one determinized product trace, so the
enumeration is duplicate-free by construction and the results feed
``PathSet.from_unique`` directly.

Every generator charges the :class:`~repro.execution.QueryBudget` in
``CHARGE_BATCH`` steps with per-level checkpoints, so budget kills carry
partial progress exactly like the closure strategies do.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.automaton.decompile import AutomatonPlan
from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.rpq.ast import Plus, RegexNode
from repro.rpq.automaton import NFA, build_nfa
from repro.semantics.restrictors import Restrictor

__all__ = ["iter_product_plan"]

#: Budget labels for the product search (mirrors the ϕ-closure conventions).
_PRODUCT_LABEL = "automaton-product"
_WITNESS_LABEL = "automaton-witness"


class _BudgetMeter:
    """Batched charge helper shared by every product-search loop."""

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
    if spec.kind == "walks":
        yield from _iter_walks(graph, sources, spec.regex, spec.max_length, budget)
        return
    if spec.kind == "closure_with_nodes":
        # The R* compile shape unions NodesScan *after* the closure, so every
        # node path joins the result unconditionally; emit them first (they
        # are free) and suppress the closure's own zero-length duplicates.
        zero_emitted = set()
        for node_id in graph.node_ids():
            zero_emitted.add(node_id)
            yield Path.from_node(graph, node_id)
        for path in _iter_closure(graph, sources, spec, budget):
            if path.len() == 0 and path.first() in zero_emitted:
                continue
            yield path
        return
    yield from _iter_closure(graph, sources, spec, budget)


def _iter_closure(
    graph: PropertyGraph, sources: list[str], spec: AutomatonPlan, budget: QueryBudget | None
) -> Iterator[Path]:
    if spec.restrictor is Restrictor.SHORTEST:
        yield from _iter_shortest(graph, sources, spec.regex, spec.max_length, budget)
    else:
        yield from _iter_restricted_closure(
            graph, sources, spec.regex, spec.restrictor, spec.max_length, budget
        )


def _iter_walks(
    graph: PropertyGraph,
    sources: list[str],
    regex: RegexNode,
    depth_cap: int | None,
    budget: QueryBudget | None,
) -> Iterator[Path]:
    """All walks whose label word is accepted by a star-free ``regex``."""
    nfa = _CachedNFA(build_nfa(regex))
    init = nfa.initial()
    adj = _adjacency(graph)
    meter = _BudgetMeter(budget)
    cap = depth_cap if depth_cap is not None else 0
    for source in sources:
        meter.checkpoint(_PRODUCT_LABEL)
        if nfa.accepts(init):
            meter.tick()
            yield Path.from_node(graph, source)
        stack = [(source, init, (source,), ())]
        while stack:
            node, states, nodes, edges = stack.pop()
            if len(edges) >= cap:
                continue
            for label, edge_id, target in adj[node]:
                moved = nfa.step(states, label)
                if not moved:
                    continue
                meter.tick()
                child = (target, moved, nodes + (target,), edges + (edge_id,))
                if nfa.accepts(moved):
                    yield Path._unchecked(graph, child[2], child[3])
                stack.append(child)
    meter.flush()


def _iter_restricted_closure(
    graph: PropertyGraph,
    sources: list[str],
    regex: RegexNode,
    restrictor: Restrictor,
    max_length: int | None,
    budget: QueryBudget | None,
) -> Iterator[Path]:
    """ϕWalk/ϕTrail/ϕAcyclic/ϕSimple closure of the base set ``L(regex)``.

    Tracks two NFA state sets per product state: ``plus`` over ``L(R+)`` for
    compositions (live only while the bound permits another emission) and
    ``base`` over ``L(R)`` for single segments, which the closure admits at
    any length — the star-free base automaton dies out on its own.  A path is
    emitted when either automaton accepts it within its regime.
    """
    nfa_plus = _CachedNFA(build_nfa(Plus(regex)))
    nfa_base = _CachedNFA(build_nfa(regex))
    init_plus = nfa_plus.initial()
    init_base = nfa_base.initial()
    adj = _adjacency(graph)
    empty: frozenset[int] = frozenset()
    bound = max_length  # None means unbounded compositions (pruned modes only)
    trail = restrictor is Restrictor.TRAIL
    acyclic = restrictor is Restrictor.ACYCLIC
    simple = restrictor is Restrictor.SIMPLE
    meter = _BudgetMeter(budget)
    for source in sources:
        meter.checkpoint(_PRODUCT_LABEL)
        if nfa_base.accepts(init_base) or (
            nfa_plus.accepts(init_plus) and (bound is None or bound >= 0)
        ):
            meter.tick()
            yield Path.from_node(graph, source)
        visited = frozenset((source,)) if (acyclic or simple) else frozenset()
        # entry: (node, plus states, base states, nodes, edges, visited, closed)
        stack = [(source, init_plus, init_base, (source,), (), visited, False)]
        while stack:
            node, plus, base, nodes, edges, visited, closed = stack.pop()
            if closed:
                # A closed simple path (first == last) cannot be extended:
                # any further node would revisit the shared endpoint.
                continue
            length = len(edges)
            plus_alive = plus and (bound is None or length < bound)
            for label, edge_id, target in adj[node]:
                if trail:
                    if edge_id in visited:
                        continue
                    child_visited = visited | {edge_id}
                    child_closed = False
                elif acyclic:
                    if target in visited:
                        continue
                    child_visited = visited | {target}
                    child_closed = False
                elif simple:
                    if target in visited and target != nodes[0]:
                        continue
                    child_closed = target == nodes[0]
                    child_visited = visited if child_closed else visited | {target}
                else:
                    child_visited = visited
                    child_closed = False
                next_plus = nfa_plus.step(plus, label) if plus_alive else empty
                next_base = nfa_base.step(base, label) if base else empty
                if not next_plus and not next_base:
                    continue
                meter.tick()
                child_nodes = nodes + (target,)
                child_edges = edges + (edge_id,)
                if nfa_base.accepts(next_base) or (
                    nfa_plus.accepts(next_plus)
                    and (bound is None or len(child_edges) <= bound)
                ):
                    yield Path._unchecked(graph, child_nodes, child_edges)
                stack.append(
                    (
                        target,
                        next_plus,
                        next_base,
                        child_nodes,
                        child_edges,
                        child_visited,
                        child_closed,
                    )
                )
    meter.flush()


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
    stack = [(key, (key[1],), ())]
    while stack:
        state, rev_nodes, rev_edges = stack.pop()
        if dist[state] == 0:
            meter.tick(_WITNESS_LABEL)
            yield Path._unchecked(graph, rev_nodes[::-1], rev_edges[::-1])
            continue
        for prev, edge_id in preds[state]:
            stack.append((prev, rev_nodes + (prev[1],), rev_edges + (edge_id,)))
