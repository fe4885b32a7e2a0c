"""Frozen-graph fast path: product BFS over CompactGraph CSR columns.

When the query graph is backed by a current :class:`~repro.graph.compact.
CompactGraph` core, the streaming ϕShortest product search runs int-encoded:
nodes and edges are dense
CSR indexes, NFA state sets are interned to small ints with a memoized
``(state-set, label-code) → state-set`` transition table, and witnesses stay
integer sequences until the moment they decode to :class:`Path` objects for
emission.  Semantics are identical to the object route in
:mod:`repro.engine.automaton.product` — the differential suite pins the two
together — only the representation changes.

SHORTEST is the mode the executor exists for (ROADMAP item 3), so it is the
one with a dedicated int route; the bounded walk/pruned enumerations stay on
the object path even for frozen graphs.
"""

from __future__ import annotations

from typing import Iterator

from repro.execution import QueryBudget
from repro.paths.path import Path
from repro.rpq.ast import Plus, RegexNode
from repro.rpq.automaton import build_nfa

from repro.engine.automaton.product import _PRODUCT_LABEL, _WITNESS_LABEL, _BudgetMeter

__all__ = ["iter_shortest_compact"]


class _InternedNFA:
    """NFA state sets interned to ints, with a memoized step table."""

    __slots__ = ("nfa", "sets", "ids", "steps", "accepting", "compact")

    def __init__(self, regex: RegexNode, compact) -> None:
        self.nfa = build_nfa(Plus(regex))
        self.sets: list[frozenset[int]] = []
        self.ids: dict[frozenset[int], int] = {}
        self.steps: dict[tuple[int, int], int] = {}
        self.accepting: list[bool] = []
        self.compact = compact

    def intern(self, states: frozenset[int]) -> int:
        sid = self.ids.get(states)
        if sid is None:
            sid = self.ids[states] = len(self.sets)
            self.sets.append(states)
            self.accepting.append(self.nfa.is_accepting(states))
        return sid

    def initial(self) -> int:
        return self.intern(self.nfa.initial_states())

    def step(self, sid: int, label_code: int) -> int:
        """Interned id of ``step(sets[sid], label)``; ``-1`` when dead."""
        key = (sid, label_code)
        hit = self.steps.get(key)
        if hit is None:
            moved = self.nfa.step(self.sets[sid], self.compact.label_for_code(label_code))
            hit = self.steps[key] = self.intern(moved) if moved else -1
        return hit


def iter_shortest_compact(
    graph,
    compact,
    regex: RegexNode,
    max_length: int | None,
    budget: QueryBudget | None,
    sources: list[str] | None = None,
) -> Iterator[Path]:
    """Streaming ϕShortest over the CSR core; same algorithm as the object
    route's ``_iter_shortest``, on int product states ``(src, node, sid)``.
    ``sources`` (node ids) restricts where the search starts; ``None`` is every node."""
    infa = _InternedNFA(regex, compact)
    init = infa.initial()
    meter = _BudgetMeter(budget)
    edge_labels = compact._edge_labels
    if sources is None:
        starts = range(compact.node_count())
    else:
        starts = sorted(map(compact._node_index.__getitem__, sources))
    dist: dict[tuple[int, int, int], int] = {}
    preds: dict[tuple[int, int, int], list] = {}
    finalized: set[int] = set()  # packed (source << 32) | target pairs
    frontier: list[tuple[int, int, int]] = []
    for source in starts:
        key = (source, source, init)
        dist[key] = 0
        preds[key] = []
        frontier.append(key)

    nget = compact._node_ids.__getitem__
    eget = compact._edge_ids.__getitem__
    unchecked = Path._unchecked

    def witnesses(key: tuple[int, int, int]) -> Iterator[Path]:
        if dist[key] == 0:
            meter.tick(_WITNESS_LABEL)
            yield Path.from_node(graph, nget(key[1]))
            return
        stack = [(key, (key[1],), ())]
        while stack:
            state, rev_nodes, rev_edges = stack.pop()
            if dist[state] == 0:
                meter.tick(_WITNESS_LABEL)
                yield unchecked(
                    graph,
                    tuple(map(nget, rev_nodes[::-1])),
                    tuple(map(eget, rev_edges[::-1])),
                )
                continue
            for prev, edge_index in preds[state]:
                stack.append((prev, rev_nodes + (prev[1],), rev_edges + (edge_index,)))

    depth = 0
    while frontier:
        meter.checkpoint(_PRODUCT_LABEL, depth=depth)
        ready: dict[int, list[tuple[int, int, int]]] = {}
        for key in frontier:
            if not infa.accepting[key[2]]:
                continue
            pair = (key[0] << 32) | key[1]
            if pair in finalized:
                continue
            ready.setdefault(pair, []).append(key)
        for pair, keys in ready.items():
            finalized.add(pair)
            for key in keys:
                yield from witnesses(key)
        if max_length is not None and depth >= max_length:
            break
        next_frontier: list[tuple[int, int, int]] = []
        next_depth = depth + 1
        step = infa.step
        for key in frontier:
            source, node, sid = key
            edges, targets, start, end = compact.out_slice(node)
            for i in range(start, end):
                edge_index = edges[i]
                moved = step(sid, edge_labels[edge_index])
                if moved < 0:
                    continue
                meter.tick()
                child = (source, targets[i], moved)
                seen = dist.get(child)
                if seen is None:
                    dist[child] = next_depth
                    preds[child] = [(key, edge_index)]
                    next_frontier.append(child)
                elif seen == next_depth:
                    preds[child].append((key, edge_index))
        frontier = next_frontier
        depth = next_depth
    meter.flush()
