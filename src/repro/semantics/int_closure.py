"""Int-encoded closure strategies over a frozen :class:`CompactGraph`.

These are the columnar twins of the fix-point strategies in
:mod:`repro.semantics.restrictors`.  When :func:`recursive_closure` (or its
streaming twin) detects a current compact core behind the query's graph view,
it encodes the base into interleaved int sequences (:mod:`repro.paths.intpath`)
and runs the closure here: every frontier scan, visited-set probe, candidate
hash and concat operates on small int tuples instead of string-tuple-backed
``Path`` objects.  Results decode back into ``Path`` objects only at the end.

**Byte-identical by construction.**  Each strategy below mirrors its object
twin decision for decision: the same frontier iteration order, the same
per-bucket extension order (:class:`~repro.paths.join_index.IntJoinIndex`
buckets in base order exactly like ``JoinIndex``), the same seen-set usage
(membership only — never iterated, so hash order cannot leak into results),
the same heap tie-breakers, and the same budget labels / charge / checkpoint
sites (``"ϕWalk"``, ``"ϕTrail"``, …, ``"ϕShortest"``), so even a
budget-killed closure reports identical partial progress.  The pruned
closures differ from the object twins in *representation* only: visited
sets are bitmasks over the dense indexes, so a conformance probe is one
``&`` and the extended state one ``|`` (see
``IntJoinIndex.mask_annotated``) — accepting and rejecting exactly the
candidates ``extend_trail_state`` / ``extend_acyclic_state`` /
``extend_simple_state`` would.  The frozen-vs-
mutable differential sweep in ``tests/test_compact.py`` holds this to the
letter over the 50-graph corpus.

A seeded closure (``seeds=``, see ``recursive_closure``) encodes the seeds as
well and starts each kernel from them; the ``IntJoinIndex``, ϕWalk's
termination bound and ϕShortest's base domination stay over the whole base,
exactly as in the object twins.

The one deliberate asymmetry: ``_iter_closure_walk``'s object twin seeds its
frontier with ``list(set(base))`` — a hash-ordered list.  The int mirror
replays that exact object-set ordering (the ``Path`` hashes involved are the
same either way) before switching to int sequences, because an int-keyed set
would order differently and leak into the round-1 production order.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Iterator

from repro.errors import NonTerminatingQueryError
from repro.execution import QueryBudget
from repro.graph.compact import CompactGraph
from repro.paths.intpath import encode_base
from repro.paths.join_index import IntJoinIndex
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = ["int_recursive_closure", "int_iter_recursive_closure"]

_BUDGET_BATCH = QueryBudget.CHARGE_BATCH

_NON_TERMINATING = (
    "ϕWalk does not terminate on this input (cycle detected); "
    "provide max_length or use a restricted ϕ variant"
)


# ----------------------------------------------------------------------
# Int-level restrictor predicates (same semantics as paths.predicates)
# ----------------------------------------------------------------------
def _seq_is_trail(seq: tuple[int, ...]) -> bool:
    edges = seq[1::2]
    return len(set(edges)) == len(edges)


def _seq_is_acyclic(seq: tuple[int, ...]) -> bool:
    nodes = seq[::2]
    return len(set(nodes)) == len(nodes)


def _seq_is_simple(seq: tuple[int, ...]) -> bool:
    nodes = seq[::2]
    if len(nodes) <= 1:
        return True
    interior = nodes[:-1]
    if len(set(interior)) != len(interior):
        return False
    return nodes[-1] not in nodes[1:-1]


_SEQ_PREDICATES = {
    "TRAIL": _seq_is_trail,
    "ACYCLIC": _seq_is_acyclic,
    "SIMPLE": _seq_is_simple,
}


def _decode_all(compact: CompactGraph, graph, seqs) -> PathSet:
    # Hot path: one result Path per surviving sequence.  ``map`` over the
    # bound ``__getitem__`` keeps the id translation in C; the genexpr
    # equivalent costs one frame per element and shows up at ~45 % of the
    # closure's total wall-clock on dense result sets.
    nget = compact._node_ids.__getitem__
    eget = compact._edge_ids.__getitem__
    unchecked = Path._unchecked
    return PathSet.from_unique(
        unchecked(graph, tuple(map(nget, seq[::2])), tuple(map(eget, seq[1::2])))
        for seq in seqs
    )


def _decode_one(compact: CompactGraph, graph, seq) -> Path:
    return Path._unchecked(
        graph,
        tuple(map(compact._node_ids.__getitem__, seq[::2])),
        tuple(map(compact._edge_ids.__getitem__, seq[1::2])),
    )


# ----------------------------------------------------------------------
# Entry points (called from recursive_closure / iter_recursive_closure)
# ----------------------------------------------------------------------
def int_recursive_closure(
    compact: CompactGraph,
    base: PathSet,
    restrictor,
    max_length: int | None,
    budget: QueryBudget | None,
    seeds: PathSet | None = None,
) -> PathSet | None:
    """Int-encoded ``ϕ_restrictor(base)``; ``None`` if the base cannot be
    encoded against ``compact`` (the caller then runs the object strategy).

    ``base`` must be non-empty (the dispatcher guarantees it).  ``seeds`` as
    in :func:`~repro.semantics.restrictors.recursive_closure`: the kernels
    start from the encoded seeds, the ``IntJoinIndex`` stays over the base."""
    seqs = encode_base(compact, base)
    origin = seqs if seeds is None else encode_base(compact, seeds)
    if seqs is None or origin is None:
        return None
    graph = next(iter(base)).graph
    name = restrictor.value
    if name == "SHORTEST":
        result = _int_shortest(seqs, origin, max_length, budget)
    elif name == "WALK":
        result = _int_walk(seqs, origin, max_length, budget)
    else:
        result = _int_pruned(seqs, origin, name, max_length, budget)
    return _decode_all(compact, graph, result)


def int_iter_recursive_closure(
    compact: CompactGraph,
    base: PathSet,
    restrictor,
    max_length: int | None,
    budget: QueryBudget | None,
    seeds: PathSet | None = None,
) -> Iterator[Path] | None:
    """Streaming twin of :func:`int_recursive_closure` (``None`` on encode
    failure, decided eagerly so the caller can fall back before iterating)."""
    seqs = encode_base(compact, base)
    origin = base if seeds is None else seeds
    origin_seqs = seqs if seeds is None else encode_base(compact, seeds)
    if seqs is None or origin_seqs is None:
        return None
    graph = next(iter(base)).graph
    name = restrictor.value
    if name == "SHORTEST":
        return _int_iter_shortest(compact, graph, seqs, origin_seqs, max_length, budget)
    if name == "WALK":
        return _int_iter_walk(compact, graph, base, origin, seqs, max_length, budget)
    return _int_iter_pruned(compact, graph, origin, origin_seqs, seqs, name, max_length, budget)


# ----------------------------------------------------------------------
# Walk closure (mirror of _closure_walk)
# ----------------------------------------------------------------------
def _int_walk(
    seqs: list[tuple[int, ...]],
    origin: list[tuple[int, ...]],
    max_length: int | None,
    budget: QueryBudget | None,
) -> list[tuple[int, ...]]:
    distinct_edges = {e for seq in seqs for e in seq[1::2]}
    termination_bound = len(distinct_edges)

    bound = max_length if max_length is not None else termination_bound
    guard = max_length is None
    buckets = IntJoinIndex(seqs).annotated("none")
    bucket_of = buckets.get
    budgeted = budget is not None
    batch = _BUDGET_BATCH
    depth = 0

    result_seqs = list(origin)
    seen = set(result_seqs)
    frontier = list(result_seqs)
    while frontier:
        produced: list[tuple[int, ...]] = []
        if budgeted:
            depth += 1
            budget.checkpoint("ϕWalk", depth=depth)
            split = len(frontier) > batch
        else:
            split = False
        charged = 0
        for start in range(0, len(frontier), batch) if split else (0,):
            chunk = frontier[start : start + batch] if split else frontier
            for seq in chunk:
                extensions = bucket_of(seq[-1])
                if not extensions:
                    continue
                length = len(seq) // 2
                for ext_len, _, tail in extensions:
                    if length + ext_len > bound:
                        if guard:
                            raise NonTerminatingQueryError(_NON_TERMINATING)
                        continue
                    joined = seq + tail
                    known = len(seen)
                    seen.add(joined)
                    if len(seen) != known:
                        result_seqs.append(joined)
                        produced.append(joined)
            if budgeted:
                if len(produced) > charged:
                    budget.charge(len(produced) - charged, "ϕWalk")
                    charged = len(produced)
                budget.checkpoint("ϕWalk")
        frontier = produced
    return result_seqs


# ----------------------------------------------------------------------
# Pruned closures (mirror of _closure_pruned)
# ----------------------------------------------------------------------
def _mask_of(ids) -> int:
    """Bitmask over dense int ids (bit ``i`` ⇔ id ``i``)."""
    mask = 0
    for index in ids:
        mask |= 1 << index
    return mask


def _int_pruned(
    seqs: list[tuple[int, ...]],
    origin: list[tuple[int, ...]],
    name: str,
    max_length: int | None,
    budget: QueryBudget | None,
) -> list[tuple[int, ...]]:
    predicate = _SEQ_PREDICATES[name]
    conforming = [seq for seq in origin if predicate(seq)]
    if not conforming:
        return conforming

    # Visited sets are bitmasks over the dense indexes (see
    # IntJoinIndex.mask_annotated): a rejected candidate costs one ``&``, an
    # accepted one a single ``|`` — no per-candidate set copy.  The
    # accept/reject decisions are exactly those of extend_trail_state /
    # extend_acyclic_state / extend_simple_state, so production order and
    # budget accounting stay byte-identical to the object closures.
    simple = name == "SIMPLE"
    bound = max_length if max_length is not None else float("inf")
    index = IntJoinIndex(seqs)
    if name == "TRAIL":
        buckets = index.mask_annotated("edges")
        frontier = [(seq, _mask_of(seq[1::2])) for seq in conforming]
    elif simple:
        buckets = index.mask_annotated("simple")
        frontier = [(seq, _mask_of(seq[::2])) for seq in conforming]
    else:
        buckets = index.mask_annotated("tail_nodes")
        frontier = [(seq, _mask_of(seq[::2])) for seq in conforming]

    bucket_of = buckets.get
    budgeted = budget is not None
    label = f"ϕ{name.capitalize()}" if budgeted else ""
    batch = _BUDGET_BATCH
    depth = 0

    result_seqs = list(conforming)
    seen = set(result_seqs)
    while frontier:
        produced: list[tuple[tuple[int, ...], int]] = []
        if budgeted:
            depth += 1
            budget.checkpoint(label, depth=depth)
            split = len(frontier) > batch
        else:
            split = False
        charged = 0
        for start in range(0, len(frontier), batch) if split else (0,):
            chunk = frontier[start : start + batch] if split else frontier
            for seq, visited in chunk:
                extensions = bucket_of(seq[-1])
                if not extensions:
                    continue
                length = len(seq) // 2
                if simple:
                    first = seq[0]
                    closed = length > 0 and first == seq[-1]
                    for ext_len, prefix_mask, distinct, last_bit, last_node, tail in extensions:
                        if length + ext_len > bound:
                            continue
                        if closed or not distinct or visited & prefix_mask:
                            continue
                        if last_node == first:
                            extended = visited | prefix_mask
                        else:
                            extended = visited | prefix_mask
                            if extended & last_bit:
                                continue
                            extended |= last_bit
                        joined = seq + tail
                        known = len(seen)
                        seen.add(joined)
                        if len(seen) != known:
                            result_seqs.append(joined)
                            produced.append((joined, extended))
                else:
                    for ext_len, ext_mask, distinct, tail in extensions:
                        if length + ext_len > bound:
                            continue
                        if not distinct or visited & ext_mask:
                            continue
                        joined = seq + tail
                        known = len(seen)
                        seen.add(joined)
                        if len(seen) != known:
                            result_seqs.append(joined)
                            produced.append((joined, visited | ext_mask))
            if budgeted:
                if len(produced) > charged:
                    budget.charge(len(produced) - charged, label)
                    charged = len(produced)
                budget.checkpoint(label)
        frontier = produced
    return result_seqs


# ----------------------------------------------------------------------
# Shortest closure (mirror of _closure_shortest)
# ----------------------------------------------------------------------
def _int_shortest(
    seqs: list[tuple[int, ...]],
    origin: list[tuple[int, ...]],
    max_length: int | None,
    budget: QueryBudget | None,
) -> list[tuple[int, ...]]:
    best_base: dict[tuple[int, int], int] = {}
    for seq in seqs:
        length = len(seq) // 2
        if max_length is not None and length > max_length:
            continue
        key = (seq[0], seq[-1])
        known = best_base.get(key)
        if known is None or length < known:
            best_base[key] = length

    best: dict[tuple[int, int], int] = {}
    result_seqs: list[tuple[int, ...]] = []
    tie_breaker = count()

    heap: list[tuple[int, int, tuple[int, ...]]] = []
    for seq in origin:
        length = len(seq) // 2
        if max_length is not None and length > max_length:
            continue
        if length > best_base[(seq[0], seq[-1])]:
            continue
        heapq.heappush(heap, (length, next(tie_breaker), seq))

    index = IntJoinIndex(seqs)
    extensions_of = index.extensions
    budgeted = budget is not None
    batch = _BUDGET_BATCH
    pending = 0
    seen: set[tuple[int, ...]] = set()
    while heap:
        length, _, seq = heapq.heappop(heap)
        if budgeted:
            pending += 1
            if pending >= batch:
                budget.note_depth(length)
                budget.charge(pending, "ϕShortest")
                pending = 0
        if seq in seen:
            continue
        seen.add(seq)
        key = (seq[0], seq[-1])
        known = best.get(key)
        if known is None:
            best[key] = length
        elif length > known:
            continue
        result_seqs.append(seq)
        for ext in extensions_of(seq[-1]):
            new_length = length + len(ext) // 2
            if max_length is not None and new_length > max_length:
                continue
            new_key = (seq[0], ext[-1])
            known_new = best.get(new_key)
            if known_new is not None and new_length > known_new:
                continue
            new_seq = seq + ext[1:]
            if new_seq not in seen:
                heapq.heappush(heap, (new_length, next(tie_breaker), new_seq))
    if budgeted and pending:
        budget.charge(pending, "ϕShortest")
    return result_seqs


# ----------------------------------------------------------------------
# Streaming variants (mirrors of _iter_closure_walk / _iter_closure_pruned)
# ----------------------------------------------------------------------
def _int_iter_shortest(
    compact: CompactGraph,
    graph,
    seqs: list[tuple[int, ...]],
    origin: list[tuple[int, ...]],
    max_length: int | None,
    budget: QueryBudget | None,
) -> Iterator[Path]:
    # SHORTEST is inherently blocking (see iter_recursive_closure); the
    # generator defers the materialization to the first next(), like the
    # object twin's `yield from _closure_shortest(...)`.
    for seq in _int_shortest(seqs, origin, max_length, budget):
        yield _decode_one(compact, graph, seq)


def _int_iter_walk(
    compact: CompactGraph,
    graph,
    base: PathSet,
    origin: PathSet,
    seqs: list[tuple[int, ...]],
    max_length: int | None,
    budget: QueryBudget | None,
) -> Iterator[Path]:
    distinct_edges = {e for seq in seqs for e in seq[1::2]}
    termination_bound = len(distinct_edges)
    bound = max_length if max_length is not None else termination_bound
    guard = max_length is None
    buckets = IntJoinIndex(seqs).annotated("none")
    bucket_of = buckets.get
    budgeted = budget is not None
    depth = 0
    scanned = 0

    # The object twin seeds with `list(set(base))` — replay that exact
    # hash-ordered bootstrap on the object paths, then encode in its order.
    node_index = compact._node_index
    edge_index = compact._edge_index
    initial = list(set(base))
    if origin is not base:
        initial = [path for path in initial if path in origin]
    yield from initial
    frontier: list[tuple[int, ...]] = []
    for path in initial:
        flat = [0] * (2 * len(path._nodes) - 1)
        flat[::2] = [node_index[n] for n in path._nodes]
        flat[1::2] = [edge_index[e] for e in path._edges]
        frontier.append(tuple(flat))
    seen = set(frontier)

    while frontier:
        produced: list[tuple[int, ...]] = []
        if budgeted:
            depth += 1
            budget.checkpoint("ϕWalk", depth=depth)
        for seq in frontier:
            if budgeted:
                scanned += 1
                if scanned >= _BUDGET_BATCH:
                    scanned = 0
                    budget.checkpoint("ϕWalk")
            extensions = bucket_of(seq[-1])
            if not extensions:
                continue
            length = len(seq) // 2
            for ext_len, _, tail in extensions:
                if length + ext_len > bound:
                    if guard:
                        raise NonTerminatingQueryError(_NON_TERMINATING)
                    continue
                joined = seq + tail
                if joined not in seen:
                    seen.add(joined)
                    produced.append(joined)
                    if budgeted:
                        budget.charge(1, "ϕWalk")
                    yield _decode_one(compact, graph, joined)
        frontier = produced


def _int_iter_pruned(
    compact: CompactGraph,
    graph,
    origin: PathSet,
    origin_seqs: list[tuple[int, ...]],
    seqs: list[tuple[int, ...]],
    name: str,
    max_length: int | None,
    budget: QueryBudget | None,
) -> Iterator[Path]:
    predicate = _SEQ_PREDICATES[name]
    conforming: list[tuple[int, ...]] = []
    conforming_paths: list[Path] = []
    for path, seq in zip(origin, origin_seqs):
        if predicate(seq):
            conforming.append(seq)
            conforming_paths.append(path)
    if not conforming:
        return

    simple = name == "SIMPLE"
    bound = max_length if max_length is not None else float("inf")
    index = IntJoinIndex(seqs)
    if name == "TRAIL":
        buckets = index.mask_annotated("edges")
        frontier = [(seq, _mask_of(seq[1::2])) for seq in conforming]
    elif simple:
        buckets = index.mask_annotated("simple")
        frontier = [(seq, _mask_of(seq[::2])) for seq in conforming]
    else:
        buckets = index.mask_annotated("tail_nodes")
        frontier = [(seq, _mask_of(seq[::2])) for seq in conforming]

    bucket_of = buckets.get
    budgeted = budget is not None
    label = f"ϕ{name.capitalize()}" if budgeted else ""
    depth = 0
    scanned = 0

    seen = set(conforming)
    yield from conforming_paths
    while frontier:
        produced: list[tuple[tuple[int, ...], int]] = []
        if budgeted:
            depth += 1
            budget.checkpoint(label, depth=depth)
        for seq, visited in frontier:
            if budgeted:
                scanned += 1
                if scanned >= _BUDGET_BATCH:
                    scanned = 0
                    budget.checkpoint(label)
            extensions = bucket_of(seq[-1])
            if not extensions:
                continue
            length = len(seq) // 2
            if simple:
                first = seq[0]
                closed = length > 0 and first == seq[-1]
                for ext_len, prefix_mask, distinct, last_bit, last_node, tail in extensions:
                    if length + ext_len > bound:
                        continue
                    if closed or not distinct or visited & prefix_mask:
                        continue
                    if last_node == first:
                        extended = visited | prefix_mask
                    else:
                        extended = visited | prefix_mask
                        if extended & last_bit:
                            continue
                        extended |= last_bit
                    joined = seq + tail
                    if joined not in seen:
                        seen.add(joined)
                        produced.append((joined, extended))
                        if budgeted:
                            budget.charge(1, label)
                        yield _decode_one(compact, graph, joined)
            else:
                for ext_len, ext_mask, distinct, tail in extensions:
                    if length + ext_len > bound:
                        continue
                    if not distinct or visited & ext_mask:
                        continue
                    joined = seq + tail
                    if joined not in seen:
                        seen.add(joined)
                        produced.append((joined, visited | ext_mask))
                        if budgeted:
                            budget.charge(1, label)
                        yield _decode_one(compact, graph, joined)
        frontier = produced
