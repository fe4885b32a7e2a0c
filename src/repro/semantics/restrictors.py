"""Restrictor semantics and the recursive operator ϕ (paper Sections 4 and 5).

The recursive operator ``ϕ(S)`` computes the closure of a set of paths under
path join (Definition 4.1):

    ϕ0(S) = S
    ϕi(S) = (ϕi-1(S) ⋈ S) ∪ ϕi-1(S)

until a fix point is reached.  On cyclic inputs the Walk variant never halts,
so GQL and SQL/PGQ attach a *restrictor* to the recursion.  This module
implements the five variants of the paper:

* :data:`Restrictor.WALK`     — all paths, requires a length bound on cyclic inputs;
* :data:`Restrictor.TRAIL`    — no repeated edges;
* :data:`Restrictor.ACYCLIC`  — no repeated nodes;
* :data:`Restrictor.SIMPLE`   — no repeated nodes except first == last;
* :data:`Restrictor.SHORTEST` — only minimum-length paths per endpoint pair.

Three evaluation strategies are provided:

* :func:`recursive_closure` — the production strategy: an *incremental*
  fix point that builds the :class:`~repro.paths.join_index.JoinIndex` once,
  carries per-frontier-path visited-edge/node state so restrictor conformance
  of an extension is an O(1) membership probe on the appended segment, and
  never constructs (or hashes) a pruned candidate path;
* :func:`recursive_closure_baseline` — the pre-incremental strategy that
  re-indexes the base and re-scans every candidate end-to-end on each round;
  kept as the performance baseline for ``BENCH_closure.json`` and as an
  additional oracle;
* :func:`recursive_closure_postfilter` — the reference strategy that first
  enumerates bounded walks and then filters, used by the restrictor-scaling
  benchmark (E-S3) and by property tests as an oracle.

The execution model and the invariants that make incremental pruning complete
are documented in ``PERFORMANCE.md``.
"""

from __future__ import annotations

import heapq
from enum import Enum
from itertools import count
from typing import Callable, Iterator

from repro.errors import NonTerminatingQueryError
from repro.execution import QueryBudget
from repro.graph.compact import compact_core_of
from repro.paths.join_index import JoinIndex
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.paths.predicates import (
    extend_acyclic_state,
    extend_simple_state,
    extend_trail_state,
    is_acyclic,
    is_simple,
    is_trail,
)

__all__ = [
    "Restrictor",
    "recursive_closure",
    "iter_recursive_closure",
    "recursive_closure_baseline",
    "recursive_closure_postfilter",
    "shortest_paths_per_pair",
    "filter_by_restrictor",
]


class Restrictor(str, Enum):
    """The restrictors of Table 2 (plus SHORTEST, which the algebra adds as ϕShortest)."""

    WALK = "WALK"
    TRAIL = "TRAIL"
    ACYCLIC = "ACYCLIC"
    SIMPLE = "SIMPLE"
    SHORTEST = "SHORTEST"

    @classmethod
    def from_string(cls, text: str) -> "Restrictor":
        """Parse a restrictor keyword (case-insensitive)."""
        try:
            return cls(text.upper())
        except ValueError:
            raise ValueError(f"unknown restrictor: {text!r}") from None


_PREDICATES: dict[Restrictor, Callable[[Path], bool]] = {
    Restrictor.TRAIL: is_trail,
    Restrictor.ACYCLIC: is_acyclic,
    Restrictor.SIMPLE: is_simple,
}

#: Frontier chunk size of the budgeted closure loops (and charge batch of
#: the heap loops): small enough that a deadline is observed within
#: milliseconds, large enough that per-path accounting cost vanishes — the
#: innermost extension loops carry no budget code at all.  Derived from the
#: single granularity knob on :class:`QueryBudget`.
_BUDGET_BATCH = QueryBudget.CHARGE_BATCH


def _closure_label(restrictor: Restrictor) -> str:
    return f"ϕ{restrictor.value.capitalize()}"


def filter_by_restrictor(paths: PathSet, restrictor: Restrictor) -> PathSet:
    """Filter an already-computed path set by the restrictor's path-level predicate.

    For WALK this is the identity; for SHORTEST it keeps, per endpoint pair,
    only the minimum-length paths.
    """
    if restrictor is Restrictor.WALK:
        return PathSet.from_unique(paths)
    if restrictor is Restrictor.SHORTEST:
        return shortest_paths_per_pair(paths)
    predicate = _PREDICATES[restrictor]
    return paths.filter(predicate)


def shortest_paths_per_pair(paths: PathSet) -> PathSet:
    """Keep, for every ``(First(p), Last(p))`` pair, only the minimum-length paths.

    Endpoints and lengths are computed once per path in a single pass; the
    final selection runs over the cached annotations, preserving input order.
    """
    best: dict[tuple[str, str], int] = {}
    annotated: list[tuple[tuple[str, str], int, Path]] = []
    for path in paths:
        key = path.endpoints()
        length = path.len()
        annotated.append((key, length, path))
        known = best.get(key)
        if known is None or length < known:
            best[key] = length
    return PathSet.from_unique(
        path for key, length, path in annotated if length == best[key]
    )


def recursive_closure(
    base: PathSet,
    restrictor: Restrictor = Restrictor.WALK,
    max_length: int | None = None,
    join_index: JoinIndex | None = None,
    budget: QueryBudget | None = None,
    seeds: PathSet | None = None,
) -> PathSet:
    """Evaluate ``ϕ_restrictor(base)`` (Definition 4.1 specialized per Section 4).

    Args:
        base: The input set of paths ``S`` (typically a filtered ``Edges(G)``).
        restrictor: Which ϕ variant to evaluate.
        max_length: Optional bound on the length of produced paths.  Mandatory
            for WALK over inputs whose closure is infinite; ignored by
            SHORTEST (which always terminates).
        join_index: Optional prebuilt :class:`JoinIndex` over ``base``.
            Callers that materialize the base anyway (the physical
            ``_RecursiveOp``, the logical evaluator) pass it in so the index
            is built exactly once per closure.
        budget: Optional cooperative cancellation token.  The fix-point loops
            consult the clock at every frontier-expansion boundary, and large
            frontiers are processed in ``_BUDGET_BATCH``-sized chunks with a
            check per chunk, so a deadline kills the closure within one check
            interval even mid-round.
        seeds: Start here, index over ``base``: a subset of ``base`` (in base
            order) the frontier and the result start from, while extensions
            still come from all of ``base``.  With ``seeds = σ[first.c](base)``
            the result is ``σ[first.c](ϕ(base))`` in the same order, and only
            those paths are built and charged (see
            :func:`~repro.algebra.expressions.seeded_closure_input`).  ϕWalk's
            non-termination bound and ϕShortest's base domination keep
            reading all of ``base``.

    Raises:
        NonTerminatingQueryError: for WALK without ``max_length`` when the
            closure provably does not terminate (a generated path exceeded
            the total number of distinct edges in the base, which implies a
            reachable cycle and therefore infinitely many walks).
        BudgetExceeded: when ``budget`` is exhausted before the fix point.
    """
    if seeds is not None and not len(seeds):
        return PathSet()
    if len(base):
        # Columnar fast path: when the query's graph view is backed by a
        # current CompactGraph core, run the closure on the int encoding
        # (see semantics/int_closure.py — byte-identical by construction,
        # falls through to the object strategies if the base won't encode).
        compact = compact_core_of(next(iter(base)).graph)
        if compact is not None:
            from repro.semantics.int_closure import int_recursive_closure

            result = int_recursive_closure(compact, base, restrictor, max_length, budget, seeds)
            if result is not None:
                return result
    if join_index is None:
        join_index = JoinIndex(base)
    origin = base if seeds is None else seeds
    if restrictor is Restrictor.SHORTEST:
        return _closure_shortest(base, origin, max_length, join_index, budget)
    if restrictor is Restrictor.WALK:
        return _closure_walk(base, origin, max_length, join_index, budget)
    return _closure_pruned(origin, restrictor, max_length, join_index, budget)


def recursive_closure_postfilter(
    base: PathSet,
    restrictor: Restrictor,
    max_length: int,
    budget: QueryBudget | None = None,
) -> PathSet:
    """Reference implementation: enumerate bounded walks, then filter (ablation baseline).

    Unlike :func:`recursive_closure`, non-conforming intermediate paths are
    kept and extended, so the cost is the full walk-closure cost regardless of
    the restrictor.  Results are identical to the pruning strategy whenever
    ``max_length`` is large enough to cover every conforming path.
    """
    walks = _closure_walk(base, base, max_length, JoinIndex(base), budget)
    return filter_by_restrictor(walks, restrictor)


def iter_recursive_closure(
    base: PathSet,
    restrictor: Restrictor = Restrictor.WALK,
    max_length: int | None = None,
    join_index: JoinIndex | None = None,
    budget: QueryBudget | None = None,
    seeds: PathSet | None = None,
) -> Iterator[Path]:
    """Lazily yield ``ϕ_restrictor(base)``: the base first, then each fix-point round.

    The streaming twin of :func:`recursive_closure`, used by the pull-based
    pipeline so a cursor that consumes only a handful of paths never pays for
    (or holds in memory) the rest of the closure: rounds are expanded one
    frontier entry at a time, and suspending the generator suspends the fix
    point with it.  Yielded paths are exactly the paths
    :func:`recursive_closure` returns, already deduplicated; only the order
    differs from no caller-visible order guarantee to "base, then round by
    round".

    SHORTEST is inherently blocking — a path is only known to be shortest
    once every competing round has been expanded — so it materializes through
    :func:`recursive_closure` and iterates the result.

    For WALK without ``max_length`` the non-termination guard of
    :func:`recursive_closure` applies lazily: the
    :class:`~repro.errors.NonTerminatingQueryError` is raised at the moment
    an over-long walk would be generated, so a consumer that stops earlier
    never sees it.

    ``seeds`` means what it means to :func:`recursive_closure`: the seeds
    first (where the unseeded stream has them), then each round.
    """
    if seeds is not None and not len(seeds):
        return
    if len(base):
        # Columnar fast path (see recursive_closure): the int twin decides
        # encodability eagerly, so a None here is a clean object fallback.
        compact = compact_core_of(next(iter(base)).graph)
        if compact is not None:
            from repro.semantics.int_closure import int_iter_recursive_closure

            iterator = int_iter_recursive_closure(
                compact, base, restrictor, max_length, budget, seeds
            )
            if iterator is not None:
                yield from iterator
                return
    if join_index is None:
        join_index = JoinIndex(base)
    origin = base if seeds is None else seeds
    if restrictor is Restrictor.SHORTEST:
        yield from _closure_shortest(base, origin, max_length, join_index, budget)
        return
    if restrictor is Restrictor.WALK:
        yield from _iter_closure_walk(base, origin, max_length, join_index, budget)
        return
    yield from _iter_closure_pruned(origin, restrictor, max_length, join_index, budget)


def _iter_closure_walk(
    base: PathSet,
    origin: PathSet,
    max_length: int | None,
    index: JoinIndex,
    budget: QueryBudget | None = None,
) -> Iterator[Path]:
    """Streaming variant of :func:`_closure_walk` (same set, round-by-round order).

    The budget is charged per produced path rather than per frontier chunk
    (a suspended generator holds no backlog, and streaming consumers are
    latency-bound, not throughput-bound), with one extra safeguard the
    production-rate accounting alone would miss: the clock is also consulted
    every ``_BUDGET_BATCH`` *consumed* frontier entries, so a round that
    scans an enormous frontier while producing almost nothing (most
    candidates rejected or already seen) still observes its deadline
    mid-round — the same granularity the blocking closures' chunked loops
    promise.
    """
    if not len(base):
        return
    distinct_edges = {edge_id for path in base for edge_id in path.edge_ids}
    termination_bound = len(distinct_edges)
    graph = next(iter(base)).graph
    bound = max_length if max_length is not None else termination_bound
    guard = max_length is None
    buckets = _annotate_extensions(index, lambda ext: ())
    unchecked = Path._unchecked
    bucket_of = buckets.get
    budgeted = budget is not None
    depth = 0
    scanned = 0

    seen: set[Path] = set(base)
    frontier: list[Path] = list(seen)
    if origin is not base:
        # Seeded: the seeds where the hash-ordered bootstrap above has them.
        frontier = [path for path in frontier if path in origin]
        seen = set(frontier)
    yield from frontier
    while frontier:
        produced: list[Path] = []
        if budgeted:
            depth += 1
            budget.checkpoint("ϕWalk", depth=depth)
        for path in frontier:
            if budgeted:
                scanned += 1
                if scanned >= _BUDGET_BATCH:
                    scanned = 0
                    budget.checkpoint("ϕWalk")
            extensions = bucket_of(path.last())
            if not extensions:
                continue
            length = path.len()
            nodes = path.node_ids
            edges = path.edge_ids
            for ext_len, _, nodes_tail, ext_edges in extensions:
                if length + ext_len > bound:
                    if guard:
                        raise NonTerminatingQueryError(
                            "ϕWalk does not terminate on this input (cycle detected); "
                            "provide max_length or use a restricted ϕ variant"
                        )
                    continue
                joined = unchecked(graph, nodes + nodes_tail, edges + ext_edges)
                if joined not in seen:
                    seen.add(joined)
                    produced.append(joined)
                    if budgeted:
                        budget.charge(1, "ϕWalk")
                    yield joined
        frontier = produced


def _iter_closure_pruned(
    origin: PathSet,
    restrictor: Restrictor,
    max_length: int | None,
    index: JoinIndex,
    budget: QueryBudget | None = None,
) -> Iterator[Path]:
    """Streaming variant of :func:`_closure_pruned` (Trail / Acyclic / Simple)."""
    predicate = _PREDICATES[restrictor]
    conforming_base = [path for path in origin if predicate(path)]
    if not conforming_base:
        return

    trail = restrictor is Restrictor.TRAIL
    simple = restrictor is Restrictor.SIMPLE
    graph = conforming_base[0].graph
    bound = max_length if max_length is not None else float("inf")
    if trail:
        buckets = _annotate_extensions(index, lambda ext: ext.edge_ids)
        frontier = [(path, set(path.edge_ids)) for path in conforming_base]
    else:
        buckets = _annotate_extensions(index, lambda ext: ext.node_ids[1:])
        frontier = [(path, set(path.node_ids)) for path in conforming_base]

    unchecked = Path._unchecked
    bucket_of = buckets.get
    budgeted = budget is not None
    label = _closure_label(restrictor) if budgeted else ""
    depth = 0
    scanned = 0

    seen: set[Path] = set(conforming_base)
    yield from conforming_base
    while frontier:
        produced: list[tuple[Path, set[str]]] = []
        if budgeted:
            depth += 1
            budget.checkpoint(label, depth=depth)
        for path, visited in frontier:
            if budgeted:
                # Clock check per consumed frontier chunk, not only per
                # produced path: rejection-heavy rounds stay killable (see
                # _iter_closure_walk).
                scanned += 1
                if scanned >= _BUDGET_BATCH:
                    scanned = 0
                    budget.checkpoint(label)
            extensions = bucket_of(path.last())
            if not extensions:
                continue
            length = path.len()
            nodes = path.node_ids
            edges = path.edge_ids
            if simple:
                first = nodes[0]
                closed = length > 0 and first == nodes[-1]
            for ext_len, check_ids, nodes_tail, ext_edges in extensions:
                if length + ext_len > bound:
                    continue
                if trail:
                    extended = extend_trail_state(visited, check_ids)
                elif simple:
                    extended = extend_simple_state(visited, first, closed, check_ids)
                else:
                    extended = extend_acyclic_state(visited, check_ids)
                if extended is None:
                    continue
                joined = unchecked(graph, nodes + nodes_tail, edges + ext_edges)
                if joined not in seen:
                    seen.add(joined)
                    produced.append((joined, extended))
                    if budgeted:
                        budget.charge(1, label)
                    yield joined
        frontier = produced


# ----------------------------------------------------------------------
# Walk closure
# ----------------------------------------------------------------------
def _closure_walk(
    base: PathSet,
    origin: PathSet,
    max_length: int | None,
    index: JoinIndex,
    budget: QueryBudget | None = None,
) -> PathSet:
    """Fix point of Definition 4.1 with an optional length bound.

    ``origin`` is what the frontier and the result start from: ``base`` itself,
    or its seeds (:func:`recursive_closure`).  ``index`` is over ``base``.

    Without a bound, a sound non-termination detector is used: if any produced
    path becomes longer than the total number of distinct edges occurring in
    ``base`` (all of it, whatever the origin), some edge repeats, hence the
    base contains a reachable cycle and the walk closure is infinite.

    The length bound is checked *before* the candidate path is constructed, so
    out-of-bound extensions cost two integer additions and nothing else.
    """
    distinct_edges = {edge_id for path in base for edge_id in path.edge_ids}
    termination_bound = len(distinct_edges)

    if not len(origin):
        return PathSet.from_unique(origin)
    graph = next(iter(origin)).graph
    bound = max_length if max_length is not None else termination_bound
    guard = max_length is None
    buckets = _annotate_extensions(index, lambda ext: ())
    unchecked = Path._unchecked
    bucket_of = buckets.get
    budgeted = budget is not None
    batch = _BUDGET_BATCH
    depth = 0

    # Accumulate into a plain list + set: Path hashes are cached, so handing
    # the list to from_unique at the end costs nothing extra.
    result_paths: list[Path] = list(origin)
    seen: set[Path] = set(result_paths)
    frontier: list[Path] = list(result_paths)
    while frontier:
        produced: list[Path] = []
        # Budget checks happen at chunk boundaries only, so the innermost
        # loop carries zero budget code: a big frontier is processed in
        # _BUDGET_BATCH-sized chunks (one reference-slice alive at a time)
        # and the clock is read after each one, bounding unchecked work by
        # one chunk's extension scans.
        if budgeted:
            depth += 1
            budget.checkpoint("ϕWalk", depth=depth)
            split = len(frontier) > batch
        else:
            split = False
        charged = 0
        for start in range(0, len(frontier), batch) if split else (0,):
            chunk = frontier[start : start + batch] if split else frontier
            for path in chunk:
                extensions = bucket_of(path.last())
                if not extensions:
                    continue
                length = path.len()
                nodes = path.node_ids
                edges = path.edge_ids
                for ext_len, _, nodes_tail, ext_edges in extensions:
                    if length + ext_len > bound:
                        if guard:
                            raise NonTerminatingQueryError(
                                "ϕWalk does not terminate on this input (cycle detected); "
                                "provide max_length or use a restricted ϕ variant"
                            )
                        continue
                    joined = unchecked(graph, nodes + nodes_tail, edges + ext_edges)
                    if joined not in seen:
                        seen.add(joined)
                        result_paths.append(joined)
                        produced.append(joined)
            if budgeted:
                if len(produced) > charged:
                    budget.charge(len(produced) - charged, "ϕWalk")
                    charged = len(produced)
                budget.checkpoint("ϕWalk")
        frontier = produced
    return PathSet.from_unique(result_paths)


# ----------------------------------------------------------------------
# Pruned closures (Trail / Acyclic / Simple)
# ----------------------------------------------------------------------
def _annotate_extensions(
    index: JoinIndex,
    check_ids_of: Callable[[Path], tuple[str, ...]],
) -> dict[str, list[tuple[int, tuple[str, ...], tuple[str, ...], tuple[str, ...]]]]:
    """Precompute, per first node, the per-extension data the hot loop needs.

    Each entry is ``(length, check_ids, appended_nodes, appended_edges)``:
    the identifiers probed by the incremental restrictor check and the tuples
    concatenated onto an accepted frontier path.  Derived from the shared
    :class:`JoinIndex` once per closure so the fix-point rounds never re-slice
    an extension.
    """
    buckets: dict[str, list[tuple[int, tuple[str, ...], tuple[str, ...], tuple[str, ...]]]] = {}
    for node_id in index.first_nodes():
        buckets[node_id] = [
            (ext.len(), check_ids_of(ext), ext.node_ids[1:], ext.edge_ids)
            for ext in index.extensions(node_id)
        ]
    return buckets


def _closure_pruned(
    origin: PathSet,
    restrictor: Restrictor,
    max_length: int | None,
    index: JoinIndex,
    budget: QueryBudget | None = None,
) -> PathSet:
    """Fix point that discards non-conforming paths as soon as they appear.

    ``origin`` is the base or its seeds; ``index`` is over the whole base.

    Pruning is complete for Trail, Acyclic and Simple because removing the
    last base segment from a conforming path yields a conforming path: the
    prefix of a trail is a trail, the prefix of an acyclic path is acyclic,
    and the prefix of a simple path is acyclic (hence simple).

    Each frontier entry carries the set of visited edges (Trail) or nodes
    (Acyclic / Simple), so conformance of an extension is decided by O(1)
    membership probes on the appended segment — see the ``extend_*_state``
    checkers in :mod:`repro.paths.predicates` — and rejected candidates are
    never constructed, hashed, or re-scanned.  The path-level predicates
    remain as oracles for the property tests.
    """
    predicate = _PREDICATES[restrictor]
    conforming_base = [path for path in origin if predicate(path)]
    if not conforming_base:
        return PathSet.from_unique(conforming_base)

    trail = restrictor is Restrictor.TRAIL
    simple = restrictor is Restrictor.SIMPLE
    graph = conforming_base[0].graph
    bound = max_length if max_length is not None else float("inf")
    if trail:
        buckets = _annotate_extensions(index, lambda ext: ext.edge_ids)
        frontier = [(path, set(path.edge_ids)) for path in conforming_base]
    else:
        buckets = _annotate_extensions(index, lambda ext: ext.node_ids[1:])
        frontier = [(path, set(path.node_ids)) for path in conforming_base]

    unchecked = Path._unchecked
    bucket_of = buckets.get
    extend_trail = extend_trail_state
    extend_acyclic = extend_acyclic_state
    extend_simple = extend_simple_state
    budgeted = budget is not None
    label = _closure_label(restrictor) if budgeted else ""
    batch = _BUDGET_BATCH
    depth = 0

    result_paths: list[Path] = list(conforming_base)
    seen: set[Path] = set(result_paths)
    while frontier:
        produced: list[tuple[Path, set[str]]] = []
        # Chunked budget checks (see _closure_walk): the innermost loop
        # carries zero budget code; the clock is read per frontier chunk.
        if budgeted:
            depth += 1
            budget.checkpoint(label, depth=depth)
            split = len(frontier) > batch
        else:
            split = False
        charged = 0
        for start in range(0, len(frontier), batch) if split else (0,):
            chunk = frontier[start : start + batch] if split else frontier
            for path, visited in chunk:
                extensions = bucket_of(path.last())
                if not extensions:
                    continue
                length = path.len()
                nodes = path.node_ids
                edges = path.edge_ids
                if simple:
                    first = nodes[0]
                    closed = length > 0 and first == nodes[-1]
                for ext_len, check_ids, nodes_tail, ext_edges in extensions:
                    if length + ext_len > bound:
                        continue
                    if trail:
                        extended = extend_trail(visited, check_ids)
                    elif simple:
                        extended = extend_simple(visited, first, closed, check_ids)
                    else:
                        extended = extend_acyclic(visited, check_ids)
                    if extended is None:
                        continue
                    joined = unchecked(graph, nodes + nodes_tail, edges + ext_edges)
                    if joined not in seen:
                        seen.add(joined)
                        result_paths.append(joined)
                        produced.append((joined, extended))
            if budgeted:
                if len(produced) > charged:
                    budget.charge(len(produced) - charged, label)
                    charged = len(produced)
                budget.checkpoint(label)
        frontier = produced
    return PathSet.from_unique(result_paths)


# ----------------------------------------------------------------------
# Shortest closure
# ----------------------------------------------------------------------
def _closure_shortest(
    base: PathSet,
    origin: PathSet,
    max_length: int | None,
    index: JoinIndex,
    budget: QueryBudget | None = None,
) -> PathSet:
    """All minimum-length closure paths per endpoint pair (ϕShortest).

    The base paths are treated as weighted edges of a *derived graph* (weight
    = path length); a Dijkstra-style expansion ordered by total length
    enumerates every composition whose length equals the distance between its
    endpoints.  Compositions strictly longer than the known distance of their
    endpoints can never be prefixes of new shortest compositions (a shorter
    prefix always exists in the closure), so they are discarded, which
    guarantees termination even on cyclic inputs.

    Base paths that are already dominated at insert time — another base path
    connects the same endpoint pair with strictly fewer edges — are skipped
    instead of pushed: the shorter path pops first, so the dominated one could
    only ever be discarded at pop time anyway.  Domination is decided over
    all of ``base``; only ``origin`` (the base or its seeds) is pushed.
    """
    best_base: dict[tuple[str, str], int] = {}
    for path in base:
        if max_length is not None and path.len() > max_length:
            continue
        key = path.endpoints()
        length = path.len()
        known = best_base.get(key)
        if known is None or length < known:
            best_base[key] = length

    best: dict[tuple[str, str], int] = {}
    results = PathSet()
    tie_breaker = count()

    heap: list[tuple[int, int, Path]] = []
    for path in origin:
        length = path.len()
        if max_length is not None and length > max_length:
            continue
        if length > best_base[path.endpoints()]:
            continue
        heapq.heappush(heap, (length, next(tie_breaker), path))

    budgeted = budget is not None
    batch = _BUDGET_BATCH
    pending = 0
    seen: set[Path] = set()
    while heap:
        length, _, path = heapq.heappop(heap)
        if budgeted:
            pending += 1
            if pending >= batch:
                budget.note_depth(length)
                budget.charge(pending, "ϕShortest")
                pending = 0
        if path in seen:
            continue
        seen.add(path)
        key = path.endpoints()
        known = best.get(key)
        if known is None:
            best[key] = length
        elif length > known:
            continue
        results.add(path)
        last = path.last()
        for extension in index.extensions(last):
            new_length = length + extension.len()
            if max_length is not None and new_length > max_length:
                continue
            new_key = (path.first(), extension.last())
            known_new = best.get(new_key)
            if known_new is not None and new_length > known_new:
                continue
            new_path = path.concat(extension)
            if new_path not in seen:
                heapq.heappush(heap, (new_length, next(tie_breaker), new_path))
    if budgeted and pending:
        budget.charge(pending, "ϕShortest")
    return results


# ----------------------------------------------------------------------
# Pre-incremental baseline (perf oracle)
# ----------------------------------------------------------------------
def recursive_closure_baseline(
    base: PathSet,
    restrictor: Restrictor = Restrictor.WALK,
    max_length: int | None = None,
    budget: QueryBudget | None = None,
) -> PathSet:
    """The pre-incremental closure strategy, retained as a measurable baseline.

    On every fix-point round it wraps the frontier in a fresh :class:`PathSet`
    (re-hashing every path), re-indexes the unchanged base via
    :meth:`PathSet.join`, and classifies each candidate with a full
    end-to-end predicate scan.  Results are identical to
    :func:`recursive_closure` (asserted by the equivalence property tests);
    only the work per candidate differs.  ``BENCH_closure.json`` records the
    speedup of the incremental engine over this strategy.
    """
    if restrictor is Restrictor.SHORTEST:
        return _baseline_shortest(base, max_length, budget)
    predicate = _PREDICATES.get(restrictor)
    if predicate is None:
        conforming = list(base)
    else:
        conforming = [path for path in base if predicate(path)]

    distinct_edges = {edge_id for path in base for edge_id in path.edge_ids}
    termination_bound = len(distinct_edges)

    label = _closure_label(restrictor)
    depth = 0
    result = PathSet(conforming)
    frontier = list(conforming)
    while frontier:
        if budget is not None:
            depth += 1
            budget.checkpoint(label, depth=depth)
        produced: list[Path] = []
        joined = PathSet(frontier).join(base, budget=budget)
        for path in joined:
            if max_length is not None and path.len() > max_length:
                continue
            if predicate is None and max_length is None and path.len() > termination_bound:
                raise NonTerminatingQueryError(
                    "ϕWalk does not terminate on this input (cycle detected); "
                    "provide max_length or use a restricted ϕ variant"
                )
            if predicate is not None and not predicate(path):
                continue
            if result.add(path):
                produced.append(path)
        frontier = produced
    return result


def _baseline_shortest(
    base: PathSet, max_length: int | None, budget: QueryBudget | None = None
) -> PathSet:
    """The pre-incremental ϕShortest: no insert-time domination check."""
    best: dict[tuple[str, str], int] = {}
    results = PathSet()
    tie_breaker = count()

    heap: list[tuple[int, int, Path]] = []
    for path in base:
        if max_length is not None and path.len() > max_length:
            continue
        heapq.heappush(heap, (path.len(), next(tie_breaker), path))

    base_by_first: dict[str, list[Path]] = {}
    for path in base:
        base_by_first.setdefault(path.first(), []).append(path)

    budgeted = budget is not None
    pending = 0
    seen: set[Path] = set()
    while heap:
        length, _, path = heapq.heappop(heap)
        if budgeted:
            pending += 1
            if pending >= _BUDGET_BATCH:
                budget.note_depth(length)
                budget.charge(pending, "ϕShortest")
                pending = 0
        if path in seen:
            continue
        seen.add(path)
        key = path.endpoints()
        known = best.get(key)
        if known is None:
            best[key] = length
        elif length > known:
            continue
        results.add(path)
        for extension in base_by_first.get(path.last(), ()):
            new_path = path.concat(extension)
            new_length = new_path.len()
            if max_length is not None and new_length > max_length:
                continue
            new_key = new_path.endpoints()
            known_new = best.get(new_key)
            if known_new is not None and new_length > known_new:
                continue
            if new_path not in seen:
                heapq.heappush(heap, (new_length, next(tie_breaker), new_path))
    if budgeted and pending:
        budget.charge(pending, "ϕShortest")
    return results
