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

**One kernel.**  :func:`recursive_closure` (blocking) and
:func:`iter_recursive_closure` (streaming) are the same code: paths in, paths
out, and in between one fix-point round generator (:func:`_rounds`; ϕShortest
has the one length-bucket loop :func:`_shortest`).  Inside the kernel a path is
the paper's interleaved tuple ``(n0, e0, n1, …)`` of *whatever identifiers the
base carries* — the kernel never looks at them, it only hashes and compares
them — which is also what a :class:`Path` stores, so extending a path is one
``seq + tail`` and decoding it one object around the tuple.  When every base
path has the same length the closure cannot produce a tuple twice, so no
deduplication set is kept; mixed lengths probe one.  Trail / Acyclic / Simple
state is a bitmask whose bits are interned per closure over the one kind of
identifier the restrictor probes (edges for Trail, nodes for the other two), so
a conformance probe is one ``&`` and the extended state one ``|`` whatever the
graph's encoding: mutable, frozen and snapshot-pinned graphs all run this code,
and nothing outside this module knows how the closure represents a path.  The
blocking form drains the generator and decodes in bulk; the streaming form
decodes each path as it is yielded, in the same order.

:func:`recursive_closure_postfilter` (enumerate bounded walks, then filter) is
kept as a few lines over the kernel for the restrictor-scaling benchmark and as
a test oracle; the independent pre-incremental oracle lives in
:mod:`repro.baselines.closure`.  The representation and the invariants that
make incremental pruning complete are documented in ``PERFORMANCE.md``, "The
closure kernel".
"""

from __future__ import annotations

import sys
from collections import defaultdict
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator

from repro.errors import NonTerminatingQueryError
from repro.execution import QueryBudget
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.paths.predicates import is_acyclic, is_simple, is_trail

__all__ = [
    "Restrictor",
    "recursive_closure",
    "iter_recursive_closure",
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

#: How many frontier entries (queue pops for ϕShortest) may pass between two
#: clock reads: small enough that a deadline is observed within milliseconds
#: even in a round that rejects almost every candidate.  Derived from the
#: single granularity knob on :class:`QueryBudget`.
_BUDGET_BATCH = QueryBudget.CHARGE_BATCH

#: An interleaved path ``(n0, e0, n1, …)`` of the base's own identifiers.
_Seq = tuple[Hashable, ...]


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
    budget: QueryBudget | None = None,
    seeds: PathSet | None = None,
    one_per_pair: bool = False,
) -> PathSet:
    """Evaluate ``ϕ_restrictor(base)`` (Definition 4.1 specialized per Section 4).

    Args:
        base: The input set of paths ``S`` (typically a filtered ``Edges(G)``).
        restrictor: Which ϕ variant to evaluate.
        max_length: Optional bound on the length of produced paths.  Mandatory
            for WALK over inputs whose closure is infinite; SHORTEST always
            terminates without one.
        budget: Optional cooperative cancellation token.  Every produced path
            is charged, the clock is consulted at every round boundary and
            every ``_BUDGET_BATCH`` consumed frontier entries, so a deadline
            kills the closure within one check interval even in a round that
            produces almost nothing.
        seeds: Start here, extend through ``base``: a subset of ``base`` (in base
            order) the frontier and the result start from, while extensions
            still come from all of ``base``.  With ``seeds = σ[first.c](base)``
            the result is ``σ[first.c](ϕ(base))`` in the same order, and only
            those paths are built and charged (see
            :func:`~repro.algebra.expressions.seeded_closure_input`).  ϕWalk's
            non-termination bound and ϕShortest's base domination keep
            reading all of ``base``.
        one_per_pair: ϕShortest only: keep the first path of every endpoint
            pair and nothing else — ``π(*,*,1)(τA(γST(ϕShortest(base))))`` in
            its row order, found as one search (see :func:`_shortest` and
            :func:`~repro.algebra.expressions.shortest_selector_input`).

    Raises:
        NonTerminatingQueryError: for WALK without ``max_length`` when the
            closure provably does not terminate (a generated path exceeded
            the total number of distinct edges in the base, which implies a
            reachable cycle and therefore infinitely many walks).
        BudgetExceeded: when ``budget`` is exhausted before the fix point.
    """
    graph, paths, produced = _closure(base, restrictor, max_length, budget, seeds, one_per_pair)
    # Drain the kernel before decoding: its working set (seen, frontier, queue)
    # is freed before any Path is built, which measured 4-13 % faster than
    # decoding while the generator is still alive.
    produced = list(produced)
    unchecked = Path._unchecked
    paths += [unchecked(graph, seq) for seq in produced]
    return PathSet.from_unique(paths)


def iter_recursive_closure(
    base: PathSet,
    restrictor: Restrictor = Restrictor.WALK,
    max_length: int | None = None,
    budget: QueryBudget | None = None,
    seeds: PathSet | None = None,
    one_per_pair: bool = False,
) -> Iterator[Path]:
    """Lazily yield ``ϕ_restrictor(base)``: the base first, then each fix-point round.

    The streaming form of :func:`recursive_closure`, used by the pull-based
    pipeline so a cursor that consumes only a handful of paths never pays for
    (or holds in memory) the rest of the closure: rounds are expanded one
    frontier entry at a time, and suspending the generator suspends the fix
    point with it.  Yielded paths are exactly the paths
    :func:`recursive_closure` returns, in the same order — it drains the same
    generator.

    ϕShortest streams too: its queue pops paths in non-decreasing length, so a
    popped path that survives domination is final and is yielded at once.

    For WALK without ``max_length`` the non-termination guard of
    :func:`recursive_closure` applies lazily: the
    :class:`~repro.errors.NonTerminatingQueryError` is raised at the moment
    an over-long walk would be generated, so a consumer that stops earlier
    never sees it.
    """
    graph, paths, produced = _closure(base, restrictor, max_length, budget, seeds, one_per_pair)
    yield from paths
    unchecked = Path._unchecked
    for seq in produced:
        yield unchecked(graph, seq)


def recursive_closure_postfilter(
    base: PathSet,
    restrictor: Restrictor,
    max_length: int,
    budget: QueryBudget | None = None,
) -> PathSet:
    """Reference strategy: enumerate bounded walks, then filter (ablation baseline).

    Unlike :func:`recursive_closure`, non-conforming intermediate paths are
    kept and extended, so the cost is the full walk-closure cost regardless of
    the restrictor.  Results are identical to the pruning strategy whenever
    ``max_length`` is large enough to cover every conforming path.
    """
    walks = recursive_closure(base, Restrictor.WALK, max_length, budget)
    return filter_by_restrictor(walks, restrictor)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def _closure(
    base: PathSet,
    restrictor: Restrictor,
    max_length: int | None,
    budget: QueryBudget | None,
    seeds: PathSet | None,
    one_per_pair: bool = False,
) -> tuple[object, list[Path], Iterable[_Seq]]:
    """The closure as ``(graph, paths it starts with, interleaved tuples that follow)``.

    The paths are the conforming origin (``base`` or its ``seeds``) in base
    order, the caller's own :class:`Path` objects; the tuples — lazy, one per
    ``next()`` — decode against ``graph``.  ϕShortest orders by
    length rather than origin first, so everything it finds is in the tuples.
    This is the only place a :class:`Path` is turned into a tuple: the two loops
    below see tuples and nothing else.
    """
    origin = base if seeds is None else seeds
    if not len(origin):
        return None, [], ()
    graph = next(iter(origin)).graph
    seqs = [path.interleaved() for path in base]
    origin_seqs = seqs if seeds is None else [path.interleaved() for path in seeds]
    # One base length L: a closure path of length kL splits into base segments
    # in exactly one way, so each (path, extension) pair yields its own tuple.
    # Mixed lengths do not: with {0, 1}, (n) ∘ e is the start path e itself.
    dedup = len({len(seq) for seq in seqs}) > 1
    if restrictor is Restrictor.SHORTEST:
        return graph, [], _shortest(seqs, origin_seqs, max_length, budget, one_per_pair, dedup)
    predicate = _PREDICATES.get(restrictor)
    start = [
        (path, seq)
        for path, seq in zip(origin, origin_seqs)
        if predicate is None or predicate(path)
    ]
    if not start:
        return graph, [], ()
    rounds = _rounds(seqs, [seq for _, seq in start], restrictor, max_length, budget, dedup)
    return graph, [path for path, _ in start], rounds


def _mask_interner() -> Callable[[Iterable[Hashable]], tuple[int, bool]]:
    """A fresh ``ids -> (bitmask, ids were pairwise distinct)`` with its own bit table.

    Bits are handed out in first-come order, one table per closure: the masks
    are as narrow as the identifiers the base actually mentions (not as wide as
    the graph), and the kernel needs no dense numbering from the graph.
    """
    bits: dict[Hashable, int] = {}

    def mask_of(ids: Iterable[Hashable]) -> tuple[int, bool]:
        mask = 0
        distinct = True
        for identifier in ids:
            bit = bits.get(identifier)
            if bit is None:
                bit = bits[identifier] = 1 << len(bits)
            elif mask & bit:
                distinct = False
            mask |= bit
        return mask, distinct

    return mask_of


#: What a restrictor probes, as slices of an interleaved tuple: of a base path
#: used as an *extension* (its first node is the extended path's last and is
#: already accounted for), and of a path the closure *starts* from.  Trail
#: probes edges, Acyclic nodes; Simple probes an extension's nodes except its
#: last, which alone may close a cycle back to the first node and is checked
#: separately.  Walk probes nothing: its masks are all zero.
_NOTHING = slice(0, 0)
_PROBES: dict[Restrictor, tuple[slice, slice]] = {
    Restrictor.WALK: (_NOTHING, _NOTHING),
    Restrictor.TRAIL: (slice(1, None, 2), slice(1, None, 2)),
    Restrictor.ACYCLIC: (slice(2, None, 2), slice(0, None, 2)),
    Restrictor.SIMPLE: (slice(2, -1, 2), slice(0, None, 2)),
}

_NON_TERMINATING = (
    "ϕWalk does not terminate on this input (cycle detected); "
    "provide max_length or use a restricted ϕ variant"
)


def _rounds(
    base: list[_Seq],
    start: list[_Seq],
    restrictor: Restrictor,
    max_length: int | None,
    budget: QueryBudget | None,
    dedup: bool,
) -> Iterator[_Seq]:
    """The fix point of Definition 4.1 beyond ``start``, one new path per ``next()``.

    ``start`` is the conforming origin; extensions come from all of ``base``,
    bucketed per first node in base order.  Each bucket entry is ``(length,
    mask, distinct, tail)`` — the bits the restrictor probes, whether the
    probed identifiers are distinct among themselves (a property of the
    extension alone, decided once), and the interleaved slice appended to an
    accepted path — plus, for Simple, the extension's last node and its bit.
    Each frontier entry carries the mask of what its path visited, so a
    rejected candidate costs one ``&`` and is never built or hashed.

    Pruning is complete for Trail, Acyclic and Simple because removing the
    last base segment from a conforming path yields a conforming path: the
    prefix of a trail is a trail, the prefix of an acyclic path is acyclic,
    and the prefix of a simple path is acyclic (hence simple).  ϕWalk is the
    same loop with all-zero masks and, unbounded, a sound non-termination
    detector: a walk longer than the number of distinct edges in all of
    ``base`` repeats an edge, so a cycle is reachable and the closure infinite.
    The length bound is checked before a candidate is built.  Only with
    ``dedup`` (base paths of mixed lengths) can two (path, extension) pairs
    build the same tuple, so only then is a built tuple probed against a set.
    """
    simple = restrictor is Restrictor.SIMPLE
    guard = restrictor is Restrictor.WALK and max_length is None
    if guard:
        bound = len({edge_id for seq in base for edge_id in seq[1::2]})
    else:
        bound = sys.maxsize if max_length is None else max_length
    mask_of = _mask_interner()
    probe, visited_by = _PROBES[restrictor]
    buckets: dict[Hashable, list[tuple]] = {}
    for seq in base:
        if len(seq) == 1:
            continue  # p ∘ (n) = p: a zero-length segment never yields a new path
        mask, distinct = mask_of(seq[probe])
        entry = (len(seq) // 2, mask, distinct, seq[1:])
        if simple:
            entry += (seq[-1], mask_of(seq[-1:])[0])
        buckets.setdefault(seq[0], []).append(entry)
    frontier = [(seq, mask_of(seq[visited_by])[0]) for seq in start]
    # Membership only, never iterated: hash order cannot leak into the result.
    seen = set(start) if dedup else None

    bucket_of = buckets.get
    budgeted = budget is not None
    label = f"ϕ{restrictor.value.capitalize()}"
    depth = 0
    scanned = 0
    while frontier:
        produced: list[tuple[_Seq, int]] = []
        if budgeted:
            depth += 1
            budget.checkpoint(label, depth=depth)
        for seq, visited in frontier:
            if budgeted:
                # Clock check per consumed frontier chunk, not only per
                # produced path: rejection-heavy rounds stay killable.
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
                if length and first == seq[-1]:
                    continue  # a closed cycle: extending it would repeat its first node inside
                for ext_len, prefix_mask, distinct, tail, last, last_bit in extensions:
                    if length + ext_len > bound:
                        continue
                    if not distinct or visited & prefix_mask:
                        continue
                    extended = visited | prefix_mask
                    if last != first:
                        if extended & last_bit:
                            continue
                        extended |= last_bit
                    joined = seq + tail
                    if dedup:
                        known = len(seen)
                        seen.add(joined)
                        if len(seen) == known:
                            continue
                    produced.append((joined, extended))
                    if budgeted:
                        budget.charge(1, label)
                    yield joined
            else:
                for ext_len, ext_mask, distinct, tail in extensions:
                    if length + ext_len > bound:
                        if guard:
                            raise NonTerminatingQueryError(_NON_TERMINATING)
                        continue
                    if not distinct or visited & ext_mask:
                        continue
                    joined = seq + tail
                    if dedup:
                        known = len(seen)
                        seen.add(joined)
                        if len(seen) == known:
                            continue
                    produced.append((joined, visited | ext_mask))
                    if budgeted:
                        budget.charge(1, label)
                    yield joined
        frontier = produced


def _shortest(
    base: list[_Seq],
    origin: list[_Seq],
    max_length: int | None,
    budget: QueryBudget | None,
    one_per_pair: bool,
    dedup: bool,
) -> Iterator[_Seq]:
    """All minimum-length closure paths per endpoint pair (ϕShortest), in pop order.

    The base paths are treated as weighted
    edges of a *derived graph* (weight = path length); a Dijkstra-style
    expansion ordered by total length enumerates every composition whose
    length equals the distance between its endpoints.  Compositions strictly
    longer than the known distance of their endpoints can never be prefixes
    of new shortest compositions (a shorter prefix always exists in the
    closure), so they are discarded, which guarantees termination even on
    cyclic inputs.

    Origin paths that are already dominated at insert time — another base path
    connects the same endpoint pair with strictly fewer edges — are skipped
    instead of pushed: the shorter path pops first, so the dominated one could
    only ever be discarded at pop time anyway.  Domination is decided over
    all of ``base``; only ``origin`` (the base or its seeds) is pushed.

    The queue is one FIFO list per length, popped shortest length first
    (Dial's bucket queue).  Zero-length segments are never extensions, so every
    push lands in a strictly longer bucket than the one being popped: pops come
    in ``(length, push order)`` order, exactly a heap keyed that way.  Pops
    come in non-decreasing length, so the first pop of an endpoint pair fixes
    its distance and every path that survives the check is final: each is
    yielded as it is popped.  As in :func:`_rounds`, only a base of mixed
    lengths can push one tuple twice, so only then is a ``seen`` set kept.

    ``one_per_pair`` is ANY SHORTEST's quota of one: the first pop of a pair is
    yielded, and a later pop of the pair is neither yielded nor extended, nor
    is an extension onto a settled pair pushed.  That keeps exactly the path
    the crown ``π(*,*,1)(τA(γST(·)))`` keeps (shortest, then first in pop
    order), in the same row order: if p₁ pops before p₂ with the same
    endpoints, every p₁ ∘ e is pushed before p₂ ∘ e into the same bucket, so
    the first pop of every pair extends the first pop of its prefix's pair
    and dropping p₂ drops no first pop.  The paths built fall from every
    shortest path of every pair to about one per reached pair.  The quota
    costs no test per pop: a settled pair records its distance minus one, so
    a tie fails the same ``>`` tests a longer path fails.
    """
    bound = sys.maxsize if max_length is None else max_length
    tie = 1 if one_per_pair else 0
    best_base: dict[tuple[Hashable, Hashable], int] = {}
    buckets: dict[Hashable, list[tuple[int, Hashable, _Seq]]] = {}
    for seq in base:
        length = len(seq) // 2
        if length > bound:
            continue
        key = (seq[0], seq[-1])
        known = best_base.get(key)
        if known is None or length < known:
            best_base[key] = length
        if length:  # p ∘ (n) = p: a zero-length segment never yields a new path
            buckets.setdefault(seq[0], []).append((length, seq[-1], seq[1:]))

    queue: defaultdict[int, list[_Seq]] = defaultdict(list)
    for seq in origin:
        length = len(seq) // 2
        if length > bound or length > best_base[(seq[0], seq[-1])]:
            continue
        queue[length].append(seq)

    best: dict[tuple[Hashable, Hashable], int] = {}
    bucket_of = buckets.get
    budgeted = budget is not None
    pending = 0
    seen: set[_Seq] = set()
    while queue:
        length = min(queue)
        for seq in queue.pop(length):
            if budgeted:
                pending += 1
                if pending >= _BUDGET_BATCH:
                    budget.note_depth(length)
                    budget.charge(pending, "ϕShortest")
                    pending = 0
            if dedup:
                if seq in seen:
                    continue
                seen.add(seq)
            first = seq[0]
            key = (first, seq[-1])
            known = best.get(key)
            if known is None:
                best[key] = length - tie
            elif length > known:
                continue
            yield seq
            for ext_len, last, tail in bucket_of(seq[-1], ()):
                new_length = length + ext_len
                if new_length > bound:
                    continue
                known_new = best.get((first, last))
                if known_new is not None and new_length > known_new:
                    continue
                new_seq = seq + tail
                if not dedup or new_seq not in seen:
                    queue[new_length].append(new_seq)
    if budgeted and pending:
        budget.charge(pending, "ϕShortest")
