"""The pre-incremental closure strategy: an independent oracle for ϕ.

Moved verbatim from :mod:`repro.semantics.restrictors`, where it was kept as a
perf baseline.  It shares nothing with the closure kernel there — it goes
through :meth:`PathSet.join <repro.paths.pathset.PathSet.join>` and the
path-level predicates on every round — which is what makes it worth comparing
against: ``tests/test_closure_equivalence.py`` asserts the two agree, and
PERFORMANCE.md ("The closure kernel") records the kernel's speedup over it.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.errors import NonTerminatingQueryError
from repro.execution import QueryBudget
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.paths.predicates import is_acyclic, is_simple, is_trail
from repro.semantics.restrictors import Restrictor

__all__ = ["recursive_closure_baseline"]

_PREDICATES = {
    Restrictor.TRAIL: is_trail,
    Restrictor.ACYCLIC: is_acyclic,
    Restrictor.SIMPLE: is_simple,
}

_BUDGET_BATCH = QueryBudget.CHARGE_BATCH


def _closure_label(restrictor: Restrictor) -> str:
    return f"ϕ{restrictor.value.capitalize()}"


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
    only the work per candidate differs.  PERFORMANCE.md ("The closure
    kernel") records the speedup of the incremental engine over this strategy.
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
