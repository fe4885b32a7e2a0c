"""Sets of paths — the carrier of the path algebra.

Every operator of the core and recursive algebra consumes and produces a
:class:`PathSet` (Section 3: "the core algebra is closed under set of
paths").  ``PathSet`` behaves like a frozen set of :class:`Path` values with
deterministic iteration order (insertion order of first occurrence), which
keeps query results, tests and benchmark output reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph
from repro.paths.access import edge_paths, node_paths
from repro.paths.join_index import JoinIndex
from repro.paths.path import Path

__all__ = ["PathSet"]


class PathSet:
    """An ordered, duplicate-free collection of paths.

    The membership index (a hash set over the paths) is built lazily: sets
    constructed through :meth:`from_unique` defer hashing until the first
    containment / equality / ``add`` call, so pipelines that only iterate a
    result never pay for it.
    """

    __slots__ = ("_paths", "_index")

    def __init__(self, paths: Iterable[Path] = ()) -> None:
        self._paths: list[Path] = []
        self._index: set[Path] | None = set()
        for path in paths:
            self.add(path)

    # ------------------------------------------------------------------
    # Constructors for the algebra atoms
    # ------------------------------------------------------------------
    @classmethod
    def nodes_of(cls, graph: PropertyGraph) -> "PathSet":
        """``Nodes(G)`` — all length-zero paths of the graph."""
        return cls.from_unique(node_paths(graph))

    @classmethod
    def edges_of(cls, graph: PropertyGraph) -> "PathSet":
        """``Edges(G)`` — all length-one paths of the graph."""
        return cls.from_unique(edge_paths(graph))

    @classmethod
    def empty(cls) -> "PathSet":
        """Return an empty path set."""
        return cls()

    @classmethod
    def from_unique(cls, paths: Iterable[Path]) -> "PathSet":
        """Bulk-build from paths the producer guarantees to be duplicate-free.

        Skips the per-path dedup probe of :meth:`add` and defers building the
        membership index until it is first needed.  Callers are responsible
        for the uniqueness guarantee (scans, filters of unique inputs, and
        the physical pipeline operators, which all dedup while streaming).
        """
        result = object.__new__(cls)
        result._paths = list(paths)
        result._index = None
        return result

    # ------------------------------------------------------------------
    # Mutation (used during construction only)
    # ------------------------------------------------------------------
    def _ensure_index(self) -> set[Path]:
        index = self._index
        if index is None:
            index = self._index = set(self._paths)
        return index

    def add(self, path: Path) -> bool:
        """Add ``path`` if not already present; return ``True`` if it was added."""
        index = self._ensure_index()
        if path in index:
            return False
        index.add(path)
        self._paths.append(path)
        return True

    def update(self, paths: Iterable[Path]) -> int:
        """Add many paths; return the number actually added."""
        added = 0
        for path in paths:
            if self.add(path):
                added += 1
        return added

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "PathSet") -> "PathSet":
        """Return the set union, preserving this set's order first."""
        result = PathSet.from_unique(self._paths)
        result.update(other._paths)
        return result

    def intersection(self, other: "PathSet") -> "PathSet":
        """Return the paths present in both sets."""
        return PathSet.from_unique(path for path in self._paths if path in other)

    def difference(self, other: "PathSet") -> "PathSet":
        """Return the paths present in this set but not in ``other``."""
        return PathSet.from_unique(path for path in self._paths if path not in other)

    def filter(self, predicate: Callable[[Path], bool]) -> "PathSet":
        """Return the paths satisfying ``predicate`` (order preserved)."""
        return PathSet.from_unique(path for path in self._paths if predicate(path))

    def join(
        self, other: "PathSet | JoinIndex", budget: QueryBudget | None = None
    ) -> "PathSet":
        """Path join ``self ⋈ other``: concatenate every compatible pair.

        A pair ``(p1, p2)`` is compatible when ``Last(p1) == First(p2)``.  The
        right side is indexed by first node (see :class:`JoinIndex`) so the
        join costs ``O(|self| + |other| + |result|)`` pair probes rather than
        the naive quadratic scan; callers that join against the same base
        repeatedly can pass a prebuilt :class:`JoinIndex` directly.

        When a :class:`~repro.execution.QueryBudget` is given, produced pairs
        are charged against it in batches, so a quadratic join blow-up is
        killed within one check interval rather than running to completion.
        """
        index = other if isinstance(other, JoinIndex) else JoinIndex(other._paths)
        result = PathSet()
        if budget is None:
            for left in self._paths:
                for right in index.extensions(left.last()):
                    result.add(left.concat(right))
            return result
        batch = QueryBudget.CHARGE_BATCH
        pending = 0
        for left in self._paths:
            for right in index.extensions(left.last()):
                result.add(left.concat(right))
                pending += 1
                if pending >= batch:
                    budget.charge(pending, "⋈")
                    pending = 0
        if pending:
            budget.charge(pending, "⋈")
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def paths(self) -> list[Path]:
        """Return the paths as a list (deterministic order)."""
        return list(self._paths)

    def sorted(self, key: Callable[[Path], object] | None = None) -> list[Path]:
        """Return the paths sorted by ``key`` (default: length, then identity)."""
        if key is None:
            key = lambda path: (path.len(), path.interleaved())
        return sorted(self._paths, key=key)

    def endpoints(self) -> set[tuple[str, str]]:
        """Return the set of ``(First(p), Last(p))`` pairs occurring in the set."""
        return {path.endpoints() for path in self._paths}

    def lengths(self) -> list[int]:
        """Return the multiset of path lengths (sorted ascending)."""
        return sorted(path.len() for path in self._paths)

    def min_length(self) -> int | None:
        """Return the minimum path length, or ``None`` for an empty set."""
        if not self._paths:
            return None
        return min(path.len() for path in self._paths)

    def max_length(self) -> int | None:
        """Return the maximum path length, or ``None`` for an empty set."""
        if not self._paths:
            return None
        return max(path.len() for path in self._paths)

    def group_by_endpoints(self) -> dict[tuple[str, str], list[Path]]:
        """Partition the paths by their ``(source, target)`` endpoints."""
        groups: dict[tuple[str, str], list[Path]] = {}
        for path in self._paths:
            groups.setdefault(path.endpoints(), []).append(path)
        return groups

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, path: object) -> bool:
        return path in self._ensure_index()

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __bool__(self) -> bool:
        return bool(self._paths)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathSet):
            return NotImplemented
        return self._ensure_index() == other._ensure_index()

    def __or__(self, other: "PathSet") -> "PathSet":
        return self.union(other)

    def __and__(self, other: "PathSet") -> "PathSet":
        return self.intersection(other)

    def __sub__(self, other: "PathSet") -> "PathSet":
        return self.difference(other)

    def __repr__(self) -> str:
        preview = ", ".join(str(path) for path in self._paths[:3])
        suffix = ", ..." if len(self._paths) > 3 else ""
        return f"PathSet([{preview}{suffix}], size={len(self._paths)})"
