"""Reusable first-node join index over a set of base paths.

The path join ``S1 ⋈ S2`` — :meth:`PathSet.join
<repro.paths.pathset.PathSet.join>` and the pipeline's hash join — needs the
right-hand paths bucketed by their first node, so that the extensions of a
path ending in node ``v`` can be enumerated in time proportional to their
number.  :class:`JoinIndex` makes that index a first-class value: a caller
that joins against the same right-hand side repeatedly builds it once and
passes it to :meth:`PathSet.join`.

The closure kernel (:mod:`repro.semantics.restrictors`) does not use it: its
per-first-node buckets hold bitmasks and interleaved tails rather than paths,
and are private to the closure that built them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.paths.path import Path

__all__ = ["JoinIndex"]

_EMPTY: tuple[Path, ...] = ()


class JoinIndex:
    """Paths of a base set bucketed by their first node.

    The index is immutable by convention: it is built once from an iterable of
    paths and only queried afterwards, which is what makes it safe to share
    between joins.
    """

    __slots__ = ("_by_first", "_size")

    def __init__(self, paths: Iterable[Path]) -> None:
        by_first: dict[str, list[Path]] = {}
        size = 0
        for path in paths:
            by_first.setdefault(path.first(), []).append(path)
            size += 1
        self._by_first = by_first
        self._size = size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def extensions(self, node_id: str) -> list[Path] | tuple[Path, ...]:
        """Return the base paths starting at ``node_id`` (possibly empty)."""
        return self._by_first.get(node_id, _EMPTY)

    def join_from(self, left: Path) -> Iterator[Path]:
        """Yield ``left ∘ e`` for every indexed extension ``e`` of ``left``."""
        for extension in self._by_first.get(left.last(), _EMPTY):
            yield left.concat(extension)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:
        return f"JoinIndex(paths={self._size}, first_nodes={len(self._by_first)})"
