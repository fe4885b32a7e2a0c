"""Int-encoded paths over a :class:`~repro.graph.compact.CompactGraph`.

The object representation (:class:`~repro.paths.path.Path`) stores a path as
one interleaved tuple of the graph's own identifiers.  Against a compact graph
the same path is an *interleaved tuple of dense ints*::

    (n0, e0, n1, e1, n2, ...)      # node indexes at even slots, edge at odd

The interleaving is unambiguous — node and edge index spaces both start at 0,
but a slot's parity decides which table it points into, so decoding is
lossless — and compact: a path is one tuple of small ints, whatever the
graph's identifiers look like.

:class:`IntPath` / :class:`IntPathSet` wrap the raw sequences with a small API
for code that holds encoded paths across a boundary (pickling, a wire format);
decoding goes through the ``_unchecked`` fast constructor against whatever
graph view the caller names.  The closure kernel does **not** use this
encoding: :mod:`repro.semantics.restrictors` runs on interleaved tuples of the
base's *own* identifiers, which need no translation table in either direction.
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.compact import CompactGraph
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = [
    "IntPath",
    "IntPathSet",
    "encode_seq",
    "decode_seq",
    "encode_base",
]


def encode_seq(compact: CompactGraph, path: Path) -> tuple[int, ...] | None:
    """Encode ``path`` as an interleaved int tuple, or ``None`` if any of its
    identifiers is unknown to ``compact`` (the caller then falls back to the
    object path)."""
    ids = path.interleaved()
    node_index = compact._node_index
    edge_index = compact._edge_index
    try:
        seq = [0] * len(ids)
        seq[::2] = [node_index[n] for n in ids[::2]]
        seq[1::2] = [edge_index[e] for e in ids[1::2]]
    except KeyError:
        return None
    return tuple(seq)


def decode_seq(compact: CompactGraph, graph, seq: tuple[int, ...]) -> Path:
    """Decode an interleaved int tuple back into a :class:`Path` bound to
    ``graph`` (the view the query was pinned to — not necessarily ``compact``
    itself, so downstream property reads resolve exactly as before)."""
    node_ids = compact._node_ids
    edge_ids = compact._edge_ids
    ids = [None] * len(seq)
    ids[::2] = [node_ids[i] for i in seq[::2]]
    ids[1::2] = [edge_ids[i] for i in seq[1::2]]
    return Path._unchecked(graph, tuple(ids))


def encode_base(compact: CompactGraph, paths) -> list[tuple[int, ...]] | None:
    """Encode every path in ``paths``; ``None`` if any path fails to encode."""
    encoded = []
    append = encoded.append
    for path in paths:
        seq = encode_seq(compact, path)
        if seq is None:
            return None
        append(seq)
    return encoded


class IntPath:
    """A single int-encoded path (see module docstring for the layout).

    Equality and hashing are over ``(graph identity-free) seq`` only, matching
    ``Path`` semantics (two paths are equal iff their node/edge id sequences
    are — and per-compact-graph the int encoding is injective).
    """

    __slots__ = ("_compact", "_seq")

    def __init__(self, compact: CompactGraph, seq: tuple[int, ...]):
        self._compact = compact
        self._seq = tuple(seq)

    @classmethod
    def encode(cls, compact: CompactGraph, path: Path) -> "IntPath":
        seq = encode_seq(compact, path)
        if seq is None:
            raise KeyError(f"path references objects unknown to {compact!r}")
        return cls(compact, seq)

    @property
    def seq(self) -> tuple[int, ...]:
        return self._seq

    @property
    def node_indexes(self) -> tuple[int, ...]:
        return self._seq[::2]

    @property
    def edge_indexes(self) -> tuple[int, ...]:
        return self._seq[1::2]

    def __len__(self) -> int:
        """Path length = number of edges (matches ``len(Path)``)."""
        return len(self._seq) // 2

    @property
    def first_index(self) -> int:
        return self._seq[0]

    @property
    def last_index(self) -> int:
        return self._seq[-1]

    def decode(self, graph=None) -> Path:
        """Materialize the :class:`Path`, bound to ``graph`` (default: the
        compact graph itself)."""
        return decode_seq(self._compact, graph if graph is not None else self._compact, self._seq)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPath):
            return self._seq == other._seq
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntPath({self._seq!r})"


class IntPathSet:
    """An ordered collection of int-encoded paths sharing one compact graph."""

    __slots__ = ("_compact", "_seqs")

    def __init__(self, compact: CompactGraph, seqs=()):
        self._compact = compact
        self._seqs: list[tuple[int, ...]] = [tuple(s) for s in seqs]

    @classmethod
    def encode(cls, compact: CompactGraph, paths) -> "IntPathSet":
        seqs = encode_base(compact, paths)
        if seqs is None:
            raise KeyError(f"path set references objects unknown to {compact!r}")
        return cls(compact, seqs)

    @property
    def seqs(self) -> list[tuple[int, ...]]:
        return self._seqs

    def __len__(self) -> int:
        return len(self._seqs)

    def __iter__(self) -> Iterator[IntPath]:
        compact = self._compact
        for seq in self._seqs:
            yield IntPath(compact, seq)

    def decode(self, graph=None) -> PathSet:
        """Materialize a :class:`PathSet` (sequences are assumed unique, as
        every closure maintains — mirrors ``PathSet.from_unique``)."""
        target = graph if graph is not None else self._compact
        compact = self._compact
        return PathSet.from_unique(decode_seq(compact, target, seq) for seq in self._seqs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPathSet):
            return self._seqs == other._seqs
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntPathSet(len={len(self._seqs)})"
