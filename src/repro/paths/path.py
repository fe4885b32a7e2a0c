"""Paths over property graphs (paper Section 2.2).

A path is an alternating sequence ``(n1, e1, n2, e2, ..., ek, nk+1)`` of node
and edge identifiers such that every edge ``ei`` connects ``ni`` to ``ni+1``.
A path of length zero consists of a single node.  Paths are the first-class
values manipulated by every operator of the path algebra.

:class:`Path` stores exactly that interleaved tuple — nodes at even positions,
edges at odd ones — and keeps a reference to the graph so that labels and
properties can be resolved by the path operators of Section 3.1 (``First``,
``Last``, ``Node``, ``Edge``, ``Len``, ``Label``, ``Prop``).  The closure
kernel computes on the same tuple, so turning one of its results into a
:class:`Path` is one object, and concatenation is one tuple operation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import InvalidPathError, PathConcatenationError
from repro.graph.model import Edge, Node, PropertyGraph

__all__ = ["Path"]


class Path:
    """An alternating node/edge sequence in a property graph.

    Instances are immutable and hashable; two paths are equal iff they have
    the same sequence of node and edge identifiers (graph identity is not part
    of equality, mirroring the paper where all paths live in one graph).
    """

    __slots__ = ("_graph", "_seq", "_hash")

    def __init__(
        self,
        graph: PropertyGraph,
        nodes: Sequence[str],
        edges: Sequence[str] = (),
        validate: bool = True,
    ) -> None:
        if validate:
            _validate_sequence(graph, nodes, edges)
        seq: list[str] = [""] * (len(nodes) + len(edges))
        seq[::2] = nodes
        seq[1::2] = edges
        self._graph = graph
        self._seq: tuple[str, ...] = tuple(seq)
        # Hashing is lazy: a path that never enters a set never pays for it.
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(cls, graph: PropertyGraph, seq: tuple[str, ...]) -> "Path":
        """Build a path from an already-valid interleaved tuple, bypassing ``__init__``.

        Internal fast path for :meth:`concat`, :meth:`prefix` / :meth:`suffix`,
        the scans and the closure kernel, where the alternating-sequence
        invariant holds by construction.
        """
        path = object.__new__(cls)
        path._graph = graph
        path._seq = seq
        path._hash = None
        return path

    @classmethod
    def from_node(cls, graph: PropertyGraph, node_id: str) -> "Path":
        """Return the length-zero path consisting of ``node_id``."""
        return cls(graph, [node_id])

    @classmethod
    def from_edge(cls, graph: PropertyGraph, edge_id: str) -> "Path":
        """Return the length-one path traversing ``edge_id``."""
        edge = graph.edge(edge_id)
        return cls._unchecked(graph, (edge.source, edge_id, edge.target))

    @classmethod
    def from_interleaved(cls, graph: PropertyGraph, sequence: Sequence[str]) -> "Path":
        """Build a path from the paper's interleaved notation ``(n1, e1, n2, ...)``."""
        if len(sequence) % 2 == 0:
            raise InvalidPathError(
                "interleaved path sequence must have odd length (nodes at even positions)"
            )
        return cls(graph, sequence[::2], sequence[1::2])

    # ------------------------------------------------------------------
    # Path operators (Section 3.1)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> PropertyGraph:
        """The graph the path belongs to."""
        return self._graph

    def first(self) -> str:
        """``First(p)`` — identifier of the first node."""
        return self._seq[0]

    def last(self) -> str:
        """``Last(p)`` — identifier of the last node."""
        return self._seq[-1]

    def node(self, i: int) -> str:
        """``Node(p, i)`` — identifier of the i-th node (1-based, as in the paper)."""
        count = len(self._seq) // 2 + 1
        if i < 1 or i > count:
            raise InvalidPathError(f"node position {i} out of range 1..{count}")
        return self._seq[2 * i - 2]

    def edge(self, j: int) -> str:
        """``Edge(p, j)`` — identifier of the j-th edge (1-based, as in the paper)."""
        count = len(self._seq) // 2
        if j < 1 or j > count:
            raise InvalidPathError(f"edge position {j} out of range 1..{count}")
        return self._seq[2 * j - 1]

    def len(self) -> int:
        """``Len(p)`` — the number of edges."""
        return len(self._seq) // 2

    def label(self) -> str:
        """``lambda(p)`` — concatenation of the edge labels along the path."""
        parts = []
        for edge_id in self._seq[1::2]:
            label = self._graph.edge(edge_id).label
            parts.append(label if label is not None else "")
        return "".join(parts)

    def label_sequence(self) -> tuple[str | None, ...]:
        """Return the tuple of edge labels along the path (``None`` for unlabeled edges)."""
        return tuple(self._graph.edge(edge_id).label for edge_id in self._seq[1::2])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> tuple[str, ...]:
        """The node identifiers, in order."""
        return self._seq[::2]

    @property
    def edge_ids(self) -> tuple[str, ...]:
        """The edge identifiers, in order."""
        return self._seq[1::2]

    def nodes(self) -> list[Node]:
        """Return the :class:`Node` objects along the path, in order."""
        return [self._graph.node(node_id) for node_id in self._seq[::2]]

    def edges(self) -> list[Edge]:
        """Return the :class:`Edge` objects along the path, in order."""
        return [self._graph.edge(edge_id) for edge_id in self._seq[1::2]]

    def first_node(self) -> Node:
        """Return the first node as a :class:`Node` object."""
        return self._graph.node(self.first())

    def last_node(self) -> Node:
        """Return the last node as a :class:`Node` object."""
        return self._graph.node(self.last())

    def interleaved(self) -> tuple[str, ...]:
        """Return the paper's interleaved ``(n1, e1, n2, ..., ek, nk+1)`` representation."""
        return self._seq

    def endpoints(self) -> tuple[str, str]:
        """Return ``(First(p), Last(p))``."""
        return (self.first(), self.last())

    # ------------------------------------------------------------------
    # Concatenation (p1 ∘ p2)
    # ------------------------------------------------------------------
    def concat(self, other: "Path") -> "Path":
        """Return ``self ∘ other``; requires ``Last(self) == First(other)``."""
        if self.last() != other.first():
            raise PathConcatenationError(
                f"cannot concatenate: Last(p1)={self.last()!r} != First(p2)={other.first()!r}"
            )
        return Path._unchecked(self._graph, self._seq + other._seq[1:])

    def can_concat(self, other: "Path") -> bool:
        """Return ``True`` when ``self ∘ other`` is defined."""
        return self.last() == other.first()

    def prefix(self, length: int) -> "Path":
        """Return the prefix of the path containing the first ``length`` edges."""
        if length < 0 or length > self.len():
            raise InvalidPathError(f"prefix length {length} out of range 0..{self.len()}")
        return Path._unchecked(self._graph, self._seq[: 2 * length + 1])

    def suffix(self, length: int) -> "Path":
        """Return the suffix of the path containing the last ``length`` edges."""
        if length < 0 or length > self.len():
            raise InvalidPathError(f"suffix length {length} out of range 0..{self.len()}")
        return Path._unchecked(self._graph, self._seq[-(2 * length + 1):])

    def reverse_endpoints(self) -> tuple[str, str]:
        """Return ``(Last(p), First(p))`` — convenience for undirected-style lookups."""
        return (self.last(), self.first())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Path") -> "Path":
        """``p1 @ p2`` is a shorthand for :meth:`concat`."""
        return self.concat(other)

    def __len__(self) -> int:
        return self.len()

    def __iter__(self) -> Iterator[str]:
        return iter(self._seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self._seq == other._seq

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._seq)
        return value

    def __lt__(self, other: "Path") -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._seq < other._seq

    def __repr__(self) -> str:
        return f"Path({', '.join(self._seq)})"

    def __str__(self) -> str:
        return "(" + ", ".join(self._seq) + ")"


def _validate_sequence(graph: PropertyGraph, nodes: Sequence[str], edges: Sequence[str]) -> None:
    """Check the alternating-sequence invariants of Section 2.2."""
    if not nodes:
        raise InvalidPathError("a path must contain at least one node")
    if len(nodes) != len(edges) + 1:
        raise InvalidPathError(
            f"a path with {len(edges)} edges must have {len(edges) + 1} nodes, got {len(nodes)}"
        )
    for node_id in nodes:
        if not graph.has_node(node_id):
            raise InvalidPathError(f"unknown node in path: {node_id!r}")
    for index, edge_id in enumerate(edges):
        if not graph.has_edge(edge_id):
            raise InvalidPathError(f"unknown edge in path: {edge_id!r}")
        edge = graph.edge(edge_id)
        if edge.source != nodes[index] or edge.target != nodes[index + 1]:
            raise InvalidPathError(
                f"edge {edge_id!r} does not connect {nodes[index]!r} to {nodes[index + 1]!r}"
            )
