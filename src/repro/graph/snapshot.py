"""Immutable, version-pinned views of a :class:`~repro.graph.model.PropertyGraph`.

A :class:`GraphSnapshot` is the unit of *snapshot isolation* for the
concurrent query service: it exposes the full read API of
:class:`~repro.graph.model.PropertyGraph` but answers every call as of the
version at which the snapshot was taken.  Because the property graph is
append-only (objects are immutable, there is no delete or update), a snapshot
never copies anything — it filters reads by the version at which each object
was added, so taking one is O(1) and holding many is free.

Thread-safety model:

* mutations on the parent graph serialize on the parent's lock and publish
  each object (and its version) *before* linking it into any index;
* snapshot reads are lock-free: they only perform dict lookups and indexed
  list reads on append-only containers, which are safe under the GIL while a
  writer appends.  Dict *iteration* would not be (a concurrent insert can
  resize the table mid-iteration), which is why the parent also maintains
  append-only node/edge lists that snapshots slice instead.

Snapshots are created via :meth:`PropertyGraph.snapshot` (which holds the
parent lock for the version/size capture) — never directly.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import FrozenGraphError, UnknownObjectError
from repro.graph.model import Edge, Node, PropertyGraph, materialize

__all__ = ["GraphSnapshot"]


class GraphSnapshot:
    """A read-only view of a :class:`PropertyGraph` pinned to one version.

    Implements the whole read surface of :class:`PropertyGraph` (duck-typed:
    the evaluator, the physical pipeline, the cost model and the baselines all
    accept either), while every mutator raises
    :class:`~repro.errors.FrozenGraphError`.
    """

    __slots__ = ("_parent", "_version", "_num_nodes", "_num_edges", "name")

    def __init__(
        self, parent: PropertyGraph, version: int, num_nodes: int, num_edges: int
    ) -> None:
        self._parent = parent
        self._version = version
        self._num_nodes = num_nodes
        self._num_edges = num_edges
        self.name = f"{parent.name}@v{version}"

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The parent graph's mutation counter at snapshot time (pinned)."""
        return self._version

    @property
    def parent(self) -> PropertyGraph:
        """The live graph this snapshot is a view of."""
        return self._parent

    @property
    def frozen(self) -> bool:
        """Snapshots are always frozen."""
        return True

    def snapshot(self) -> "GraphSnapshot":
        """A snapshot of a snapshot is itself (it is already immutable)."""
        return self

    def freeze(self) -> "GraphSnapshot":
        """Snapshots are born frozen; returns self for API symmetry."""
        return self

    def compact_core(self):
        """The parent's columnar core when it matches this snapshot's version.

        A snapshot pinned at version ``v`` can only use a
        :class:`~repro.graph.compact.CompactGraph` built at exactly ``v``:
        an older core would miss objects this snapshot sees, a newer one
        would leak objects it must not.  Returns ``None`` otherwise (the
        access paths then read the view's objects).
        """
        compact = self._parent._compact
        if compact is not None and compact.version == self._version:
            return compact
        return None

    # ------------------------------------------------------------------
    # Mutators — all refused
    # ------------------------------------------------------------------
    def _refuse_mutation(self) -> None:
        raise FrozenGraphError(
            f"{self.name!r} is an immutable snapshot (version {self._version}); "
            "mutate the parent graph instead"
        )

    def add_node(self, *args: Any, **kwargs: Any) -> Node:
        self._refuse_mutation()

    def add_edge(self, *args: Any, **kwargs: Any) -> Edge:
        self._refuse_mutation()

    def add_nodes(self, nodes: Any) -> None:
        self._refuse_mutation()

    def add_edges(self, edges: Any) -> None:
        self._refuse_mutation()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _has_node(self, node_id: str) -> bool:
        added = self._parent._node_version.get(node_id)
        return added is not None and added <= self._version

    def _has_edge(self, edge_id: str) -> bool:
        added = self._parent._edge_version.get(edge_id)
        return added is not None and added <= self._version

    def has_node(self, node_id: str) -> bool:
        """Return ``True`` if ``node_id`` identified a node as of this version."""
        return self._has_node(node_id)

    def has_edge(self, edge_id: str) -> bool:
        """Return ``True`` if ``edge_id`` identified an edge as of this version."""
        return self._has_edge(edge_id)

    def __contains__(self, object_id: object) -> bool:
        return isinstance(object_id, str) and (
            self._has_node(object_id) or self._has_edge(object_id)
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        """Return the node with identifier ``node_id`` as of this version."""
        if not self._has_node(node_id):
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return self._parent._nodes[node_id]

    def edge(self, edge_id: str) -> Edge:
        """Return the edge with identifier ``edge_id`` as of this version."""
        if not self._has_edge(edge_id):
            raise UnknownObjectError(f"unknown edge: {edge_id!r}")
        return self._parent._edges[edge_id]

    def object(self, object_id: str) -> Node | Edge:
        """Return the node or edge with the given identifier as of this version."""
        if self._has_node(object_id):
            return self._parent._nodes[object_id]
        if self._has_edge(object_id):
            return self._parent._edges[object_id]
        raise UnknownObjectError(f"unknown object: {object_id!r}")

    def label_of(self, object_id: str) -> str | None:
        """Return ``lambda(o)`` for a node or edge identifier (``None`` if unlabeled)."""
        return self.object(object_id).label

    def property_of(self, object_id: str, name: str, default: Any = None) -> Any:
        """Return ``nu(o, name)`` for a node or edge identifier."""
        return self.object(object_id).property(name, default)

    def nodes(self) -> list[Node]:
        """Return the nodes present at snapshot time (insertion order)."""
        return self._parent._node_list[: self._num_nodes]

    def edges(self) -> list[Edge]:
        """Return the edges present at snapshot time (insertion order)."""
        return self._parent._edge_list[: self._num_edges]

    def node_ids(self) -> list[str]:
        """Return the node identifiers present at snapshot time."""
        return [node.id for node in self.nodes()]

    def edge_ids(self) -> list[str]:
        """Return the edge identifiers present at snapshot time."""
        return [edge.id for edge in self.edges()]

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate over the nodes present at snapshot time."""
        return iter(self.nodes())

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over the edges present at snapshot time."""
        return iter(self.edges())

    # ------------------------------------------------------------------
    # Adjacency and label indexes (filtered by version)
    # ------------------------------------------------------------------
    def out_edges(self, node_id: str) -> list[Edge]:
        """Return the edges whose source is ``node_id``, as of this version."""
        if not self._has_node(node_id):
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        parent = self._parent
        edge_version = parent._edge_version
        return [
            parent._edges[eid]
            for eid in parent._out[node_id]
            if edge_version[eid] <= self._version
        ]

    def in_edges(self, node_id: str) -> list[Edge]:
        """Return the edges whose target is ``node_id``, as of this version."""
        if not self._has_node(node_id):
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        parent = self._parent
        edge_version = parent._edge_version
        return [
            parent._edges[eid]
            for eid in parent._in[node_id]
            if edge_version[eid] <= self._version
        ]

    def out_degree(self, node_id: str) -> int:
        """Return the number of outgoing edges of ``node_id`` as of this version."""
        if not self._has_node(node_id):
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        edge_version = self._parent._edge_version
        return sum(
            1 for eid in self._parent._out[node_id] if edge_version[eid] <= self._version
        )

    def in_degree(self, node_id: str) -> int:
        """Return the number of incoming edges of ``node_id`` as of this version."""
        if not self._has_node(node_id):
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        edge_version = self._parent._edge_version
        return sum(
            1 for eid in self._parent._in[node_id] if edge_version[eid] <= self._version
        )

    def neighbors(self, node_id: str) -> list[str]:
        """Return target node identifiers reachable via one outgoing edge."""
        return [edge.target for edge in self.out_edges(node_id)]

    def nodes_by_label(self, label: str) -> list[Node]:
        """Return the nodes labelled ``label`` as of this version."""
        parent = self._parent
        node_version = parent._node_version
        return [
            parent._nodes[nid]
            for nid in parent._nodes_by_label.get(label, ())
            if node_version[nid] <= self._version
        ]

    def edges_by_label(self, label: str) -> list[Edge]:
        """Return the edges labelled ``label`` as of this version."""
        parent = self._parent
        edge_version = parent._edge_version
        return [
            parent._edges[eid]
            for eid in parent._edges_by_label.get(label, ())
            if edge_version[eid] <= self._version
        ]

    def node_labels(self) -> set[str]:
        """Return the labels used by at least one node as of this version."""
        # list(dict) is a single atomic snapshot of the keys; the per-label
        # filter then discards labels introduced only after this version.
        return {
            label for label in list(self._parent._nodes_by_label) if self.nodes_by_label(label)
        }

    def edge_labels(self) -> set[str]:
        """Return the labels used by at least one edge as of this version."""
        return {
            label for label in list(self._parent._edges_by_label) if self.edges_by_label(label)
        }

    # ------------------------------------------------------------------
    # Size and dunder protocol
    # ------------------------------------------------------------------
    def num_nodes(self) -> int:
        """Return ``|N|`` as of this version."""
        return self._num_nodes

    def num_edges(self) -> int:
        """Return ``|E|`` as of this version."""
        return self._num_edges

    def order(self) -> int:
        """Synonym for :meth:`num_nodes` (graph-theory terminology)."""
        return self._num_nodes

    def size(self) -> int:
        """Synonym for :meth:`num_edges` (graph-theory terminology)."""
        return self._num_edges

    def __len__(self) -> int:
        return self._num_nodes + self._num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSnapshot(name={self.name!r}, version={self._version}, "
            f"nodes={self._num_nodes}, edges={self._num_edges})"
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> PropertyGraph:
        """Materialize the snapshot as an independent mutable :class:`PropertyGraph`."""
        return materialize(self, name or self.name)

    def subgraph_by_edge_labels(
        self, labels: Any, name: str | None = None
    ) -> PropertyGraph:
        """Return the subgraph keeping every node but only edges with one of ``labels``."""
        wanted = set(labels)
        return materialize(
            self, name or f"{self.name}[{','.join(sorted(wanted))}]", edge_labels=wanted
        )
