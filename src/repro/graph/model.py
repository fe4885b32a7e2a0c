"""Property graph data model (paper Definition 2.1).

A property graph is a tuple ``G = (N, E, rho, lambda, nu)`` where ``N`` and
``E`` are disjoint finite sets of node and edge identifiers, ``rho`` maps each
edge to its (source, target) node pair, ``lambda`` partially assigns a single
label to nodes and edges, and ``nu`` partially assigns property/value pairs to
nodes and edges.

The classes in this module are deliberately simple, immutable value objects
plus one mutable container (:class:`PropertyGraph`).  Identifiers are plain
strings; values are arbitrary Python objects (typically strings and numbers).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.errors import (
    DuplicateObjectError,
    FrozenGraphError,
    InvalidEdgeError,
    UnknownObjectError,
)
from repro.graph.delta import GraphDelta, _MutationRecord, build_delta

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.graph.snapshot import GraphSnapshot

__all__ = ["Node", "Edge", "PropertyGraph", "materialize"]

#: Marks a property :meth:`PropertyGraph.node_ids_with` has not indexed yet
#: (``None`` is taken: it marks a property that cannot be indexed).
_UNBUILT = object()

#: Journal entries retained for :meth:`PropertyGraph.delta_between`.  Once a
#: version falls out of this window the method returns ``None`` and callers
#: fall back to whole-version invalidation, so the bound trades memory for
#: how far behind a cache entry may lag and still be revalidated precisely.
JOURNAL_CAPACITY = 4096


@dataclass(frozen=True)
class Node:
    """A node of a property graph.

    Attributes:
        id: The node identifier (unique across nodes *and* edges).
        label: The optional label assigned by ``lambda``; ``None`` if unlabeled.
        properties: The property/value pairs assigned by ``nu``.
    """

    id: str
    label: str | None = None
    properties: Mapping[str, Any] = field(default_factory=dict)

    def property(self, name: str, default: Any = None) -> Any:
        """Return the value of property ``name`` or ``default`` if absent."""
        return self.properties.get(name, default)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = f":{self.label}" if self.label else ""
        return f"({self.id}{label})"


@dataclass(frozen=True)
class Edge:
    """A directed edge of a property graph.

    Attributes:
        id: The edge identifier (unique across nodes *and* edges).
        source: Identifier of the source node (``rho(e) = (source, target)``).
        target: Identifier of the target node.
        label: The optional label assigned by ``lambda``; ``None`` if unlabeled.
        properties: The property/value pairs assigned by ``nu``.
    """

    id: str
    source: str
    target: str
    label: str | None = None
    properties: Mapping[str, Any] = field(default_factory=dict)

    def property(self, name: str, default: Any = None) -> Any:
        """Return the value of property ``name`` or ``default`` if absent."""
        return self.properties.get(name, default)

    def endpoints(self) -> tuple[str, str]:
        """Return ``rho(e)`` as a ``(source, target)`` pair."""
        return (self.source, self.target)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = f":{self.label}" if self.label else ""
        return f"-[{self.id}{label}]->"


class PropertyGraph:
    """A directed labelled multigraph with properties (Definition 2.1).

    The graph owns its :class:`Node` and :class:`Edge` objects and offers
    index-backed accessors used throughout the algebra evaluator:

    * ``nodes()`` / ``edges()`` — the atom sets ``Nodes(G)`` and ``Edges(G)``;
    * ``out_edges(node_id)`` / ``in_edges(node_id)`` — adjacency lists;
    * ``edges_by_label(label)`` / ``nodes_by_label(label)`` — label indexes.
    """

    def __init__(self, name: str = "G") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[str, Edge] = {}
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}
        self._nodes_by_label: dict[str, list[str]] = {}
        self._edges_by_label: dict[str, list[str]] = {}
        self._version = 0
        # Snapshot support: the graph is append-only, so a snapshot is a
        # version-pinned *view*.  Each object records the version at which it
        # was added; the append-only lists preserve insertion order for
        # iteration (dict iteration is unsafe while another thread inserts,
        # indexed list reads are not).
        self._node_version: dict[str, int] = {}
        self._edge_version: dict[str, int] = {}
        self._node_list: list[Node] = []
        self._edge_list: list[Edge] = []
        self._node_slot: dict[str, int] = {}
        self._edge_slot: dict[str, int] = {}
        self._frozen = False
        self._lock = threading.RLock()
        self._last_snapshot: "GraphSnapshot | None" = None
        # Columnar core: a version-pinned CompactGraph built by freeze() /
        # ensure_compact().  Any mutation drops it ("thaw"); consumers check
        # compact_core() and fall back to the object representation when the
        # cached core is absent or stale.
        self._compact = None
        # Endpoint-equality index: (version, property -> value -> node ids),
        # filled one property at a time by node_ids_with() and valid for that
        # version only, so a write makes the next lookup rebuild it.
        self._property_index: tuple[int, dict[str, Any]] = (-1, {})
        # Delta tracking: a bounded journal of recent mutations, consumed by
        # delta_between().  _journal_floor is the highest version the journal
        # can no longer describe (records at or below it were trimmed).
        self._journal: deque[_MutationRecord] = deque()
        self._journal_floor = 0
        # Write-ahead listeners: called with the op record *before* a
        # validated mutation is applied; raising aborts the mutation.  This
        # is the WAL's commit hook (write-ahead: log, then apply).
        self._write_listeners: list[Callable[[dict[str, Any]], None]] = []

    @property
    def version(self) -> int:
        """Mutation counter: incremented by every successful mutation
        (``add_node`` / ``add_edge`` / ``set_node_property`` / ``set_edge_property``).

        Consumers that cache anything derived from the graph (the engine's
        plan cache, memoized statistics) key their entries on this counter so
        a mutation invalidates them without any explicit notification.
        """
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        label: str | None = None,
        properties: Mapping[str, Any] | None = None,
    ) -> Node:
        """Register a node and return it.

        Raises:
            DuplicateObjectError: if the identifier is already used by a node
                or an edge (``N`` and ``E`` must be disjoint).
            FrozenGraphError: if the graph has been frozen.
        """
        with self._lock:
            if self._frozen:
                raise FrozenGraphError(f"graph {self.name!r} is frozen; mutations are disabled")
            if node_id in self._nodes or node_id in self._edges:
                raise DuplicateObjectError(f"object identifier already in use: {node_id!r}")
            node = Node(id=node_id, label=label, properties=dict(properties or {}))
            self._pre_commit(
                {
                    "op": "add_node",
                    "v": self._version + 1,
                    "a": {"id": node_id, "label": label, "properties": dict(node.properties)},
                }
            )
            # Publish order matters for lock-free snapshot readers: the object
            # and its version must be visible before any index references it.
            self._nodes[node_id] = node
            self._node_version[node_id] = self._version + 1
            self._out.setdefault(node_id, [])
            self._in.setdefault(node_id, [])
            if label is not None:
                self._nodes_by_label.setdefault(label, []).append(node_id)
            self._node_slot[node_id] = len(self._node_list)
            self._node_list.append(node)
            self._version += 1
            self._compact = None
            self._journal_append(
                _MutationRecord(self._version, "node", label, node_id)
            )
            return node

    def add_edge(
        self,
        edge_id: str,
        source: str,
        target: str,
        label: str | None = None,
        properties: Mapping[str, Any] | None = None,
    ) -> Edge:
        """Register a directed edge ``source -> target`` and return it.

        Raises:
            DuplicateObjectError: if the identifier is already in use.
            InvalidEdgeError: if either endpoint is not a known node.
            FrozenGraphError: if the graph has been frozen.
        """
        with self._lock:
            if self._frozen:
                raise FrozenGraphError(f"graph {self.name!r} is frozen; mutations are disabled")
            if edge_id in self._nodes or edge_id in self._edges:
                raise DuplicateObjectError(f"object identifier already in use: {edge_id!r}")
            if source not in self._nodes:
                raise InvalidEdgeError(f"unknown source node {source!r} for edge {edge_id!r}")
            if target not in self._nodes:
                raise InvalidEdgeError(f"unknown target node {target!r} for edge {edge_id!r}")
            edge = Edge(
                id=edge_id,
                source=source,
                target=target,
                label=label,
                properties=dict(properties or {}),
            )
            self._pre_commit(
                {
                    "op": "add_edge",
                    "v": self._version + 1,
                    "a": {
                        "id": edge_id,
                        "source": source,
                        "target": target,
                        "label": label,
                        "properties": dict(edge.properties),
                    },
                }
            )
            # Publish the edge and its version before linking it into the
            # adjacency lists, so a lock-free snapshot reader walking an
            # adjacency list never sees an edge id it cannot resolve.
            self._edges[edge_id] = edge
            self._edge_version[edge_id] = self._version + 1
            self._out[source].append(edge_id)
            self._in[target].append(edge_id)
            if label is not None:
                self._edges_by_label.setdefault(label, []).append(edge_id)
            self._edge_slot[edge_id] = len(self._edge_list)
            self._edge_list.append(edge)
            self._version += 1
            self._compact = None
            self._journal_append(
                _MutationRecord(self._version, "edge", label, edge_id, (source, target))
            )
            return edge

    def set_node_property(self, node_id: str, name: str, value: Any) -> Node:
        """Set property ``name`` of node ``node_id`` to ``value`` and return the new node.

        The update replaces the (immutable) :class:`Node` object in place and
        bumps the graph version, so version-keyed consumers observe it.

        .. note:: Snapshot isolation covers object *existence*, not property
           values: a snapshot taken before this call resolves the node id to
           the updated object.  Queries that read properties and need
           repeatable reads should evaluate against a frozen copy.

        Raises:
            UnknownObjectError: if no such node exists.
            FrozenGraphError: if the graph has been frozen.
        """
        with self._lock:
            if self._frozen:
                raise FrozenGraphError(f"graph {self.name!r} is frozen; mutations are disabled")
            if node_id not in self._nodes:
                raise UnknownObjectError(f"unknown node: {node_id!r}")
            old = self._nodes[node_id]
            self._pre_commit(
                {
                    "op": "set_node_property",
                    "v": self._version + 1,
                    "a": {"id": node_id, "name": name, "value": value},
                }
            )
            properties = dict(old.properties)
            properties[name] = value
            node = replace(old, properties=properties)
            self._nodes[node_id] = node
            self._node_list[self._node_slot[node_id]] = node
            self._version += 1
            self._compact = None
            self._journal_append(
                _MutationRecord(self._version, "node-prop", old.label, node_id)
            )
            return node

    def set_edge_property(self, edge_id: str, name: str, value: Any) -> Edge:
        """Set property ``name`` of edge ``edge_id`` to ``value`` and return the new edge.

        Same semantics and caveats as :meth:`set_node_property`.

        Raises:
            UnknownObjectError: if no such edge exists.
            FrozenGraphError: if the graph has been frozen.
        """
        with self._lock:
            if self._frozen:
                raise FrozenGraphError(f"graph {self.name!r} is frozen; mutations are disabled")
            if edge_id not in self._edges:
                raise UnknownObjectError(f"unknown edge: {edge_id!r}")
            old = self._edges[edge_id]
            self._pre_commit(
                {
                    "op": "set_edge_property",
                    "v": self._version + 1,
                    "a": {"id": edge_id, "name": name, "value": value},
                }
            )
            properties = dict(old.properties)
            properties[name] = value
            edge = replace(old, properties=properties)
            self._edges[edge_id] = edge
            self._edge_list[self._edge_slot[edge_id]] = edge
            self._version += 1
            self._compact = None
            self._journal_append(
                _MutationRecord(self._version, "edge-prop", old.label, edge_id)
            )
            return edge

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        """Return the node with identifier ``node_id``.

        Raises:
            UnknownObjectError: if no such node exists.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownObjectError(f"unknown node: {node_id!r}") from None

    def edge(self, edge_id: str) -> Edge:
        """Return the edge with identifier ``edge_id``.

        Raises:
            UnknownObjectError: if no such edge exists.
        """
        try:
            return self._edges[edge_id]
        except KeyError:
            raise UnknownObjectError(f"unknown edge: {edge_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        """Return ``True`` if ``node_id`` identifies a node of the graph."""
        return node_id in self._nodes

    def has_edge(self, edge_id: str) -> bool:
        """Return ``True`` if ``edge_id`` identifies an edge of the graph."""
        return edge_id in self._edges

    def object(self, object_id: str) -> Node | Edge:
        """Return the node or edge with the given identifier.

        Raises:
            UnknownObjectError: if the identifier matches neither.
        """
        if object_id in self._nodes:
            return self._nodes[object_id]
        if object_id in self._edges:
            return self._edges[object_id]
        raise UnknownObjectError(f"unknown object: {object_id!r}")

    def label_of(self, object_id: str) -> str | None:
        """Return ``lambda(o)`` for a node or edge identifier (``None`` if unlabeled)."""
        return self.object(object_id).label

    def property_of(self, object_id: str, name: str, default: Any = None) -> Any:
        """Return ``nu(o, name)`` for a node or edge identifier."""
        return self.object(object_id).property(name, default)

    def nodes(self) -> list[Node]:
        """Return all nodes — the atom set ``Nodes(G)`` (paths of length zero)."""
        return list(self._nodes.values())

    def edges(self) -> list[Edge]:
        """Return all edges — the atom set ``Edges(G)`` (paths of length one)."""
        return list(self._edges.values())

    def node_ids(self) -> list[str]:
        """Return all node identifiers (insertion order)."""
        return list(self._nodes)

    def edge_ids(self) -> list[str]:
        """Return all edge identifiers (insertion order)."""
        return list(self._edges)

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate over nodes without materializing a list."""
        return iter(self._nodes.values())

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over edges without materializing a list."""
        return iter(self._edges.values())

    def edge_index_of(self, edge_id: str) -> int:
        """Return the position of ``edge_id`` in :meth:`edges` (insertion order)."""
        try:
            return self._edge_slot[edge_id]
        except KeyError:
            raise UnknownObjectError(f"unknown edge: {edge_id!r}") from None

    # ------------------------------------------------------------------
    # Adjacency, label and property indexes
    # ------------------------------------------------------------------
    def node_ids_with(self, name: str, value: Any) -> tuple[str, ...] | None:
        """Ids of the nodes whose property ``name`` equals ``value``, in insertion order.

        The endpoint-equality index behind ``first.p = v`` lookups
        (:func:`~repro.algebra.expressions.endpoint_ids_input`).  A property is
        indexed on its first lookup, from the current node objects under the
        lock, and the map serves every lookup until the next write bumps
        :attr:`version`; nothing is built before a query asks.  The answer is
        what ``first.name = value`` keeps: nodes lacking the property or
        holding ``None`` never match, and ``1``, ``1.0`` and ``True`` match
        each other as ``==`` does.  ``value`` must be hashable and equal to
        itself (not NaN, which a dict would match by identity).  Returns
        ``None`` when some node holds an unhashable value for ``name``: the
        caller must then compare node by node.
        """
        version, by_property = self._property_index
        by_value = by_property.get(name, _UNBUILT) if version == self._version else _UNBUILT
        if by_value is _UNBUILT:
            with self._lock:
                version, by_property = self._property_index
                if version != self._version:
                    by_property = {}
                    self._property_index = (self._version, by_property)
                by_value = by_property.get(name, _UNBUILT)
                if by_value is _UNBUILT:
                    by_value = by_property[name] = value_index(
                        (node.id, node.property(name)) for node in self._node_list
                    )
        return None if by_value is None else by_value.get(value, ())

    def out_edges(self, node_id: str) -> list[Edge]:
        """Return the edges whose source is ``node_id``."""
        if node_id not in self._nodes:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return [self._edges[eid] for eid in self._out[node_id]]

    def in_edges(self, node_id: str) -> list[Edge]:
        """Return the edges whose target is ``node_id``."""
        if node_id not in self._nodes:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return [self._edges[eid] for eid in self._in[node_id]]

    def out_degree(self, node_id: str) -> int:
        """Return the number of outgoing edges of ``node_id`` in O(1).

        Counts the adjacency-index entries directly instead of materializing
        :class:`Edge` lists via :meth:`out_edges` — degree sweeps (the cost
        model, :func:`~repro.graph.stats.compute_statistics`) stay linear in
        the number of nodes rather than the number of edges.
        """
        if node_id not in self._nodes:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return len(self._out[node_id])

    def in_degree(self, node_id: str) -> int:
        """Return the number of incoming edges of ``node_id`` in O(1)."""
        if node_id not in self._nodes:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return len(self._in[node_id])

    def neighbors(self, node_id: str) -> list[str]:
        """Return target node identifiers reachable via one outgoing edge."""
        return [edge.target for edge in self.out_edges(node_id)]

    def nodes_by_label(self, label: str) -> list[Node]:
        """Return the nodes labelled ``label`` (possibly empty)."""
        return [self._nodes[nid] for nid in self._nodes_by_label.get(label, [])]

    def edges_by_label(self, label: str) -> list[Edge]:
        """Return the edges labelled ``label`` (possibly empty)."""
        return [self._edges[eid] for eid in self._edges_by_label.get(label, [])]

    def num_edges_labelled(self, label: str) -> int:
        """Return ``len(edges_by_label(label))`` without building the list."""
        return len(self._edges_by_label.get(label, ()))

    def node_labels(self) -> set[str]:
        """Return the set of labels used by at least one node."""
        return set(self._nodes_by_label)

    def edge_labels(self) -> set[str]:
        """Return the set of labels used by at least one edge."""
        return set(self._edges_by_label)

    # ------------------------------------------------------------------
    # Size and dunder protocol
    # ------------------------------------------------------------------
    def num_nodes(self) -> int:
        """Return ``|N|``."""
        return len(self._nodes)

    def num_edges(self) -> int:
        """Return ``|E|``."""
        return len(self._edges)

    def order(self) -> int:
        """Synonym for :meth:`num_nodes` (graph-theory terminology)."""
        return self.num_nodes()

    def size(self) -> int:
        """Synonym for :meth:`num_edges` (graph-theory terminology)."""
        return self.num_edges()

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._nodes or object_id in self._edges

    def __len__(self) -> int:
        return len(self._nodes) + len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PropertyGraph(name={self.name!r}, nodes={self.num_nodes()}, "
            f"edges={self.num_edges()})"
        )

    # ------------------------------------------------------------------
    # Snapshots and freezing
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called (mutations raise afterwards)."""
        return self._frozen

    def freeze(self) -> "PropertyGraph":
        """Disable mutation and build the columnar core; returns the graph.

        A frozen graph is safe to share across threads without snapshots:
        every subsequent :meth:`add_node` / :meth:`add_edge` raises
        :class:`~repro.errors.FrozenGraphError` until :meth:`thaw` is called.
        Freezing also compiles the graph into its
        :class:`~repro.graph.compact.CompactGraph` core (CSR adjacency,
        interned labels), which scans and adjacency expansion then read —
        see :meth:`ensure_compact` for the build-only variant.
        """
        with self._lock:
            self._frozen = True
            self._ensure_compact_locked()
        return self

    def thaw(self) -> "PropertyGraph":
        """Re-enable mutation after :meth:`freeze`; drops the columnar core.

        Only :meth:`freeze` and :meth:`ensure_compact` build a core again;
        no read does.
        """
        with self._lock:
            self._frozen = False
            self._compact = None
        return self

    def ensure_compact(self):
        """Return a :class:`~repro.graph.compact.CompactGraph` for the current
        version, building (and caching) it if necessary.

        Unlike :meth:`freeze` this does not disable mutation — the core is
        simply invalidated by the next write, and nothing rebuilds it until
        the caller asks again.  No read path calls this: a caller that knows
        its graph is read-mostly calls it once, and scans and expands read
        the columns until the next write.
        """
        with self._lock:
            return self._ensure_compact_locked()

    def _ensure_compact_locked(self):
        compact = self._compact
        if compact is None or compact.version != self._version:
            from repro.graph.compact import CompactGraph

            compact = self._compact = CompactGraph.from_graph(self)
        return compact

    def compact_core(self):
        """The cached columnar core if it matches the current version, else ``None``.

        This is the cheap, lock-free detection probe the access paths use
        on every scan; it never builds anything.
        """
        compact = self._compact
        if compact is not None and compact.version == self._version:
            return compact
        return None

    def snapshot(self) -> "GraphSnapshot":
        """Return an immutable view of the graph pinned to the current version.

        The graph is append-only, so the snapshot copies nothing: it filters
        every read by the version at which each object was added
        (copy-on-write where the "write" side is the live graph itself).
        In-flight queries evaluated against a snapshot therefore never observe
        mutations that commit after the snapshot was taken — the isolation
        guarantee the concurrent :class:`~repro.service.QueryService` relies
        on.  Snapshots taken at the same version are shared.
        """
        from repro.graph.snapshot import GraphSnapshot

        with self._lock:
            last = self._last_snapshot
            if last is not None and last.version == self._version:
                return last
            snap = GraphSnapshot(self, self._version, len(self._nodes), len(self._edges))
            self._last_snapshot = snap
            return snap

    # ------------------------------------------------------------------
    # Write listeners and delta tracking
    # ------------------------------------------------------------------
    def add_write_listener(self, listener: Callable[[dict[str, Any]], None]) -> None:
        """Register ``listener`` to be called before each mutation commits.

        The listener receives the op record ``{"op", "v", "a"}`` describing
        the mutation about to be applied at version ``v``.  It runs under the
        graph lock *after* validation and *before* any state changes; raising
        aborts the mutation entirely (the version is not bumped).  This is
        how :class:`~repro.graph.wal.WriteAheadLog` achieves write-ahead
        semantics: a mutation that could not be logged never happens.
        """
        with self._lock:
            self._write_listeners.append(listener)

    def remove_write_listener(self, listener: Callable[[dict[str, Any]], None]) -> None:
        """Unregister a listener added by :meth:`add_write_listener` (no-op if absent)."""
        with self._lock:
            try:
                self._write_listeners.remove(listener)
            except ValueError:
                pass

    def _pre_commit(self, op: dict[str, Any]) -> None:
        for listener in self._write_listeners:
            listener(op)

    def _journal_append(self, record: _MutationRecord) -> None:
        self._journal.append(record)
        while len(self._journal) > JOURNAL_CAPACITY:
            dropped = self._journal.popleft()
            self._journal_floor = dropped.version

    def delta_between(self, from_version: int, to_version: int | None = None) -> GraphDelta | None:
        """Return what changed in ``(from_version, to_version]``, or ``None``.

        ``to_version`` defaults to the current version.  Returns ``None``
        when the journal window no longer covers ``from_version`` (the caller
        must then assume everything changed — conservative full
        invalidation).  An empty range yields an empty delta.
        """
        with self._lock:
            if to_version is None:
                to_version = self._version
            if from_version >= to_version:
                return GraphDelta(from_version=from_version, to_version=to_version)
            if from_version < self._journal_floor:
                return None
            records = [r for r in self._journal if from_version < r.version <= to_version]
            return build_delta(records, from_version, to_version)

    def _fast_forward_version(self, version: int) -> None:
        """Advance the version counter without a mutation (restore support).

        Used when a graph is rebuilt from a serialized form whose recorded
        version exceeds the rebuild's mutation count (property updates bump
        the version without adding objects).  The journal is reset because
        its records describe rebuild-time version numbers, not the restored
        timeline.
        """
        with self._lock:
            if version < self._version:
                raise ValueError(
                    f"cannot fast-forward version backwards: {self._version} -> {version}"
                )
            self._version = version
            self._journal.clear()
            self._journal_floor = version
            self._last_snapshot = None
            self._compact = None

    # ------------------------------------------------------------------
    # Pickling (the lock and write listeners are process-local state)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_last_snapshot"] = None
        state["_write_listeners"] = []
        # The columnar core is a derived cache; receivers rebuild it on demand
        # (and the process pool ships the CompactGraph itself when the whole
        # graph is frozen), so the wire payload stays the object graph only.
        state["_compact"] = None
        state["_property_index"] = (-1, {})
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_compact", None)
        self.__dict__.setdefault("_property_index", (-1, {}))
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def add_nodes(self, nodes: Iterable[tuple[str, str | None, Mapping[str, Any] | None]]) -> None:
        """Add many nodes given ``(id, label, properties)`` triples."""
        for node_id, label, properties in nodes:
            self.add_node(node_id, label, properties)

    def add_edges(
        self,
        edges: Iterable[tuple[str, str, str, str | None, Mapping[str, Any] | None]],
    ) -> None:
        """Add many edges given ``(id, source, target, label, properties)`` tuples."""
        for edge_id, source, target, label, properties in edges:
            self.add_edge(edge_id, source, target, label, properties)

    def copy(self, name: str | None = None) -> "PropertyGraph":
        """Return a deep-enough copy of the graph (objects are immutable and shared)."""
        return materialize(self, name or self.name)

    def subgraph_by_edge_labels(self, labels: Iterable[str], name: str | None = None) -> "PropertyGraph":
        """Return the subgraph keeping every node but only edges with one of ``labels``."""
        wanted = set(labels)
        return materialize(
            self, name or f"{self.name}[{','.join(sorted(wanted))}]", edge_labels=wanted
        )


def value_index(pairs: Iterable[tuple[str, Any]]) -> dict[Any, tuple[str, ...]] | None:
    """Group ``(node id, value)`` pairs into ``value -> ids`` (in pair order).

    ``None`` values are left out, as ``first.p = v`` never matches them.
    Returns ``None`` if a value is unhashable: a dict cannot hold it, and a
    comparison might still find it equal to a hashable one (``{1} ==
    frozenset({1})``).
    """
    index: dict[Any, list[str]] = {}
    for node_id, value in pairs:
        if value is None:
            continue
        try:
            bucket = index.get(value)
        except TypeError:
            return None
        if bucket is None:
            index[value] = [node_id]
        else:
            bucket.append(node_id)
    return {value: tuple(ids) for value, ids in index.items()}


def materialize(
    source, name: str, edge_labels: "set[str] | None" = None
) -> PropertyGraph:
    """Copy a graph-like object into a fresh, mutable :class:`PropertyGraph`.

    ``source`` is anything exposing ``iter_nodes()`` / ``iter_edges()`` — a
    live :class:`PropertyGraph` or an immutable
    :class:`~repro.graph.snapshot.GraphSnapshot` view; both route their
    ``copy`` / ``subgraph_by_edge_labels`` through this helper.  When
    ``edge_labels`` is given, only edges carrying one of those labels are
    kept (every node is kept regardless).
    """
    clone = PropertyGraph(name=name)
    for node in source.iter_nodes():
        clone.add_node(node.id, node.label, node.properties)
    for edge in source.iter_edges():
        if edge_labels is None or edge.label in edge_labels:
            clone.add_edge(edge.id, edge.source, edge.target, edge.label, edge.properties)
    return clone
