"""Columnar frozen graph core: CSR adjacency over interned int ids.

:class:`~repro.graph.model.PropertyGraph` is the mutable build-time facade —
dicts of immutable :class:`~repro.graph.model.Node` / ``Edge`` objects with
per-node adjacency id-lists.  That layout is ideal for appends and snapshot
isolation but pays dict probes, string hashing and attribute chasing on every
hop of a closure.  :class:`CompactGraph` is the read-optimized twin: a frozen,
version-pinned columnar encoding where

* nodes and edges are dense int indexes (``0..n-1`` in insertion order),
* adjacency is CSR — ``array('q')`` offset/target/edge arrays for both
  directions, so expansion is a contiguous slice instead of a dict probe
  followed by per-edge object hops,
* labels and property keys are interned into small tables (per-object columns
  hold int codes, not string references),
* per-label edge partitions are contiguous ``array('q')`` runs, so
  label-restricted expansion never touches non-matching edges.

Everything is stdlib ``array`` — numpy is optional for consumers that want
zero-copy views (``memoryview(graph.out_targets)``) but never required.

A ``CompactGraph`` duck-types the *read* API of ``PropertyGraph`` /
``GraphSnapshot`` (``node()``, ``out_edges()``, ``nodes_by_label()``, …), so
every existing consumer works unchanged; mutators raise
:class:`~repro.errors.FrozenGraphError`.  Node/edge objects are materialized
lazily and memoized — scans and adjacency expansion read the columns directly
(:mod:`repro.paths.access`).  Neither the closure kernel
(:mod:`repro.semantics.restrictors`) nor the automaton executor's product search
(:mod:`repro.engine.automaton.product`) needs anything from the core: both run on
the graph's own identifiers, so a frozen graph and a mutable one execute the same
closure code.

A core exists only where a caller asked for one: ``PropertyGraph.freeze()``
and ``ensure_compact()`` build it, and no read path does.  A graph that is
never frozen is read through its objects, at the same answers and row order.

Pickling ships only the flat columns (object memos are dropped), which is what
makes ``spawn``-mode process workers cheap: the wire payload is a handful of
arrays instead of a web of dataclass instances.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterator, Mapping

from repro.errors import FrozenGraphError, UnknownObjectError
from repro.graph.model import Edge, Node, materialize, value_index
from repro.paths.path import Path

__all__ = ["CompactGraph", "compact_core_of"]

# Property columns store interned (key_code, value) pair tuples; empty
# property maps share this singleton.
_NO_PROPS: tuple = ()


def compact_core_of(graph) -> "CompactGraph | None":
    """Return the compact core behind ``graph`` if one is current, else ``None``.

    This is the engine's detection hook: the access paths
    (:mod:`repro.paths.access`, the scans and adjacency expands) call it on
    whatever graph-like object a query is pinned to (a live ``PropertyGraph``,
    a ``GraphSnapshot`` view, or a ``CompactGraph`` itself) and read the
    columns only when it returns a core whose version matches the view.
    Mutable graphs without a current core fall back to the object path —
    behaviour, not just results, is identical by construction.
    """
    probe = getattr(graph, "compact_core", None)
    if probe is None:
        return None
    return probe()


class CompactGraph:
    """Frozen columnar property graph with CSR adjacency and interned tables.

    Build one with :meth:`from_graph` (or via ``PropertyGraph.freeze()`` /
    ``ensure_compact()``).  The instance is immutable and version-pinned:
    ``version`` records the source graph's mutation counter at build time, and
    the engine only trusts a core whose version still matches the live graph.
    """

    __slots__ = (
        "name",
        "_version",
        # identity columns
        "_node_ids",
        "_edge_ids",
        "_node_index",
        "_edge_index",
        # interned tables: code 0 is reserved for "no label"
        "_labels",
        "_label_codes",
        "_prop_keys",
        "_prop_key_codes",
        # per-object columns
        "_node_labels",
        "_edge_labels",
        "_node_props",
        "_edge_props",
        "_edge_src",
        "_edge_dst",
        # CSR adjacency (out and in)
        "_out_offsets",
        "_out_edges",
        "_out_targets",
        "_in_offsets",
        "_in_edges",
        "_in_sources",
        # per-label partitions (label code -> contiguous array('q') of indexes)
        "_nodes_by_label_part",
        "_edges_by_label_part",
        "_label_out_part",
        # lazy object memos and the endpoint-equality index (never pickled)
        "_node_objs",
        "_edge_objs",
        "_property_index",
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self) -> None:
        self.name = "G"
        self._version = 0
        self._node_ids: list[str] = []
        self._edge_ids: list[str] = []
        self._node_index: dict[str, int] = {}
        self._edge_index: dict[str, int] = {}
        self._labels: list[str | None] = [None]
        self._label_codes: dict[str | None, int] = {None: 0}
        self._prop_keys: list[str] = []
        self._prop_key_codes: dict[str, int] = {}
        self._node_labels = array("i")
        self._edge_labels = array("i")
        self._node_props: list[tuple] = []
        self._edge_props: list[tuple] = []
        self._edge_src = array("q")
        self._edge_dst = array("q")
        self._out_offsets = array("q", [0])
        self._out_edges = array("q")
        self._out_targets = array("q")
        self._in_offsets = array("q", [0])
        self._in_edges = array("q")
        self._in_sources = array("q")
        self._nodes_by_label_part: dict[int, array] = {}
        self._edges_by_label_part: dict[int, array] = {}
        self._label_out_part: dict[int, tuple[array, array, dict[int, int]]] = {}
        self._node_objs: list[Node | None] | None = None
        self._edge_objs: list[Edge | None] | None = None
        self._property_index: dict[str, Any] = {}

    @classmethod
    def from_graph(cls, source) -> "CompactGraph":
        """Compile ``source`` (anything with ``iter_nodes``/``iter_edges``) down
        to the columnar form.

        Iteration order is the source's insertion order, so every list-valued
        read (``edges()``, ``out_edges()``, ``nodes_by_label()``) decodes to
        exactly what the source would have returned — the byte-identical
        guarantee starts here.
        """
        compact = cls()
        compact.name = getattr(source, "name", "G")
        compact._version = getattr(source, "version", 0)
        intern_label = compact._intern_label
        intern_props = compact._intern_props

        node_index = compact._node_index
        node_ids = compact._node_ids
        for node in source.iter_nodes():
            node_index[node.id] = len(node_ids)
            node_ids.append(node.id)
            compact._node_labels.append(intern_label(node.label))
            compact._node_props.append(intern_props(node.properties))

        edge_index = compact._edge_index
        edge_ids = compact._edge_ids
        edge_src = compact._edge_src
        edge_dst = compact._edge_dst
        for edge in source.iter_edges():
            edge_index[edge.id] = len(edge_ids)
            edge_ids.append(edge.id)
            edge_src.append(node_index[edge.source])
            edge_dst.append(node_index[edge.target])
            compact._edge_labels.append(intern_label(edge.label))
            compact._edge_props.append(intern_props(edge.properties))

        compact._build_csr()
        compact._build_label_partitions()
        return compact

    def _intern_label(self, label: str | None) -> int:
        code = self._label_codes.get(label)
        if code is None:
            code = len(self._labels)
            self._label_codes[label] = code
            self._labels.append(label)
        return code

    def _intern_props(self, properties: Mapping[str, Any]) -> tuple:
        if not properties:
            return _NO_PROPS
        codes = self._prop_key_codes
        keys = self._prop_keys
        pairs = []
        for key, value in properties.items():
            code = codes.get(key)
            if code is None:
                code = len(keys)
                codes[key] = code
                keys.append(key)
            pairs.append((code, value))
        return tuple(pairs)

    def _build_csr(self) -> None:
        n = len(self._node_ids)
        m = len(self._edge_ids)
        src = self._edge_src
        dst = self._edge_dst

        out_counts = [0] * (n + 1)
        in_counts = [0] * (n + 1)
        for e in range(m):
            out_counts[src[e] + 1] += 1
            in_counts[dst[e] + 1] += 1
        for i in range(1, n + 1):
            out_counts[i] += out_counts[i - 1]
            in_counts[i] += in_counts[i - 1]
        self._out_offsets = array("q", out_counts)
        self._in_offsets = array("q", in_counts)

        out_edges = array("q", bytes(8 * m))
        out_targets = array("q", bytes(8 * m))
        in_edges = array("q", bytes(8 * m))
        in_sources = array("q", bytes(8 * m))
        # Scanning edges in insertion order and filling each node's CSR run
        # left-to-right preserves the per-node adjacency order the mutable
        # graph's append-only id-lists would produce.
        out_fill = list(out_counts[:n]) or [0]
        in_fill = list(in_counts[:n]) or [0]
        for e in range(m):
            s = src[e]
            slot = out_fill[s]
            out_edges[slot] = e
            out_targets[slot] = dst[e]
            out_fill[s] = slot + 1
            t = dst[e]
            slot = in_fill[t]
            in_edges[slot] = e
            in_sources[slot] = src[e]
            in_fill[t] = slot + 1
        self._out_edges = out_edges
        self._out_targets = out_targets
        self._in_edges = in_edges
        self._in_sources = in_sources

    def _build_label_partitions(self) -> None:
        nodes_part: dict[int, array] = {}
        for i, code in enumerate(self._node_labels):
            if code:
                part = nodes_part.get(code)
                if part is None:
                    part = nodes_part[code] = array("q")
                part.append(i)
        self._nodes_by_label_part = nodes_part

        edges_part: dict[int, array] = {}
        for e, code in enumerate(self._edge_labels):
            if code:
                part = edges_part.get(code)
                if part is None:
                    part = edges_part[code] = array("q")
                part.append(e)
        self._edges_by_label_part = edges_part

        # Per-(label, source) contiguous runs: partition each label's edges by
        # source (stable, preserving insertion order within a source), so
        # label-restricted expansion is a slice of two flat arrays.
        label_out: dict[int, tuple[array, array, dict[int, int]]] = {}
        src = self._edge_src
        dst = self._edge_dst
        for code, part in edges_part.items():
            by_src: dict[int, list[int]] = {}
            for e in part:
                by_src.setdefault(src[e], []).append(e)
            flat_edges = array("q")
            flat_targets = array("q")
            bounds: dict[int, int] = {}
            for s, run in by_src.items():
                start = len(flat_edges)
                for e in run:
                    flat_edges.append(e)
                    flat_targets.append(dst[e])
                bounds[s] = (start << 32) | len(run)
            label_out[code] = (flat_edges, flat_targets, bounds)
        self._label_out_part = label_out

    # ------------------------------------------------------------------
    # Int-indexed accessors (the engine's hot path)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The source graph's mutation counter at build time."""
        return self._version

    @property
    def frozen(self) -> bool:
        return True

    def compact_core(self) -> "CompactGraph":
        """A compact graph is its own core (see :func:`compact_core_of`)."""
        return self

    def node_count(self) -> int:
        return len(self._node_ids)

    def edge_count(self) -> int:
        return len(self._edge_ids)

    def node_index_of(self, node_id: str) -> int:
        """Dense index of ``node_id`` (raises ``KeyError`` if unknown)."""
        return self._node_index[node_id]

    def edge_index_of(self, edge_id: str) -> int:
        """Dense index of ``edge_id`` (raises ``KeyError`` if unknown)."""
        return self._edge_index[edge_id]

    def node_id_at(self, index: int) -> str:
        return self._node_ids[index]

    def edge_id_at(self, index: int) -> str:
        return self._edge_ids[index]

    def edge_endpoints_at(self, index: int) -> tuple[int, int]:
        """``(source_index, target_index)`` of edge ``index``."""
        return self._edge_src[index], self._edge_dst[index]

    def out_slice(self, node_index: int) -> tuple[array, array, int, int]:
        """``(edge_indexes, target_indexes, start, end)`` — the CSR run of
        ``node_index``'s outgoing edges.  Zero-copy: callers slice or scan
        ``[start:end]`` of the two shared arrays."""
        offsets = self._out_offsets
        return self._out_edges, self._out_targets, offsets[node_index], offsets[node_index + 1]

    def in_slice(self, node_index: int) -> tuple[array, array, int, int]:
        """CSR run of incoming edges: ``(edge_indexes, source_indexes, start, end)``."""
        offsets = self._in_offsets
        return self._in_edges, self._in_sources, offsets[node_index], offsets[node_index + 1]

    def label_out_slice(self, label: str, node_index: int) -> tuple[array, array, int, int]:
        """Contiguous run of ``node_index``'s outgoing edges labelled ``label``.

        This is the per-label partition payoff: no per-edge label probe, just
        a slice of a flat array (empty when the node has no such edges).
        """
        code = self._label_codes.get(label)
        part = self._label_out_part.get(code) if code else None
        if part is None:
            return self._out_edges, self._out_targets, 0, 0
        flat_edges, flat_targets, bounds = part
        packed = bounds.get(node_index)
        if packed is None:
            return flat_edges, flat_targets, 0, 0
        start = packed >> 32
        return flat_edges, flat_targets, start, start + (packed & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # Object materialization (lazy, memoized — result decode only)
    # ------------------------------------------------------------------
    def _props_dict(self, pairs: tuple) -> dict[str, Any]:
        keys = self._prop_keys
        return {keys[code]: value for code, value in pairs}

    def _node_obj(self, index: int) -> Node:
        objs = self._node_objs
        if objs is None:
            objs = self._node_objs = [None] * len(self._node_ids)
        node = objs[index]
        if node is None:
            node = Node(
                id=self._node_ids[index],
                label=self._labels[self._node_labels[index]],
                properties=self._props_dict(self._node_props[index]),
            )
            objs[index] = node
        return node

    def _edge_obj(self, index: int) -> Edge:
        objs = self._edge_objs
        if objs is None:
            objs = self._edge_objs = [None] * len(self._edge_ids)
        edge = objs[index]
        if edge is None:
            edge = Edge(
                id=self._edge_ids[index],
                source=self._node_ids[self._edge_src[index]],
                target=self._node_ids[self._edge_dst[index]],
                label=self._labels[self._edge_labels[index]],
                properties=self._props_dict(self._edge_props[index]),
            )
            objs[index] = edge
        return edge

    # ------------------------------------------------------------------
    # PropertyGraph read API (duck-typed)
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        index = self._node_index.get(node_id)
        if index is None:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return self._node_obj(index)

    def edge(self, edge_id: str) -> Edge:
        index = self._edge_index.get(edge_id)
        if index is None:
            raise UnknownObjectError(f"unknown edge: {edge_id!r}")
        return self._edge_obj(index)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_index

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edge_index

    def object(self, object_id: str) -> Node | Edge:
        index = self._node_index.get(object_id)
        if index is not None:
            return self._node_obj(index)
        index = self._edge_index.get(object_id)
        if index is not None:
            return self._edge_obj(index)
        raise UnknownObjectError(f"unknown object: {object_id!r}")

    def label_of(self, object_id: str) -> str | None:
        index = self._node_index.get(object_id)
        if index is not None:
            return self._labels[self._node_labels[index]]
        index = self._edge_index.get(object_id)
        if index is not None:
            return self._labels[self._edge_labels[index]]
        raise UnknownObjectError(f"unknown object: {object_id!r}")

    def property_of(self, object_id: str, name: str, default: Any = None) -> Any:
        code = self._prop_key_codes.get(name)
        index = self._node_index.get(object_id)
        if index is not None:
            pairs = self._node_props[index]
        else:
            index = self._edge_index.get(object_id)
            if index is None:
                raise UnknownObjectError(f"unknown object: {object_id!r}")
            pairs = self._edge_props[index]
        if code is not None:
            for pair_code, value in pairs:
                if pair_code == code:
                    return value
        return default

    def nodes(self) -> list[Node]:
        return [self._node_obj(i) for i in range(len(self._node_ids))]

    def edges(self) -> list[Edge]:
        return [self._edge_obj(e) for e in range(len(self._edge_ids))]

    def node_ids(self) -> list[str]:
        return list(self._node_ids)

    def edge_ids(self) -> list[str]:
        return list(self._edge_ids)

    def iter_nodes(self) -> Iterator[Node]:
        for i in range(len(self._node_ids)):
            yield self._node_obj(i)

    def iter_edges(self) -> Iterator[Edge]:
        for e in range(len(self._edge_ids)):
            yield self._edge_obj(e)

    def out_edges(self, node_id: str) -> list[Edge]:
        index = self._node_index.get(node_id)
        if index is None:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        edges, _, start, end = self.out_slice(index)
        return [self._edge_obj(edges[i]) for i in range(start, end)]

    def in_edges(self, node_id: str) -> list[Edge]:
        index = self._node_index.get(node_id)
        if index is None:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        edges, _, start, end = self.in_slice(index)
        return [self._edge_obj(edges[i]) for i in range(start, end)]

    def out_degree(self, node_id: str) -> int:
        index = self._node_index.get(node_id)
        if index is None:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return self._out_offsets[index + 1] - self._out_offsets[index]

    def in_degree(self, node_id: str) -> int:
        index = self._node_index.get(node_id)
        if index is None:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        return self._in_offsets[index + 1] - self._in_offsets[index]

    def neighbors(self, node_id: str) -> list[str]:
        index = self._node_index.get(node_id)
        if index is None:
            raise UnknownObjectError(f"unknown node: {node_id!r}")
        _, targets, start, end = self.out_slice(index)
        ids = self._node_ids
        return [ids[targets[i]] for i in range(start, end)]

    def node_ids_with(self, name: str, value: Any) -> tuple[str, ...] | None:
        """Ids of the nodes whose property ``name`` equals ``value``, in index order.

        :meth:`PropertyGraph.node_ids_with <repro.graph.model.PropertyGraph.node_ids_with>`
        over the property columns; built per property on first use and kept
        (the core never changes).
        """
        by_property = self._property_index
        if name not in by_property:
            by_property[name] = value_index(
                (node.id, node.property(name)) for node in self.iter_nodes()
            )
        by_value = by_property[name]
        return None if by_value is None else by_value.get(value, ())

    def nodes_by_label(self, label: str) -> list[Node]:
        code = self._label_codes.get(label)
        part = self._nodes_by_label_part.get(code) if code else None
        if part is None:
            return []
        return [self._node_obj(i) for i in part]

    def edges_by_label(self, label: str) -> list[Edge]:
        code = self._label_codes.get(label)
        part = self._edges_by_label_part.get(code) if code else None
        if part is None:
            return []
        return [self._edge_obj(e) for e in part]

    def num_edges_labelled(self, label: str) -> int:
        code = self._label_codes.get(label)
        return len(self._edges_by_label_part.get(code, ())) if code else 0

    def node_labels(self) -> set[str]:
        labels = self._labels
        return {labels[code] for code in self._nodes_by_label_part}

    def edge_labels(self) -> set[str]:
        labels = self._labels
        return {labels[code] for code in self._edges_by_label_part}

    def num_nodes(self) -> int:
        return len(self._node_ids)

    def num_edges(self) -> int:
        return len(self._edge_ids)

    def order(self) -> int:
        return len(self._node_ids)

    def size(self) -> int:
        return len(self._edge_ids)

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._node_index or object_id in self._edge_index

    def __len__(self) -> int:
        return len(self._node_ids) + len(self._edge_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompactGraph(name={self.name!r}, nodes={self.num_nodes()}, "
            f"edges={self.num_edges()}, version={self._version})"
        )

    # ------------------------------------------------------------------
    # Atom fast paths (used by PathSet.nodes_of / edges_of and the scans)
    # ------------------------------------------------------------------
    def iter_node_paths(self, graph=None) -> Iterator[Path]:
        """Yield ``Nodes(G)`` as length-zero paths bound to ``graph`` without
        materializing :class:`Node` objects (same content and order as
        ``Path.from_node`` over ``node_ids()``)."""
        target = self if graph is None else graph
        unchecked = Path._unchecked
        for node_id in self._node_ids:
            yield unchecked(target, (node_id,))

    def iter_edge_paths(
        self, graph=None, label: str | None = None, sources=None
    ) -> Iterator[Path]:
        """Yield ``Edges(G)`` as length-one paths straight off the endpoint
        columns (same content and order as ``Path.from_edge`` over
        ``edge_ids()``, no :class:`Edge` materialization).

        ``label`` / ``sources`` restrict the scan to the edges carrying that
        label / leaving one of those (distinct) nodes, read off the per-label
        partition and the CSR runs (:meth:`label_out_slice` when both are
        given) — the edges a filter over the full scan would keep, in the same
        order, without touching the others.
        """
        target = self if graph is None else graph
        if sources is not None:
            indexes = []
            for source in sources:
                node_index = self._node_index.get(source)
                if node_index is None:
                    continue
                if label is None:
                    run, _, start, end = self.out_slice(node_index)
                else:
                    run, _, start, end = self.label_out_slice(label, node_index)
                indexes += run[start:end]
            if len(sources) > 1:
                indexes.sort()
        elif label is not None:
            code = self._label_codes.get(label)
            indexes = self._edges_by_label_part.get(code, ()) if code else ()
        else:
            indexes = range(len(self._edge_ids))
        unchecked = Path._unchecked
        node_ids = self._node_ids
        edge_ids = self._edge_ids
        src = self._edge_src
        dst = self._edge_dst
        for e in indexes:
            yield unchecked(target, (node_ids[src[e]], edge_ids[e], node_ids[dst[e]]))

    # ------------------------------------------------------------------
    # Snapshot / freeze protocol (already frozen; everything is a no-op)
    # ------------------------------------------------------------------
    def freeze(self) -> "CompactGraph":
        return self

    def snapshot(self) -> "CompactGraph":
        """A compact graph is immutable; it is its own snapshot."""
        return self

    def ensure_compact(self) -> "CompactGraph":
        return self

    def delta_between(self, from_version: int, to_version: int | None = None):
        """Delta protocol for cache revalidation: nothing ever changes."""
        from repro.graph.delta import GraphDelta

        if to_version is None:
            to_version = self._version
        return GraphDelta(from_version=from_version, to_version=to_version)

    # ------------------------------------------------------------------
    # Mutation API (always refused)
    # ------------------------------------------------------------------
    def _refuse(self) -> None:
        raise FrozenGraphError(
            f"CompactGraph {self.name!r} is immutable; mutate the source "
            "PropertyGraph (which thaws its compact core) and re-freeze"
        )

    def add_node(self, *args, **kwargs) -> None:
        self._refuse()

    def add_edge(self, *args, **kwargs) -> None:
        self._refuse()

    def set_node_property(self, *args, **kwargs) -> None:
        self._refuse()

    def set_edge_property(self, *args, **kwargs) -> None:
        self._refuse()

    # ------------------------------------------------------------------
    # Conversion helpers
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None):
        """Materialize back into a fresh, mutable :class:`PropertyGraph`."""
        return materialize(self, name or self.name)

    def subgraph_by_edge_labels(self, labels, name: str | None = None):
        wanted = set(labels)
        return materialize(
            self, name or f"{self.name}[{','.join(sorted(wanted))}]", edge_labels=wanted
        )

    # ------------------------------------------------------------------
    # Pickling: flat arrays only (object memos are rebuilt lazily)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_node_objs", "_edge_objs", "_property_index")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._node_objs = None
        self._edge_objs = None
        self._property_index = {}

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def memory_report(self) -> dict[str, int]:
        """Approximate resident bytes of each column family (via ``getsizeof``).

        Used by PERFORMANCE.md's bytes-per-node/edge table and the CI
        memory-footprint smoke: the columnar core must stay well below the
        dict-of-objects representation it replaces.  Property *values* are
        shared with the source graph and excluded (both representations hold
        the same references); the id strings are counted because the compact
        form owns its only copy of each.
        """
        from sys import getsizeof

        def sizeof_strings(strings) -> int:
            return getsizeof(strings) + sum(getsizeof(s) for s in strings)

        def sizeof_arrays(arrays) -> int:
            return sum(getsizeof(a) for a in arrays)

        def sizeof_index(index: dict) -> int:
            # Keys are the same string objects as the id lists — count the
            # dict shell only.
            return getsizeof(index)

        report = {
            "ids": sizeof_strings(self._node_ids) + sizeof_strings(self._edge_ids),
            "indexes": sizeof_index(self._node_index) + sizeof_index(self._edge_index),
            "tables": sizeof_strings([s for s in self._labels if s is not None])
            + sizeof_strings(self._prop_keys)
            + getsizeof(self._label_codes)
            + getsizeof(self._prop_key_codes),
            "columns": sizeof_arrays(
                (self._node_labels, self._edge_labels, self._edge_src, self._edge_dst)
            )
            + getsizeof(self._node_props)
            + getsizeof(self._edge_props)
            + sum(getsizeof(p) for p in self._node_props if p)
            + sum(getsizeof(p) for p in self._edge_props if p),
            "csr": sizeof_arrays(
                (
                    self._out_offsets,
                    self._out_edges,
                    self._out_targets,
                    self._in_offsets,
                    self._in_edges,
                    self._in_sources,
                )
            ),
            "partitions": sum(
                sizeof_arrays((part,)) for part in self._nodes_by_label_part.values()
            )
            + sum(sizeof_arrays((part,)) for part in self._edges_by_label_part.values())
            + sum(
                sizeof_arrays((edges, targets)) + getsizeof(bounds)
                for edges, targets, bounds in self._label_out_part.values()
            ),
        }
        report["total"] = sum(report.values())
        report["bytes_per_object"] = report["total"] // max(
            1, len(self._node_ids) + len(self._edge_ids)
        )
        return report
