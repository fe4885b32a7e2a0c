"""Access paths: the atoms ``Nodes(G)`` / ``Edges(G)`` read off a graph's indexes.

Both executors read their scans through the two generators here, whatever
the graph's encoding: a frozen graph (or a snapshot whose version its parent's
columnar core matches) is read straight off the
:class:`~repro.graph.compact.CompactGraph` columns, a mutable graph or a
snapshot view through its object indexes.  :func:`edge_paths` can restrict
the scan to a label and to a source node — the lookups behind
``σ[label(edge(1)) = L](Edges(G))`` (see
:func:`~repro.algebra.expressions.label_scan_input`) and behind the pipeline's
adjacency expand.  A restricted scan yields exactly the paths a filter over
the full scan would keep, in the same order, on every encoding; nothing is
built or cached to serve it (the indexes are the ones the graph already
maintains: ``_edges_by_label`` / ``_out`` with the snapshot's version filter,
the frozen per-label partitions and CSR runs).
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.compact import compact_core_of
from repro.graph.model import PropertyGraph
from repro.paths.path import Path

__all__ = ["node_paths", "edge_paths"]


def node_paths(graph: PropertyGraph) -> Iterator[Path]:
    """``Nodes(G)`` — every node as a length-zero path, in insertion order."""
    compact = compact_core_of(graph)
    if compact is not None:
        return compact.iter_node_paths(graph)
    unchecked = Path._unchecked
    return (unchecked(graph, (node_id,)) for node_id in graph.node_ids())


def edge_paths(
    graph: PropertyGraph, label: str | None = None, source: str | None = None
) -> Iterator[Path]:
    """``Edges(G)`` — every edge as a length-one path, in insertion order.

    With ``label``, only the edges carrying it; with ``source``, only the
    edges leaving that node (none when the graph has no such node).
    """
    compact = compact_core_of(graph)
    if compact is not None:
        return compact.iter_edge_paths(graph, label, source)
    if source is not None:
        edges = graph.out_edges(source) if graph.has_node(source) else ()
        if label is not None:
            edges = [edge for edge in edges if edge.label == label]
    elif label is not None:
        edges = graph.edges_by_label(label)
    else:
        edges = graph.edges()
    unchecked = Path._unchecked
    return (unchecked(graph, (edge.source, edge.id, edge.target)) for edge in edges)
