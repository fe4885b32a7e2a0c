"""Access paths: the atoms ``Nodes(G)`` / ``Edges(G)`` read off a graph's indexes.

Both executors read their scans through the two generators here, whatever
the graph's encoding: a frozen graph (or a snapshot whose version its parent's
columnar core matches) is read straight off the
:class:`~repro.graph.compact.CompactGraph` columns, a mutable graph or a
snapshot view through its object indexes.  :func:`edge_paths` can restrict
the scan to a label and to a set of source nodes — the lookups behind
``σ[label(edge(1)) = L](Edges(G))`` (see
:func:`~repro.algebra.expressions.label_scan_input`), behind a ``first.p = v``
conjunct (the node ids :meth:`~repro.graph.model.PropertyGraph.node_ids_with`
returns, see :func:`~repro.algebra.expressions.endpoint_ids_input`) and, one
node at a time through :class:`Adjacency`, behind both executors' adjacency
expand.  A restricted scan yields exactly the paths a filter over the full
scan would keep, in the same order, on every encoding.  The label and
adjacency indexes are the ones every encoding keeps anyway
(``_edges_by_label`` / ``_out`` with the snapshot's version filter, the
frozen per-label partitions and CSR runs); the one index built for reads is
the endpoint-equality map, lazily, per property and per graph version.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.graph.compact import compact_core_of
from repro.graph.model import PropertyGraph
from repro.paths.path import Path

if TYPE_CHECKING:  # pragma: no cover - the algebra imports this module
    from repro.algebra.conditions import Condition

__all__ = ["Adjacency", "node_paths", "edge_paths"]


def node_paths(graph: PropertyGraph) -> Iterator[Path]:
    """``Nodes(G)`` — every node as a length-zero path, in insertion order."""
    compact = compact_core_of(graph)
    if compact is not None:
        return compact.iter_node_paths(graph)
    unchecked = Path._unchecked
    return (unchecked(graph, (node_id,)) for node_id in graph.node_ids())


def edge_paths(
    graph: PropertyGraph, label: str | None = None, sources: Sequence[str] | None = None
) -> Iterator[Path]:
    """``Edges(G)`` — every edge as a length-one path, in insertion order.

    With ``label``, only the edges carrying it; with ``sources`` (distinct
    node ids), only the edges leaving one of them — ids the graph does not
    hold leave nothing.  The edges of several sources are merged back into
    scan order by edge position.
    """
    compact = compact_core_of(graph)
    if compact is not None:
        return compact.iter_edge_paths(graph, label, sources)
    if sources is not None:
        edges = [
            edge
            for source in sources
            if graph.has_node(source)
            for edge in graph.out_edges(source)
            if label is None or edge.label == label
        ]
        if len(sources) > 1:
            position = graph.edge_index_of
            edges.sort(key=lambda edge: position(edge.id))
    elif label is not None:
        edges = graph.edges_by_label(label)
    else:
        edges = graph.edges()
    unchecked = Path._unchecked
    return (unchecked(graph, (edge.source, edge.id, edge.target)) for edge in edges)


class Adjacency:
    """The extensions ``σ[label(edge(1)) = L ∧ c](Edges(G))`` offers each node.

    What a :class:`~repro.paths.join_index.JoinIndex` over the whole selection
    returns for a node, in the same order, read off the node's out-edges on
    first touch and kept for the life of this object — the right operand of
    an adjacency expand (``label_scan_input``), shared by the materializing
    evaluator and the pipeline.  ``condition`` is the residual of ``c``
    (``None`` when there is none).  Each read reports ``(edges read, edges
    kept)`` to ``account``, which counts them on the executor's ``Edges(G)``
    and ``σ`` rows and charges its budget.
    """

    __slots__ = ("_graph", "_compact", "_label", "_condition", "_account", "_by_node")

    def __init__(
        self,
        graph: PropertyGraph,
        label: str,
        condition: "Condition | None",
        account: Callable[[int, int], None],
    ) -> None:
        self._graph = graph
        self._compact = compact_core_of(graph)
        self._label = label
        self._condition = condition
        self._account = account
        self._by_node: dict[str, list[Path]] = {}

    def extensions(self, node_id: str) -> list[Path]:
        """The selection's paths that start at ``node_id``, in scan order."""
        extensions = self._by_node.get(node_id)
        if extensions is None:
            graph, label = self._graph, self._label
            if self._compact is not None:
                read = list(self._compact.iter_edge_paths(graph, label, (node_id,)))
            else:
                # edge_paths(graph, label, (node_id,)) for a node of the graph.
                unchecked = Path._unchecked
                read = [
                    unchecked(graph, (node_id, edge.id, edge.target))
                    for edge in graph.out_edges(node_id)
                    if edge.label == label
                ]
            condition = self._condition
            extensions = read if condition is None else [p for p in read if condition.evaluate(p)]
            self._by_node[node_id] = extensions
            self._account(len(read), len(extensions))
        return extensions
