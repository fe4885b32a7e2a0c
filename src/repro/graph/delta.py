"""Graph deltas and query footprints — the vocabulary of incremental cache maintenance.

The serving stack built in PR 3–5 keys every cache entry on the graph's
mutation counter, so *any* write invalidates *every* cached plan and result
("whole-version invalidation").  PERFORMANCE.md ("Serving queries
concurrently") shows result reuse is the service's only real throughput win,
which makes that blanket invalidation the single most expensive thing a write
can do.  This module defines the two value objects that replace it:

* :class:`GraphDelta` — what changed between two versions of one graph: the
  node/edge labels touched by insertions, the labels of objects whose
  properties were updated, and the identifiers involved.  Produced by
  :meth:`~repro.graph.model.PropertyGraph.delta_between` from the graph's
  bounded in-memory mutation journal.
* :class:`QueryFootprint` — what part of the graph a query's *result* can
  depend on: the edge/node label classes its scans are restricted to (or a
  universal marker when no sound restriction is known) plus whether it reads
  node/edge property values.  Derived statically from the optimized plan by
  :func:`repro.engine.footprint.plan_footprint` and recorded by both
  executors into :class:`~repro.execution.ExecutionStatistics`.

:meth:`GraphDelta.affects` is the single intersection test the caches use: a
write invalidates a cached entry only when its delta can change the entry's
result.  The analysis is deliberately *conservative* — whenever a restriction
cannot be proven, the footprint degrades to universal and behaves exactly
like whole-version invalidation — so delta-aware maintenance is a pure
optimization, never a correctness trade.

Soundness notes (why each rule is safe):

* A label-restricted edge scan ``σ[label(edge(1)) = ℓ](Edges(G))`` depends
  only on edges labelled ``ℓ``: inserting an edge with any other label (or no
  label — the equality can never match ``None``) leaves its output unchanged.
* Inserting a *node* never changes an edge scan: a brand-new node has no
  incident edges, and connecting it requires a separate edge insertion that
  shows up in the delta on its own.
* Property updates can only affect queries that read property values
  (:class:`~repro.algebra.conditions.PropertyCondition`); path rendering,
  label conditions and the solution-space keys are all property-free.

The module is standard-library only (it sits below both the graph layer and
the engine layer in the import graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GraphDelta", "QueryFootprint", "UNIVERSAL_FOOTPRINT"]

#: Placeholder label for objects added without a label: ``lambda`` is partial,
#: and ``None`` cannot live in a ``frozenset[str]`` documented as labels.
UNLABELED = "\x00unlabeled"


@dataclass(frozen=True)
class QueryFootprint:
    """The part of a graph one query's result can depend on.

    Attributes:
        edge_labels: Edge-label classes the query's edge scans are restricted
            to.  Ignored when ``edge_universal`` is set.  An empty set with
            ``edge_universal=False`` means the plan contains no edge scan at
            all, so no edge insertion can affect it.
        edge_universal: The query may depend on edges of *any* label (an
            unrestricted ``Edges(G)`` scan, or a restriction the analysis
            could not prove).
        node_labels: Same, for node scans (``Nodes(G)`` atoms).
        node_universal: The query may depend on nodes of any label.
        reads_node_properties: The plan evaluates a property condition over a
            node position, so node property updates can change its result.
        reads_edge_properties: Same, for edge property conditions.
    """

    edge_labels: frozenset[str] = frozenset()
    edge_universal: bool = False
    node_labels: frozenset[str] = frozenset()
    node_universal: bool = False
    reads_node_properties: bool = False
    reads_edge_properties: bool = False

    def union(self, other: "QueryFootprint") -> "QueryFootprint":
        """Combine two footprints (a plan depends on everything its subplans do)."""
        return QueryFootprint(
            edge_labels=self.edge_labels | other.edge_labels,
            edge_universal=self.edge_universal or other.edge_universal,
            node_labels=self.node_labels | other.node_labels,
            node_universal=self.node_universal or other.node_universal,
            reads_node_properties=self.reads_node_properties or other.reads_node_properties,
            reads_edge_properties=self.reads_edge_properties or other.reads_edge_properties,
        )

    def describe(self) -> str:
        """Human-readable summary used by EXPLAIN-style introspection."""
        edge = "*" if self.edge_universal else "{%s}" % ",".join(sorted(self.edge_labels))
        node = "*" if self.node_universal else "{%s}" % ",".join(sorted(self.node_labels))
        props = []
        if self.reads_node_properties:
            props.append("node-props")
        if self.reads_edge_properties:
            props.append("edge-props")
        suffix = f" +{'+'.join(props)}" if props else ""
        return f"edges:{edge} nodes:{node}{suffix}"


#: The footprint that intersects every possible delta — the conservative
#: fallback that makes delta-aware maintenance degrade to whole-version
#: invalidation instead of serving a stale result.
UNIVERSAL_FOOTPRINT = QueryFootprint(
    edge_universal=True,
    node_universal=True,
    reads_node_properties=True,
    reads_edge_properties=True,
)


@dataclass(frozen=True)
class GraphDelta:
    """What changed in one graph between two versions.

    Instances are produced by
    :meth:`~repro.graph.model.PropertyGraph.delta_between` from the graph's
    bounded mutation journal; ``from_version < to_version`` always holds and
    the delta covers mutations with ``from_version < version <= to_version``.

    Attributes:
        from_version: Exclusive lower bound of the covered version range.
        to_version: Inclusive upper bound.
        node_labels: Labels of inserted nodes (:data:`UNLABELED` for nodes
            added without a label).
        edge_labels: Labels of inserted edges (same convention).
        node_property_labels: Labels of nodes whose properties were updated.
        edge_property_labels: Labels of edges whose properties were updated.
        node_ids: Identifiers of nodes touched (inserted or property-updated);
            for edge insertions, both endpoint identifiers are included.
        edge_ids: Identifiers of edges touched (inserted or property-updated).
    """

    from_version: int
    to_version: int
    node_labels: frozenset[str] = frozenset()
    edge_labels: frozenset[str] = frozenset()
    node_property_labels: frozenset[str] = frozenset()
    edge_property_labels: frozenset[str] = frozenset()
    node_ids: frozenset[str] = frozenset()
    edge_ids: frozenset[str] = frozenset()

    @property
    def empty(self) -> bool:
        """``True`` when the version range contains no recorded mutation."""
        return not (
            self.node_labels
            or self.edge_labels
            or self.node_property_labels
            or self.edge_property_labels
        )

    def affects(self, footprint: QueryFootprint | None) -> bool:
        """Can this delta change the result of a query with ``footprint``?

        ``None`` (no footprint recorded) is treated as universal: the entry
        is invalidated, which is the pre-delta behavior.
        """
        if footprint is None:
            return not self.empty
        for label in self.edge_labels:
            if footprint.edge_universal:
                return True
            if label != UNLABELED and label in footprint.edge_labels:
                return True
        for label in self.node_labels:
            if footprint.node_universal:
                return True
            if label != UNLABELED and label in footprint.node_labels:
                return True
        if self.node_property_labels and footprint.reads_node_properties:
            return True
        if self.edge_property_labels and footprint.reads_edge_properties:
            return True
        return False

    def merge(self, other: "GraphDelta") -> "GraphDelta":
        """Union two deltas of adjacent (or overlapping) version ranges."""
        return GraphDelta(
            from_version=min(self.from_version, other.from_version),
            to_version=max(self.to_version, other.to_version),
            node_labels=self.node_labels | other.node_labels,
            edge_labels=self.edge_labels | other.edge_labels,
            node_property_labels=self.node_property_labels | other.node_property_labels,
            edge_property_labels=self.edge_property_labels | other.edge_property_labels,
            node_ids=self.node_ids | other.node_ids,
            edge_ids=self.edge_ids | other.edge_ids,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDelta(v{self.from_version}..v{self.to_version}, "
            f"+nodes={sorted(self.node_labels)}, +edges={sorted(self.edge_labels)}, "
            f"props={sorted(self.node_property_labels | self.edge_property_labels)})"
        )


@dataclass
class _MutationRecord:
    """One journal entry (internal to :class:`PropertyGraph`'s delta tracking)."""

    version: int
    kind: str  # "node" | "edge" | "node-prop" | "edge-prop"
    label: str | None
    object_id: str
    endpoints: tuple[str, str] | None = None


def build_delta(
    records: "list[_MutationRecord]", from_version: int, to_version: int
) -> GraphDelta:
    """Aggregate journal ``records`` into a :class:`GraphDelta`.

    The caller guarantees every record satisfies
    ``from_version < record.version <= to_version``.
    """
    node_labels: set[str] = set()
    edge_labels: set[str] = set()
    node_prop_labels: set[str] = set()
    edge_prop_labels: set[str] = set()
    node_ids: set[str] = set()
    edge_ids: set[str] = set()
    for record in records:
        label = record.label if record.label is not None else UNLABELED
        if record.kind == "node":
            node_labels.add(label)
            node_ids.add(record.object_id)
        elif record.kind == "edge":
            edge_labels.add(label)
            edge_ids.add(record.object_id)
            if record.endpoints is not None:
                node_ids.update(record.endpoints)
        elif record.kind == "node-prop":
            node_prop_labels.add(label)
            node_ids.add(record.object_id)
        else:  # "edge-prop"
            edge_prop_labels.add(label)
            edge_ids.add(record.object_id)
    return GraphDelta(
        from_version=from_version,
        to_version=to_version,
        node_labels=frozenset(node_labels),
        edge_labels=frozenset(edge_labels),
        node_property_labels=frozenset(node_prop_labels),
        edge_property_labels=frozenset(edge_prop_labels),
        node_ids=frozenset(node_ids),
        edge_ids=frozenset(edge_ids),
    )
