"""Property-graph data model (paper Section 2.1) and supporting utilities."""

from repro.graph.builder import GraphBuilder
from repro.graph.compact import CompactGraph, compact_core_of
from repro.graph.delta import GraphDelta, QueryFootprint
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_csv,
    load_json,
    save_csv,
    save_json,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.graph.stats import (
    GraphStatistics,
    compute_statistics,
    has_directed_cycle,
    label_selectivity,
)
from repro.graph.validation import ValidationReport, validate_graph
from repro.graph.wal import (
    CrashPoint,
    DurableStore,
    SimulatedCrash,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "Node",
    "Edge",
    "PropertyGraph",
    "GraphSnapshot",
    "GraphBuilder",
    "CompactGraph",
    "compact_core_of",
    "GraphDelta",
    "QueryFootprint",
    "WriteAheadLog",
    "DurableStore",
    "CrashPoint",
    "SimulatedCrash",
    "read_wal",
    "GraphStatistics",
    "compute_statistics",
    "has_directed_cycle",
    "label_selectivity",
    "ValidationReport",
    "validate_graph",
    "graph_to_dict",
    "graph_from_dict",
    "save_json",
    "load_json",
    "save_csv",
    "load_csv",
]
