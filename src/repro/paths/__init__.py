"""Paths, path sets and path predicates (paper Section 2.2 and 3.1)."""

from repro.paths.intpath import IntPath, IntPathSet
from repro.paths.join_index import JoinIndex
from repro.paths.operators import concat, edge, first, label, last, length, node, prop
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.paths.predicates import (
    has_repeated_edges,
    has_repeated_nodes,
    is_acyclic,
    is_cycle,
    is_simple,
    is_trail,
    is_walk,
    satisfies_restrictor_name,
)

__all__ = [
    "Path",
    "PathSet",
    "JoinIndex",
    "IntPath",
    "IntPathSet",
    "first",
    "last",
    "node",
    "edge",
    "length",
    "label",
    "prop",
    "concat",
    "is_walk",
    "is_trail",
    "is_acyclic",
    "is_simple",
    "is_cycle",
    "has_repeated_nodes",
    "has_repeated_edges",
    "satisfies_restrictor_name",
]
