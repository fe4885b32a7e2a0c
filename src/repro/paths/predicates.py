"""Structural path predicates (paper Section 2.2 and Table 2).

These predicates classify paths according to the GQL / SQL-PGQ restrictors:

* **walk** — any path (no restriction);
* **trail** — no repeated edges;
* **acyclic** — no repeated nodes;
* **simple** — no repeated nodes except that the first and last node may
  coincide.

Shortest-ness is not a property of a single path in isolation (it depends on
the set of paths sharing its endpoints) and therefore lives in
:mod:`repro.semantics.restrictors`.
"""

from __future__ import annotations

from repro.paths.path import Path

__all__ = [
    "is_walk",
    "is_trail",
    "is_acyclic",
    "is_simple",
    "is_cycle",
    "has_repeated_nodes",
    "has_repeated_edges",
    "satisfies_restrictor_name",
]


def is_walk(path: Path) -> bool:
    """Every path is a walk; provided for symmetry with the other predicates."""
    return True


def has_repeated_edges(path: Path) -> bool:
    """Return ``True`` if some edge identifier occurs more than once."""
    edges = path.edge_ids
    return len(set(edges)) != len(edges)


def has_repeated_nodes(path: Path) -> bool:
    """Return ``True`` if some node identifier occurs more than once."""
    nodes = path.node_ids
    return len(set(nodes)) != len(nodes)


def is_trail(path: Path) -> bool:
    """Return ``True`` if the path has no repeated edges (TRAIL restrictor)."""
    return not has_repeated_edges(path)


def is_acyclic(path: Path) -> bool:
    """Return ``True`` if the path has no repeated nodes (ACYCLIC restrictor)."""
    return not has_repeated_nodes(path)


def is_simple(path: Path) -> bool:
    """Return ``True`` if no node repeats except possibly first == last (SIMPLE restrictor)."""
    nodes = path.node_ids
    if len(nodes) <= 1:
        return True
    interior = nodes[:-1]
    if len(set(interior)) != len(interior):
        return False
    last = nodes[-1]
    # The last node may only coincide with the first node, not with any
    # interior node.
    return last not in nodes[1:-1]


def is_cycle(path: Path) -> bool:
    """Return ``True`` if the path is non-empty and starts and ends at the same node."""
    return path.len() > 0 and path.first() == path.last()


_RESTRICTOR_PREDICATES = {
    "WALK": is_walk,
    "TRAIL": is_trail,
    "ACYCLIC": is_acyclic,
    "SIMPLE": is_simple,
}


def satisfies_restrictor_name(path: Path, restrictor: str) -> bool:
    """Return whether ``path`` satisfies the named restrictor (case-insensitive).

    ``SHORTEST`` is accepted and treated as a walk at the single-path level;
    genuine shortest-path filtering is a set-level operation handled by
    :func:`repro.semantics.restrictors.apply_restrictor`.
    """
    name = restrictor.upper()
    if name == "SHORTEST":
        return True
    try:
        predicate = _RESTRICTOR_PREDICATES[name]
    except KeyError:
        raise ValueError(f"unknown restrictor: {restrictor!r}") from None
    return predicate(path)
