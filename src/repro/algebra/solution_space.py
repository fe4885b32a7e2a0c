"""Solution spaces and the extended algebra operators (paper Section 5).

A *solution space* (Definition 5.1) organizes a set of paths into *groups*
which are further organized into *partitions*; a ranking function ``△``
assigns a positive integer to every path, group and partition, which the
order-by operator uses to introduce a virtual ordering.

This module implements:

* :class:`SolutionSpace`, :class:`Partition` and :class:`Group`;
* :func:`group_by` — ``γψ`` for every ψ in Table 4;
* :func:`order_by` — ``τθ`` for every θ in Table 6;
* :func:`project` — ``π(#P, #G, #A)`` following Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from repro.errors import SolutionSpaceError
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = [
    "GroupByKey",
    "OrderByKey",
    "ProjectionSpec",
    "Group",
    "Partition",
    "SolutionSpace",
    "group_by",
    "order_by",
    "project",
    "ALL",
]

#: Sentinel used in projection specs for "all partitions/groups/paths" (the paper's ``*``).
ALL = "*"


class GroupByKey(str, Enum):
    """The ψ parameter of ``γψ`` (Table 4)."""

    NONE = ""
    S = "S"
    T = "T"
    L = "L"
    ST = "ST"
    SL = "SL"
    TL = "TL"
    STL = "STL"

    @property
    def uses_source(self) -> bool:
        return "S" in self.value

    @property
    def uses_target(self) -> bool:
        return "T" in self.value

    @property
    def uses_length(self) -> bool:
        return "L" in self.value

    @classmethod
    def from_string(cls, text: str) -> "GroupByKey":
        """Parse ``"ST"``-style strings (case-insensitive, empty string = γ with no key)."""
        upper = text.upper()
        if any(letter not in "STL" for letter in upper):
            raise SolutionSpaceError(f"unknown group-by key: {text!r}")
        normalized = "".join(sorted(upper, key="STL".index))
        for member in cls:
            if member.value == normalized:
                return member
        raise SolutionSpaceError(f"unknown group-by key: {text!r}")


class OrderByKey(str, Enum):
    """The θ parameter of ``τθ`` (Table 6)."""

    P = "P"
    G = "G"
    A = "A"
    PG = "PG"
    PA = "PA"
    GA = "GA"
    PGA = "PGA"

    @property
    def orders_partitions(self) -> bool:
        return "P" in self.value

    @property
    def orders_groups(self) -> bool:
        return "G" in self.value

    @property
    def orders_paths(self) -> bool:
        return "A" in self.value

    @classmethod
    def from_string(cls, text: str) -> "OrderByKey":
        """Parse ``"PG"``-style strings (case-insensitive)."""
        upper = text.upper()
        if not upper or any(letter not in "PGA" for letter in upper):
            raise SolutionSpaceError(f"unknown order-by key: {text!r}")
        normalized = "".join(sorted(upper, key="PGA".index))
        for member in cls:
            if member.value == normalized:
                return member
        raise SolutionSpaceError(f"unknown order-by key: {text!r}")


@dataclass(frozen=True)
class ProjectionSpec:
    """The ``(#P, #G, #A)`` parameter of the projection operator.

    Each component is either the string ``"*"`` (:data:`ALL`) or a positive
    integer.
    """

    partitions: int | str = ALL
    groups: int | str = ALL
    paths: int | str = ALL

    def __post_init__(self) -> None:
        for name, value in (
            ("partitions", self.partitions),
            ("groups", self.groups),
            ("paths", self.paths),
        ):
            if value == ALL:
                continue
            if not isinstance(value, int) or value < 1:
                raise SolutionSpaceError(
                    f"projection component {name} must be '*' or a positive integer, got {value!r}"
                )

    def __str__(self) -> str:
        return f"({self.partitions}, {self.groups}, {self.paths})"

    @staticmethod
    def _limit(component: int | str, available: int) -> int:
        if component == ALL or (isinstance(component, int) and component > available):
            return available
        return int(component)

    def limit_partitions(self, available: int) -> int:
        """Number of partitions to project given ``available`` partitions."""
        return self._limit(self.partitions, available)

    def limit_groups(self, available: int) -> int:
        """Number of groups per partition to project given ``available`` groups."""
        return self._limit(self.groups, available)

    def limit_paths(self, available: int) -> int:
        """Number of paths per group to project given ``available`` paths."""
        return self._limit(self.paths, available)


@dataclass
class Group:
    """A group of paths inside a partition.

    ``key`` records the grouping values that induced the group (e.g. a length
    for γL, or nothing for γ).  ``rank`` is the value of the ``△`` function;
    ``path_ranks`` holds ``△(p)`` for the paths an order-by ranked (the rest are 1).
    """

    key: tuple = ()
    paths: list[Path] = field(default_factory=list)
    rank: int = 1
    path_ranks: dict[Path, int] = field(default_factory=dict)

    def min_length(self) -> int:
        """``MinL(G)`` — length of the shortest path in the group."""
        if not self.paths:
            raise SolutionSpaceError("MinL is undefined for an empty group")
        return min(path.len() for path in self.paths)

    def path_rank(self, path: Path) -> int:
        """``△(p)`` for a path of this group (defaults to 1)."""
        return self.path_ranks.get(path, 1)

    def sorted_paths(self) -> list[Path]:
        """Paths sorted by ``△`` (stable: insertion order breaks ties)."""
        if not self.path_ranks:  # no τA ranked a path: the stored order is the sorted order
            return list(self.paths)
        return sorted(self.paths, key=lambda path: self.path_ranks.get(path, 1))

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)


@dataclass
class Partition:
    """A partition of groups inside a solution space."""

    key: tuple = ()
    groups: list[Group] = field(default_factory=list)
    rank: int = 1

    def min_length(self) -> int:
        """``MinL(P)`` — minimum length among all groups of the partition."""
        if not self.groups:
            raise SolutionSpaceError("MinL is undefined for an empty partition")
        return min(group.min_length() for group in self.groups)

    def sorted_groups(self) -> list[Group]:
        """Groups sorted by ``△`` (stable: insertion order breaks ties)."""
        return sorted(self.groups, key=lambda group: group.rank)

    def paths(self) -> list[Path]:
        """All paths of the partition, in group order."""
        return [path for group in self.groups for path in group.paths]

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[Group]:
        return iter(self.groups)


class SolutionSpace:
    """A solution space ``SS = (S, G, P, α, β, △)`` (Definition 5.1).

    The nested ``partitions -> groups -> paths`` lists encode the assignment
    functions α and β; the ``rank`` attributes encode ``△``.
    """

    def __init__(self, partitions: Iterable[Partition] = (), grouping: GroupByKey = GroupByKey.NONE) -> None:
        self.partitions: list[Partition] = list(partitions)
        self.grouping = grouping
        self.unique = False  #: set by :func:`group_by` for a PathSet input: no path repeats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def num_partitions(self) -> int:
        """Number of partitions ``|P|``."""
        return len(self.partitions)

    def num_groups(self) -> int:
        """Total number of groups ``|G|``."""
        return sum(len(partition.groups) for partition in self.partitions)

    def num_paths(self) -> int:
        """Total number of paths ``|S|``."""
        return sum(len(group.paths) for partition in self.partitions for group in partition.groups)

    def all_paths(self) -> PathSet:
        """Return the underlying set of paths ``S``."""
        paths = [path for partition in self.partitions for group in partition.groups for path in group.paths]
        return PathSet.from_unique(paths) if self.unique else PathSet(paths)

    def groups(self) -> list[Group]:
        """Return every group across all partitions."""
        return [group for partition in self.partitions for group in partition.groups]

    def partition_for(self, path: Path) -> Partition | None:
        """Return the partition containing ``path`` (``β(α(p))``), or ``None`` (linear scan)."""
        for partition in self.partitions:
            for group in partition.groups:
                if path in group.paths:
                    return partition
        return None

    def group_for(self, path: Path) -> Group | None:
        """Return the group containing ``path`` (``α(p)``), or ``None``; a linear scan, for tests."""
        for partition in self.partitions:
            for group in partition.groups:
                if path in group.paths:
                    return group
        return None

    def sorted_partitions(self) -> list[Partition]:
        """Partitions sorted by ``△`` (stable)."""
        return sorted(self.partitions, key=lambda partition: partition.rank)

    def shape(self) -> tuple[int, int, int]:
        """Return ``(num_partitions, num_groups, num_paths)`` — used to check Table 4."""
        return (self.num_partitions(), self.num_groups(), self.num_paths())

    def copy(self) -> "SolutionSpace":
        """Return a structural copy (paths are shared, containers are new)."""
        new_partitions = []
        for partition in self.partitions:
            new_groups = [
                Group(
                    key=group.key,
                    paths=list(group.paths),
                    rank=group.rank,
                    path_ranks=dict(group.path_ranks),
                )
                for group in partition.groups
            ]
            new_partitions.append(Partition(key=partition.key, groups=new_groups, rank=partition.rank))
        return SolutionSpace(new_partitions, self.grouping)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolutionSpace(partitions={self.num_partitions()}, groups={self.num_groups()}, "
            f"paths={self.num_paths()}, grouping={self.grouping.value or '∅'})"
        )


# ----------------------------------------------------------------------
# Group-by (γψ)
# ----------------------------------------------------------------------
def group_by(paths: PathSet | Iterable[Path], key: GroupByKey | str = GroupByKey.NONE) -> SolutionSpace:
    """Evaluate ``γψ(S)`` and return the induced solution space (Section 5.1).

    Partition keys use the Source/Target components of ψ; group keys add the
    Length component.  When ψ contains no Source/Target there is a single
    partition; when it contains no Length there is a single group per
    partition.  All ranks are initialized to 1 (no virtual order).
    """
    if isinstance(key, str):
        key = GroupByKey.from_string(key)
    path_list = list(paths)

    partitions: dict[tuple, Partition] = {}
    if key is GroupByKey.NONE:
        if path_list:
            partitions[()] = Partition(groups=[Group(paths=path_list)])
    else:
        by_source, by_target, by_length = key.uses_source, key.uses_target, key.uses_length
        groups: dict[tuple[tuple, tuple], Group] = {}
        for path in path_list:
            if by_source:
                partition_key = (path.first(), path.last()) if by_target else (path.first(),)
            else:
                partition_key = (path.last(),) if by_target else ()
            group_key = (path.len(),) if by_length else ()
            group = groups.get((partition_key, group_key))
            if group is None:
                partition = partitions.get(partition_key)
                if partition is None:
                    partition = partitions[partition_key] = Partition(key=partition_key)
                group = groups[(partition_key, group_key)] = Group(key=group_key)
                partition.groups.append(group)
            group.paths.append(path)

    space = SolutionSpace(partitions.values(), grouping=key)
    space.unique = isinstance(paths, PathSet)
    return space


# ----------------------------------------------------------------------
# Order-by (τθ)
# ----------------------------------------------------------------------
def order_by(space: SolutionSpace, key: OrderByKey | str) -> SolutionSpace:
    """Evaluate ``τθ(SS)`` and return a solution space with the ``△'`` ranks of Table 6.

    * θ containing ``P``: every partition gets rank ``MinL(P)``;
    * θ containing ``G``: every group gets rank ``MinL(G)``;
    * θ containing ``A``: every path gets rank ``Len(p)``.

    Components absent from θ keep their previous rank unchanged.  The input
    space is left as it was; the result shares its path lists with it.
    """
    if isinstance(key, str):
        key = OrderByKey.from_string(key)
    by_partition, by_group, by_path = key.orders_partitions, key.orders_groups, key.orders_paths
    partitions = []
    for partition in space.partitions:
        groups = []
        for group in partition.groups:
            rank = group.min_length() if by_group and group.paths else group.rank
            ranks = {path: path.len() for path in group.paths} if by_path else group.path_ranks
            groups.append(Group(group.key, group.paths, rank, ranks))
        rank = partition.min_length() if by_partition and groups else partition.rank
        partitions.append(Partition(partition.key, groups, rank))
    result = SolutionSpace(partitions, space.grouping)
    result.unique = space.unique
    return result


# ----------------------------------------------------------------------
# Projection (π) — Algorithm 1
# ----------------------------------------------------------------------
def project(space: SolutionSpace, spec: ProjectionSpec | tuple = ProjectionSpec()) -> PathSet:
    """Evaluate ``π(#P, #G, #A)(SS)`` following Algorithm 1.

    Partitions, groups and paths are each sorted by their ``△`` value (stable
    with respect to insertion order), truncated to the requested counts, and
    the surviving paths are returned as a :class:`PathSet`.
    """
    if isinstance(spec, tuple):
        spec = ProjectionSpec(*spec)
    selected: list[Path] = []
    for partition in space.sorted_partitions()[: spec.limit_partitions(len(space.partitions))]:
        for group in partition.sorted_groups()[: spec.limit_groups(len(partition.groups))]:
            selected += group.sorted_paths()[: spec.limit_paths(len(group.paths))]
    return PathSet.from_unique(selected) if space.unique else PathSet(selected)
