"""Reference γ / τ / π: the per-path transcription the one-pass operators replaced.

These are the bodies :mod:`repro.algebra.solution_space` shipped before its
operators were made single-pass, kept verbatim as the oracle
``test_solution_space_oracle`` compares the production operators against —
every path is hashed into ``path_ranks``, order-by deep-copies the space, and
projection sorts every level and re-adds path by path with a dedup probe.
The only edits: the three ``sorted_*`` helpers are inlined with their old
lambdas (the production methods now skip uniform levels), and the functions
carry a ``reference_`` prefix.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.solution_space import (
    Group,
    GroupByKey,
    OrderByKey,
    Partition,
    ProjectionSpec,
    SolutionSpace,
)
from repro.paths.path import Path
from repro.paths.pathset import PathSet


def reference_group_by(
    paths: PathSet | Iterable[Path], key: GroupByKey | str = GroupByKey.NONE
) -> SolutionSpace:
    if isinstance(key, str):
        key = GroupByKey.from_string(key)
    path_list = list(paths)

    partitions: dict[tuple, Partition] = {}
    groups: dict[tuple[tuple, tuple], Group] = {}

    for path in path_list:
        partition_key: tuple = ()
        if key.uses_source:
            partition_key += (path.first(),)
        if key.uses_target:
            partition_key += (path.last(),)
        group_key: tuple = ()
        if key.uses_length:
            group_key += (path.len(),)

        partition = partitions.get(partition_key)
        if partition is None:
            partition = Partition(key=partition_key)
            partitions[partition_key] = partition
        group = groups.get((partition_key, group_key))
        if group is None:
            group = Group(key=group_key)
            groups[(partition_key, group_key)] = group
            partition.groups.append(group)
        group.paths.append(path)
        group.path_ranks[path] = 1

    return SolutionSpace(partitions.values(), grouping=key)


def reference_order_by(space: SolutionSpace, key: OrderByKey | str) -> SolutionSpace:
    if isinstance(key, str):
        key = OrderByKey.from_string(key)
    result = space.copy()
    for partition in result.partitions:
        if key.orders_partitions:
            partition.rank = partition.min_length() if partition.groups else partition.rank
        for group in partition.groups:
            if key.orders_groups:
                group.rank = group.min_length() if group.paths else group.rank
            if key.orders_paths:
                for path in group.paths:
                    group.path_ranks[path] = path.len()
    return result


def reference_project(
    space: SolutionSpace, spec: ProjectionSpec | tuple = ProjectionSpec()
) -> PathSet:
    if isinstance(spec, tuple):
        spec = ProjectionSpec(*spec)
    output = PathSet()

    sorted_partitions = sorted(space.partitions, key=lambda partition: partition.rank)
    max_partitions = spec.limit_partitions(len(sorted_partitions))
    for partition in sorted_partitions[:max_partitions]:
        sorted_groups = sorted(partition.groups, key=lambda group: group.rank)
        max_groups = spec.limit_groups(len(sorted_groups))
        for group in sorted_groups[:max_groups]:
            sorted_paths = sorted(group.paths, key=lambda path: group.path_ranks.get(path, 1))
            max_paths = spec.limit_paths(len(sorted_paths))
            for path in sorted_paths[:max_paths]:
                output.add(path)
    return output
