"""E-T5 — Table 5: the worked γST solution space over the Knows+ trails.

Regenerates Table 5: the γST grouping of the ϕTrail(Knows+) answer set,
reporting per partition the member paths, MinL(P), MinL(G) and Len(p), and
asserting the MinL values the paper tabulates for the partitions it lists.
"""

from __future__ import annotations

import pytest

from repro.algebra.solution_space import GroupByKey, group_by
from repro.bench.reporting import format_table
from repro.semantics.restrictors import Restrictor, recursive_closure

#: MinL(P) per endpoint pair for the partitions Table 5 lists.
TABLE5_MIN_LENGTHS = {
    ("n1", "n2"): 1,
    ("n1", "n3"): 2,
    ("n1", "n4"): 2,
    ("n2", "n2"): 2,
    ("n2", "n3"): 1,
    ("n2", "n4"): 1,
    ("n3", "n4"): 2,
}


@pytest.fixture(scope="module")
def knows_trails(knows_edges):
    return recursive_closure(knows_edges, Restrictor.TRAIL)


def test_table5_solution_space_benchmark(knows_trails) -> None:
    space = group_by(knows_trails, GroupByKey.ST)
    min_lengths = {p.key: p.min_length() for p in space.partitions}
    for endpoints, expected in TABLE5_MIN_LENGTHS.items():
        assert min_lengths[endpoints] == expected
    # γST: one group per partition, and every group's MinL equals its partition's.
    for partition in space.partitions:
        assert len(partition.groups) == 1
        assert partition.groups[0].min_length() == partition.min_length()


def test_table5_report(knows_trails) -> None:
    """Print the regenerated Table 5 (partition, group, path, MinL(P), MinL(G), Len(p))."""
    space = group_by(knows_trails, GroupByKey.ST)
    rows = []
    for index, partition in enumerate(
        sorted(space.partitions, key=lambda p: p.key), start=1
    ):
        for group_index, group in enumerate(partition.groups, start=1):
            for path in sorted(group.paths, key=lambda p: p.len()):
                rows.append(
                    (
                        f"part{index} {partition.key}",
                        f"group{index}{group_index}",
                        str(path),
                        partition.min_length(),
                        group.min_length(),
                        path.len(),
                    )
                )
    print()
    print(
        format_table(
            ["Partition P", "Group G", "Path p", "MinL(P)", "MinL(G)", "Len(p)"],
            rows,
            title="Table 5 — γST solution space over ϕTrail(Knows+) on Figure 1",
        )
    )
    assert len(rows) == len(knows_trails)
