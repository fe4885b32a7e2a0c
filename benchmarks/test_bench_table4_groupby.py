"""E-T4 — Table 4: group-by expressions and the solution-space organizations they induce.

Regenerates Table 4: for each of the eight γψ variants, the harness reports
the number of partitions and groups produced over the ϕTrail(Knows+) answer
set and asserts the organization the table describes (single vs. N partitions,
single vs. M groups per partition).
"""

from __future__ import annotations

import pytest

from repro.algebra.solution_space import GroupByKey, group_by
from repro.bench.reporting import format_table
from repro.semantics.restrictors import Restrictor, recursive_closure

TABLE4_ORGANIZATION = {
    GroupByKey.NONE: "1 partition, 1 group",
    GroupByKey.S: "N partitions, 1 group per partition",
    GroupByKey.T: "N partitions, 1 group per partition",
    GroupByKey.L: "1 partition, M groups per partition",
    GroupByKey.ST: "N partitions, 1 group per partition",
    GroupByKey.SL: "N partitions, M groups per partition",
    GroupByKey.TL: "N partitions, M groups per partition",
    GroupByKey.STL: "N partitions, M groups per partition",
}


@pytest.fixture(scope="module")
def knows_trails(knows_edges):
    return recursive_closure(knows_edges, Restrictor.TRAIL)


def _check_shape(key: GroupByKey, space, paths) -> None:
    sources = {p.first() for p in paths}
    targets = {p.last() for p in paths}
    pairs = {p.endpoints() for p in paths}
    if key is GroupByKey.NONE:
        assert space.num_partitions() == 1 and space.num_groups() == 1
    elif key is GroupByKey.S:
        assert space.num_partitions() == len(sources)
        assert space.num_groups() == space.num_partitions()
    elif key is GroupByKey.T:
        assert space.num_partitions() == len(targets)
        assert space.num_groups() == space.num_partitions()
    elif key is GroupByKey.L:
        assert space.num_partitions() == 1
        assert space.num_groups() == len({p.len() for p in paths})
    elif key is GroupByKey.ST:
        assert space.num_partitions() == len(pairs)
        assert space.num_groups() == space.num_partitions()
    else:
        # SL / TL / STL: groups refine partitions by length.
        assert space.num_groups() >= space.num_partitions()
    assert space.num_paths() == len(paths)


@pytest.mark.parametrize("key", list(GroupByKey), ids=[k.value or "none" for k in GroupByKey])
def test_table4_groupby_shape(knows_trails, key) -> None:
    space = group_by(knows_trails, key)
    _check_shape(key, space, knows_trails)


def test_table4_report(knows_trails) -> None:
    """Print the regenerated Table 4 with concrete partition/group counts."""
    rows = []
    for key in GroupByKey:
        space = group_by(knows_trails, key)
        rows.append(
            (
                f"γ{key.value}" if key.value else "γ",
                TABLE4_ORGANIZATION[key],
                space.num_partitions(),
                space.num_groups(),
            )
        )
    print()
    print(
        format_table(
            ["Group-by", "Organization (Table 4)", "partitions", "groups"],
            rows,
            title="Table 4 — solution-space organization per group-by key (ϕTrail(Knows+))",
        )
    )
