"""E-T6 — Table 6: the order-by operator τθ and its rank assignments.

Regenerates Table 6: for every θ the harness applies τθ to a γSTL solution
space over ϕTrail(Knows+) and asserts exactly the rank (△') assignments the
table prescribes — MinL(P) for partitions when θ contains P, MinL(G) for
groups when it contains G, Len(p) for paths when it contains A, and unchanged
ranks otherwise.
"""

from __future__ import annotations

import pytest

from repro.algebra.solution_space import GroupByKey, OrderByKey, group_by, order_by
from repro.bench.reporting import format_table
from repro.semantics.restrictors import Restrictor, recursive_closure


@pytest.fixture(scope="module")
def base_space(knows_edges):
    trails = recursive_closure(knows_edges, Restrictor.TRAIL)
    return group_by(trails, GroupByKey.STL)


def _check_table6_row(key: OrderByKey, before, after) -> None:
    for partition_before, partition_after in zip(before.partitions, after.partitions):
        if key.orders_partitions:
            assert partition_after.rank == partition_after.min_length()
        else:
            assert partition_after.rank == partition_before.rank
        for group_before, group_after in zip(partition_before.groups, partition_after.groups):
            if key.orders_groups:
                assert group_after.rank == group_after.min_length()
            else:
                assert group_after.rank == group_before.rank
            for path in group_after.paths:
                if key.orders_paths:
                    assert group_after.path_rank(path) == path.len()
                else:
                    assert group_after.path_rank(path) == group_before.path_rank(path)


@pytest.mark.parametrize("key", list(OrderByKey), ids=[k.value for k in OrderByKey])
def test_table6_orderby_semantics(base_space, key) -> None:
    after = order_by(base_space, key)
    _check_table6_row(key, base_space, after)


def test_table6_report(base_space) -> None:
    """Print the regenerated Table 6 (which △' assignments each θ performs)."""
    rows = []
    for key in OrderByKey:
        rows.append(
            (
                f"τ{key.value}",
                "MinL(P)" if key.orders_partitions else "unchanged",
                "MinL(G)" if key.orders_groups else "unchanged",
                "Len(p)" if key.orders_paths else "unchanged",
            )
        )
    print()
    print(
        format_table(
            ["θ", "△'(P)", "△'(G)", "△'(p)"],
            rows,
            title="Table 6 — order-by rank assignments (verified against the implementation)",
        )
    )
