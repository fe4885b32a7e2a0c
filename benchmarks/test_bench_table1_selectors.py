"""E-T1 — Table 1: the seven GQL selectors and their semantics.

Regenerates Table 1 by applying every selector to the ϕTrail(Knows+) answer
set of the Figure 1 graph and reporting, per selector, how many paths are
returned, whether the result is deterministic, and whether the informal
semantics of the table holds (checked by assertions).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table
from repro.semantics.restrictors import Restrictor, recursive_closure
from repro.semantics.selectors import Selector, SelectorKind, apply_selector

SELECTORS = [
    Selector(SelectorKind.ALL),
    Selector(SelectorKind.ANY_SHORTEST),
    Selector(SelectorKind.ALL_SHORTEST),
    Selector(SelectorKind.ANY),
    Selector(SelectorKind.ANY_K, 2),
    Selector(SelectorKind.SHORTEST_K, 2),
    Selector(SelectorKind.SHORTEST_K_GROUP, 2),
]


@pytest.fixture(scope="module")
def knows_trails(knows_edges):
    return recursive_closure(knows_edges, Restrictor.TRAIL)


def _check_selector_semantics(selector: Selector, paths, result) -> None:
    """Assert the informal Table 1 semantics for the given selector."""
    by_pair = paths.group_by_endpoints()
    if selector.kind is SelectorKind.ALL:
        assert result == paths
    elif selector.kind is SelectorKind.ANY_SHORTEST:
        assert len(result) == len(by_pair)
        for path in result:
            assert path.len() == min(p.len() for p in by_pair[path.endpoints()])
    elif selector.kind is SelectorKind.ALL_SHORTEST:
        expected = sum(
            sum(1 for p in group if p.len() == min(q.len() for q in group))
            for group in by_pair.values()
        )
        assert len(result) == expected
    elif selector.kind is SelectorKind.ANY:
        assert len(result) == len(by_pair)
    elif selector.kind is SelectorKind.ANY_K:
        assert len(result) == sum(min(selector.k, len(group)) for group in by_pair.values())
    elif selector.kind is SelectorKind.SHORTEST_K:
        for pair, group in by_pair.items():
            selected = sorted(p.len() for p in result if p.endpoints() == pair)
            assert selected == sorted(p.len() for p in group)[: min(selector.k, len(group))]
    elif selector.kind is SelectorKind.SHORTEST_K_GROUP:
        for pair, group in by_pair.items():
            lengths = sorted({p.len() for p in group})[: selector.k]
            expected = [p for p in group if p.len() in lengths]
            assert len([p for p in result if p.endpoints() == pair]) == len(expected)


@pytest.mark.parametrize("selector", SELECTORS, ids=[str(s) for s in SELECTORS])
def test_table1_selector_semantics(knows_trails, selector) -> None:
    result = apply_selector(knows_trails, selector)
    _check_selector_semantics(selector, knows_trails, result)


def test_table1_report(knows_trails) -> None:
    """Print the regenerated Table 1 (selector, determinism, result size)."""
    rows = []
    for selector in SELECTORS:
        result = apply_selector(knows_trails, selector)
        rows.append(
            (
                str(selector),
                "deterministic" if selector.kind.is_deterministic else "non-deterministic",
                len(result),
            )
        )
    print()
    print(
        format_table(
            ["Selector", "Determinism (Table 1)", "|paths| over ϕTrail(Knows+)"],
            rows,
            title="Table 1 — selectors applied to the Figure 1 Knows+ trails",
        )
    )
    all_count = rows[0][2]
    assert all(row[2] <= all_count for row in rows)
