"""E-T7 — Table 7: translating GQL selector/restrictor expressions into the algebra.

Regenerates Table 7: for every selector combined with the WALK restrictor the
harness builds the algebra expression the table prescribes, checks its
notation, and evaluates it on the Figure 1 graph; the remaining 21
selector × restrictor combinations (Section 6 says all 28 are expressible)
are also planned and executed.
"""

from __future__ import annotations

import pytest

from repro.algebra.conditions import label_of_edge
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import EdgesScan, Selection
from repro.algebra.printer import to_algebra_notation
from repro.bench.reporting import format_table
from repro.semantics.restrictors import Restrictor
from repro.semantics.selectors import Selector, SelectorKind
from repro.semantics.translate import (
    all_selector_restrictor_combinations,
    translate_selector_restrictor,
)

WALK_BOUND = 5

#: The algebra expressions of Table 7 (with RE = σ[label(edge(1))='Knows'](Edges(G))).
TABLE7_EXPECTED_NOTATION = {
    "ALL": "π(*,*,*)(γ(ϕWalk,≤5(RE)))",
    "ANY SHORTEST": "π(*,*,1)(τA(γST(ϕWalk,≤5(RE))))",
    "ALL SHORTEST": "π(*,1,*)(τG(γSTL(ϕWalk,≤5(RE))))",
    "ANY": "π(*,*,1)(γST(ϕWalk,≤5(RE)))",
    "ANY 2": "π(*,*,2)(γST(ϕWalk,≤5(RE)))",
    "SHORTEST 2": "π(*,*,2)(τA(γST(ϕWalk,≤5(RE))))",
    "SHORTEST 2 GROUP": "π(*,2,*)(τG(γSTL(ϕWalk,≤5(RE))))",
}

RE_NOTATION = "σ[label(edge(1)) = 'Knows'](Edges(G))"


def knows_scan() -> Selection:
    return Selection(label_of_edge(1, "Knows"), EdgesScan())


def _selectors() -> list[Selector]:
    return [
        Selector(SelectorKind.ALL),
        Selector(SelectorKind.ANY_SHORTEST),
        Selector(SelectorKind.ALL_SHORTEST),
        Selector(SelectorKind.ANY),
        Selector(SelectorKind.ANY_K, 2),
        Selector(SelectorKind.SHORTEST_K, 2),
        Selector(SelectorKind.SHORTEST_K_GROUP, 2),
    ]


@pytest.mark.parametrize("selector", _selectors(), ids=[str(s) for s in _selectors()])
def test_table7_walk_row(figure1, selector) -> None:
    plan = translate_selector_restrictor(
        selector, Restrictor.WALK, knows_scan(), already_recursive=False, max_length=WALK_BOUND
    )
    result = evaluate_to_paths(plan, figure1)
    expected = TABLE7_EXPECTED_NOTATION[str(selector)].replace("RE", RE_NOTATION)
    assert to_algebra_notation(plan) == expected
    assert len(result) > 0


def test_table7_all_28_combinations(figure1) -> None:
    """All 28 selector × restrictor combinations plan and evaluate (Section 6)."""
    results = {}
    for selector, restrictor in all_selector_restrictor_combinations():
        plan = translate_selector_restrictor(
            selector, restrictor, knows_scan(), already_recursive=False, max_length=WALK_BOUND
        )
        results[(str(selector), restrictor.value)] = len(evaluate_to_paths(plan, figure1))
    assert len(results) == 28
    assert all(count > 0 for count in results.values())


def test_table7_report(figure1) -> None:
    """Print the regenerated Table 7 plus result sizes per combination."""
    rows = []
    for selector in _selectors():
        plan = translate_selector_restrictor(
            selector, Restrictor.WALK, knows_scan(), already_recursive=False, max_length=WALK_BOUND
        )
        rows.append(
            (
                f"{selector} WALK ppe",
                to_algebra_notation(plan).replace(RE_NOTATION, "RE"),
                len(evaluate_to_paths(plan, figure1)),
            )
        )
    print()
    print(
        format_table(
            ["GQL expression", "Path algebra expression", "|result|"],
            rows,
            title="Table 7 — selector translation (WALK restrictor, bounded to length 5)",
        )
    )
