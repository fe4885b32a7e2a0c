"""E-T2 — Table 2: the GQL restrictors (WALK, TRAIL, ACYCLIC, SIMPLE) plus SHORTEST.

Regenerates Table 2 by evaluating ϕ under each restrictor over the Knows edges
of Figure 1 and reporting the result size and the structural property each
restrictor guarantees (the walk variant uses a length bound, mirroring the
paper's remark that bare WALK does not terminate on this cyclic graph).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table
from repro.paths.predicates import is_acyclic, is_simple, is_trail
from repro.semantics.restrictors import Restrictor, recursive_closure

WALK_BOUND = 6

CASES = [
    (Restrictor.WALK, "no filtering (bounded to length 6 here)", None),
    (Restrictor.TRAIL, "no repeated edges", is_trail),
    (Restrictor.ACYCLIC, "no repeated nodes", is_acyclic),
    (Restrictor.SIMPLE, "no repeated nodes except first = last", is_simple),
    (Restrictor.SHORTEST, "minimum length per endpoint pair", None),
]


@pytest.mark.parametrize("restrictor, informal, predicate", CASES, ids=[c[0].value for c in CASES])
def test_table2_restrictor_semantics(knows_edges, restrictor, informal, predicate) -> None:
    max_length = WALK_BOUND if restrictor is Restrictor.WALK else None
    result = recursive_closure(knows_edges, restrictor, max_length)
    assert len(result) > 0
    if predicate is not None:
        assert all(predicate(path) for path in result)
    if restrictor is Restrictor.SHORTEST:
        best = {}
        for path in result:
            best.setdefault(path.endpoints(), path.len())
            assert path.len() == best[path.endpoints()]


def test_table2_report(knows_edges) -> None:
    """Print the regenerated Table 2 with result sizes on the Figure 1 graph."""
    rows = []
    for restrictor, informal, _ in CASES:
        max_length = WALK_BOUND if restrictor is Restrictor.WALK else None
        result = recursive_closure(knows_edges, restrictor, max_length)
        rows.append((restrictor.value, informal, len(result)))
    print()
    print(
        format_table(
            ["Restrictor", "Informal semantics (Table 2)", "|ϕ(Knows edges)|"],
            rows,
            title="Table 2 — restrictors over the Figure 1 Knows edges",
        )
    )
    sizes = {row[0]: row[2] for row in rows}
    # The restricted variants return subsets of the (bounded) walk closure.
    assert sizes["ACYCLIC"] <= sizes["SIMPLE"] <= sizes["TRAIL"]
    assert sizes["SHORTEST"] <= sizes["TRAIL"]
