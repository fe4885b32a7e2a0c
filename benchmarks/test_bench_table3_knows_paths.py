"""E-T3 — Table 3: the Knows+ paths p1..p14 under the five path semantics.

Regenerates Table 3: for each of the fourteen paths the paper lists, the
harness reports membership in ϕWalk / ϕTrail / ϕAcyclic / ϕSimple / ϕShortest
over the Knows edges of Figure 1 and asserts the expected pattern.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table
from repro.paths.path import Path
from repro.semantics.restrictors import Restrictor, recursive_closure

#: The fourteen paths of Table 3, as interleaved identifier sequences.
TABLE3_PATHS = {
    "p1": ("n1", "e1", "n2"),
    "p2": ("n1", "e1", "n2", "e2", "n3", "e3", "n2"),
    "p3": ("n1", "e1", "n2", "e2", "n3"),
    "p4": ("n1", "e1", "n2", "e2", "n3", "e3", "n2", "e2", "n3"),
    "p5": ("n1", "e1", "n2", "e4", "n4"),
    "p6": ("n1", "e1", "n2", "e2", "n3", "e3", "n2", "e4", "n4"),
    "p7": ("n2", "e2", "n3", "e3", "n2"),
    "p8": ("n2", "e2", "n3", "e3", "n2", "e2", "n3", "e3", "n2"),
    "p9": ("n2", "e2", "n3"),
    "p10": ("n2", "e2", "n3", "e3", "n2", "e2", "n3"),
    "p11": ("n2", "e4", "n4"),
    "p12": ("n2", "e2", "n3", "e3", "n2", "e4", "n4"),
    "p13": ("n3", "e3", "n2", "e4", "n4"),
    "p14": ("n3", "e3", "n2", "e2", "n3", "e3", "n2", "e4", "n4"),
}

#: Expected membership per semantics (W is bounded; all fourteen are walks).
EXPECTED = {
    "TRAIL": {"p1", "p2", "p3", "p5", "p6", "p7", "p9", "p11", "p12", "p13"},
    "ACYCLIC": {"p1", "p3", "p5", "p9", "p11", "p13"},
    "SIMPLE": {"p1", "p3", "p5", "p7", "p9", "p11", "p13"},
    "SHORTEST": {"p1", "p3", "p5", "p7", "p9", "p11", "p13"},
}

WALK_BOUND = 8


def _closures(knows_edges):
    return {
        "WALK": recursive_closure(knows_edges, Restrictor.WALK, WALK_BOUND),
        "TRAIL": recursive_closure(knows_edges, Restrictor.TRAIL),
        "ACYCLIC": recursive_closure(knows_edges, Restrictor.ACYCLIC),
        "SIMPLE": recursive_closure(knows_edges, Restrictor.SIMPLE),
        "SHORTEST": recursive_closure(knows_edges, Restrictor.SHORTEST),
    }


def test_table3_membership_benchmark(figure1, knows_edges) -> None:
    closures = _closures(knows_edges)
    for name, sequence in TABLE3_PATHS.items():
        path = Path.from_interleaved(figure1, sequence)
        assert path in closures["WALK"], f"{name} must be a walk"
        for semantics, expected_names in EXPECTED.items():
            assert (path in closures[semantics]) == (name in expected_names), (name, semantics)


def test_table3_report(figure1, knows_edges) -> None:
    """Print the regenerated Table 3 membership matrix."""
    closures = _closures(knows_edges)
    rows = []
    for name, sequence in TABLE3_PATHS.items():
        path = Path.from_interleaved(figure1, sequence)
        rows.append(
            (
                name,
                "(" + ", ".join(sequence) + ")",
                path in closures["WALK"],
                path in closures["TRAIL"],
                path in closures["ACYCLIC"],
                path in closures["SIMPLE"],
                path in closures["SHORTEST"],
            )
        )
    print()
    print(
        format_table(
            ["ID", "Path", "W", "T", "A", "S", "Sh"],
            rows,
            title="Table 3 — Knows+ paths of Figure 1 under the five semantics",
        )
    )
