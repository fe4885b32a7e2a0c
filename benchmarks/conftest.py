"""Shared fixtures for the paper-reproduction tests.

Every module regenerates one of the paper's tables or figures, or one of the
added experiments (each module's docstring names which), and checks it with
plain assertions.  The reproduced rows are printed with ``-s`` so they can be
compared with the paper side by side.  Performance claims are measured by
``e2ebench/run.py``, not here (PERFORMANCE.md, "Running the benchmarks").
"""

from __future__ import annotations

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.graph.model import PropertyGraph
from repro.paths.pathset import PathSet


@pytest.fixture(scope="module")
def figure1() -> PropertyGraph:
    """The paper's Figure 1 graph."""
    return figure1_graph()


@pytest.fixture(scope="module")
def knows_edges(figure1: PropertyGraph) -> PathSet:
    """The Knows edges of Figure 1 (the base set of the Table 3 / Figure 5 examples)."""
    return PathSet.edges_of(figure1).filter(
        lambda path: figure1.edge(path.edge(1)).label == "Knows"
    )
