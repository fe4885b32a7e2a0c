"""E-P1 — Section 7.2: the query parser and its textual logical plans.

Regenerates the parser walkthrough of Section 7.2: the sample extended-GQL
query is parsed and planned, and the textual plan is compared line by line
with the output the paper prints, and a batch of representative queries is
parsed and planned.
"""

from __future__ import annotations

import pytest

from repro.algebra.printer import to_plan_tree
from repro.bench.reporting import format_table
from repro.gql.parser import parse_query
from repro.gql.planner import plan_query, plan_text

SECTION_72_QUERY = (
    "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS "
    "TRAIL p = (?x)-[(:Knows)*]->(?y) "
    "GROUP BY TARGET ORDER BY PATH"
)

#: The plan lines printed by the paper's parser for the sample query
#: (lines 1-4; lines 5-6 are represented by the arrow-indented body below).
PAPER_OUTPUT_HEADER = [
    "1 Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)",
    "2 OrderBy (Path)",
    "3 Group (Target)",
    "4 Restrictor (TRAIL)",
]

QUERY_BATCH = [
    SECTION_72_QUERY,
    "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows]->+(?y)",
    "MATCH ALL SHORTEST ACYCLIC p = (?x)-[:Knows]->+(?y)",
    "MATCH SHORTEST 3 WALK p = (?x)-[:Knows]->+(?y)",
    'MATCH ALL SIMPLE p = (?x {name: "Moe"})-[(:Knows+)|((:Likes/:Has_creator)+)]->'
    '(?y {name: "Apu"})',
    'MATCH ALL TRAIL p = (?x)-[Knows+]->(?y) WHERE x.name = "Moe" AND len() <= 3',
    "MATCH 2 PARTITIONS 1 GROUPS 5 PATHS ACYCLIC p = (?x)-[(Likes/Has_creator)+]->(?y) "
    "GROUP BY SOURCE LENGTH ORDER BY PARTITION GROUP PATH",
]


def test_section72_parser_output() -> None:
    """The textual plan matches the paper's parser output format."""
    plan = plan_text(SECTION_72_QUERY)
    lines = to_plan_tree(plan).splitlines()
    assert lines[:4] == PAPER_OUTPUT_HEADER
    body = "\n".join(lines[4:])
    assert "Recursive Join (restrictor: TRAIL)" in body
    assert 'Select: (label(edge(1)) = \'Knows\')' in body
    assert "EDGES(G)" in body


def test_parse_benchmark() -> None:
    queries = [parse_query(text) for text in QUERY_BATCH]
    assert len(queries) == len(QUERY_BATCH)


def test_plan_benchmark() -> None:
    plans = [plan_query(parse_query(text)) for text in QUERY_BATCH]
    assert len(plans) == len(QUERY_BATCH)


def test_parse_and_plan_benchmark() -> None:
    plans = [plan_text(text) for text in QUERY_BATCH]
    assert all(plan.count_operators() >= 3 for plan in plans)


def test_parser_report() -> None:
    """Print plan sizes for the query batch."""
    rows = []
    for text in QUERY_BATCH:
        plan = plan_text(text)
        label = text if len(text) <= 60 else text[:57] + "..."
        rows.append((label, plan.count_operators(), plan.depth()))
    print()
    print(
        format_table(
            ["query", "plan operators", "plan depth"],
            rows,
            title="Section 7.2 — parser and planner output over a representative batch",
        )
    )
