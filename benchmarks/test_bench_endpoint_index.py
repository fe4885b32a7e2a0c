"""Anchored lookups read an index: the edges an anchored LDBC query touches, counted.

Four of the five texts in the LDBC replay mix anchor their pattern on a
person, ``(?x {name: $name})-[…]->…`` — the short lookups of LDBC SNB
Interactive (Erling et al., SIGMOD 2015).  The paper's atom is
σ[c](Edges(G)); the engine reads ``first.name = v`` off an endpoint-equality
index (value → node ids, built lazily per property and graph version) and
both executors expand joins along adjacency (PERFORMANCE.md, "Anchored
lookups").  On the LDBC graph at ``wire-ldbc-cold``'s size (100 persons, 200
messages, 305 nodes, 807 edges), for every name the trace asks about:

* the point lookup's ``Edges(G)`` row is the Knows out-degree of the persons
  with that name — not the 378 Knows edges of the whole graph;
* no ``PropertyCondition.evaluate`` runs on an edge whose source fails
  ``first.name`` — in any of the four anchored texts, seeds included;
* friend-of-friend (``Knows/Knows``) builds no ``JoinIndex`` under the
  materializing evaluator: the join expands the left paths' last nodes.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.algebra.conditions import PropertyCondition
from repro.bench.replay import build_trace_graph, generate_ldbc_trace
from repro.bench.reporting import format_table
from repro.datasets.ldbc import LDBCParameters
from repro.engine.engine import PathQueryEngine
from repro.paths import join_index

EXECUTORS = ("materialize", "pipeline")
POINT_LOOKUP = "MATCH ALL TRAIL p = (?x {name: $name})-[Knows]->(?y)"
FRIEND_OF_FRIEND = "MATCH ALL TRAIL p = (?x {name: $name})-[Knows/Knows]->(?y)"


@pytest.fixture(scope="module")
def trace():
    parameters = LDBCParameters(num_persons=100, num_messages=200)
    return generate_ldbc_trace(48, seed=7, parameters=parameters)


@pytest.fixture(scope="module")
def graph(trace):
    return build_trace_graph(trace)


@pytest.fixture(scope="module")
def names(trace) -> list[str]:
    return sorted({event.params["name"] for event in trace.events if "name" in event.params})


def _knows_out_degree(graph, name: str) -> int:
    return sum(
        1
        for node in graph.nodes()
        if node.property("name") == name
        for edge in graph.out_edges(node.id)
        if edge.label == "Knows"
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_point_lookup_reads_the_matching_persons_edges(graph, names, executor: str) -> None:
    engine = PathQueryEngine(graph, executor=executor)
    knows = len(graph.edges_by_label("Knows"))
    rows = []
    for name in names:
        result = engine.query(POINT_LOOKUP, params={"name": name})
        read = result.statistics.operator_output_sizes["Edges(G)"]
        assert read == _knows_out_degree(graph, name) == len(result.paths), name
        rows.append((name, len(graph.node_ids_with("name", name)), read, knows))
    assert len(rows) > 1 and max(row[1] for row in rows) > 1
    print()
    print(format_table(["name", "persons", "Edges(G) read", "Knows edges"], rows))


@pytest.mark.parametrize("executor", EXECUTORS)
def test_no_condition_runs_on_an_edge_of_another_person(graph, trace, executor: str) -> None:
    engine = PathQueryEngine(graph, executor=executor)
    evaluate = PropertyCondition.evaluate
    sources: list[str] = []

    def spy(condition, path):
        sources.append(path.first())
        return evaluate(condition, path)

    anchored = [event for event in trace.events if "name" in event.params]
    assert len({event.text for event in anchored}) == 4
    with mock.patch.object(PropertyCondition, "evaluate", spy):
        for event in anchored:
            sources.clear()
            engine.query(event.text, params=event.params, max_length=event.max_length)
            name = event.params["name"]
            strays = [s for s in sources if graph.node(s).property("name") != name]
            assert strays == [], (event.text, name)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_friend_of_friend_builds_no_join_index(graph, names, executor: str) -> None:
    engine = PathQueryEngine(graph, executor=executor)
    with mock.patch.object(join_index.JoinIndex, "__init__", side_effect=AssertionError) as built:
        for name in names:
            engine.query(FRIEND_OF_FRIEND, params={"name": name})
    assert built.call_count == 0
