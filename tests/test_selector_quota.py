"""ANY SHORTEST as a search: the selector quota and the restrictor collapse, as properties.

Two changes turn ``ANY SHORTEST`` from enumerate-then-select into one search:

* ``shortest_selector_input`` recognises ``π(*,*,1)(τA(γST(E)))`` over a
  ϕShortest ``E`` (possibly under a ``first`` / ``last`` selection) and both
  executors run that ϕShortest with a quota of one path per endpoint pair
  instead of building the crown;
* ``walk-to-shortest`` also rewrites ϕTrail and ϕSimple over single edges
  under that crown, since their shortest paths are the shortest walks.

The oracle is the enumerate-then-select crown: the same text with the
optimizer off, evaluated by the materializing executor over ϕTrail / ϕSimple /
ϕWalk.  Every route must return its rows *in its order* — over the 50-graph
corpus, TRAIL / SIMPLE / WALK, both SHORTEST selectors, both executors,
optimizer on and off, bounds 2, 3 and none (TRAIL and SIMPLE only: an
unbounded ϕWalk does not terminate; the corpus's largest unbounded ϕTrail,
on the 4-clique, is 21 000 trails), unseeded, seeded, with a ``last``
residual and with a ``last`` test alone, drained and limited.

The negative side pins the shapes that must keep the crown: a multi-edge or
mixed-length base, ACYCLIC (which also drops ``first = last``), and a
``len()`` / ``node(i)`` residual, which could drop a pair's representative
under the quota and every shortest path of a pair under the collapse.
"""

from __future__ import annotations

import pytest

from graph_corpus import closure_corpus
from repro.algebra.conditions import And, label_of_edge, length_at_most, prop_of_first, prop_of_node
from repro.algebra.expressions import (
    EdgesScan,
    GroupBy,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    shortest_selector_input,
)
from repro.algebra.solution_space import ALL, GroupByKey, OrderByKey, ProjectionSpec, group_by, order_by, project
from repro.engine.engine import PathQueryEngine
from repro.engine.physical import access_paths
from repro.graph.model import PropertyGraph
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import Restrictor, iter_recursive_closure, recursive_closure

CORPUS = closure_corpus()
EXECUTORS = ("materialize", "pipeline")
QUOTA_NOTE = "shortest search (1 per pair)"
KNOWS = Selection(label_of_edge(1, "Knows"), EdgesScan())
ANY_SHORTEST = ProjectionSpec(ALL, ALL, 1)

#: (pattern, parameters): unseeded, seeded, seeded with a ``last`` residual,
#: and a ``last`` test alone.
PATTERNS = (
    ("(?x)-[Knows]->+(?y)", {}),
    ("(?x {name: $name})-[Knows]->+(?y)", {"name": "p0"}),
    ("(?x {name: $name})-[Knows]->+(?y {name: $other})", {"name": "p1", "other": "p2"}),
    ("(?x)-[Knows]->+(?y {name: $other})", {"other": "p2"}),
)


def _rows(paths) -> list[tuple]:
    return [path.interleaved() for path in paths]


def _pair_major(rows: list[tuple]) -> list[tuple]:
    """``rows`` regrouped by endpoint pair, pairs in first-appearance order, stable within."""
    pairs: dict[tuple, list[tuple]] = {}
    for row in rows:
        pairs.setdefault((row[0], row[-1]), []).append(row)
    return [row for group in pairs.values() for row in group]


def _bounds(restrictor: str) -> tuple[int | None, ...]:
    return (2, 3) if restrictor == "WALK" else (2, 3, None)


def _any_shortest(closure) -> Projection:
    return Projection(OrderBy(GroupBy(closure, GroupByKey.ST), OrderByKey.A), ANY_SHORTEST)


# ----------------------------------------------------------------------
# The kernel: the quota closure is the crown over the full ϕShortest
# ----------------------------------------------------------------------
def _bases(graph) -> list[PathSet]:
    """Single edges, a uniform two-edge base, and a mixed-length one (the dedup route)."""
    edges = PathSet.edges_of(graph)
    return [edges, edges.join(edges), PathSet.nodes_of(graph).union(edges)]


@pytest.mark.parametrize("graph", CORPUS, ids=lambda graph: graph.name)
def test_quota_closure_is_the_any_shortest_crown(graph) -> None:
    """Blocking and streaming, seeded and not: ``ϕShortest`` with ``one_per_pair``
    lists exactly ``π(*,*,1)(τA(γST(ϕShortest)))``, row for row."""
    for base in _bases(graph):
        paths = list(base)
        firsts = [None] + sorted({paths[0].first(), paths[-1].first()}) if paths else [None]
        for first in firsts:
            seeds = None if first is None else base.filter(lambda path, v=first: path.first() == v)
            for bound in (2, 3, None):
                full = recursive_closure(base, Restrictor.SHORTEST, bound, seeds=seeds)
                crown = project(order_by(group_by(full, GroupByKey.ST), OrderByKey.A), ANY_SHORTEST)
                context = (graph.name, len(base), first, bound)
                blocking = recursive_closure(base, Restrictor.SHORTEST, bound, seeds=seeds, one_per_pair=True)
                assert _rows(blocking) == _rows(crown), context
                streamed = iter_recursive_closure(base, Restrictor.SHORTEST, bound, seeds=seeds, one_per_pair=True)
                assert _rows(streamed) == _rows(crown), context


# ----------------------------------------------------------------------
# The engine: every route returns the enumerate-then-select rows in order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[graph.name for graph in CORPUS])
def test_selector_routes_return_the_crown_rows_in_order(index: int) -> None:
    graph = CORPUS[index]
    engines = {optimize: PathQueryEngine(graph, optimize=optimize) for optimize in (True, False)}
    for restrictor in ("TRAIL", "SIMPLE", "WALK"):
        for selector in ("ANY SHORTEST", "ALL SHORTEST"):
            for pattern, params in PATTERNS:
                text = f"MATCH {selector} {restrictor} p = {pattern}"
                for bound in _bounds(restrictor):
                    expected = _rows(
                        engines[False].query(text, bound, executor="materialize", params=params).paths
                    )
                    for optimize, engine in engines.items():
                        for executor in EXECUTORS:
                            context = (graph.name, text, bound, optimize, executor)
                            result = engine.query(text, bound, executor=executor, params=params)
                            rows = _rows(result.paths)
                            if selector == "ALL SHORTEST" and restrictor == "WALK" and optimize:
                                # walk-to-shortest then eliminate-identity-crown: the
                                # bare ϕShortest lists the crown's rows in pop order,
                                # not pair by pair.
                                assert _pair_major(rows) == expected, context
                                continue
                            assert rows == expected, context
                            quota = any(
                                note == QUOTA_NOTE for note in access_paths(result.optimized_plan, False)
                            )
                            assert quota is (selector == "ANY SHORTEST" and optimize), context
                            if executor == "pipeline" and len(expected) > 1:
                                limited = engine.query(text, bound, executor=executor, params=params, limit=2)
                                assert _rows(limited.paths) == expected[:2], context
                                cursor = engine.open_cursor(text, params=params, max_length=bound)
                                assert _rows(cursor.fetchmany(1)) == expected[:1], context
                                cursor.close()


@pytest.mark.parametrize("restrictor", ["TRAIL", "SIMPLE"])
def test_all_shortest_over_trail_keeps_its_crown(restrictor: str) -> None:
    """Collapsed, the ALL SHORTEST crown would be eliminated and its rows reordered."""
    graph = CORPUS[-1]
    result = PathQueryEngine(graph).query(f"MATCH ALL SHORTEST {restrictor} p = (?x)-[Knows]->+(?y)")
    assert "walk-to-shortest" not in result.applied_rules
    assert isinstance(result.optimized_plan, Projection)


# ----------------------------------------------------------------------
# What must keep the crown
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern",
    [
        "(?x)-[(Knows/Knows)+]->(?y)",
        "(?x)-[(Knows|Knows/Knows)+]->(?y)",
    ],
    ids=["multi-edge", "mixed-length"],
)
@pytest.mark.parametrize("restrictor", ["TRAIL", "SIMPLE", "ACYCLIC"])
def test_no_collapse_over_a_multi_edge_base(pattern: str, restrictor: str) -> None:
    for graph in (CORPUS[-2], CORPUS[-1]):
        text = f"MATCH ANY SHORTEST {restrictor} p = {pattern}"
        engine = PathQueryEngine(graph)
        result = engine.query(text, 4)
        assert "walk-to-shortest" not in result.applied_rules, text
        assert QUOTA_NOTE not in access_paths(result.optimized_plan, True)
        plain = PathQueryEngine(graph, optimize=False).query(text, 4, executor="materialize")
        assert _rows(result.paths) == _rows(plain.paths)


def test_no_collapse_for_acyclic() -> None:
    text = "MATCH ANY SHORTEST ACYCLIC p = (?x)-[Knows]->+(?y)"
    for graph in CORPUS:
        result = PathQueryEngine(graph).query(text)
        assert "walk-to-shortest" not in result.applied_rules
        assert QUOTA_NOTE not in access_paths(result.optimized_plan, False)
        # ACYCLIC has no closed paths; the collapsed plan would keep them.
        assert all(path.first() != path.last() for path in result.paths)


@pytest.mark.parametrize(
    "residual",
    [length_at_most(1), prop_of_node(2, "name", "p2")],
    ids=["len", "node(2)"],
)
def test_a_path_residual_keeps_the_crown(residual) -> None:
    """σ[first ∧ len() / node(2)] is not an endpoint filter: it keeps the crown."""
    condition = And(prop_of_first("name", "p0"), residual)
    closure = Recursive(KNOWS, Restrictor.SHORTEST, 4)
    plan = _any_shortest(Selection(condition, closure))
    assert shortest_selector_input(plan) is None
    assert QUOTA_NOTE not in access_paths(plan, False)
    for graph in CORPUS:
        expected = None
        for executor in EXECUTORS:
            for optimize in (True, False):
                result = PathQueryEngine(graph, optimize=optimize).query_plan(plan, executor=executor)
                assert QUOTA_NOTE not in access_paths(result.optimized_plan, executor == "pipeline")
                if expected is None:
                    expected = _rows(result.paths)
                assert _rows(result.paths) == expected, (graph.name, executor, optimize)


#: WHERE clauses that are not endpoint filters: each can reject a pair's
#: shortest paths and keep a longer one.
PATH_RESIDUALS = ("WHERE len() >= 2", "WHERE node(2).name = 'p2'")


def _triangle():
    """a→b, a→c, c→b: (a, b)'s shortest path is one edge, its other trail two."""
    graph = PropertyGraph("triangle")
    for name in ("a", "b", "c"):
        graph.add_node(name, "Person", {"name": name})
    graph.add_edge("ab", "a", "b", "Knows")
    graph.add_edge("ac", "a", "c", "Knows")
    graph.add_edge("cb", "c", "b", "Knows")
    return graph


@pytest.mark.parametrize("where", ["WHERE len() >= 2", "WHERE node(2).name = 'c'"], ids=["len", "node(2)"])
@pytest.mark.parametrize("selector", ["ANY SHORTEST", "ALL SHORTEST"])
@pytest.mark.parametrize("restrictor", ["TRAIL", "SIMPLE", "WALK"])
def test_a_path_residual_blocks_the_collapse(restrictor: str, selector: str, where: str) -> None:
    """σ[len() ≥ 2](ϕ) keeps a→c→b for (a, b); over ϕShortest it would keep nothing."""
    graph = _triangle()
    text = f"MATCH {selector} {restrictor} p = (?x)-[Knows]->+(?y) {where}"
    expected = _rows(PathQueryEngine(graph, optimize=False).query(text, 4, executor="materialize").paths)
    assert ("a", "ac", "c", "cb", "b") in expected
    for executor in EXECUTORS:
        result = PathQueryEngine(graph).query(text, 4, executor=executor)
        assert "walk-to-shortest" not in result.applied_rules, (text, executor)
        assert QUOTA_NOTE not in access_paths(result.optimized_plan, executor == "pipeline")
        assert _rows(result.paths) == expected, (text, executor)


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[graph.name for graph in CORPUS])
def test_a_path_residual_returns_the_crown_rows(index: int) -> None:
    graph = CORPUS[index]
    engines = {optimize: PathQueryEngine(graph, optimize=optimize) for optimize in (True, False)}
    for restrictor in ("TRAIL", "SIMPLE", "WALK"):
        for selector in ("ANY SHORTEST", "ALL SHORTEST"):
            for where in PATH_RESIDUALS:
                text = f"MATCH {selector} {restrictor} p = (?x)-[Knows]->+(?y) {where}"
                expected = _rows(engines[False].query(text, 3, executor="materialize").paths)
                for executor in EXECUTORS:
                    result = engines[True].query(text, 3, executor=executor)
                    assert _rows(result.paths) == expected, (graph.name, text, executor)


def test_a_node_residual_would_drop_a_representative() -> None:
    """Why ``node(i)`` must not take the quota: on the 4-clique, p0's first
    shortest cycle back to p0 passes p1, so quota-then-filter loses the pair
    the crown keeps through p2."""
    graph = CORPUS[-2]
    condition = And(prop_of_first("name", "p0"), prop_of_node(2, "name", "p2"))
    plan = _any_shortest(Selection(condition, Recursive(KNOWS, Restrictor.SHORTEST, 4)))
    crown = _rows(PathQueryEngine(graph).query_plan(plan).paths)
    quota = recursive_closure(PathSet.edges_of(graph), Restrictor.SHORTEST, 4, one_per_pair=True)
    filtered = _rows(quota.filter(condition.evaluate))
    assert [row for row in crown if row[0] == row[-1]] == [("v0", "k1", "v2", "k6", "v0")]
    assert [row for row in filtered if row[0] == row[-1]] == []
