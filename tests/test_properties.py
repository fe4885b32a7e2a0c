"""Property-based tests (hypothesis) for the core data structures and invariants.

These tests generate random graphs, paths and plans and check the algebraic
laws the paper relies on: closure of the operators over sets of paths,
associativity of concatenation, monotonicity and nesting of the restrictor
semantics, group-by partition invariants, projection cardinality bounds, and
semantic preservation of the optimizer rewrites.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

# Closure-heavy properties dominate the suite's runtime; 30 well-shrunk
# examples per property keep the run short while still exercising the laws on
# a wide range of random graphs.
settings.register_profile("repro", max_examples=30, deadline=None)
settings.load_profile("repro")

from repro.algebra.conditions import label_of_edge, length_at_most, prop_of_first
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import EdgesScan, Join, NodesScan, Recursive, Selection, Union
from repro.algebra.solution_space import (
    ALL,
    GroupByKey,
    OrderByKey,
    ProjectionSpec,
    group_by,
    order_by,
    project,
)
from repro.graph.model import PropertyGraph
from repro.optimizer.engine import optimize
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.paths.predicates import is_acyclic, is_simple, is_trail
from repro.semantics.restrictors import Restrictor, recursive_closure
from repro.semantics.selectors import Selector, SelectorKind, apply_selector

_LABELS = ("Knows", "Likes", "Has_creator")


# ----------------------------------------------------------------------
# Graph and path strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_nodes: int = 8, max_edges: int = 16) -> PropertyGraph:
    """Random small property graphs with the Figure 1 label vocabulary."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    graph = PropertyGraph("hypothesis")
    names = string.ascii_lowercase
    for index in range(num_nodes):
        graph.add_node(f"v{index}", "Person", {"name": names[index % len(names)]})
    for index in range(num_edges):
        source = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        target = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        label = draw(st.sampled_from(_LABELS))
        graph.add_edge(f"e{index}", f"v{source}", f"v{target}", label, {})
    return graph


def trail_bound(graph: PropertyGraph) -> int:
    """A length bound for ϕTrail that drops no path a law below looks at.

    An acyclic path has fewer edges than the graph has nodes and a simple path
    at most as many, so ``TRAIL ≤ n`` still contains both closures whole; what
    the bound cuts is the factorial tail of long trails through parallel edges
    (ten same-label edges on two nodes are millions of trails, gigabytes).
    """
    return graph.num_nodes()


@st.composite
def graph_with_walk(draw, max_hops: int = 4):
    """A random graph together with a random walk in it (as node/edge id lists)."""
    graph = draw(graphs())
    start = draw(st.sampled_from(graph.node_ids()))
    nodes = [start]
    edges: list[str] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_hops))):
        out_edges = graph.out_edges(nodes[-1])
        if not out_edges:
            break
        edge = draw(st.sampled_from([e.id for e in out_edges]))
        edges.append(edge)
        nodes.append(graph.edge(edge).target)
    return graph, nodes, edges


# ----------------------------------------------------------------------
# Path laws
# ----------------------------------------------------------------------
class TestPathProperties:
    @given(graph_with_walk())
    def test_random_walks_are_valid_paths(self, data) -> None:
        graph, nodes, edges = data
        path = Path(graph, nodes, edges)
        assert path.len() == len(edges)
        assert path.first() == nodes[0]
        assert path.last() == nodes[-1]

    @given(graph_with_walk(), st.data())
    def test_concatenation_is_associative(self, data, extra) -> None:
        graph, nodes, edges = data
        path = Path(graph, nodes, edges)
        if path.len() < 3:
            return
        cut1 = extra.draw(st.integers(min_value=1, max_value=path.len() - 2))
        cut2 = extra.draw(st.integers(min_value=cut1 + 1, max_value=path.len() - 1))
        a = path.prefix(cut1)
        b = Path(graph, nodes[cut1 : cut2 + 1], edges[cut1:cut2])
        c = Path(graph, nodes[cut2:], edges[cut2:])
        assert (a.concat(b)).concat(c) == a.concat(b.concat(c)) == path

    @given(graph_with_walk())
    def test_concat_with_endpoint_nodes_is_identity(self, data) -> None:
        graph, nodes, edges = data
        path = Path(graph, nodes, edges)
        left = Path.from_node(graph, path.first())
        right = Path.from_node(graph, path.last())
        assert left.concat(path) == path
        assert path.concat(right) == path

    @given(graph_with_walk())
    def test_predicate_implications(self, data) -> None:
        graph, nodes, edges = data
        path = Path(graph, nodes, edges)
        if is_acyclic(path):
            assert is_simple(path)
            assert is_trail(path)
        if is_simple(path) and path.first() != path.last():
            assert is_acyclic(path)


# ----------------------------------------------------------------------
# Core algebra laws
# ----------------------------------------------------------------------
class TestCoreAlgebraProperties:
    @given(graphs())
    def test_union_is_commutative_and_idempotent(self, graph) -> None:
        edges = PathSet.edges_of(graph)
        knows = edges.filter(lambda p: graph.edge(p.edge(1)).label == "Knows")
        likes = edges.filter(lambda p: graph.edge(p.edge(1)).label == "Likes")
        assert knows.union(likes) == likes.union(knows)
        assert knows.union(knows) == knows

    @given(graphs())
    def test_join_with_nodes_is_identity(self, graph) -> None:
        edges = PathSet.edges_of(graph)
        nodes = PathSet.nodes_of(graph)
        assert edges.join(nodes) == edges
        assert nodes.join(edges) == edges

    @given(graphs())
    def test_join_results_have_compatible_endpoints_and_lengths(self, graph) -> None:
        edges = PathSet.edges_of(graph)
        joined = edges.join(edges)
        for path in joined:
            assert path.len() == 2
        lefts = {p.first() for p in edges}
        assert all(path.first() in lefts for path in joined)

    @given(graphs())
    def test_selection_is_a_subset_and_idempotent(self, graph) -> None:
        condition = label_of_edge(1, "Knows")
        edges = PathSet.edges_of(graph)
        selected = edges.filter(condition.evaluate)
        assert all(path in edges for path in selected)
        assert selected.filter(condition.evaluate) == selected

    @given(graphs())
    def test_evaluator_matches_pathset_semantics(self, graph) -> None:
        plan = Union(
            Selection(label_of_edge(1, "Knows"), EdgesScan()),
            Join(EdgesScan(), NodesScan()),
        )
        via_plan = evaluate_to_paths(plan, graph)
        edges = PathSet.edges_of(graph)
        knows = edges.filter(lambda p: graph.edge(p.edge(1)).label == "Knows")
        assert via_plan == knows.union(edges.join(PathSet.nodes_of(graph)))


# ----------------------------------------------------------------------
# Recursion laws
# ----------------------------------------------------------------------
class TestRecursionProperties:
    @settings(deadline=None)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_restrictor_nesting(self, graph) -> None:
        base = PathSet.edges_of(graph)
        acyclic = recursive_closure(base, Restrictor.ACYCLIC)
        simple = recursive_closure(base, Restrictor.SIMPLE)
        trail = recursive_closure(base, Restrictor.TRAIL, trail_bound(graph))
        for path in acyclic:
            assert path in simple
            assert path in trail
        # SIMPLE ⊆ TRAIL too: a simple path repeats no node but its first, hence no edge.
        for path in simple:
            assert path in trail

    @settings(deadline=None)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_restricted_closures_satisfy_their_predicate(self, graph) -> None:
        base = PathSet.edges_of(graph)
        assert all(
            is_trail(p) for p in recursive_closure(base, Restrictor.TRAIL, trail_bound(graph))
        )
        assert all(is_acyclic(p) for p in recursive_closure(base, Restrictor.ACYCLIC))
        assert all(is_simple(p) for p in recursive_closure(base, Restrictor.SIMPLE))

    @settings(deadline=None)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_shortest_closure_minimality(self, graph) -> None:
        base = PathSet.edges_of(graph)
        shortest = recursive_closure(base, Restrictor.SHORTEST)
        acyclic = recursive_closure(base, Restrictor.ACYCLIC)
        best: dict[tuple[str, str], int] = {}
        for path in shortest:
            best.setdefault(path.endpoints(), path.len())
            assert path.len() == best[path.endpoints()]
        # No acyclic closure path is strictly shorter than the recorded distance.
        for path in acyclic:
            if path.endpoints() in best:
                assert path.len() >= best[path.endpoints()]

    @settings(deadline=None)
    @given(graphs(max_nodes=5, max_edges=8))
    def test_bounded_walk_contains_all_restricted_paths_within_bound(self, graph) -> None:
        base = PathSet.edges_of(graph)
        walks = recursive_closure(base, Restrictor.WALK, max_length=3)
        trails = recursive_closure(base, Restrictor.TRAIL, max_length=3)
        for path in trails:
            assert path in walks


# ----------------------------------------------------------------------
# Solution-space laws
# ----------------------------------------------------------------------
class TestSolutionSpaceProperties:
    @settings(deadline=None)
    @given(graphs(max_nodes=6, max_edges=10), st.sampled_from(list(GroupByKey)))
    def test_group_by_partitions_the_input(self, graph, key) -> None:
        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.ACYCLIC)
        space = group_by(paths, key)
        assert space.num_paths() == len(paths)
        assert space.all_paths() == paths
        # Each path belongs to exactly one group (functions α and β are total).
        for path in paths:
            assert space.group_for(path) is not None
            assert space.partition_for(path) is not None

    @settings(deadline=None)
    @given(
        graphs(max_nodes=6, max_edges=10),
        st.sampled_from(list(GroupByKey)),
        st.sampled_from(list(OrderByKey)),
        st.integers(min_value=1, max_value=3),
    )
    def test_projection_cardinality_bounds(self, graph, group_key, order_key, k) -> None:
        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.ACYCLIC)
        space = order_by(group_by(paths, group_key), order_key)
        result = project(space, ProjectionSpec(ALL, ALL, k))
        assert len(result) <= len(paths)
        assert len(result) <= k * space.num_groups()
        assert all(path in paths for path in result)

    @settings(deadline=None)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_project_all_is_identity(self, graph) -> None:
        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.SIMPLE)
        for key in (GroupByKey.NONE, GroupByKey.ST, GroupByKey.STL, GroupByKey.L):
            assert project(group_by(paths, key), ProjectionSpec(ALL, ALL, ALL)) == paths

    @settings(deadline=None)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_any_shortest_selector_returns_minimal_lengths(self, graph) -> None:
        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.TRAIL, trail_bound(graph))
        result = apply_selector(paths, Selector(SelectorKind.ANY_SHORTEST))
        by_pair = paths.group_by_endpoints()
        assert len(result) == len(by_pair)
        for path in result:
            assert path.len() == min(p.len() for p in by_pair[path.endpoints()])


# ----------------------------------------------------------------------
# Optimizer preservation
# ----------------------------------------------------------------------
class TestOptimizerProperties:
    @settings(deadline=None, max_examples=40)
    @given(graphs(max_nodes=6, max_edges=10), st.sampled_from(list(_LABELS)), st.data())
    def test_rewrites_preserve_semantics(self, graph, label, data) -> None:
        restrictor = data.draw(
            st.sampled_from([Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE])
        )
        name = data.draw(st.sampled_from(list(string.ascii_lowercase[:6])))
        plan = Selection(
            prop_of_first("name", name) & length_at_most(3),
            Union(
                Recursive(
                    Selection(label_of_edge(1, label), EdgesScan()), restrictor, trail_bound(graph)
                ),
                Join(
                    Selection(label_of_edge(1, label), EdgesScan()),
                    EdgesScan(),
                ),
            ),
        )
        optimized = optimize(plan).optimized
        assert evaluate_to_paths(plan, graph) == evaluate_to_paths(optimized, graph)


# ----------------------------------------------------------------------
# Physical pipeline equivalence
# ----------------------------------------------------------------------
class TestPhysicalPipelineProperties:
    @settings(deadline=None, max_examples=40)
    @given(graphs(max_nodes=6, max_edges=10), st.sampled_from(list(_LABELS)), st.data())
    def test_pipeline_matches_logical_evaluator(self, graph, label, data) -> None:
        from repro.engine.physical import execute_pipeline

        restrictor = data.draw(
            st.sampled_from([Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SHORTEST])
        )
        plan = Union(
            Recursive(Selection(label_of_edge(1, label), EdgesScan()), restrictor, trail_bound(graph)),
            Join(Selection(label_of_edge(1, label), EdgesScan()), EdgesScan()),
        )
        assert execute_pipeline(plan, graph) == evaluate_to_paths(plan, graph)

    @settings(deadline=None, max_examples=30)
    @given(graphs(max_nodes=6, max_edges=10))
    def test_binding_table_is_lossless_on_endpoints(self, graph) -> None:
        from repro.engine.results import bind_paths

        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.ACYCLIC)
        table = bind_paths(paths)
        assert len(table) == len(paths)
        assert set(table.endpoints()) == {path.endpoints() for path in paths}
        assert sum(table.group_sizes().values()) == len(paths)


# ----------------------------------------------------------------------
# Set-operator laws (Intersection / Difference extensions)
# ----------------------------------------------------------------------
class TestSetOperatorProperties:
    @settings(deadline=None, max_examples=40)
    @given(graphs(max_nodes=6, max_edges=10), st.sampled_from(list(_LABELS)))
    def test_intersection_and_difference_partition_the_left_operand(self, graph, label) -> None:
        from repro.algebra.expressions import Difference, Intersection

        left = Recursive(
            Selection(label_of_edge(1, label), EdgesScan()), Restrictor.TRAIL, trail_bound(graph)
        )
        right = Recursive(Selection(label_of_edge(1, label), EdgesScan()), Restrictor.ACYCLIC)
        left_paths = evaluate_to_paths(left, graph)
        common = evaluate_to_paths(Intersection(left, right), graph)
        only_left = evaluate_to_paths(Difference(left, right), graph)
        assert common.union(only_left) == left_paths
        assert len(common) + len(only_left) == len(left_paths)
        assert not (common & only_left)
