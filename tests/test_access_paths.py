"""Index-backed access paths against the naive route they replaced.

``σ[label(edge(1)) = L ∧ c](Edges(G))`` is read off the label index and
``X ⋈ σ[…](Edges(G))`` runs as an adjacency expand (``label_scan_input`` is
the one definition of when).  The oracle in ``access_path_reference`` keeps
the old bodies — filter over a full scan, hash join over the whole right
operand — and this suite demands the same rows **in the same order** from
both, over the 50-graph two-label corpus × three executors × four graph
encodings × ``optimize`` on/off, with and without a ``limit``.  The shapes
one step away from an index lookup are pinned as *not* one, the statistics
and budget contract of the new operators is pinned, and ``explain`` names
each access path.
"""

from __future__ import annotations

import pytest

from access_path_reference import (
    reference_build_pipeline,
    reference_edge_paths,
    reference_execute,
)
from graph_corpus import closure_corpus, frozen_twin
from repro.algebra.conditions import (
    And,
    Comparator,
    Not,
    Or,
    label_of_edge,
    label_of_first,
    length_equals,
    prop_of_first,
    prop_of_last,
)
from repro.algebra.expressions import (
    EdgesScan,
    Join,
    NodesScan,
    Recursive,
    Selection,
    Union,
    label_scan_input,
)
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import complete_graph, random_graph
from repro.engine.engine import PathQueryEngine
from repro.engine.executor import resolve_executor
from repro.engine.physical import access_paths, build_pipeline
from repro.errors import BudgetExceeded
from repro.execution import QueryBudget
from repro.gql.ast import Parameter
from repro.graph.model import PropertyGraph
from repro.paths.access import edge_paths
from repro.semantics.restrictors import Restrictor

CORPUS = closure_corpus(labels=("Knows", "Likes"))
EXECUTORS = ("materialize", "pipeline", "automaton")
LIMITS = (None, 3)
KNOWS = Selection(label_of_edge(1, "Knows"), EdgesScan())
LIKES = Selection(label_of_edge(1, "Likes"), EdgesScan())

#: Scans, left-deep concatenations, unions, residual conditions pushed into
#: either side of a join, closures as base / left / right operand.
TEXTS = (
    "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows/Likes]->(?y)",
    'MATCH ALL TRAIL p = (?x {name: "p1"})-[Knows/Likes/Knows]->(?y)',
    'MATCH ALL TRAIL p = (?x)-[Knows/Likes|Likes]->(?y {name: "p2"})',
    "MATCH ALL TRAIL p = (?x:Person)-[Knows/Likes]->(?y)",
    'MATCH ANY SHORTEST TRAIL p = (?x {name: "p0"})-[Knows]->+(?y)',
    "MATCH ALL ACYCLIC p = (?x)-[(Knows/Likes)+]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows/Likes+]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows*/Likes]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows/Absent]->(?y)",
)

#: Hand-built plans the GQL front end does not emit.
PLANS = (
    Selection(And(label_of_edge(1, "Knows"), And(length_equals(1), label_of_first("Person"))), EdgesScan()),
    Join(Union(KNOWS, LIKES), Selection(And(prop_of_last("name", "p1", Comparator.NE), label_of_edge(1, "Likes")), EdgesScan())),
    Join(NodesScan(), KNOWS),
    Join(KNOWS, Selection(Or(label_of_edge(1, "Knows"), label_of_edge(1, "Likes")), EdgesScan())),
    Join(KNOWS, Selection(label_of_edge(1, "Knows", Comparator.NE), EdgesScan())),
    Join(LIKES, Recursive(KNOWS, Restrictor.ACYCLIC, 3)),
    Selection(label_of_edge(1, "Knows"), Join(KNOWS, LIKES)),
)


def _encodings(graph: PropertyGraph) -> dict[str, object]:
    """Mutable, frozen twin, a snapshot pinned before a later ``add_edge``, a snapshot over a current core."""
    written = graph.copy()
    pinned = written.snapshot()
    nodes = written.node_ids()
    written.add_edge("late", nodes[0], nodes[-1], "Knows")
    cored = graph.copy()
    cored.ensure_compact()
    return {
        "mutable": graph,
        "frozen": frozen_twin(graph),
        "snapshot": pinned,
        "snapshot-over-core": cored.snapshot(),
    }


def _rows(execution) -> list:
    return execution.paths.paths()


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_same_rows_in_the_same_order_as_the_naive_route(index: int) -> None:
    graph = CORPUS[index]
    plans = list(PLANS)
    for optimize in (True, False):
        engine = PathQueryEngine(graph, optimize=optimize, plan_cache_size=0)
        plans += [engine.prepare(text).optimized for text in TEXTS]
    encodings = _encodings(graph)
    for plan in plans:
        for limit in LIMITS:
            for executor in EXECUTORS:
                on_mutable = None
                for name, target in encodings.items():
                    context = (graph.name, str(plan), executor, limit, name)
                    got = resolve_executor(executor).execute(plan, target, limit=limit)
                    expected = reference_execute(executor, plan, target, limit=limit)
                    assert _rows(got) == _rows(expected), context
                    assert got.truncated == expected.truncated, context
                    # Every encoding holds the same graph (the late edge is
                    # invisible to the pinned snapshot): same rows, same order.
                    if on_mutable is None:
                        on_mutable = _rows(got)
                    assert _rows(got) == on_mutable, context


@pytest.mark.parametrize("index", range(0, len(CORPUS), 5))
def test_restricted_scans_equal_the_filtered_full_scan(index: int) -> None:
    """``edge_paths(label, source)`` is the full scan filtered, order kept, on every encoding."""
    graph = CORPUS[index]
    for target in _encodings(graph).values():
        full = list(reference_edge_paths(target))
        assert list(edge_paths(target)) == full
        for label in ("Knows", "Likes", "Absent"):
            labelled = [p for p in full if target.edge(p.edge(1)).label == label]
            assert list(edge_paths(target, label)) == labelled
            for source in target.node_ids() + ["no-such-node"]:
                assert list(edge_paths(target, label, source)) == [
                    p for p in labelled if p.first() == source
                ]
                assert list(edge_paths(target, None, source)) == [
                    p for p in full if p.first() == source
                ]


def test_unlabeled_edges_are_in_no_label_index() -> None:
    graph = PropertyGraph()
    for node in "abc":
        graph.add_node(node, "Person")
    graph.add_edge("e1", "a", "b", "Knows")
    graph.add_edge("e2", "b", "c")  # unlabeled
    graph.add_edge("e3", "b", "a", "Knows")
    for target in (graph, frozen_twin(graph), graph.snapshot()):
        assert [p.edge(1) for p in edge_paths(target, "Knows")] == ["e1", "e3"]
        assert [p.edge(1) for p in edge_paths(target, source="b")] == ["e2", "e3"]
        for executor in EXECUTORS:
            for plan in (KNOWS, Join(KNOWS, KNOWS), Join(Selection(length_equals(1), EdgesScan()), KNOWS)):
                got = resolve_executor(executor).execute(plan, target)
                assert _rows(got) == _rows(reference_execute(executor, plan, target))


# ----------------------------------------------------------------------
# What is an index lookup, and what is one step away from it
# ----------------------------------------------------------------------
class TestLabelScanInput:
    def test_bare_label_selection(self) -> None:
        assert label_scan_input(KNOWS) == ("Knows", None)

    def test_conjunct_anywhere_in_an_and_tree_keeps_the_rest_in_order(self) -> None:
        first, last, length = prop_of_first("name", "p1"), prop_of_last("name", "p2"), length_equals(1)
        plan = Selection(And(first, And(And(label_of_edge(1, "Knows"), last), length)), EdgesScan())
        assert label_scan_input(plan) == ("Knows", And(And(first, last), length))

    def test_first_of_two_label_conjuncts_is_the_lookup_the_other_stays(self) -> None:
        plan = Selection(And(label_of_edge(1, "Knows"), label_of_edge(1, "Likes")), EdgesScan())
        assert label_scan_input(plan) == ("Knows", label_of_edge(1, "Likes"))

    @pytest.mark.parametrize(
        "condition",
        [
            Or(label_of_edge(1, "Knows"), label_of_edge(1, "Likes")),
            Not(label_of_edge(1, "Knows")),
            And(Not(label_of_edge(1, "Knows")), length_equals(1)),
            label_of_edge(1, "Knows", Comparator.NE),
            label_of_edge(2, "Knows"),
            label_of_first("Person"),
            label_of_edge(1, Parameter("label")),
            label_of_edge(1, 7),
            label_of_edge(1, None),
            prop_of_first("name", "p1"),
        ],
        ids=str,
    )
    def test_not_a_lookup(self, condition) -> None:
        assert label_scan_input(Selection(condition, EdgesScan())) is None

    def test_only_directly_over_the_edge_scan(self) -> None:
        assert label_scan_input(Selection(label_of_edge(1, "Knows"), NodesScan())) is None
        assert label_scan_input(Selection(label_of_edge(1, "Knows"), KNOWS)) is None
        assert label_scan_input(Selection(label_of_edge(1, "Knows"), Join(KNOWS, LIKES))) is None
        assert label_scan_input(EdgesScan()) is None
        assert label_scan_input(Join(KNOWS, LIKES)) is None


# ----------------------------------------------------------------------
# Statistics and budget contract
# ----------------------------------------------------------------------
class TestStatisticsContract:
    def test_label_scan_keeps_both_rows_and_counts_paths_read(self) -> None:
        graph = figure1_graph()
        knows = len(graph.edges_by_label("Knows"))
        assert 0 < knows < graph.num_edges()
        for executor in ("materialize", "pipeline"):
            stats = resolve_executor(executor).execute(KNOWS, graph).statistics
            assert stats.operator_calls == {"Edges(G)": 1, KNOWS.operator_name(): 1}
            # Paths read off the index, not every edge of the graph.
            assert stats.operator_output_sizes == {"Edges(G)": knows, KNOWS.operator_name(): knows}
            assert stats.intermediate_paths == stats.total_rows() == 2 * knows

    def test_residual_is_counted_on_the_selection_row(self) -> None:
        graph = figure1_graph()
        plan = Selection(And(label_of_edge(1, "Knows"), prop_of_first("name", "Moe")), EdgesScan())
        expected = _rows(reference_execute("materialize", plan, graph))
        for executor in ("materialize", "pipeline"):
            execution = resolve_executor(executor).execute(plan, graph)
            assert _rows(execution) == expected
            sizes = execution.statistics.operator_output_sizes
            assert sizes["Edges(G)"] == len(graph.edges_by_label("Knows"))
            assert sizes[plan.operator_name()] == len(expected) < sizes["Edges(G)"]

    def test_expand_registers_the_operators_of_the_plan_and_counts_as_join(self) -> None:
        graph = figure1_graph()
        plan = Join(KNOWS, LIKES)
        naive = reference_build_pipeline(plan, graph)
        naive_rows = naive.execute().paths()
        pipeline = build_pipeline(plan, graph)
        assert pipeline.execute().paths() == naive_rows
        stats, naive_stats = pipeline.statistics, naive.statistics
        assert stats.operators == naive_stats.operators == 5
        assert stats.operator_calls == naive_stats.operator_calls
        assert stats.operator_output_sizes["⋈"] == len(naive_rows)
        assert stats.total_rows() == stats.intermediate_paths
        # The right operand's rows count the edges read off the adjacency
        # index (once per distinct last node) — never more than the full scan.
        assert stats.operator_output_sizes["Edges(G)"] < naive_stats.operator_output_sizes["Edges(G)"]
        assert stats.intermediate_paths < naive_stats.intermediate_paths

    def test_first_rows_read_a_handful_of_edges(self) -> None:
        graph = CORPUS[-1]  # grid: every edge is Knows
        plan = Join(Join(KNOWS, KNOWS), KNOWS)
        pipeline = build_pipeline(plan, graph)
        naive = reference_build_pipeline(plan, graph)
        assert next(pipeline.stream(limit=1)) == next(naive.stream(limit=1))
        # One scanned edge and two adjacency lists, against two whole operands
        # hashed before the first row: O(rows), not O(|E|) per operand.
        assert pipeline.statistics.operator_output_sizes["Edges(G)"] < graph.num_edges()
        assert naive.statistics.operator_output_sizes["Edges(G)"] > 2 * graph.num_edges()

    def test_closure_right_operand_still_hash_joins(self) -> None:
        graph = figure1_graph()
        plan = Join(LIKES, Recursive(KNOWS, Restrictor.ACYCLIC, 3))
        assert access_paths(plan, pipelined=True)[0] == "hash join"
        pipeline = build_pipeline(plan, graph)
        assert pipeline.execute().paths() == reference_build_pipeline(plan, graph).execute().paths()

    @pytest.mark.parametrize("max_visited", [0, 40, 300, 600, 1500, 10**6])
    def test_max_visited_kill_is_the_same_on_every_encoding(self, max_visited: int) -> None:
        """Mid-stream kills: same rows before the kill, same charge, same operator."""
        residual = Selection(And(label_of_edge(1, "Knows"), length_equals(1)), EdgesScan())
        plan = Join(Join(KNOWS, KNOWS), residual)
        kills = 0
        for graph in (complete_graph(8), random_graph(30, 240, labels=("Knows", "Likes"), seed=5)):
            outcomes = []
            for target in (graph, frozen_twin(graph), graph.snapshot()):
                budget = QueryBudget(max_visited=max_visited)
                rows = []
                try:
                    for path in build_pipeline(plan, target, budget=budget).stream():
                        rows.append(path)
                    killed = ""
                except BudgetExceeded as error:
                    killed = f"{error.reason} at {error.stopped_at}"
                    kills += 1
                outcomes.append((rows, killed, budget.paths_visited))
            assert outcomes[0] == outcomes[1] == outcomes[2], (graph.name, max_visited)
        assert (kills == 0) == (max_visited == 10**6)


def test_residual_conditions_resolve_objects_by_kind() -> None:
    """Node and edge targets read the same labels and properties ``label_of`` / ``property_of`` report."""
    graph = CORPUS[7]
    for target in _encodings(graph).values():
        for path in edge_paths(target):
            source, edge = path.first(), path.edge(1)
            assert label_of_first(target.label_of(source)).evaluate(path)
            assert label_of_edge(1, target.label_of(edge)).evaluate(path)
            assert prop_of_first("name", target.property_of(source, "name")).evaluate(path)
            assert prop_of_last("age", target.property_of(path.last(), "age")).evaluate(path)
            assert not prop_of_first("w", target.property_of(edge, "w")).evaluate(path)
            assert not label_of_edge(2, "Knows").evaluate(path)


# ----------------------------------------------------------------------
# explain names the access path of every scan and join
# ----------------------------------------------------------------------
class TestExplain:
    @pytest.fixture()
    def engine(self) -> PathQueryEngine:
        return PathQueryEngine(figure1_graph())

    def test_label_index(self, engine) -> None:
        rendered = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").render()
        assert "-> Select: (label(edge(1)) = 'Knows')  [label-index(Knows)]" in rendered
        # The scan under it is the index lookup itself: nothing is read whole.
        assert "[full scan]" not in rendered

    def test_expand_under_the_pipeline(self, figure1) -> None:
        engine = PathQueryEngine(figure1, executor="pipeline")
        explanation = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows/Likes]->(?y)")
        assert explanation.chosen_executor == "pipeline"
        lines = explanation.render().splitlines()
        assert any(line.endswith("-> Join  [expand(out, Likes)]") for line in lines)
        assert any(line.endswith("[label-index(Knows)]") for line in lines)
        # The expanded operand is part of the expand: no note of its own.
        assert not any(line.endswith("[label-index(Likes)]") for line in lines)

    def test_hash_join_under_the_materializing_evaluator(self, figure1) -> None:
        engine = PathQueryEngine(figure1, executor="materialize")
        lines = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows/Likes]->(?y)").render().splitlines()
        assert any(line.endswith("-> Join  [hash join]") for line in lines)
        assert any(line.endswith("[label-index(Likes)]") for line in lines)

    def test_full_scan(self, engine) -> None:
        plan = Join(Selection(label_of_edge(1, "Knows", Comparator.NE), EdgesScan()), NodesScan())
        lines = engine.explain_plan(plan).render().splitlines()
        assert any(line.endswith("-> EDGES(G)  [full scan]") for line in lines)
        assert any(line.endswith("-> NODES(G)  [full scan]") for line in lines)
        assert any(line.endswith("-> Join  [hash join]") for line in lines)

    def test_native_automaton_plan_says_product_search(self, figure1) -> None:
        engine = PathQueryEngine(figure1, executor="automaton")
        rendered = engine.explain("MATCH ALL SHORTEST p = (?x)-[Knows]->+(?y)").render()
        assert "Access paths: product-graph search" in rendered
        assert "[label-index" not in rendered
        # Outside the native envelope (ϕShortest only, seeded by first-node
        # predicates at most) the automaton falls back to the evaluator.
        fallback = engine.explain('MATCH ALL TRAIL p = (?x)-[Knows]->+(?y {name: "Moe"})').render()
        assert "[label-index(Knows)]" in fallback

    def test_the_algebra_tree_itself_is_unchanged(self, engine) -> None:
        from repro.algebra.printer import to_plan_tree

        explanation = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows/Likes]->(?y)")
        bare = to_plan_tree(explanation.optimized_plan).splitlines()
        noted = to_plan_tree(
            explanation.optimized_plan, access_paths(explanation.optimized_plan, pipelined=True)
        ).splitlines()
        assert [line.split("  [")[0] for line in noted] == bare
