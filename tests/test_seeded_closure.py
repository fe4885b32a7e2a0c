"""Seeded closures against the route they replaced: the whole closure, then the filter.

``σ[first.c ∧ rest](ϕr(S))`` starts ϕ from ``σ[first.c](S)`` and extends it
through the index over all of ``S`` (``seeded_closure_input`` is the one
definition of when).  The oracle in ``seeded_closure_reference`` keeps the old
route, and this suite demands the same rows **in the same order** from both,
over the 50-graph two-label corpus × five restrictors × three executors ×
mutable / frozen / pinned snapshot, with and without a ``limit``.  The shapes
one step away from a seeded closure are pinned as *not* one; the two places
where the new route is allowed to answer differently — a budget that now
suffices, an unbounded ϕWalk whose seeds reach no cycle — are pinned as exactly
that; so are the statistics rows, the cost model, the route ``auto`` picks and
what ``explain`` prints.
"""

from __future__ import annotations

from unittest import mock

import pytest

from graph_corpus import closure_corpus, frozen_twin
from repro.algebra.conditions import (
    And,
    Comparator,
    Not,
    Or,
    label_of_edge,
    label_of_first,
    label_of_last,
    label_of_node,
    length_at_most,
    length_equals,
    prop_of_first,
    prop_of_last,
    prop_of_node,
)
from repro.algebra.expressions import (
    EdgesScan,
    GroupBy,
    Join,
    Projection,
    Recursive,
    Selection,
    Union,
    identity_crown_input,
    seeded_closure_input,
)
from repro.bench.replay import build_trace_graph, generate_ldbc_trace
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import complete_graph
from repro.datasets.ldbc import LDBCParameters
from repro.engine.automaton import classify_plan
from repro.engine.engine import PathQueryEngine
from repro.engine.executor import resolve_executor
from repro.engine.physical import build_pipeline
from repro.errors import BudgetExceeded, NonTerminatingQueryError
from repro.execution import QueryBudget
from repro.gql.ast import Parameter
from repro.graph.builder import GraphBuilder
from repro.graph.model import PropertyGraph
from repro.optimizer.cost import CostModel
from repro.optimizer.engine import Optimizer
from repro.semantics.restrictors import Restrictor
from seeded_closure_reference import filtered_closure, reference_execute, unseeded

CORPUS = closure_corpus(labels=("Knows", "Likes"))
EXECUTORS = ("materialize", "pipeline", "automaton")
LIMITS = (None, 3)
KNOWS = Selection(label_of_edge(1, "Knows"), EdgesScan())
LIKES = Selection(label_of_edge(1, "Likes"), EdgesScan())

#: ``Knows+`` under all five restrictors (the bound keeps ϕWalk finite on the
#: cyclic corpus graphs), plus bases whose segments are longer than one edge
#: and of mixed length — where "first node of the first segment" and ϕShortest's
#: base domination earn their keep.
CLOSURES = tuple(Recursive(KNOWS, restrictor, 3) for restrictor in Restrictor) + (
    Recursive(Join(KNOWS, LIKES), Restrictor.TRAIL, 4),
    Recursive(Union(KNOWS, Join(KNOWS, KNOWS)), Restrictor.SHORTEST, 4),
)

EVERY_NODE = label_of_first(None, Comparator.NE)
NO_NODE = prop_of_first("name", "nobody")

#: Label- and property-valued seeds, other comparators, several seed conjuncts,
#: seed ∧ residual in either order, the seed nothing and the seed everything matches.
CONDITIONS = (
    prop_of_first("name", "p1"),
    label_of_first("Person"),
    prop_of_first("age", 40, Comparator.GE),
    And(label_of_first("Person", Comparator.NE), prop_of_first("name", "p0", Comparator.NE)),
    And(prop_of_first("name", "p1"), length_at_most(2)),
    And(And(prop_of_last("name", "p0", Comparator.NE), label_of_first("Person")), Or(length_equals(1), length_equals(3))),
    NO_NODE,
    EVERY_NODE,
)

#: Texts whose optimized *and* unoptimized plans hold a seeded closure (under
#: a crown when the optimizer did not run), bound through ``$parameters``.
TEXTS = (
    ("MATCH ALL TRAIL p = (?x {name: $name})-[Knows]->+(?y)", {"name": "p1"}),
    ("MATCH ALL SHORTEST TRAIL p = (?x:Person)-[Knows]->+(?y)", {}),
    ("MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[Knows]->+(?y)", {"name": "p0"}),
    ("MATCH ALL ACYCLIC p = (?x {name: $name})-[Knows]->+(?y {name: $other})", {"name": "p0", "other": "p2"}),
    ("MATCH ALL SIMPLE p = (?x:Person {name: $name})-[(Knows/Likes)+]->(?y)", {"name": "p1"}),
)


def _encodings(graph: PropertyGraph) -> dict[str, object]:
    """Mutable, frozen twin, and a snapshot pinned before a later ``add_edge``."""
    written = graph.copy()
    pinned = written.snapshot()
    nodes = written.node_ids()
    written.add_edge("late", nodes[0], nodes[-1], "Knows")
    return {"mutable": graph, "frozen": frozen_twin(graph), "snapshot": pinned}


def _rows(execution) -> list:
    return execution.paths.paths()


def _seeded_selection(plan) -> Selection:
    """The seeded selection of ``plan``: the plan itself or what its identity crowns cover."""
    while (inner := identity_crown_input(plan)) is not None:
        plan = inner
    assert seeded_closure_input(plan) is not None, plan
    return plan


def _assert_matches_the_old_route(plan, target, executor, limit, context) -> list:
    got = resolve_executor(executor).execute(plan, target, limit=limit)
    native = executor == "automaton" and classify_plan(plan) is not None
    if native:
        # The product search from the seed's sources did not exist before: its
        # rows are the automaton's own unseeded closure, filtered, in its order.
        selection = _seeded_selection(plan)
        filtered = filtered_closure(executor, selection, target)
        expected_rows = filtered if limit is None else filtered[:limit]
        expected_truncated = limit is not None and len(filtered) > limit
    else:
        expected = reference_execute(executor, plan, target, limit=limit)
        expected_rows, expected_truncated = _rows(expected), expected.truncated
    assert _rows(got) == expected_rows, context
    assert got.truncated == expected_truncated, context
    return _rows(got)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_same_rows_in_the_same_order_as_filtering_the_full_closure(index: int) -> None:
    graph = CORPUS[index]
    encodings = _encodings(graph)
    for closure in CLOSURES:
        for condition in CONDITIONS:
            plan = Selection(condition, closure)
            assert seeded_closure_input(plan) is not None
            for executor in EXECUTORS:
                for limit in LIMITS:
                    on_mutable = None
                    for name, target in encodings.items():
                        context = (graph.name, str(plan), executor, limit, name)
                        rows = _assert_matches_the_old_route(plan, target, executor, limit, context)
                        if limit is None and executor != "automaton":
                            # Said without the recognizer: ϕ's rows, filtered, in ϕ's order.
                            assert rows == filtered_closure(executor, plan, target), context
                        # Every encoding holds the same graph (the late edge is
                        # invisible to the pinned snapshot): same rows, same order.
                        if on_mutable is None:
                            on_mutable = rows
                        assert rows == on_mutable, context


@pytest.mark.parametrize("index", range(0, len(CORPUS), 3))
def test_parameter_bound_seeds_through_the_engine(index: int) -> None:
    """GQL texts, ``$name`` bound per execution, optimizer on and off, every executor and encoding."""
    graph = CORPUS[index]
    for optimize in (True, False):
        engine = PathQueryEngine(graph, optimize=optimize)
        for text, params in TEXTS:
            prepared = engine.prepare(text).optimized
            assert any(seeded_closure_input(node) is not None for node in prepared.iter_subtree()), text
            for executor in EXECUTORS:
                for name, target in _encodings(graph).items():
                    if name == "snapshot":
                        continue  # a snapshot of a *copy* is foreign to this engine
                    run = PathQueryEngine(target, optimize=optimize)
                    got = run.query(text, params=params, executor=executor)
                    with unseeded():
                        expected = PathQueryEngine(target, optimize=optimize).query(
                            text, params=params, executor=executor
                        )
                    if executor == "automaton" and classify_plan(got.optimized_plan) is not None:
                        assert got.paths == expected.paths, (graph.name, text, optimize, name)
                    else:
                        assert _rows(got) == _rows(expected), (graph.name, text, optimize, executor, name)


def test_an_unbound_parameter_seeds_like_any_value_and_matches_nothing() -> None:
    plan = Selection(prop_of_first("name", Parameter("name")), Recursive(KNOWS, Restrictor.TRAIL, 3))
    closure, seed, residual = seeded_closure_input(plan)
    assert (closure, seed, residual) == (plan.child, plan.condition, None)
    for executor in EXECUTORS:
        assert _rows(resolve_executor(executor).execute(plan, figure1_graph())) == []


def test_empty_seed_set_builds_nothing() -> None:
    graph = complete_graph(5)
    plan = Selection(NO_NODE, Recursive(KNOWS, Restrictor.WALK))  # unbounded, over cycles
    for target in (graph, frozen_twin(graph)):
        for executor in EXECUTORS:
            execution = resolve_executor(executor).execute(plan, target, budget=QueryBudget(max_visited=10**6))
            assert _rows(execution) == []
            # (The pipeline lists an operator's size with its first row.)
            sizes = execution.statistics.operator_output_sizes
            assert sizes.get(plan.child.operator_name(), 0) == sizes.get(plan.operator_name(), 0) == 0
            assert execution.statistics.operator_calls[plan.child.operator_name()] == 1


@pytest.mark.parametrize("index", range(0, len(CORPUS), 7))
def test_a_seed_every_node_matches_is_the_plain_closure(index: int) -> None:
    for closure in CLOSURES:
        for target in _encodings(CORPUS[index]).values():
            for executor in EXECUTORS:
                seeded = resolve_executor(executor).execute(Selection(EVERY_NODE, closure), target)
                plain = resolve_executor(executor).execute(closure, target)
                assert _rows(seeded) == _rows(plain), (str(closure), executor)


# ----------------------------------------------------------------------
# What is a seeded closure, and what is one step away from it
# ----------------------------------------------------------------------
class TestSeededClosureInput:
    closure = Recursive(KNOWS, Restrictor.TRAIL, 3)

    def test_bare_first_node_conditions(self) -> None:
        for seed in (prop_of_first("name", "p1"), label_of_first("Person"), prop_of_first("age", 3, Comparator.LT)):
            assert seeded_closure_input(Selection(seed, self.closure)) == (self.closure, seed, None)

    def test_seed_conjuncts_are_collected_and_the_rest_keeps_its_order(self) -> None:
        name, person = prop_of_first("name", "p1"), label_of_first("Person")
        last, length = prop_of_last("name", "p2"), length_at_most(2)
        plan = Selection(And(last, And(And(name, length), person)), self.closure)
        assert seeded_closure_input(plan) == (self.closure, And(name, person), And(last, length))

    @pytest.mark.parametrize(
        "condition",
        [
            prop_of_last("name", "p1"),
            label_of_last("Person"),
            label_of_node(2, "Person"),
            prop_of_node(2, "name", "p1"),
            label_of_node(1, "Person"),  # the first node, but not said as ``first``
            label_of_edge(1, "Knows"),
            length_equals(2),
            length_at_most(2),
            Or(prop_of_first("name", "p1"), prop_of_first("name", "p2")),
            Not(prop_of_first("name", "p1")),
            And(Not(label_of_first("Person")), length_at_most(2)),
            And(prop_of_last("name", "p1"), Or(label_of_first("Person"), length_equals(1))),
        ],
        ids=str,
    )
    def test_not_seeded(self, condition) -> None:
        plan = Selection(condition, self.closure)
        assert seeded_closure_input(plan) is None
        # ... and so the whole closure is built and filtered, as ever.
        graph = CORPUS[7]
        full = len(resolve_executor("materialize").execute(self.closure, graph).paths)
        for executor in ("materialize", "pipeline"):
            execution = resolve_executor(executor).execute(plan, graph)
            assert execution.statistics.operator_output_sizes[self.closure.operator_name()] == full
            assert _rows(execution) == filtered_closure(executor, plan, graph)
        assert classify_plan(plan) is None

    def test_only_directly_on_the_closure(self) -> None:
        seed = prop_of_first("name", "p1")
        for child in (
            Selection(length_at_most(2), self.closure),
            Union(self.closure, KNOWS),
            Join(self.closure, KNOWS),
            Projection(GroupBy(self.closure)),
            KNOWS,
            EdgesScan(),
        ):
            assert seeded_closure_input(Selection(seed, child)) is None
        assert seeded_closure_input(self.closure) is None
        assert seeded_closure_input(Join(self.closure, KNOWS)) is None

    def test_the_existing_rules_park_first_node_selections_on_the_closure(self) -> None:
        """Why there is no ``PushSelectionIntoClosure`` rule: nothing is left for it to do."""
        seed, last, length = prop_of_first("name", "p1"), prop_of_last("name", "p2"), length_at_most(2)
        optimize = lambda plan: Optimizer().optimize(plan).optimized  # noqa: E731
        into_join = optimize(Selection(And(seed, last), Join(self.closure, KNOWS)))
        assert into_join == Join(Selection(seed, self.closure), Selection(And(last, KNOWS.condition), EdgesScan()))
        below_union = optimize(Selection(seed, Union(self.closure, Join(KNOWS, LIKES))))
        assert below_union.left == Selection(seed, self.closure)
        merged = optimize(Selection(seed, Selection(length, self.closure)))
        assert seeded_closure_input(merged) == (self.closure, seed, length)


# ----------------------------------------------------------------------
# The two permitted divergences from the old route
# ----------------------------------------------------------------------
class TestPermittedDivergences:
    def test_a_budget_that_killed_the_full_closure_lets_the_seeded_one_finish(self) -> None:
        graph = complete_graph(6)
        plan = Selection(prop_of_first("name", "p0"), Recursive(KNOWS, Restrictor.TRAIL, 4))
        for target in (graph, frozen_twin(graph)):
            for executor in ("materialize", "pipeline"):
                unlimited = QueryBudget(max_visited=10**9)
                expected = _rows(reference_execute(executor, plan, target, budget=unlimited))
                probe = QueryBudget(max_visited=10**9)
                assert _rows(resolve_executor(executor).execute(plan, target, budget=probe)) == expected
                # Charged for the paths it built, a sixth of what the full closure costs.
                assert probe.paths_visited < unlimited.paths_visited / 3
                enough = probe.paths_visited
                with pytest.raises(BudgetExceeded):
                    reference_execute(executor, plan, target, budget=QueryBudget(max_visited=enough))
                survivor = resolve_executor(executor).execute(
                    plan, target, budget=QueryBudget(max_visited=enough)
                )
                assert _rows(survivor) == expected

    @pytest.fixture()
    def tail_and_cycle(self) -> PropertyGraph:
        """``a → b → c`` beside the cycle ``x ⇄ y``; nothing leads from the one into the other."""
        builder = GraphBuilder("tail-and-cycle")
        for node in "abcxy":
            builder.node(node, "Person", name=node.upper())
        for source, target in ("ab", "bc", "xy", "yx"):
            builder.edge(source, target, "Knows", id=source + target)
        return builder.build()

    def test_unbounded_walk_answers_when_the_seeds_reach_no_cycle(self, tail_and_cycle) -> None:
        plan = Selection(prop_of_first("name", "A"), Recursive(KNOWS, Restrictor.WALK))
        for target in (tail_and_cycle, frozen_twin(tail_and_cycle), tail_and_cycle.snapshot()):
            for executor in EXECUTORS:
                with pytest.raises(NonTerminatingQueryError):
                    reference_execute(executor, plan, target)
                got = resolve_executor(executor).execute(plan, target)
                # Two hops from a one-edge seed set: the termination bound is
                # the *base's* edge count (four), not the seeds' (one).
                assert [str(path) for path in got.paths] == ["(a, ab, b)", "(a, ab, b, bc, c)"]

    def test_unbounded_walk_still_refuses_seeds_that_reach_a_cycle(self, tail_and_cycle) -> None:
        plan = Selection(prop_of_first("name", "X"), Recursive(KNOWS, Restrictor.WALK))
        for target in (tail_and_cycle, frozen_twin(tail_and_cycle)):
            for executor in EXECUTORS:
                with pytest.raises(NonTerminatingQueryError):
                    resolve_executor(executor).execute(plan, target)

    def test_shortest_domination_is_decided_over_the_whole_base(self) -> None:
        """Mixed-length segments: a two-edge seed a one-edge base path undercuts is dropped, as in the full closure."""
        graph = figure1_graph()
        base = Union(KNOWS, Join(KNOWS, KNOWS))
        plan = Selection(prop_of_first("name", "Moe"), Recursive(base, Restrictor.SHORTEST))
        for target in (graph, frozen_twin(graph)):
            for executor in ("materialize", "pipeline"):
                assert _rows(resolve_executor(executor).execute(plan, target)) == filtered_closure(
                    executor, plan, target
                )


# ----------------------------------------------------------------------
# Statistics and budget contract
# ----------------------------------------------------------------------
class TestStatisticsContract:
    def test_rows_are_kept_and_count_the_seeded_closure(self) -> None:
        graph = complete_graph(5)
        closure = Recursive(KNOWS, Restrictor.TRAIL, 3)
        plan = Selection(And(prop_of_first("name", "p2"), length_at_most(2)), closure)
        seeded_only = Selection(prop_of_first("name", "p2"), closure)
        for executor in ("materialize", "pipeline"):
            execution = resolve_executor(executor).execute(plan, graph)
            old = reference_execute(executor, plan, graph)
            assert _rows(execution) == _rows(old)
            stats, old_stats = execution.statistics, old.statistics
            assert stats.operator_calls == old_stats.operator_calls
            assert stats.operators == old_stats.operators
            sizes, old_sizes = stats.operator_output_sizes, old_stats.operator_output_sizes
            # ϕ counts what was built from the seeds; σ what the residual left of it.
            built = len(resolve_executor(executor).execute(seeded_only, graph).paths)
            assert sizes[closure.operator_name()] == built < old_sizes[closure.operator_name()]
            assert sizes[plan.operator_name()] == len(execution.paths) < built
            assert sizes["Edges(G)"] == old_sizes["Edges(G)"]
            assert stats.total_rows() == stats.intermediate_paths < old_stats.intermediate_paths

    @pytest.mark.parametrize("max_visited", [0, 30, 200, 700, 1500, 10**6])
    def test_max_visited_kill_is_the_same_on_every_encoding(self, max_visited: int) -> None:
        """Mid-closure kills: same rows before the kill, same charge, same operator."""
        graph = complete_graph(7)
        kills = 0
        for restrictor in (Restrictor.TRAIL, Restrictor.WALK, Restrictor.SHORTEST):
            plan = Selection(
                And(prop_of_first("name", "p3"), length_at_most(3)), Recursive(KNOWS, restrictor, 4)
            )
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
                blocking = QueryBudget(max_visited=max_visited)
                try:
                    result = _rows(resolve_executor("materialize").execute(plan, target, budget=blocking))
                except BudgetExceeded as error:
                    result = f"{error.reason} at {error.stopped_at}"
                outcomes.append((rows, killed, budget.paths_visited, result, blocking.paths_visited))
            assert outcomes[0] == outcomes[1] == outcomes[2], (restrictor, max_visited)
        assert (kills == 0) == (max_visited == 10**6)


# ----------------------------------------------------------------------
# Cost model and routing
# ----------------------------------------------------------------------
class TestCostModel:
    def test_costs_the_seeds_share_of_the_closure(self) -> None:
        graph = figure1_graph()
        model = CostModel(graph)
        scan = model.estimate(KNOWS).total_cost
        for restrictor in Restrictor:
            closure = Recursive(KNOWS, restrictor, 3)
            full = model.estimate(closure)
            shares = []
            for seed in (prop_of_first("name", "Moe"), label_of_first("Person"), label_of_first("Message")):
                selectivity = model._condition_selectivity(seed)
                assert 0 < selectivity < 1
                seeded = model.estimate(Selection(seed, closure))
                assert seeded.total_cost < full.total_cost
                # child scan + selectivity(seed) × (closure cardinality × expansion)
                assert seeded.total_cost - scan == pytest.approx(selectivity * (full.total_cost - scan))
                assert seeded.output_cardinality == pytest.approx(selectivity * full.output_cardinality)
                shares.append((selectivity, seeded.total_cost))
            assert sorted(shares) == sorted(shares, key=lambda share: share[1])
            assert len({cost for _, cost in shares}) == len(shares)
            # A residual is a filter over what the seeded closure built.
            with_rest = model.estimate(
                Selection(And(prop_of_first("name", "Moe"), length_at_most(2)), closure)
            )
            alone = model.estimate(Selection(prop_of_first("name", "Moe"), closure))
            assert alone.total_cost < with_rest.total_cost < full.total_cost
            assert with_rest.output_cardinality < alone.output_cardinality

    def test_unseeded_shapes_cost_what_they_did(self) -> None:
        model = CostModel(figure1_graph())
        closure = Recursive(KNOWS, Restrictor.TRAIL, 3)
        for condition in (prop_of_last("name", "Moe"), length_at_most(2), Not(prop_of_first("name", "Moe"))):
            plan = Selection(condition, closure)
            with mock.patch("repro.optimizer.cost.seeded_closure_input", lambda plan: None):
                before = model.estimate(plan)
            assert model.estimate(plan) == before

    def test_auto_routes_the_ldbc_probe_where_it_did(self) -> None:
        """The ten ``ANY SHORTEST TRAIL`` probes of ``wire-ldbc-cold``: materialize, seeded or not.

        Routing reads no estimate, so the seeded plan's smaller one moves no
        query: every drained text of the trace materializes.  Seeding makes
        the probe's ϕTrail 3× cheaper; the optimizer collapses that ϕTrail
        over single edges to ϕShortest (``walk-to-shortest``), whose smaller
        expansion leaves seeding less to save, but still some.
        """
        trace = generate_ldbc_trace(48, seed=7, parameters=LDBCParameters(num_persons=100, num_messages=200))
        graph = build_trace_graph(trace)
        engine = PathQueryEngine(graph)
        probe = "MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[Knows]->+(?y)"
        assert probe in {event.text for event in trace.events}
        for event in trace.events:
            plan = engine.prepare(event.text, max_length=event.max_length).optimized
            assert engine.executor_for(plan) == "materialize", event.text
        model = CostModel(graph)
        trail = PathQueryEngine(graph, optimize=False).prepare(probe, max_length=3).optimized
        plan = engine.prepare(probe, max_length=3).optimized
        assert [node.restrictor for node in trail.iter_subtree() if isinstance(node, Recursive)] == [
            Restrictor.TRAIL
        ]
        assert [node.restrictor for node in plan.iter_subtree() if isinstance(node, Recursive)] == [
            Restrictor.SHORTEST
        ]
        for closure, saving in ((trail, 3), (plan, 1)):
            with mock.patch("repro.optimizer.cost.seeded_closure_input", lambda plan: None):
                before = model.estimate(closure).total_cost
            assert model.estimate(closure).total_cost < before / saving


# ----------------------------------------------------------------------
# explain names the seeded closure
# ----------------------------------------------------------------------
class TestExplain:
    TEXT = 'MATCH ALL TRAIL p = (?x {name: "Moe"})-[Knows]->+(?y)'
    NOTE = "-> Select: (first.name = 'Moe')  [seeded closure(first: first.name = 'Moe')]"

    def test_under_the_materializing_evaluator(self, figure1) -> None:
        explanation = PathQueryEngine(figure1, executor="materialize").explain(self.TEXT)
        assert self.NOTE in explanation.render()

    def test_under_the_pipeline(self, figure1) -> None:
        explanation = PathQueryEngine(figure1, executor="pipeline").explain(
            'MATCH ANY SHORTEST TRAIL p = (?x:Person {name: "Moe"})-[Knows]->+(?y {name: "Apu"})'
        )
        rendered = explanation.render()
        # Both first-node conjuncts seed; the last-node one is the residual.
        assert "[seeded closure(first: (label(first) = 'Person' AND first.name = 'Moe'))]" in rendered
        assert "[label-index(Knows)]" in rendered

    def test_native_automaton_plan_prints_its_source_restriction(self, figure1) -> None:
        engine = PathQueryEngine(figure1, executor="automaton")
        # Only a bare seeded ϕShortest is native (a SHORTEST text keeps its crown).
        seeded = Selection(prop_of_first("name", "Moe"), Recursive(KNOWS, Restrictor.SHORTEST))
        rendered = engine.explain_plan(seeded).render()
        assert "Access paths: product-graph search (sources: first.name = 'Moe')" in rendered
        assert "[seeded closure" not in rendered
        unrestricted = engine.explain("MATCH ALL SHORTEST p = (?x)-[Knows]->+(?y)").render()
        assert unrestricted.splitlines().count("Access paths: product-graph search") == 1
        # Under the SHORTEST crown, with a residual or under any other
        # restrictor the automaton falls back to the evaluator, which seeds.
        for fallback in (
            'MATCH ALL SHORTEST p = (?x {name: "Moe"})-[Knows]->+(?y)',
            'MATCH ALL TRAIL p = (?x {name: "Moe"})-[Knows]->+(?y {name: "Apu"})',
            self.TEXT,
        ):
            assert "[seeded closure(first: first.name = 'Moe')]" in engine.explain(fallback).render()

    def test_no_explain_result_field_was_added(self, figure1) -> None:
        explanation = PathQueryEngine(figure1).explain(self.TEXT)
        assert sorted(vars(explanation)) == [
            "applied_rules",
            "chosen_executor",
            "estimated_cost",
            "estimated_cost_unoptimized",
            "executor_policy",
            "optimized_plan",
            "plan",
        ]
