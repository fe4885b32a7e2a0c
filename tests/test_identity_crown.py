"""The ``eliminate-identity-crown`` rewrite as a property, and its boundaries.

The rule drops a group-by / order-by / projection crown exactly when the
crown returns its input's path set (``identity_crown_input``).  Positive
side: over the 50-graph corpus, every restrictor and every ψ, an engine that
optimizes and one that does not return the same path set under all three
executors.  Negative side: the shapes one step away from an identity — an
order-by in between, a numeric projection component, the ``ALL SHORTEST``
crown over anything but ϕShortest — are pinned as *not* rewritten.
"""

from __future__ import annotations

import pytest

from graph_corpus import closure_corpus
from repro.algebra.conditions import label_of_edge
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import (
    EdgesScan,
    GroupBy,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    identity_crown_input,
)
from repro.algebra.solution_space import ALL, GroupByKey, OrderByKey, ProjectionSpec
from repro.datasets.generators import cycle_graph
from repro.engine.engine import PathQueryEngine
from repro.execution import QueryBudget
from repro.optimizer.engine import Optimizer
from repro.optimizer.rules import EliminateIdentityCrown
from repro.semantics.restrictors import Restrictor

CORPUS = closure_corpus()
EXECUTORS = ("materialize", "pipeline", "automaton")
KNOWS = Selection(label_of_edge(1, "Knows"), EdgesScan())
ALL_SHORTEST = ProjectionSpec(ALL, 1, ALL)


def _closure(restrictor: Restrictor) -> Recursive:
    # The bound keeps ϕWalk finite on the cyclic corpus graphs.
    return Recursive(KNOWS, restrictor, 3)


def _engines(graph) -> list[PathQueryEngine]:
    return [PathQueryEngine(graph, optimize=optimize, plan_cache_size=0) for optimize in (True, False)]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_all_crown_is_an_identity_on_every_executor(index: int) -> None:
    """``π(*,*,*)(γψ(ϕ(E)))`` ≡ ``ϕ(E)``: 5 restrictors × 8 ψ × 3 executors × optimize on/off."""
    optimizing, plain = _engines(CORPUS[index])
    for restrictor in Restrictor:
        closure = _closure(restrictor)
        expected = evaluate_to_paths(closure, CORPUS[index])
        for key in GroupByKey:
            crowned = Projection(GroupBy(closure, key), ProjectionSpec())
            for executor in EXECUTORS:
                optimized = optimizing.query_plan(crowned, executor=executor)
                assert optimized.optimized_plan == closure
                assert "eliminate-identity-crown" in optimized.applied_rules
                unoptimized = plain.query_plan(crowned, executor=executor)
                assert unoptimized.optimized_plan == crowned
                assert optimized.paths == unoptimized.paths == expected, (restrictor, key, executor)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_all_shortest_crown_over_shortest_is_an_identity(index: int) -> None:
    """``π(*,1,*)(τG(γSTL(ϕShortest(X))))`` ≡ ``ϕShortest(X)`` on every executor."""
    optimizing, plain = _engines(CORPUS[index])
    closure = _closure(Restrictor.SHORTEST)
    crowned = Projection(OrderBy(GroupBy(closure, GroupByKey.STL), OrderByKey.G), ALL_SHORTEST)
    expected = evaluate_to_paths(closure, CORPUS[index])
    for executor in EXECUTORS:
        optimized = optimizing.query_plan(crowned, executor=executor)
        assert optimized.optimized_plan == closure
        assert optimized.paths == plain.query_plan(crowned, executor=executor).paths == expected


def test_all_shortest_walk_loses_walk_and_crown_in_one_fix_point() -> None:
    crowned = Projection(
        OrderBy(GroupBy(Recursive(KNOWS, Restrictor.WALK), GroupByKey.STL), OrderByKey.G), ALL_SHORTEST
    )
    result = Optimizer().optimize(crowned)
    assert result.optimized == Recursive(KNOWS, Restrictor.SHORTEST)
    assert result.applied_rules == ["walk-to-shortest", "eliminate-identity-crown"]


class TestNotRewritten:
    rule = EliminateIdentityCrown()

    @pytest.mark.parametrize("order_key", list(OrderByKey))
    def test_an_order_by_between_projection_and_group_by(self, order_key) -> None:
        """τ defines an order the caller sees; ``π(*,*,*)`` over it is not the input."""
        crowned = Projection(OrderBy(GroupBy(_closure(Restrictor.TRAIL), GroupByKey.STL), order_key))
        assert self.rule.apply(crowned) is None
        assert identity_crown_input(crowned) is None
        # With every rule running too: under γSTL no τ component orders
        # singletons, so remove-redundant-order-by leaves τ — and the crown — alone.
        assert Optimizer().optimize(crowned).optimized == crowned

    @pytest.mark.parametrize("spec", [(1, ALL, ALL), (ALL, 1, ALL), (ALL, ALL, 1), (2, 2, 2)])
    @pytest.mark.parametrize("key", list(GroupByKey))
    def test_any_numeric_projection_component(self, spec, key) -> None:
        crowned = Projection(GroupBy(_closure(Restrictor.TRAIL), key), ProjectionSpec(*spec))
        assert self.rule.apply(crowned) is None
        assert Optimizer().optimize(crowned).optimized == crowned

    @pytest.mark.parametrize(
        "restrictor", [Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE, Restrictor.WALK]
    )
    def test_all_shortest_crown_over_another_restrictor(self, restrictor) -> None:
        """Only ϕShortest guarantees one length group per endpoint pair."""
        crowned = Projection(
            OrderBy(GroupBy(_closure(restrictor), GroupByKey.STL), OrderByKey.G), ALL_SHORTEST
        )
        assert self.rule.apply(crowned) is None
        # The crown does select here: on the 4-clique every endpoint pair
        # is joined by paths of several lengths.
        graph = CORPUS[-2]
        engine = PathQueryEngine(graph, plan_cache_size=0)
        assert len(engine.query_plan(crowned).paths) < len(evaluate_to_paths(_closure(restrictor), graph))

    def test_a_group_by_without_its_projection(self) -> None:
        """γ alone yields a solution space, not a path set: nothing to eliminate."""
        assert self.rule.apply(GroupBy(_closure(Restrictor.TRAIL), GroupByKey.ST)) is None


def test_explain_of_an_all_query_shows_the_rule_and_a_crown_free_plan() -> None:
    engine = PathQueryEngine(CORPUS[0])
    explain = engine.explain("MATCH ALL TRAIL p = (?x)-[Knows]->+(?y)")
    assert "eliminate-identity-crown" in explain.applied_rules
    assert isinstance(explain.plan, Projection)
    assert not any(
        isinstance(node, (Projection, GroupBy, OrderBy)) for node in explain.optimized_plan.iter_subtree()
    )
    rendered = explain.render()
    assert "eliminate-identity-crown" in rendered
    assert rendered.split("Optimized plan:")[1].lstrip().startswith("ϕTrail(")


def test_eliminated_operators_record_no_statistics_row_on_either_executor() -> None:
    engine = PathQueryEngine(CORPUS[-2])
    for executor in ("materialize", "pipeline"):
        calls = engine.query("MATCH ALL TRAIL p = (?x)-[Knows]->+(?y)", executor=executor).statistics.operator_calls
        assert not any(name.startswith(("π", "γ", "τ")) for name in calls), calls


@pytest.mark.parametrize("optimize", [True, False])
def test_unbounded_all_walk_cursor_still_returns_its_first_rows(optimize: bool) -> None:
    """The pipeline streams an ``ALL`` query whether the crown was eliminated or is streamed through."""
    engine = PathQueryEngine(cycle_graph(8), optimize=optimize)
    # The budget turns a regression (draining an infinite closure) into a failure, not a hang.
    cursor = engine.open_cursor(
        "MATCH ALL WALK p = (?x)-[Knows]->+(?y)",
        executor="pipeline",
        limit=10,
        budget=QueryBudget(max_visited=10_000),
    )
    try:
        rows = cursor.fetchmany(10)
    finally:
        cursor.close()
    assert len(rows) == 10 and len(set(rows)) == 10
