"""The product-graph automaton executor: shapes, parity, streaming, routing.

Complements the three-way sweeps in ``test_differential.py`` with targeted
coverage of the new subsystem itself: the plan → regex decompiler and shape
classifier, cost-based selection, fallback attribution, limit
semantics, the frozen-graph int route, the fork boundary of the process pool,
and — the acceptance-criterion test — a cursor proving SHORTEST rows stream
out *before* the closure could possibly have completed.
"""

from __future__ import annotations

import pytest

from graph_corpus import closure_corpus
from repro.algebra.expressions import NodesScan, Projection, Recursive, Union
from repro.datasets.generators import cycle_graph
from repro.engine.automaton import AutomatonExecutor, classify_plan, plan_supported
from repro.engine.engine import PathQueryEngine
from repro.engine.executor import (
    EXECUTOR_NAMES,
    MaterializeExecutor,
    choose_executor,
    resolve_executor,
)
from repro.errors import BudgetExceeded
from repro.execution import QueryBudget
from repro.gql.planner import plan_text
from repro.graph.model import PropertyGraph
from repro.optimizer.cost import CostModel
from repro.optimizer.engine import Optimizer
from repro.optimizer.rules import WalkToShortest
from repro.rpq.compile import CompileOptions, compile_regex
from repro.semantics.restrictors import Restrictor

LABELS = ("Knows", "Likes")
CORPUS = closure_corpus(labels=LABELS)


def _plan(regex: str, restrictor: Restrictor, max_length: int | None = 3):
    return compile_regex(regex, CompileOptions(restrictor=restrictor, max_length=max_length))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classifier_covers_compiled_regex_shapes() -> None:
    spec = classify_plan(_plan("(Knows|Likes)+", Restrictor.SHORTEST))
    assert spec is not None and spec.kind == "closure"
    assert spec.restrictor is Restrictor.SHORTEST and spec.max_length == 3

    spec = classify_plan(_plan("Knows*", Restrictor.TRAIL, None))
    assert spec is not None and spec.kind == "closure_with_nodes"

    spec = classify_plan(_plan("Knows/Likes", Restrictor.WALK, None))
    assert spec is not None and spec.kind == "walks" and spec.max_length == 2


def test_classifier_rejects_out_of_envelope_plans() -> None:
    # An unbounded ϕWalk must fall back (the evaluator's cycle guard raises).
    assert classify_plan(_plan("Knows+", Restrictor.WALK, None)) is None
    # ...but the engine default bound makes it native again.
    assert classify_plan(_plan("Knows+", Restrictor.WALK, None), 4) is not None
    # Nested recursion: the inner plan is not ϕ-free.
    nested = Recursive(_plan("Knows+", Restrictor.TRAIL, 2), Restrictor.TRAIL, 2)
    assert classify_plan(nested) is None
    # A union whose right arm is not NodesScan is not the R* shape.
    assert classify_plan(Union(_plan("Knows+", Restrictor.TRAIL, 2), NodesScan())) is not None
    assert plan_supported(nested) is False


def test_classifier_sees_all_shortest_with_and_without_its_crown() -> None:
    text = "MATCH ALL SHORTEST p = (?x)-[(Knows|Likes)+]->(?y)"
    # Optimized: walk-to-shortest, then the identity crown is eliminated.
    optimized = PathQueryEngine(CORPUS[0]).explain(text, max_length=3).optimized_plan
    assert isinstance(optimized, Recursive) and optimized.restrictor is Restrictor.SHORTEST
    # The same crown left in place (only walk-to-shortest ran) is looked past.
    crowned = Optimizer([WalkToShortest()]).optimize(plan_text(text, max_length=3)).optimized
    assert isinstance(crowned, Projection)
    assert classify_plan(crowned) == classify_plan(optimized) is not None


# ---------------------------------------------------------------------------
# Selection and routing
# ---------------------------------------------------------------------------


def test_auto_routes_shortest_heavy_native_plans_to_automaton() -> None:
    graph = CORPUS[0]
    cost_model = CostModel(graph)
    assert choose_executor(_plan("(Knows|Likes)+", Restrictor.SHORTEST), cost_model) == "automaton"
    # Non-SHORTEST recursion keeps its historical choice.
    assert choose_executor(_plan("Knows+", Restrictor.TRAIL, None), cost_model) == "materialize"
    # SHORTEST-heavy but out of envelope (nested ϕ): classical routing.
    nested = Recursive(_plan("Knows+", Restrictor.TRAIL, 2), Restrictor.SHORTEST, 2)
    assert choose_executor(nested, cost_model) != "automaton"


def test_engine_accepts_automaton_executor_name() -> None:
    assert "automaton" in EXECUTOR_NAMES
    assert resolve_executor("automaton").name == "automaton"
    engine = PathQueryEngine(CORPUS[0])
    result = engine.query(
        "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="automaton"
    )
    assert result.statistics.executor == "automaton"


# ---------------------------------------------------------------------------
# Execution semantics
# ---------------------------------------------------------------------------


def test_fallback_delegates_but_keeps_attribution() -> None:
    graph = CORPUS[1]
    nested = Recursive(_plan("Knows+", Restrictor.TRAIL, 2), Restrictor.TRAIL, 2)
    via_automaton = AutomatonExecutor().execute(nested, graph)
    via_materialize = MaterializeExecutor().execute(nested, graph)
    assert via_automaton.paths == via_materialize.paths
    assert via_automaton.statistics.executor == "automaton"


def test_limit_truncates_like_the_pipeline() -> None:
    graph = CORPUS[2]
    plan = _plan("(Knows|Likes)+", Restrictor.SHORTEST)
    full = AutomatonExecutor().execute(plan, graph)
    assert full.total_paths == len(full.paths)
    limit = max(1, len(full.paths) // 2)
    cut = AutomatonExecutor().execute(plan, graph, limit=limit)
    assert len(cut.paths) == limit
    assert cut.truncated and cut.total_paths is None
    assert set(cut.paths) <= set(full.paths)


def test_frozen_graph_uses_int_product_route() -> None:
    graph = CORPUS[3].copy()
    frozen = graph.copy()
    frozen.freeze()
    plan = _plan("(Knows|Likes)+", Restrictor.SHORTEST, None)
    on_object = AutomatonExecutor().execute(plan, graph)
    on_frozen = AutomatonExecutor().execute(plan, frozen)
    assert on_object.paths == on_frozen.paths


# ---------------------------------------------------------------------------
# Streaming (the acceptance-criterion test)
# ---------------------------------------------------------------------------


def test_shortest_cursor_streams_before_closure_completes() -> None:
    """``fetchmany(k)`` returns SHORTEST rows before the closure can finish.

    The proof is by budget arithmetic: the visited cap is set low enough that
    *completing* the product search is impossible (draining the cursor raises
    ``BudgetExceeded``), yet the first rows come out fine — so they were
    produced by streaming level-completion, not by materializing the closure.
    A blocking executor fails the same fetch outright, which is also pinned.
    """
    graph = cycle_graph(24)
    engine = PathQueryEngine(graph)
    text = "MATCH ALL SHORTEST p = (?x)-[Knows+]->(?y)"

    budget = QueryBudget.from_timeout(3600.0, max_visited=120)
    cursor = engine.open_cursor(text, max_length=23, budget=budget)
    assert cursor.executor == "automaton"
    first_rows = cursor.fetchmany(4)
    assert len(first_rows) == 4
    assert all(path.len() <= 1 for path in first_rows)
    with pytest.raises(BudgetExceeded):
        cursor.fetchall()

    # The same budget on the blocking evaluator cannot produce a single row.
    blocking_budget = QueryBudget.from_timeout(3600.0, max_visited=120)
    with pytest.raises(BudgetExceeded):
        engine.open_cursor(
            text, max_length=23, executor="materialize", budget=blocking_budget
        ).fetchmany(4)


def test_shortest_cursor_drains_to_full_result() -> None:
    graph = CORPUS[4]
    engine = PathQueryEngine(graph)
    text = "MATCH ALL SHORTEST p = (?x)-[(Knows|Likes)+]->(?y)"
    streamed = engine.open_cursor(text, max_length=3).fetchall()
    eager = engine.query(text, max_length=3, executor="materialize")
    assert {p.interleaved() for p in streamed} == {
        p.interleaved() for p in eager.paths
    }


def test_shortest_cursor_close_releases_the_stream() -> None:
    engine = PathQueryEngine(CORPUS[5])
    cursor = engine.open_cursor(
        "MATCH ALL SHORTEST p = (?x)-[(Knows|Likes)+]->(?y)", max_length=3
    )
    cursor.fetchone()
    cursor.close()
    assert cursor.closed


# ---------------------------------------------------------------------------
# Fork boundary
# ---------------------------------------------------------------------------


def test_automaton_choice_survives_the_process_pool() -> None:
    from repro.service.service import QueryService

    graph = CORPUS[6]
    service = QueryService(graph, workers=1, execution_mode="processes")
    try:
        outcome = service.submit(
            "MATCH ALL SHORTEST p = (?x)-[(Knows|Likes)+]->(?y)",
            max_length=3,
            executor="automaton",
        ).result()
        assert outcome.ok, outcome.error
        assert outcome.executor == "automaton"
        assert outcome.worker.startswith("proc-")
        engine = PathQueryEngine(graph)
        expected = engine.query(
            "MATCH ALL SHORTEST p = (?x)-[(Knows|Likes)+]->(?y)",
            max_length=3,
            executor="materialize",
        )
        assert outcome.paths == expected.paths
    finally:
        service.close()
