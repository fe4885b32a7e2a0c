"""The product-graph automaton executor: shapes, parity, streaming, routing.

Complements the three-way sweeps in ``test_differential.py`` with targeted
coverage of the subsystem itself: the plan → regex decompiler and its
SHORTEST-only classifier, the explicit-only route (``auto`` never picks it),
the evaluator fallback and its attribution, limit semantics, parity across
graph encodings, the fork boundary of the process pool, and — the
acceptance-criterion test — a cursor proving
SHORTEST rows stream out *before* the closure could possibly have completed.
"""

from __future__ import annotations

import pytest

from graph_corpus import closure_corpus, frozen_twin
from repro.algebra.conditions import Comparator, prop_of_first
from repro.algebra.expressions import NodesScan, Projection, Recursive, Selection, Union
from repro.datasets.generators import complete_graph, cycle_graph
from repro.engine.automaton import AutomatonExecutor, classify_plan
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
    assert spec is not None and spec.kind == "closure" and spec.max_length == 3

    spec = classify_plan(_plan("Knows*", Restrictor.SHORTEST, None))
    assert spec is not None and spec.kind == "closure_with_nodes"

    seed = prop_of_first("name", "p1")
    spec = classify_plan(Selection(seed, _plan("Knows+", Restrictor.SHORTEST, None)))
    assert spec is not None and spec.kind == "closure" and spec.sources == seed


#: Plans the automaton once searched natively and now hands to the evaluator:
#: closures under every restrictor but SHORTEST, and ϕ-free walk matches.
NOT_NATIVE = (
    _plan("Knows+", Restrictor.TRAIL, None),
    _plan("Knows+", Restrictor.ACYCLIC, None),
    _plan("(Knows|Likes)+", Restrictor.SIMPLE, None),
    _plan("(Knows|Likes)+", Restrictor.WALK, 3),
    _plan("Knows*", Restrictor.TRAIL, None),
    Selection(prop_of_first("name", "p1"), _plan("Knows+", Restrictor.TRAIL, 3)),
    _plan("Knows/Likes", Restrictor.WALK, None),
)


def test_classifier_rejects_out_of_envelope_plans() -> None:
    for plan in NOT_NATIVE:
        assert classify_plan(plan) is None, str(plan)
        assert classify_plan(plan, 4) is None, str(plan)
    # Nested recursion: the inner plan is not ϕ-free.
    nested = Recursive(_plan("Knows+", Restrictor.TRAIL, 2), Restrictor.SHORTEST, 2)
    assert classify_plan(nested) is None
    # A union whose right arm is not NodesScan is not the R* shape.
    assert classify_plan(Union(_plan("Knows+", Restrictor.SHORTEST, 2), NodesScan())) is not None
    assert classify_plan(Union(_plan("Knows+", Restrictor.SHORTEST, 2), _plan("Likes", Restrictor.WALK))) is None


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


def test_auto_never_routes_to_the_automaton() -> None:
    """Native ϕShortest shapes route like every other plan: drained → materialize, limited → pipeline."""
    engine = PathQueryEngine(CORPUS[0])
    for plan in SHORTEST_SHAPES:
        assert classify_plan(plan) is not None
        assert choose_executor(plan) == "materialize"
        assert choose_executor(plan, 10) == "pipeline"
        assert engine.query_plan(plan).executor == "materialize"
        assert engine.query_plan(plan, limit=3).executor == "pipeline"
    text = "MATCH ALL SHORTEST p = (?x)-[(Knows|Likes)+]->(?y)"
    assert engine.open_cursor(text, max_length=3).executor == "pipeline"
    assert engine.explain(text, max_length=3).chosen_executor == "materialize"


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
    for plan in (nested,) + NOT_NATIVE:
        via_automaton = AutomatonExecutor().execute(plan, graph)
        via_materialize = MaterializeExecutor().execute(plan, graph)
        assert via_automaton.paths.paths() == via_materialize.paths.paths(), str(plan)
        assert via_automaton.statistics.executor == "automaton"
        # The evaluator ran: its operator rows, not the product search's.
        assert via_automaton.statistics.operator_calls == via_materialize.statistics.operator_calls
        assert "automaton-product" not in via_automaton.statistics.operator_calls
        assert AutomatonExecutor().stream(plan, graph) is None


def test_explicit_automaton_runs_non_shortest_texts_through_the_evaluator() -> None:
    engine = PathQueryEngine(CORPUS[2])
    for text in (
        "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)",
        "MATCH ALL ACYCLIC p = (?x)-[(Knows|Likes)+]->(?y)",
        "MATCH ALL SIMPLE p = (?x)-[Knows/Likes]->(?y)",
    ):
        got = engine.query(text, executor="automaton")
        expected = engine.query(text, executor="materialize")
        assert got.statistics.executor == "automaton"
        assert got.paths.paths() == expected.paths.paths(), text


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


def _encodings(graph: PropertyGraph) -> dict[str, object]:
    """The same graph as mutable, frozen, pinned snapshot and snapshot over a core."""
    written = graph.copy()
    pinned = written.snapshot()
    nodes = written.node_ids()
    written.add_edge("late", nodes[0], nodes[-1], "Knows")
    return {
        "mutable": graph,
        "frozen": frozen_twin(graph),
        "snapshot": pinned,
        "snapshot-over-core": frozen_twin(graph).snapshot(),
    }


#: The three shapes the automaton searches natively: plain, seeded and ``R*``.
SHORTEST_SHAPES = (
    _plan("(Knows|Likes)+", Restrictor.SHORTEST, None),
    Selection(prop_of_first("name", "p0", Comparator.NE), _plan("Knows+", Restrictor.SHORTEST, None)),
    _plan("Knows*", Restrictor.SHORTEST, None),
)


@pytest.mark.parametrize("index", (0, 11, 24, 44, 48))
def test_shortest_rows_are_the_same_on_every_encoding(index: int) -> None:
    """One product walker: same rows in the same order whatever the graph's encoding."""
    encodings = _encodings(CORPUS[index])
    for plan in SHORTEST_SHAPES:
        assert classify_plan(plan) is not None
        rows = {
            name: [path.interleaved() for path in AutomatonExecutor().execute(plan, target).paths]
            for name, target in encodings.items()
        }
        assert rows["mutable"], str(plan)
        for name, got in rows.items():
            assert got == rows["mutable"], (str(plan), name)


@pytest.mark.parametrize("max_visited", (1, 40, 150))
def test_shortest_budget_kill_is_the_same_on_every_encoding(max_visited: int) -> None:
    encodings = _encodings(complete_graph(6))
    for plan in SHORTEST_SHAPES:
        kills = {}
        for name, target in encodings.items():
            budget = QueryBudget(max_visited=max_visited)
            with pytest.raises(BudgetExceeded) as excinfo:
                AutomatonExecutor().execute(plan, target, budget=budget)
            error = excinfo.value
            kills[name] = (error.reason, error.stopped_at, error.depth_reached, error.paths_visited)
        assert kills["mutable"][0] == "max_visited", str(plan)
        assert len(set(kills.values())) == 1, (str(plan), kills)


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
    cursor = engine.open_cursor(text, max_length=23, executor="automaton", budget=budget)
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


def test_pipeline_shortest_cursor_streams_before_closure_completes() -> None:
    """The closure kernel's ϕShortest streams too: the same budget proof, pipeline executor.

    The heap pops in non-decreasing length, so every popped path that
    survives domination is final and leaves the kernel at once.
    """
    _assert_pipeline_cursor_streams(executor="pipeline")


def test_auto_shortest_cursor_streams_through_the_pipeline() -> None:
    """The ``auto`` twin: a cursor can stop at any fetch, so ``auto`` streams it."""
    _assert_pipeline_cursor_streams(executor=None)


def _assert_pipeline_cursor_streams(executor: str | None) -> None:
    engine = PathQueryEngine(cycle_graph(24))
    text = "MATCH ALL SHORTEST p = (?x)-[Knows+]->(?y)"
    budget = QueryBudget.from_timeout(3600.0, max_visited=120)
    cursor = engine.open_cursor(text, max_length=23, executor=executor, budget=budget)
    assert cursor.executor == "pipeline"
    first_rows = cursor.fetchmany(4)
    assert len(first_rows) == 4
    assert all(path.len() == 1 for path in first_rows)
    with pytest.raises(BudgetExceeded):
        cursor.fetchall()


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
