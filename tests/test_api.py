"""Tests for the client API: ``connect`` / Database / Session / PreparedQuery / ResultCursor.

Four contracts are locked down here:

* **Facade behavior** — sessions pin snapshots, defaults apply and override,
  lifecycles are enforced, the service shares the database's plan cache.
* **Parameterized prepared queries** — ``$name`` placeholders thread from the
  lexer to the plan; fifty distinct bindings of one prepared text incur
  exactly one parse/plan/optimize (the acceptance criterion) and never serve
  each other's results.
* **Cursor parity** — ``fetchmany`` / ``fetchall`` / iteration over the
  50-graph corpus is identical to ``engine.query(...).paths`` for both
  executors, including LIMIT pushdown and mid-stream ``BudgetExceeded``.
* **Bounded streaming** — a pipeline cursor consuming a handful of rows of a
  huge walk query does a correspondingly small amount of work (the other
  acceptance criterion), verified through ``ExecutionStatistics``.
"""

from __future__ import annotations

import pytest

import repro
from graph_corpus import closure_corpus
from repro.api import Database, PreparedQuery, Session, connect
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import cycle_graph
from repro.engine.engine import PathQueryEngine
from repro.errors import (
    BudgetExceeded,
    GQLSyntaxError,
    NonTerminatingQueryError,
    ParameterError,
    ServiceError,
)
from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph

PARAM_QUERY = 'MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[:Knows]->+(?y)'
CONSTANT_QUERY = 'MATCH ANY SHORTEST TRAIL p = (?x {{name: "{value}"}})-[:Knows]->+(?y)'

CORPUS: list[PropertyGraph] = closure_corpus()

#: Queries swept over the corpus by the cursor-parity suite: a streaming
#: join shape, every-restrictor recursion, and the selector pipelines.
PARITY_QUERIES = (
    "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)",
    "MATCH ALL ACYCLIC p = (?x)-[Knows*]->(?y)",
    "MATCH ALL WALK p = (?x)-[Knows+]->(?y)",
    "MATCH ANY SHORTEST TRAIL p = (?x)-[Knows+]->(?y)",
)
PARITY_BOUND = 4


def rendering(paths) -> list[str]:
    """Canonical sorted rendering used for byte-identical comparisons."""
    return sorted(str(path) for path in paths)


@pytest.fixture
def db() -> Database:
    return connect(figure1_graph())


class TestConnect:
    def test_connect_returns_database(self, db) -> None:
        assert isinstance(db, Database)
        assert db.graph.name == "figure1"

    def test_connect_without_graph_starts_empty(self) -> None:
        db = connect()
        assert db.graph.num_nodes() == 0
        db.graph.add_node("a", "Person")
        assert db.graph.num_nodes() == 1

    def test_connect_rejects_unknown_executor(self) -> None:
        with pytest.raises(ValueError, match="unknown executor"):
            connect(figure1_graph(), executor="quantum")

    def test_close_is_idempotent_and_final(self, db) -> None:
        db.close()
        db.close()
        with pytest.raises(ServiceError, match="closed"):
            db.session()
        with pytest.raises(ServiceError, match="closed"):
            db.execute("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")

    def test_context_manager_closes(self) -> None:
        with connect(figure1_graph()) as db:
            assert not db.closed
        assert db.closed

    def test_database_execute_returns_open_cursor(self, db) -> None:
        cursor = db.execute("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert not cursor.closed
        assert len(cursor.fetchall()) == 4

    def test_database_query_materializes(self, db) -> None:
        result = db.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert len(result.paths) == 4

    def test_snapshot_pins_the_live_version(self, db) -> None:
        snapshot = db.snapshot()
        assert snapshot.version == db.graph.version


class TestSession:
    def test_session_pins_version_at_open(self, db) -> None:
        with db.session() as session:
            pinned = session.version
            before = rendering(session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").paths)
            db.graph.add_node("nx", "Person", {"name": "New"})
            db.graph.add_edge("ex", "n1", "nx", "Knows")
            after = rendering(session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").paths)
            assert session.version == pinned
            assert after == before
        with db.session() as fresh:
            assert fresh.version > pinned
            grown = rendering(fresh.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").paths)
            assert len(grown) == len(before) + 1

    def test_session_default_limit_applies_and_overrides(self, db) -> None:
        with db.session(limit=2) as session:
            assert session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").truncated
            assert len(session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")) == 2
            # Per-call override wins; explicit None clears the default.
            assert len(session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", limit=3)) == 3
            assert len(session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", limit=None)) == 4

    def test_session_default_executor(self, db) -> None:
        with db.session(executor="pipeline") as session:
            cursor = session.execute("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
            assert cursor.executor == "pipeline"
            cursor.close()

    def test_session_timeout_budget_kills(self, db) -> None:
        with db.session(timeout=0.0) as session:
            with pytest.raises(BudgetExceeded):
                session.query("MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)")

    def test_closed_session_rejects_queries(self, db) -> None:
        session = db.session()
        session.close()
        with pytest.raises(ServiceError, match="closed"):
            session.execute("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")

    def test_closing_session_closes_open_cursors(self, db) -> None:
        session = db.session()
        cursor = session.execute("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        assert cursor.fetchone() is not None
        session.close()
        assert cursor.closed
        assert cursor.fetchone() is None

    def test_session_explain(self, db) -> None:
        with db.session() as session:
            explanation = session.explain("MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)")
            assert "Optimized plan" in explanation.render()


class TestParameterParsing:
    def test_parameters_collected_in_order(self) -> None:
        query = repro.parse_query(
            'MATCH ALL TRAIL p = (?x {name: $a})-[Knows]->(?y {name: $b}) '
            'WHERE x.last_name = $c OR y.name = $a'
        )
        assert query.parameters == ("a", "b", "c")

    def test_parameter_in_edge_pattern_rejected(self) -> None:
        with pytest.raises(GQLSyntaxError, match="edge pattern"):
            repro.parse_query("MATCH ALL TRAIL p = (?x)-[$label]->(?y)")

    def test_bare_dollar_rejected(self) -> None:
        with pytest.raises(GQLSyntaxError, match="parameter name"):
            repro.parse_query("MATCH ALL TRAIL p = (?x {name: $})-[Knows]->(?y)")

    def test_numeric_parameter_name_rejected(self) -> None:
        with pytest.raises(GQLSyntaxError, match="parameter name"):
            repro.parse_query("MATCH ALL TRAIL p = (?x {name: $1})-[Knows]->(?y)")


class TestParameterBindingValidation:
    def test_missing_binding_raises(self, db) -> None:
        with db.session() as session:
            with pytest.raises(ParameterError, match=r"missing binding\(s\) for \$name"):
                session.query(PARAM_QUERY)

    def test_unknown_binding_raises(self, db) -> None:
        with db.session() as session:
            with pytest.raises(ParameterError, match=r"unknown parameter\(s\) \$who"):
                session.query(PARAM_QUERY, {"name": "Moe", "who": "?"})

    def test_bindings_for_parameterless_query_raise(self, db) -> None:
        with db.session() as session:
            with pytest.raises(ParameterError, match="declares no parameters"):
                session.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", {"name": "Moe"})

    def test_engine_shim_accepts_params_directly(self) -> None:
        engine = PathQueryEngine(figure1_graph())
        result = engine.query(PARAM_QUERY, params={"name": "Moe"})
        assert len(result.paths) == 3


class TestPreparedQuery:
    def test_prepare_reports_parameters(self, db) -> None:
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            assert prepared.parameters == ("name",)
            assert isinstance(prepared, PreparedQuery)

    def test_bindings_match_constant_substitution(self, db) -> None:
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            for value in ("Moe", "Lisa", "Bart", "Apu", "Nobody"):
                bound = rendering(prepared.execute(name=value).fetchall())
                constant = rendering(
                    session.query(CONSTANT_QUERY.format(value=value)).paths
                )
                assert bound == constant, value

    def test_mapping_and_keyword_bindings_are_equivalent(self, db) -> None:
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            by_mapping = rendering(prepared.execute({"name": "Moe"}).fetchall())
            by_keyword = rendering(prepared.execute(name="Moe").fetchall())
            assert by_mapping == by_keyword

    def test_fifty_bindings_share_one_plan(self, db) -> None:
        """Acceptance: 50 distinct bindings, exactly one parse/plan/optimize."""
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            misses_after_prepare = db.plan_cache.misses
            hits_before = db.plan_cache.hits
            for index in range(50):
                prepared.execute(name=f"binding-{index}").fetchall()
            assert db.plan_cache.misses == misses_after_prepare  # zero re-plans
            assert db.plan_cache.hits - hits_before >= 49

    def test_distinct_bindings_never_collide(self, db) -> None:
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            moe = rendering(prepared.execute(name="Moe").fetchall())
            lisa = rendering(prepared.execute(name="Lisa").fetchall())
            moe_again = rendering(prepared.execute(name="Moe").fetchall())
            assert moe != lisa
            assert moe == moe_again

    def test_prepared_query_works_on_both_executors(self, db) -> None:
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            results = {
                executor: rendering(
                    session.execute(PARAM_QUERY, {"name": "Moe"}, executor=executor).fetchall()
                )
                for executor in ("materialize", "pipeline")
            }
            assert results["materialize"] == results["pipeline"]
            assert prepared.parameters == ("name",)

    def test_database_prepare_follows_live_graph(self, db) -> None:
        prepared = db.prepare('MATCH ALL TRAIL p = (?x {name: $name})-[Knows]->(?y)')
        before = len(prepared.execute(name="Moe").fetchall())
        db.graph.add_node("nx", "Person", {"name": "Moe"})
        db.graph.add_edge("ex", "nx", "n2", "Knows")
        after = len(prepared.execute(name="Moe").fetchall())
        assert after == before + 1


class TestResultCursor:
    QUERY = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"

    def test_fetch_surface(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(self.QUERY)
            first = cursor.fetchone()
            assert first is not None
            two = cursor.fetchmany(2)
            assert len(two) == 2
            rest = cursor.fetchall()
            assert cursor.rows_returned == 1 + 2 + len(rest) == 4
            assert cursor.closed
            assert cursor.fetchone() is None
            assert cursor.fetchmany(3) == []
            assert cursor.fetchall() == []

    def test_iteration_is_lazy_and_single_pass(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(self.QUERY)
            seen = [str(path) for path in cursor]
            assert len(seen) == 4
            assert list(cursor) == []  # exhausted

    def test_fetchmany_rejects_negative(self, db) -> None:
        cursor = db.execute(self.QUERY)
        with pytest.raises(ValueError):
            cursor.fetchmany(-1)

    def test_bindings_rows_and_table(self, db) -> None:
        with db.session() as session:
            rows = list(session.execute(self.QUERY).bindings())
            assert len(rows) == 4
            assert {row.labels for row in rows} == {("Knows",)}
            table = session.execute(self.QUERY).to_table()
            assert len(table) == 4
            assert sorted(row.to_dict()["source"] for row in table)[0] == "n1"

    def test_context_manager_and_idempotent_close(self, db) -> None:
        with db.execute(self.QUERY) as cursor:
            assert cursor.fetchone() is not None
        assert cursor.closed
        cursor.close()

    def test_metadata_finalizes_on_exhaustion(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(self.QUERY, executor="pipeline")
            assert cursor.elapsed_seconds == 0.0
            cursor.fetchall()
            assert cursor.truncated is False
            assert cursor.total_paths == 4
            assert cursor.elapsed_seconds > 0.0
            assert cursor.statistics.executor == "pipeline"
            assert cursor.graph_version == session.version

    def test_pipeline_limit_truncation_probe(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(self.QUERY, executor="pipeline", limit=2)
            assert len(cursor.fetchall()) == 2
            assert cursor.truncated is True
            assert cursor.total_paths is None
            exact = session.execute(self.QUERY, executor="pipeline", limit=4)
            assert len(exact.fetchall()) == 4
            assert exact.truncated is False
            assert exact.total_paths == 4

    def test_materialize_limit_reports_total(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(self.QUERY, executor="materialize", limit=2)
            assert len(cursor.fetchall()) == 2
            assert cursor.truncated is True
            assert cursor.total_paths == 4

    def test_abandoned_pipeline_cursor_has_unknown_truncation(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(self.QUERY, executor="pipeline")
            cursor.fetchone()
            cursor.close()
            assert cursor.truncated is None

    def test_cache_hit_flag(self, db) -> None:
        with db.session() as session:
            first = session.execute(self.QUERY)
            first.fetchall()
            second = session.execute(self.QUERY)
            second.fetchall()
            assert not first.cache_hit
            assert second.cache_hit

    def test_max_results_budget_trips_on_fetch(self, db) -> None:
        with db.session(max_results=2) as session:
            cursor = session.execute(self.QUERY, executor="pipeline")
            assert len(cursor.fetchmany(2)) == 2
            with pytest.raises(BudgetExceeded, match="max_results"):
                cursor.fetchone()
            assert cursor.closed


class TestCursorThreadSafety:
    """close() from any thread, any number of times — the network front-end's
    teardown contract (the event loop reclaims a cursor while an executor
    thread is suspended inside ``fetchmany``)."""

    LONG_WALK = "MATCH ALL WALK p = (?x)-[Knows]->*(?y)"

    def test_double_close_is_idempotent(self, db) -> None:
        cursor = db.execute("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        cursor.fetchone()
        cursor.close()
        cursor.close()
        cursor.close()
        assert cursor.closed

    def test_concurrent_close_from_many_threads(self) -> None:
        import threading

        db = connect(cycle_graph(8))
        try:
            with db.session() as session:
                cursor = session.execute(
                    self.LONG_WALK, executor="pipeline", max_length=600
                )
                cursor.fetchmany(16)
                errors: list[BaseException] = []

                def slam() -> None:
                    try:
                        cursor.close()
                    except BaseException as exc:  # pragma: no cover - the bug
                        errors.append(exc)

                threads = [threading.Thread(target=slam) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert errors == []
                assert cursor.closed
                # Statistics finalized exactly once, to the pre-close count.
                assert cursor.rows_returned == 16
        finally:
            db.close()

    def test_close_during_fetchmany_returns_partial_batch(self) -> None:
        """A close racing a suspended fetchmany must neither raise nor hang:
        the fetch hands back whatever it had pulled so far."""
        import threading
        import time

        db = connect(cycle_graph(8))
        try:
            with db.session() as session:
                cursor = session.execute(
                    self.LONG_WALK, executor="pipeline", max_length=600
                )
                outcome: dict = {}

                def pull() -> None:
                    try:
                        outcome["rows"] = cursor.fetchmany(100_000)
                    except BaseException as exc:  # pragma: no cover - the bug
                        outcome["error"] = exc

                puller = threading.Thread(target=pull)
                puller.start()
                time.sleep(0.02)  # let the fetch get mid-flight
                cursor.close()
                puller.join(timeout=10)
                assert not puller.is_alive()
                assert "error" not in outcome
                assert isinstance(outcome["rows"], list)
                assert cursor.closed
        finally:
            db.close()

    def test_close_unblocks_repeated_fetch_loop(self) -> None:
        """A reader looping fetchmany sees a clean end-of-stream (empty
        batch), not an exception, after another thread closes the cursor."""
        import threading

        db = connect(cycle_graph(8))
        try:
            with db.session() as session:
                cursor = session.execute(
                    self.LONG_WALK, executor="pipeline", max_length=600
                )
                stopped = threading.Event()

                def reader() -> None:
                    while cursor.fetchmany(64):
                        pass
                    stopped.set()

                thread = threading.Thread(target=reader)
                thread.start()
                cursor.close()
                assert stopped.wait(timeout=10)
                thread.join(timeout=10)
        finally:
            db.close()


class TestCursorParity:
    """fetchmany/fetchall/iterator over the corpus == engine.query(...).paths."""

    @pytest.mark.parametrize("graph", CORPUS, ids=lambda graph: graph.name)
    def test_cursor_matches_query_on_corpus(self, graph: PropertyGraph) -> None:
        db = connect(graph, default_max_length=PARITY_BOUND)
        engine = PathQueryEngine(graph, default_max_length=PARITY_BOUND, plan_cache_size=0)
        with db.session(max_length=PARITY_BOUND) as session:
            for text in PARITY_QUERIES:
                for executor in ("materialize", "pipeline"):
                    expected = rendering(
                        engine.query(text, max_length=PARITY_BOUND, executor=executor).paths
                    )
                    drained = rendering(
                        session.execute(text, executor=executor).fetchall()
                    )
                    assert drained == expected, (graph.name, text, executor, "fetchall")
                    iterated = rendering(session.execute(text, executor=executor))
                    assert iterated == expected, (graph.name, text, executor, "iter")
                    chunks: list = []
                    chunked = session.execute(text, executor=executor)
                    while True:
                        batch = chunked.fetchmany(3)
                        if not batch:
                            break
                        chunks.extend(batch)
                    assert rendering(chunks) == expected, (graph.name, text, executor, "fetchmany")

    @pytest.mark.parametrize("graph", CORPUS[:10], ids=lambda graph: graph.name)
    def test_cursor_limit_matches_query_limit(self, graph: PropertyGraph) -> None:
        db = connect(graph, default_max_length=PARITY_BOUND)
        engine = PathQueryEngine(graph, default_max_length=PARITY_BOUND, plan_cache_size=0)
        text = "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)"
        for executor in ("materialize", "pipeline"):
            for limit in (0, 1, 3, 1000):
                expected = engine.query(
                    text, max_length=PARITY_BOUND, executor=executor, limit=limit
                )
                cursor = db.execute(
                    text, executor=executor, limit=limit, max_length=PARITY_BOUND
                )
                got = cursor.fetchall()
                assert rendering(got) == rendering(expected.paths), (graph.name, executor, limit)
                assert cursor.truncated == expected.truncated, (graph.name, executor, limit)

    def test_mid_stream_budget_exceeded_parity(self) -> None:
        """A visited-paths cap kills the cursor mid-stream exactly like query()."""
        graph = cycle_graph(6)
        db = connect(graph)
        text = "MATCH ALL WALK p = (?x)-[Knows]->*(?y)"
        with db.session(max_length=12) as session:
            with pytest.raises(BudgetExceeded):
                session.query(text, max_visited=40)
            cursor = session.execute(text, executor="pipeline", max_visited=40)
            with pytest.raises(BudgetExceeded) as info:
                cursor.fetchall()
            assert cursor.closed
            assert info.value.reason == "max_visited"
            # Partial progress was finalized into the cursor's statistics.
            assert cursor.statistics.budget_paths_visited > 0
            assert cursor.statistics.budget_stopped_at != ""


class TestOrderByOrdering:
    ORDERED_QUERY = (
        "MATCH ALL PARTITIONS ALL GROUPS ALL PATHS TRAIL p = "
        "(?x)-[Knows/Likes | Likes]->(?y) GROUP BY TARGET ORDER BY PATH"
    )

    def test_order_by_order_is_identical_across_executors(self, db) -> None:
        """ORDER BY defines a caller-visible order; streaming must not drop it.

        Regression: the solution-space pass-through must block on OrderBy —
        a cursor/jsonl consumer of an ORDER BY query gets the τ-ordering
        whichever executor runs the plan.
        """
        with db.session() as session:
            materialized = [str(p) for p in session.query(self.ORDERED_QUERY, executor="materialize").paths]
            pipelined = [str(p) for p in session.query(self.ORDERED_QUERY, executor="pipeline").paths]
            streamed = [str(p) for p in session.execute(self.ORDERED_QUERY, executor="pipeline")]
        assert pipelined == materialized  # ordered lists, not just sets
        assert streamed == materialized

    def test_all_selector_still_streams(self, db) -> None:
        """The GQL ALL selector (no ORDER BY) keeps the bounded-memory path."""
        with db.session() as session:
            cursor = session.execute(
                "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="pipeline"
            )
            cursor.fetchmany(2)
            bounded = cursor.statistics.intermediate_paths
            cursor.close()
            full = session.query(
                "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="pipeline"
            ).statistics.intermediate_paths
        assert bounded < full


class TestCursorResourceRelease:
    def test_limit_stop_closes_the_pipeline_source(self, db) -> None:
        """A limit-stopped cursor unwinds the suspended generator chain."""
        with db.session() as session:
            cursor = session.execute(
                "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="pipeline", limit=2
            )
            assert len(cursor.fetchall()) == 2
            assert cursor.closed
            assert cursor._source.gi_frame is None  # generator actually closed

    def test_explicit_close_closes_the_pipeline_source(self, db) -> None:
        with db.session() as session:
            cursor = session.execute(
                "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)", executor="pipeline"
            )
            cursor.fetchone()
            cursor.close()
            assert cursor._source.gi_frame is None

    def test_budget_kill_closes_the_pipeline_source(self) -> None:
        db = connect(cycle_graph(6))
        with db.session(max_length=12) as session:
            cursor = session.execute(
                "MATCH ALL WALK p = (?x)-[Knows]->*(?y)",
                executor="pipeline",
                max_visited=40,
            )
            with pytest.raises(BudgetExceeded):
                cursor.fetchall()
            assert cursor._source.gi_frame is None


class TestBoundedStreaming:
    """Acceptance: a pipeline cursor pulling few rows does little work."""

    def test_fetchmany_of_huge_walk_is_bounded(self) -> None:
        graph = cycle_graph(6)
        text = "MATCH ALL WALK p = (?x)-[Knows]->*(?y)"
        db = connect(graph, default_max_length=18)
        with db.session() as session:
            cursor = session.execute(text, executor="pipeline")
            assert len(cursor.fetchmany(5)) == 5
            streamed_work = cursor.statistics.intermediate_paths
            cursor.close()
            full = session.query(text, executor="pipeline")
            full_work = full.statistics.intermediate_paths
        assert len(full.paths) > 100
        # The cursor's peak visited-paths counter is bounded: a small
        # multiple of the rows fetched, nowhere near the full evaluation.
        assert streamed_work < full_work / 5
        assert streamed_work <= 5 * (graph.num_edges() + graph.num_nodes() + 5)

    def test_unbounded_walk_streams_where_query_cannot(self) -> None:
        """A cyclic unbounded WALK is infinite — yet a cursor can sip from it."""
        graph = cycle_graph(4)
        db = connect(graph)
        text = "MATCH ALL WALK p = (?x)-[Knows]->*(?y)"
        with pytest.raises(NonTerminatingQueryError):
            db.query(text, executor="pipeline")
        cursor = db.execute(text, executor="pipeline")
        first = cursor.fetchmany(4)
        assert len(first) == 4
        cursor.close()

    def test_streamed_rows_prefix_full_result(self) -> None:
        graph = cycle_graph(5)
        db = connect(graph, default_max_length=10)
        text = "MATCH ALL TRAIL p = (?x)-[Knows]->+(?y)"
        with db.session() as session:
            streamed = [str(p) for p in session.execute(text, executor="pipeline").fetchmany(7)]
            full = {str(p) for p in session.query(text, executor="pipeline").paths}
        assert set(streamed) <= full
        assert len(streamed) == len(set(streamed)) == 7


class TestDatabaseService:
    def test_service_shares_plan_cache(self, db) -> None:
        with db.session() as session:
            session.prepare(PARAM_QUERY)
        service = db.service(workers=0)
        outcome = service.submit(PARAM_QUERY, params={"name": "Moe"}).result()
        assert outcome.ok
        assert outcome.plan_cache_hit  # prepared through the session, hit in the service
        db.close()

    def test_service_is_created_once(self, db) -> None:
        assert db.service(workers=0) is db.service(workers=2)
        db.close()

    def test_database_submit_convenience(self, db) -> None:
        db.service(workers=0)
        outcome = db.submit("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").result()
        assert outcome.ok and len(outcome) == 4
        db.close()

    def test_close_closes_service(self, db) -> None:
        service = db.service(workers=1)
        db.close()
        with pytest.raises(ServiceError):
            service.submit("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")


class TestPublicSurfaceIntegration:
    def test_top_level_quickstart_shape(self) -> None:
        db = repro.connect(repro.figure1_graph())
        with db.session() as session:
            prepared = session.prepare(PARAM_QUERY)
            paths = [str(path) for path in prepared.execute(name="Moe")]
        assert paths
        assert all(path.startswith("(n1") for path in paths)

    def test_bind_paths_exported(self) -> None:
        db = repro.connect(repro.figure1_graph())
        result = db.query("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)")
        table = repro.bind_paths(result.paths)
        assert isinstance(table, repro.BindingTable)
        assert all(isinstance(row, repro.PathBinding) for row in table)
