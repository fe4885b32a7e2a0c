"""Pickle round-trips for every object that crosses the process boundary.

The process pool (``repro.service.procpool``) ships tasks, results, budget
kills and footprints between the parent and its worker processes.  Anything
that silently loses information under pickling corrupts cross-process
results *without failing* — the classic example being an exception class
whose default ``__reduce__`` replays ``cls(*args)`` and thereby feeds the
formatted message back into a typed field.  This suite locks every wire
type down.
"""

from __future__ import annotations

import pickle

import pytest

from repro.datasets.figure1 import figure1_graph
from repro.engine.engine import PathQueryEngine
from repro.engine.footprint import plan_footprint
from repro.errors import BudgetExceeded, FrozenGraphError
from repro.execution import ExecutionStatistics, QueryBudget
from repro.graph.compact import CompactGraph
from repro.graph.snapshot import GraphSnapshot
from repro.paths.intpath import IntPath
from repro.service import QueryService
from repro.service.procpool import WorkerDied, decode_paths, encode_paths

QUERY = "MATCH ALL ACYCLIC p = (?x)-[Knows+]->(?y)"


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _canonical(paths) -> tuple[str, ...]:
    return tuple(str(path) for path in paths.sorted())


class TestGraphPickling:
    def test_property_graph_round_trips_with_identical_answers(self) -> None:
        graph = figure1_graph()
        expected = _canonical(PathQueryEngine(graph).query(QUERY).paths)
        clone = roundtrip(graph)
        assert clone.version == graph.version
        assert clone.node_ids() == graph.node_ids()
        assert _canonical(PathQueryEngine(clone).query(QUERY).paths) == expected

    def test_unpickled_graph_is_independently_mutable(self) -> None:
        graph = figure1_graph()
        clone = roundtrip(graph)
        clone.add_node("only-in-clone", "Person")
        assert "only-in-clone" in clone.node_ids()
        assert "only-in-clone" not in graph.node_ids()
        assert graph.version == clone.version - 1

    def test_snapshot_round_trips_pinned_and_frozen(self) -> None:
        graph = figure1_graph()
        snapshot = graph.snapshot()
        graph.add_node("after-pin", "Person")
        clone = roundtrip(snapshot)
        assert clone.version == snapshot.version
        assert "after-pin" not in clone.node_ids()
        with pytest.raises(FrozenGraphError):
            clone.add_node("nope", "Person")

    def test_endpoint_index_is_not_shipped(self) -> None:
        """The endpoint-equality index is a derived cache like the core: an
        indexed query leaves it on the graph, the clone starts without it and
        builds its own on its first anchored query, with the same answers."""
        anchored = 'MATCH ALL TRAIL p = (?x {name: "Moe"})-[Knows]->+(?y)'
        for graph in (figure1_graph(), figure1_graph().freeze()):
            expected = [str(p) for p in PathQueryEngine(graph).query(anchored).paths]
            assert graph._property_index[1]
            clone = roundtrip(graph)
            assert clone._property_index == (-1, {})
            assert [str(p) for p in PathQueryEngine(clone).query(anchored).paths] == expected
            assert list(clone._property_index[1]) == ["name"]
        compact = figure1_graph().ensure_compact()
        expected = [str(p) for p in PathQueryEngine(compact).query(anchored).paths]
        assert compact._property_index
        clone = roundtrip(compact)
        assert clone._property_index == {}
        assert [str(p) for p in PathQueryEngine(clone).query(anchored).paths] == expected

    def test_wire_path_encoding_round_trips(self) -> None:
        graph = figure1_graph()
        paths = PathQueryEngine(graph).query(QUERY).paths
        decoded = decode_paths(graph, encode_paths(paths))
        assert _canonical(decoded) == _canonical(paths)


class TestCompactPickling:
    def test_compact_graph_round_trips_with_identical_answers(self) -> None:
        graph = figure1_graph()
        expected = _canonical(PathQueryEngine(graph).query(QUERY).paths)
        compact = graph.ensure_compact()
        clone = roundtrip(compact)
        assert isinstance(clone, CompactGraph)
        assert clone.version == compact.version
        assert clone.node_ids() == compact.node_ids()
        assert clone.edge_ids() == compact.edge_ids()
        # The lazy object memos are dropped by __getstate__ and rebuilt on
        # demand: querying the clone directly must reproduce the answers.
        assert _canonical(PathQueryEngine(clone).query(QUERY).paths) == expected

    def test_compact_clone_preserves_csr_adjacency(self) -> None:
        compact = figure1_graph().ensure_compact()
        clone = roundtrip(compact)
        for node_id in compact.node_ids():
            assert [e.id for e in clone.out_edges(node_id)] == [
                e.id for e in compact.out_edges(node_id)
            ]
            assert [e.id for e in clone.in_edges(node_id)] == [
                e.id for e in compact.in_edges(node_id)
            ]

    def test_compact_clone_stays_immutable(self) -> None:
        clone = roundtrip(figure1_graph().ensure_compact())
        with pytest.raises(FrozenGraphError):
            clone.add_node("nope", "Person")

    def test_frozen_property_graph_round_trips_thawed_core(self) -> None:
        """The compact core is a derived cache: it is NOT shipped with the
        graph (the pool ships a ``CompactGraph`` explicitly instead), so the
        clone rebuilds it on demand and answers identically."""
        graph = figure1_graph()
        graph.freeze()
        clone = roundtrip(graph)
        assert clone.compact_core() is None
        assert clone.ensure_compact().node_ids() == graph.node_ids()

    def test_int_path_round_trips_and_decodes(self) -> None:
        graph = figure1_graph()
        compact = graph.ensure_compact()
        path = next(iter(PathQueryEngine(graph).query(QUERY).paths))
        clone = roundtrip(IntPath.encode(compact, path))
        assert clone.seq == IntPath.encode(compact, path).seq
        assert str(clone.decode(graph)) == str(path)


class TestResultPickling:
    def test_query_result_round_trips(self) -> None:
        graph = figure1_graph()
        result = PathQueryEngine(graph).query(QUERY)
        clone = roundtrip(result)
        assert clone.executor == result.executor
        assert _canonical(clone.paths) == _canonical(result.paths)

    def test_execution_statistics_round_trip_preserves_counters(self) -> None:
        graph = figure1_graph()
        statistics = PathQueryEngine(graph).query(QUERY).statistics
        clone = roundtrip(statistics)
        assert clone == statistics

    def test_query_footprint_round_trips(self) -> None:
        graph = figure1_graph()
        plan = PathQueryEngine(graph).prepare(QUERY).optimized
        footprint = plan_footprint(plan)
        clone = roundtrip(footprint)
        assert clone == footprint

    def test_optimized_plan_round_trips_and_still_executes(self) -> None:
        graph = figure1_graph()
        engine = PathQueryEngine(graph)
        cached = engine.prepare(QUERY)
        plan = roundtrip(cached.optimized)
        from repro.engine.executor import MaterializeExecutor

        expected = _canonical(engine.query(QUERY).paths)
        assert _canonical(MaterializeExecutor().execute(plan, graph).paths) == expected


class TestBudgetExceededPickling:
    def test_typed_fields_survive_the_boundary(self) -> None:
        """The regression the custom ``__reduce__`` exists for.

        Default exception pickling would reconstruct with the *formatted
        message* as ``reason`` and zeros for the partial progress — exactly
        the corruption a worker's budget kill would exhibit in the parent.
        """
        original = BudgetExceeded(
            "max_visited", paths_visited=123, depth_reached=7, stopped_at="phi-loop"
        )
        clone = roundtrip(original)
        assert clone.reason == "max_visited"
        assert clone.paths_visited == 123
        assert clone.depth_reached == 7
        assert clone.stopped_at == "phi-loop"
        assert str(clone) == str(original)

    def test_cancelled_reason_round_trips(self) -> None:
        clone = roundtrip(BudgetExceeded("cancelled", 1, 2, "pipeline"))
        assert clone.reason == "cancelled"

    def test_budget_kill_raised_through_pickle_is_catchable(self) -> None:
        budget = QueryBudget(max_visited=1)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge(5, "test-loop")
        clone = roundtrip(excinfo.value)
        assert clone.reason == "max_visited"
        assert clone.paths_visited >= 1


class TestServiceTypePickling:
    def test_query_outcome_round_trips(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            outcome = service.run_batch([QUERY])[0]
        clone = roundtrip(outcome)
        assert clone.ok
        assert clone.rendered() == outcome.rendered()
        assert clone.version == outcome.version
        assert clone.executor == outcome.executor

    def test_worker_died_round_trips(self) -> None:
        died = WorkerDied(reason="exit code 13", pid=4242, requeued=True)
        assert roundtrip(died) == died

    def test_service_statistics_round_trip_for_cross_process_merge(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            service.run_batch([QUERY, QUERY])
            stats = service.statistics()
        clone = roundtrip(stats)
        assert clone == stats
        merged = clone.merge(stats)
        assert merged.submitted == 2 * stats.submitted


class TestFrozenGraphAcrossProcesses:
    """A hard-frozen graph ships its columnar core to pool workers.

    Fork inherits the flat arrays as copy-on-write pages; spawn pickles them.
    Either way the workers' answers must match the serial ones byte-for-byte.
    """

    @staticmethod
    def _expected(graph) -> list[str]:
        with QueryService(graph, workers=0, result_cache_size=0) as serial:
            return [outcome.rendered() for outcome in serial.run_batch([QUERY])]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_frozen_graph_parity_across_start_methods(self, start_method: str) -> None:
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} not available on this platform")
        graph = figure1_graph()
        expected = self._expected(graph)
        graph.freeze()
        assert graph.compact_core() is not None
        with QueryService(
            graph,
            workers=1,
            execution_mode="processes",
            result_cache_size=0,
            pool_options={"start_method": start_method},
        ) as service:
            outcomes = service.run_batch([QUERY])
        for outcome, want in zip(outcomes, expected):
            assert outcome.ok, outcome.error
            assert outcome.rendered() == want
            assert outcome.worker.startswith("proc-"), outcome.worker
