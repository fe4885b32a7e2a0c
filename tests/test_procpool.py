"""Correctness, fault-tolerance and isolation tests for process-backed serving.

Covers the ``execution_mode="processes"`` backend of
:class:`~repro.service.QueryService` and the
:class:`~repro.service.procpool.ProcessWorkerPool` beneath it:

* byte-identical parity with serial execution over the 50-graph differential
  corpus (the same corpus and random regexes as ``test_differential``);
* single dispatch: the parent engine resolves ``auto`` and ships only
  concrete executors, so no worker ever touches the delta journal (the
  post-fork guard);
* cross-process budget enforcement;
* crash containment: a dying worker requeues its claimed task once, a second
  death resolves it as a typed :class:`~repro.service.WorkerDied` outcome
  (attributed separately from timeouts and failures), and the pool refills
  to capacity;
* spawn-on-version-drift reforking and hypothesis-generated interleavings of
  mutations with in-flight process queries (snapshot isolation across the
  fork boundary);
* :meth:`~repro.service.ServiceStatistics.merge` aggregation.
"""

from __future__ import annotations

import os
import pickle
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graph_corpus import closure_corpus
from repro.api import connect
from repro.datasets.figure1 import figure1_graph
from repro.engine.engine import PathQueryEngine
from repro.errors import ServiceError
from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph
from repro.service import QueryService, procpool
from repro.service.procpool import CRASH_QUERY, ProcessWorkerPool
from repro.service.service import EXECUTION_MODES

LABELS = ("Knows", "Likes")
CORPUS: list[PropertyGraph] = closure_corpus(labels=LABELS)
GRAPH_IDS = [graph.name for graph in CORPUS]

#: Per-query recursion bound (keeps cyclic corpus graphs finite).
BOUND = 3
REGEXES_PER_GRAPH = 2

QUERIES = (
    "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows/Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows|Likes]->(?y)",
    "MATCH ALL ACYCLIC p = (?x)-[Knows+]->(?y)",
)


def _random_regex(rng: random.Random, depth: int) -> str:
    """The regex generator of ``test_differential`` (kept in sync)."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LABELS)
    op = rng.choice(("concat", "concat", "union", "plus", "star"))
    if op == "concat":
        return f"{_random_regex(rng, depth - 1)}/{_random_regex(rng, depth - 1)}"
    if op == "union":
        return f"({_random_regex(rng, depth - 1)}|{_random_regex(rng, depth - 1)})"
    if op == "plus":
        return f"({_random_regex(rng, depth - 1)})+"
    return f"({_random_regex(rng, depth - 1)})*"


def _corpus_queries(index: int) -> list[str]:
    rng = random.Random(2000 + index)
    return [
        f"MATCH ALL TRAIL p = (?x)-[{_random_regex(rng, 2)}]->(?y)"
        for _ in range(REGEXES_PER_GRAPH)
    ]


def _serial_renderings(graph: PropertyGraph, texts: list[str]) -> list[str]:
    with QueryService(graph, workers=0, result_cache_size=0) as serial:
        return [outcome.rendered() for outcome in serial.run_batch(texts, max_length=BOUND)]


# ----------------------------------------------------------------------
# Differential parity over the corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(len(CORPUS)), ids=GRAPH_IDS)
def test_process_mode_is_byte_identical_to_serial(index: int) -> None:
    """Acceptance: process-pool results match serial byte-for-byte."""
    graph = CORPUS[index]
    texts = _corpus_queries(index)
    expected = _serial_renderings(graph, texts)
    with QueryService(
        graph, workers=2, execution_mode="processes", result_cache_size=0
    ) as service:
        outcomes = service.run_batch(texts, max_length=BOUND)
    for text, outcome, want in zip(texts, outcomes, expected):
        assert outcome.ok, (graph.name, text, outcome.error)
        assert outcome.rendered() == want, (graph.name, text)
        assert outcome.worker.startswith("proc-"), outcome.worker


# ----------------------------------------------------------------------
# Single dispatch and statistics surface
# ----------------------------------------------------------------------
class TestRouting:
    def test_router_single_dispatch_matches_auto_choice(self) -> None:
        """Process mode ships exactly one task per query, with the executor
        the engine's ``auto`` policy picks in thread mode: drained requests
        materialize, limited ones stream."""
        graph = figure1_graph()
        engine = PathQueryEngine(graph)
        with QueryService(
            graph, workers=2, execution_mode="processes", result_cache_size=0
        ) as service:
            outcomes = service.run_batch(list(QUERIES))
            limited = service.run_batch(list(QUERIES), limit=1)
            stats = service.statistics()
        for text, outcome, cut in zip(QUERIES, outcomes, limited):
            assert outcome.ok, (text, outcome.error)
            assert cut.ok, (text, cut.error)
            assert outcome.executor == engine.query(text).executor == "materialize"
            assert cut.executor == engine.query(text, limit=1).executor == "pipeline"
        assert stats.pool["dispatched"] == 2 * len(QUERIES)

    def test_explicit_executor_is_never_raced(self) -> None:
        graph = figure1_graph()
        with QueryService(
            graph, workers=2, execution_mode="processes", executor="pipeline"
        ) as service:
            outcome = service.run_batch([QUERIES[3]])[0]
            stats = service.statistics()
        assert outcome.executor == "pipeline"
        assert stats.pool["dispatched"] == 1

    def test_invalid_modes_rejected_everywhere(self) -> None:
        graph = figure1_graph()
        for mode in ("fibers", "race"):
            with pytest.raises(ServiceError):
                QueryService(graph, workers=2, execution_mode=mode)
            with pytest.raises(ValueError):
                connect(graph, execution_mode=mode)
        with pytest.raises(ServiceError):
            QueryService(graph, workers=0, execution_mode="processes")
        assert EXECUTION_MODES == ("threads", "processes")

    def test_statistics_identify_the_backend(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=2, execution_mode="processes") as service:
            service.run_batch([QUERIES[0]])
            stats = service.statistics()
        assert stats.backend == "process"
        assert stats.execution_mode == "processes"
        assert stats.pool["workers"] == 2
        assert stats.pool["dispatched"] == 1


# ----------------------------------------------------------------------
# Budgets across the boundary
# ----------------------------------------------------------------------
class TestBudgets:
    def test_budget_without_cancel_is_unchanged(self) -> None:
        assert QueryBudget().unlimited
        with pytest.raises(TypeError):
            QueryBudget(cancel=lambda: False)  # the race-era kill switch is gone

    def test_max_visited_kill_crosses_the_process_boundary(self) -> None:
        graph = CORPUS[0]
        with QueryService(graph, workers=1, execution_mode="processes") as service:
            outcome = service.submit(
                "MATCH ALL TRAIL p = (?x)-[(Knows|Likes)+]->(?y)", max_visited=3
            ).result(timeout=60)
        assert outcome.timed_out
        assert outcome.budget_reason == "max_visited"
        assert outcome.paths_visited >= 3  # partial progress survived pickling
        assert outcome.stopped_at

    def test_unpicklable_parameter_fails_fast_instead_of_hanging(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=1, execution_mode="processes") as service:
            outcome = service.submit(
                "MATCH ALL TRAIL p = (?x {name: $who})-[Knows]->(?y)",
                params={"who": lambda: "Moe"},  # hashable but not picklable
            ).result(timeout=60)
            # The pool must still be alive for the next query.
            follow_up = service.run_batch([QUERIES[0]])[0]
        assert not outcome.ok
        assert outcome.error is not None
        assert follow_up.ok


# ----------------------------------------------------------------------
# Crash containment
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_crash_is_requeued_then_resolved_as_worker_died(self) -> None:
        graph = figure1_graph()
        with QueryService(
            graph,
            workers=2,
            execution_mode="processes",
            pool_options={"crash_hook": True, "max_requeues": 1},
        ) as service:
            baseline = service.run_batch([QUERIES[3]])[0]
            crash = service.submit(CRASH_QUERY).result(timeout=60)
            # The pool refills asynchronously: the monitor respawns
            # replacements after adjudicating each death.
            deadline = time.monotonic() + 30.0
            while (
                service.statistics().pool["workers_alive"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            stats = service.statistics()
            survivor = service.run_batch([QUERIES[3]])[0]
        assert not crash.ok
        assert crash.worker_died is not None
        assert crash.worker_died.requeued  # first death requeued, second resolved
        assert crash.worker_died.pid is not None
        assert "13" in crash.worker_died.reason
        # Attributed separately from timeouts and query failures.
        assert stats.worker_died == 1
        assert stats.failed == 0
        assert stats.timed_out == 0
        assert stats.requeued == 1
        assert stats.pool["worker_deaths"] == 2
        assert stats.pool["workers_alive"] == 2
        assert survivor.ok
        assert survivor.rendered() == baseline.rendered()

    def test_crash_hook_disabled_by_default(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=1, execution_mode="processes") as service:
            outcome = service.submit(CRASH_QUERY).result(timeout=60)
            stats = service.statistics()
        # Without the hook the sentinel is just invalid GQL: a parse error.
        assert outcome.error is not None
        assert outcome.worker_died is None
        assert stats.worker_died == 0
        assert stats.pool["worker_deaths"] == 0


# ----------------------------------------------------------------------
# Version drift and snapshot isolation across the fork
# ----------------------------------------------------------------------
class TestVersionDrift:
    def test_mutation_triggers_exactly_one_refork(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=2, execution_mode="processes") as service:
            before = service.run_batch([QUERIES[0]])[0]
            assert service.statistics().reforks == 0
            graph.add_node("drift-a", "Person")
            graph.add_node("drift-b", "Person")
            graph.add_edge("drift-e", "drift-a", "drift-b", "Knows")
            after = service.run_batch([QUERIES[0], QUERIES[0]])[0]
            stats = service.statistics()
        # Three mutations, one drift observed at dispatch: one refork.
        assert stats.reforks == 1
        assert after.version == before.version + 3
        assert len(after) == len(before) + 1

    def test_old_snapshot_served_by_new_generation(self) -> None:
        """Requeued/pinned tasks at old versions run fine on newer forks."""
        graph = figure1_graph()
        with QueryService(graph, workers=1, execution_mode="processes") as service:
            pinned = service.run_batch([QUERIES[3]])[0]
            graph.add_edge("ee", "n1", "n7", "Knows")
            bumped = service.run_batch([QUERIES[3]])[0]
        assert pinned.ok and bumped.ok
        assert bumped.version > pinned.version
        assert len(bumped) != len(pinned)  # new edge visible only after the pin


EDGE_LABELS = ("Knows", "Likes")


class _MutationLog:
    """Applies mutations to a live graph while recording them for replay."""

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph
        self.base_version = graph.version
        self.ops: list[tuple] = []
        self._counter = 0

    def add_node(self) -> None:
        node_id = f"p{self._counter}"
        self._counter += 1
        self.graph.add_node(node_id, "Person", {"name": node_id})
        self.ops.append(("node", node_id))

    def add_edge(self, source_seed: int, target_seed: int, label_index: int) -> None:
        nodes = self.graph.node_ids()
        source = nodes[source_seed % len(nodes)]
        target = nodes[target_seed % len(nodes)]
        edge_id = f"pe{self._counter}"
        self._counter += 1
        label = EDGE_LABELS[label_index % len(EDGE_LABELS)]
        self.graph.add_edge(edge_id, source, target, label)
        self.ops.append(("edge", edge_id, source, target, label))

    def replay(self, version: int) -> PropertyGraph:
        graph = figure1_graph()
        assert graph.version == self.base_version
        for op in self.ops[: version - self.base_version]:
            if op[0] == "node":
                graph.add_node(op[1], "Person", {"name": op[1]})
            else:
                graph.add_edge(op[1], op[2], op[3], op[4])
        assert graph.version == version
        return graph


_schedule_steps = st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
    st.tuples(st.just("node"), st.just(0)),
    st.tuples(
        st.just("edge"),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 1),
    ),
)


class TestSnapshotIsolationAcrossFork:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schedule=st.lists(_schedule_steps, min_size=1, max_size=15))
    def test_every_outcome_consistent_with_its_pinned_version(self, schedule) -> None:
        """Mutations interleave with in-flight process queries; every result
        equals a serial evaluation at the version it was pinned to.

        This is the fork-boundary version of the thread-mode isolation
        property: a worker forked at version *v* must answer a query pinned
        to ``u <= v`` as if the graph were frozen at ``u``, and drift past
        *v* must refork rather than leak newer state into old pins.
        """
        graph = figure1_graph()
        log = _MutationLog(graph)
        submitted: list[tuple[str, object]] = []
        with QueryService(
            graph, workers=2, execution_mode="processes", result_cache_size=0
        ) as service:
            for step in schedule:
                if step[0] == "query":
                    text = QUERIES[step[1]]
                    submitted.append((text, service.submit(text, max_length=BOUND)))
                elif step[0] == "node":
                    log.add_node()
                else:
                    log.add_edge(step[1], step[2], step[3])
            outcomes = [(text, ticket.result(timeout=120)) for text, ticket in submitted]
        for text, outcome in outcomes:
            assert outcome.ok, (text, outcome.error)
            replay = log.replay(outcome.version)
            expected = _serial_renderings(replay, [text])[0]
            assert outcome.rendered() == expected, (text, outcome.version)


class TestPostForkGuard:
    """Workers run the concrete executor the parent shipped, so they never
    reach ``delta_between`` and the graph lock a ``fork`` copied mid-flight."""

    AUTO_QUERIES = QUERIES + ("MATCH ANY SHORTEST WALK p = (?x)-[Knows+]->(?y)",)

    def test_workers_never_call_delta_between(self, monkeypatch) -> None:
        parent = os.getpid()
        original = PropertyGraph.delta_between

        def guarded(self, since, until=None):
            if os.getpid() != parent:
                raise RuntimeError("delta_between called in a forked worker")
            return original(self, since, until)

        monkeypatch.setattr(PropertyGraph, "delta_between", guarded)
        graph = figure1_graph()
        log = _MutationLog(graph)
        submitted = []
        with QueryService(
            graph, workers=2, execution_mode="processes", result_cache_size=0
        ) as service:
            if service._pool.start_method != "fork":
                pytest.skip("the guard only propagates to forked workers")
            pins = [graph.snapshot()]
            for round_ in range(3):
                for text in self.AUTO_QUERIES:
                    submitted.append((text, service.submit(text, max_length=BOUND)))
                    # Every older pin again: tasks below the fork version of a
                    # newer generation, for texts whose worker-side plan is
                    # already cached at another version.
                    for pin in pins:
                        submitted.append(
                            (text, service.submit(text, max_length=BOUND, snapshot=pin))
                        )
                # Drain the round so the next one drifts past this generation's
                # fork version and reforks.
                for _, ticket in submitted:
                    ticket.result(timeout=120)
                log.add_node()
                log.add_edge(round_, round_ + 3, round_)
                pins.append(graph.snapshot())
            outcomes = [(text, ticket.result()) for text, ticket in submitted]
            stats = service.statistics()
        assert stats.reforks == 2
        for text, outcome in outcomes:
            assert outcome.ok, (text, outcome.version, outcome.error)
            expected = _serial_renderings(log.replay(outcome.version), [text])[0]
            assert outcome.rendered() == expected, (text, outcome.version)

    def test_dispatcher_never_pickles_an_auto_task(self, monkeypatch) -> None:
        shipped: list[str] = []
        dumps = pickle.dumps

        def spy(obj, *args, **kwargs):
            if isinstance(obj, procpool._Task):
                shipped.append(obj.executor)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(procpool.pickle, "dumps", spy)
        graph = figure1_graph()
        with QueryService(
            graph, workers=1, execution_mode="processes", result_cache_size=0
        ) as service:
            outcomes = service.run_batch(list(self.AUTO_QUERIES), executor="auto")
            with pytest.raises(ServiceError, match="concrete executor"):
                service._pool.execute(
                    text=QUERIES[0], params=None, max_length=None, executor="auto",
                    limit=None, deadline=None, max_visited=None,
                    version=graph.version, num_nodes=graph.num_nodes(),
                    num_edges=graph.num_edges(),
                )
        assert all(outcome.ok for outcome in outcomes)
        assert len(shipped) == len(self.AUTO_QUERIES)
        assert "auto" not in shipped
        assert set(shipped) <= {"materialize", "pipeline", "automaton"}


# ----------------------------------------------------------------------
# Pool lifecycle and statistics aggregation
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_pool_rejects_zero_workers(self) -> None:
        with pytest.raises(ServiceError):
            ProcessWorkerPool(figure1_graph(), 0)

    def test_pool_close_is_idempotent_and_joins_everything(self) -> None:
        pool = ProcessWorkerPool(figure1_graph(), 2)
        assert pool.statistics()["workers_alive"] == 2
        pool.close(deadline=10.0)
        pool.close(deadline=10.0)
        with pytest.raises(ServiceError):
            pool.execute(
                text=QUERIES[0],
                params=None,
                max_length=None,
                executor="pipeline",
                limit=None,
                deadline=None,
                max_visited=None,
                version=0,
                num_nodes=0,
                num_edges=0,
            )

    def test_service_close_shuts_the_pool_down(self) -> None:
        graph = figure1_graph()
        service = QueryService(graph, workers=2, execution_mode="processes")
        service.run_batch([QUERIES[0]])
        pool = service._pool
        service.close()
        assert pool._closed
        with pytest.raises(ServiceError):
            service.submit(QUERIES[0])

    def test_statistics_merge_aggregates_two_services(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=2, execution_mode="processes") as a:
            a.run_batch(list(QUERIES))
            stats_a = a.statistics()
        with QueryService(graph, workers=0) as b:
            b.run_batch(list(QUERIES[:2]))
            stats_b = b.statistics()
        merged = stats_a.merge(stats_b)
        assert merged.submitted == stats_a.submitted + stats_b.submitted
        assert merged.executed == stats_a.executed + stats_b.executed
        assert merged.workers == stats_a.workers + stats_b.workers
        assert merged.backend == "process+thread"
        assert merged.execution_mode == "processes+threads"
        assert merged.queued_seconds_max == max(
            stats_a.queued_seconds_max, stats_b.queued_seconds_max
        )
        # Nested dicts merge numerically.
        assert merged.plan_cache["misses"] == (
            stats_a.plan_cache["misses"] + stats_b.plan_cache["misses"]
        )
        # merge() is symmetric on the counters.
        flipped = stats_b.merge(stats_a)
        assert flipped.submitted == merged.submitted
        assert flipped.requeued == merged.requeued

    def test_result_cache_serves_process_results(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=2, execution_mode="processes") as service:
            first = service.run_batch([QUERIES[3]])[0]
            second = service.run_batch([QUERIES[3]])[0]
            stats = service.statistics()
        assert not first.result_cache_hit
        assert second.result_cache_hit
        assert second.rendered() == first.rendered()
        assert stats.result_cache_served == 1
        assert stats.pool["dispatched"] == 1  # the hit never reached the pool

    def test_delta_invalidation_survives_the_process_boundary(self) -> None:
        """PR 6 semantics: a disjoint write keeps process-computed entries."""
        graph = figure1_graph()
        with QueryService(graph, workers=2, execution_mode="processes") as service:
            first = service.run_batch([QUERIES[0]])[0]
            graph.add_node("bystander", "Person")  # disjoint from Knows scans
            second = service.run_batch([QUERIES[0]])[0]
            stats = service.statistics()
        assert second.result_cache_hit
        assert second.rendered() == first.rendered()
        assert stats.result_cache_cross_version_hits == 1
