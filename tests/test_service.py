"""Concurrency, snapshot-isolation and cache-correctness tests for the service.

The acceptance property (ISSUE 3): a concurrent batch of queries over a
mutating graph returns byte-identical results to the same batch run serially
against the corresponding snapshots.  The suite locks that down three ways:

* hypothesis-generated interleavings of ``add_node``/``add_edge`` mutations
  and query submissions, each outcome replayed against a serial
  reconstruction of the graph at the outcome's pinned version;
* a free-running mutator thread racing a querying thread;
* deterministic regressions for the shared plan cache (never serves across a
  version bump, works disabled, evicts LRU-first) and the result cache
  (never serves across a version bump).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.figure1 import figure1_graph
from repro.engine.engine import PathQueryEngine
from repro.errors import ServiceError
from repro.graph.model import PropertyGraph
from repro.service import QueryService, QueryTicket, StripedLRUCache

#: The query mix used throughout: streaming scans, joins, unions, recursion.
QUERIES = (
    "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows/Knows]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows|Likes]->(?y)",
    "MATCH ALL ACYCLIC p = (?x)-[Knows+]->(?y)",
)

EDGE_LABELS = ("Knows", "Likes")


def _canonical(paths) -> tuple[str, ...]:
    return tuple(str(path) for path in paths.sorted())


def _serial_result(graph: PropertyGraph, text: str) -> tuple[str, ...]:
    """Evaluate ``text`` on a quiescent graph with a cache-free engine."""
    result = PathQueryEngine(graph, plan_cache_size=0).query(text)
    return _canonical(result.paths)


class _MutationLog:
    """Applies mutations to a live graph while recording them for replay."""

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph
        self.base_version = graph.version
        self.ops: list[tuple] = []
        self._counter = 0

    def add_node(self) -> None:
        node_id = f"h{self._counter}"
        self._counter += 1
        self.graph.add_node(node_id, "Person", {"name": node_id})
        self.ops.append(("node", node_id))

    def add_edge(self, source_seed: int, target_seed: int, label_index: int) -> None:
        nodes = self.graph.node_ids()
        source = nodes[source_seed % len(nodes)]
        target = nodes[target_seed % len(nodes)]
        edge_id = f"he{self._counter}"
        self._counter += 1
        label = EDGE_LABELS[label_index % len(EDGE_LABELS)]
        self.graph.add_edge(edge_id, source, target, label)
        self.ops.append(("edge", edge_id, source, target, label))

    def replay(self, version: int) -> PropertyGraph:
        """Rebuild the graph exactly as it was at ``version``."""
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


class TestSnapshotIsolation:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=st.lists(_schedule_steps, min_size=1, max_size=25))
    def test_every_outcome_consistent_with_a_single_version(self, schedule) -> None:
        """Each result equals a serial evaluation at the version it was pinned to.

        The result cache is disabled so every submission reaches the engine,
        which makes the plan-cache accounting at the end exact: plan keys
        carry no version, so one plan per distinct text serves every version
        and hits can never exceed ``lookups - distinct texts``.
        """
        graph = figure1_graph()
        log = _MutationLog(graph)
        submitted: list[tuple[str, object]] = []
        with QueryService(graph, workers=2, result_cache_size=0) as service:
            for step in schedule:
                if step[0] == "query":
                    text = QUERIES[step[1]]
                    submitted.append((text, service.submit(text)))
                elif step[0] == "node":
                    log.add_node()
                else:
                    log.add_edge(step[1], step[2], step[3])
            outcomes = [(text, ticket.result()) for text, ticket in submitted]
            stats = service.statistics()

        for text, outcome in outcomes:
            assert outcome.ok, outcome
            replay = log.replay(outcome.version)
            assert outcome.path_strings() == _serial_result(replay, text)

        lookups = len(outcomes)
        distinct_texts = {text for text, _ in outcomes}
        assert stats.plan_cache["hits"] + stats.plan_cache["misses"] == lookups
        # Every distinct text must miss at least once; two workers racing the
        # same fresh text can both miss (benign), and at most once each.
        assert len(distinct_texts) <= stats.plan_cache["misses"] <= 2 * len(distinct_texts)
        assert stats.plan_cache["hits"] <= lookups - len(distinct_texts)

    def test_single_worker_plan_cache_accounting_is_exact(self) -> None:
        """With one worker the miss-per-distinct-text accounting is an equality.

        Plans are reused across version bumps, so each text misses exactly
        once no matter how many mutations land between its submissions.
        """
        graph = figure1_graph()
        log = _MutationLog(graph)
        with QueryService(graph, workers=1, result_cache_size=0) as service:
            tickets = []
            for round_index in range(3):
                tickets.extend(service.submit(text) for text in QUERIES)
                tickets.extend(service.submit(text) for text in QUERIES)
                log.add_node()
            outcomes = [ticket.result() for ticket in tickets]
            stats = service.statistics()
        assert all(outcome.ok for outcome in outcomes)
        assert len({outcome.version for outcome in outcomes}) == 3
        distinct = {outcome.text for outcome in outcomes}
        assert stats.plan_cache["misses"] == len(distinct)
        assert stats.plan_cache["hits"] == len(outcomes) - len(distinct)

    def test_concurrent_batch_is_byte_identical_to_serial_snapshots(self) -> None:
        """The acceptance criterion, verbatim.

        Mutations and submissions interleave on the producer thread while
        four workers drain concurrently; each query's result must be
        byte-identical to a serial run against the snapshot that was current
        at its submission.
        """
        graph = figure1_graph()
        log = _MutationLog(graph)
        batch = [QUERIES[index % len(QUERIES)] for index in range(36)]
        snapshots = []
        tickets = []
        with QueryService(graph, workers=4) as service:
            for index, text in enumerate(batch):
                if index % 3 == 0:
                    log.add_node()
                if index % 4 == 1:
                    log.add_edge(index, 2 * index + 1, index)
                snapshots.append(graph.snapshot())
                tickets.append(service.submit(text))
            outcomes = [ticket.result() for ticket in tickets]

        for text, snapshot, outcome in zip(batch, snapshots, outcomes):
            assert outcome.version == snapshot.version
            serial = PathQueryEngine(graph, plan_cache_size=0).query(text, graph=snapshot)
            assert outcome.rendered().encode() == "\n".join(_canonical(serial.paths)).encode()

    def test_free_running_mutator_thread(self) -> None:
        """Queries racing a real mutator thread still pin consistent versions."""
        graph = figure1_graph()
        log = _MutationLog(graph)
        stop = threading.Event()

        def mutate() -> None:
            seed = 0
            while not stop.is_set():
                log.add_node()
                log.add_edge(seed, seed + 3, seed)
                seed += 1

        mutator = threading.Thread(target=mutate)
        mutator.start()
        try:
            with QueryService(graph, workers=3, result_cache_size=0) as service:
                outcomes = []
                for round_index in range(10):
                    tickets = [service.submit(text) for text in QUERIES]
                    outcomes.extend(ticket.result() for ticket in tickets)
        finally:
            stop.set()
            mutator.join()
        for outcome in outcomes:
            assert outcome.ok, outcome
            replay = log.replay(outcome.version)
            assert outcome.path_strings() == _serial_result(replay, outcome.text)


class TestPlanCacheRegression:
    TEXT = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"

    def test_mid_batch_mutation_is_never_stale(self) -> None:
        """Mutating between submissions must not return results for the old graph."""
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            before = service.submit(self.TEXT).result()
            graph.add_node("fresh", "Person")
            graph.add_edge("efresh", "n1", "fresh", "Knows")
            after = service.submit(self.TEXT).result()
            stats = service.statistics()
        assert len(after) == len(before) + 1
        assert not after.result_cache_hit
        # Plans are version-independent, so delta invalidation reuses the
        # cached plan across the bump — staleness is prevented at the result
        # layer (the new Knows edge intersects the cached footprint).
        assert after.plan_cache_hit
        assert stats.plan_cache["hits"] == 1
        assert stats.plan_cache["misses"] == 1

    def test_result_cache_never_crosses_a_version_bump(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            first = service.submit(self.TEXT).result()
            repeat = service.submit(self.TEXT).result()
            assert repeat.result_cache_hit
            assert repeat.rendered() == first.rendered()
            graph.add_edge("eknows", "n1", "n3", "Knows")
            bumped = service.submit(self.TEXT).result()
        assert not bumped.result_cache_hit
        assert len(bumped) == len(first) + 1

    def test_mutating_a_served_outcome_does_not_poison_the_cache(self) -> None:
        """Outcomes never alias the cached PathSet (defensive copies both ways)."""
        with QueryService(figure1_graph(), workers=0) as service:
            first = service.submit(self.TEXT).result()
            baseline = first.rendered()
            likes = service.submit("MATCH ALL TRAIL p = (?x)-[Likes]->(?y)").result()
            first.paths.update(likes.paths)  # vandalize the computing caller's copy
            hit = service.submit(self.TEXT).result()
            assert hit.result_cache_hit
            assert hit.rendered() == baseline
            hit.paths.update(likes.paths)  # vandalize a served hit too
            assert service.submit(self.TEXT).result().rendered() == baseline

    def test_concurrent_inline_submitters_are_serialized(self) -> None:
        """workers=0 shares one engine; racing submitters must still be safe."""
        graph = figure1_graph()
        with QueryService(graph, workers=0, result_cache_size=0) as service:
            failures: list[str] = []

            def hammer(offset: int) -> None:
                for index in range(10):
                    graph.add_node(f"inline-{offset}-{index}")
                    outcome = service.submit(QUERIES[index % len(QUERIES)]).result()
                    if not outcome.ok:
                        failures.append(outcome.error or "?")

            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures, failures

    def test_plan_cache_disabled_still_correct(self) -> None:
        graph = figure1_graph()
        with QueryService(
            graph, workers=2, plan_cache_size=0, result_cache_size=0
        ) as service:
            outcomes = service.run_batch([self.TEXT] * 6)
            stats = service.statistics()
        expected = _serial_result(graph, self.TEXT)
        assert all(outcome.path_strings() == expected for outcome in outcomes)
        assert stats.plan_cache["entries"] == 0
        assert stats.plan_cache["hits"] == 0

    def test_striped_cache_evicts_lru_first(self) -> None:
        cache = StripedLRUCache(maxsize=2, stripes=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.get("b") is None

    def test_striped_cache_surface(self) -> None:
        cache = StripedLRUCache(maxsize=8, stripes=4)
        assert cache.stripes == 4
        for index in range(8):
            cache.put(("key", index), index)
        assert len(cache) <= 8
        assert cache.stats()["entries"] == len(cache)
        cache.clear()
        assert len(cache) == 0
        assert StripedLRUCache(maxsize=2, stripes=8).stripes == 2  # clamped
        assert StripedLRUCache(maxsize=0).stripes == 1
        with pytest.raises(ValueError):
            StripedLRUCache(stripes=0)

    def test_zero_capacity_cache_never_stores(self) -> None:
        cache = StripedLRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.misses == 1
        assert len(cache) == 0


class TestParameterizedCacheKeys:
    """Parameterized submissions: one shared plan, never-shared results.

    The cache-poisoning contract for prepared queries: the plan cache is
    keyed on the *parameterized* text (distinct bindings share one plan),
    while the result cache carries the bindings in its key, so two bindings
    can never serve each other's results — including across graph-version
    bumps, where both caches must start cold.
    """

    PARAM_TEXT = "MATCH ALL TRAIL p = (?x {name: $name})-[Knows]->(?y)"

    @staticmethod
    def _constant(value: str) -> str:
        return 'MATCH ALL TRAIL p = (?x {name: "%s"})-[Knows]->(?y)' % value

    def test_two_bindings_share_one_plan_but_not_results(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            moe = service.submit(self.PARAM_TEXT, params={"name": "Moe"}).result()
            lisa = service.submit(self.PARAM_TEXT, params={"name": "Lisa"}).result()
            moe_again = service.submit(self.PARAM_TEXT, params={"name": "Moe"}).result()
            stats = service.statistics()
        assert moe.ok and lisa.ok
        # One parse/plan/optimize total: the second binding hit the plan cache.
        assert stats.plan_cache["misses"] == 1
        assert not moe.plan_cache_hit and lisa.plan_cache_hit
        # Results are binding-specific and correct.
        assert moe.path_strings() == _serial_result(graph, self._constant("Moe"))
        assert lisa.path_strings() == _serial_result(graph, self._constant("Lisa"))
        assert moe.path_strings() != lisa.path_strings()
        # The repeat of Moe's binding is served from the result cache — with
        # Moe's result, not Lisa's (the binding is part of the key).
        assert moe_again.result_cache_hit
        assert moe_again.rendered() == moe.rendered()
        assert moe.params == (("name", "Moe"),)

    def test_bindings_never_cross_a_version_bump(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            before_moe = service.submit(self.PARAM_TEXT, params={"name": "Moe"}).result()
            before_lisa = service.submit(self.PARAM_TEXT, params={"name": "Lisa"}).result()
            graph.add_node("moe2", "Person", {"name": "Moe"})
            graph.add_edge("emoe2", "moe2", "n3", "Knows")
            after_moe = service.submit(self.PARAM_TEXT, params={"name": "Moe"}).result()
            after_lisa = service.submit(self.PARAM_TEXT, params={"name": "Lisa"}).result()
            stats = service.statistics()
        # Delta invalidation keeps the shared parameterized plan across the
        # bump: one text → one plan-cache miss in total, every later lookup
        # (either binding, either version) is a hit.
        assert stats.plan_cache["misses"] == 1
        # Neither binding was served a pre-bump result.
        assert not after_moe.result_cache_hit and not after_lisa.result_cache_hit
        assert after_moe.version > before_moe.version
        assert len(after_moe) == len(before_moe) + 1  # the new Moe edge
        assert after_lisa.rendered() == before_lisa.rendered()  # unaffected binding
        assert after_moe.rendered() != before_moe.rendered()

    def test_binding_order_does_not_split_result_cache_entries(self) -> None:
        text = (
            "MATCH ALL TRAIL p = (?x {name: $a})-[Knows]->(?y {name: $b})"
        )
        with QueryService(figure1_graph(), workers=0) as service:
            first = service.submit(text, params={"a": "Moe", "b": "Lisa"}).result()
            swapped = service.submit(text, params={"b": "Lisa", "a": "Moe"}).result()
        assert first.ok and swapped.ok
        assert swapped.result_cache_hit  # canonicalized key: same bindings, same entry
        assert swapped.rendered() == first.rendered()

    def test_unhashable_binding_bypasses_result_cache(self) -> None:
        with QueryService(figure1_graph(), workers=0) as service:
            first = service.submit(self.PARAM_TEXT, params={"name": ["not", "hashable"]}).result()
            repeat = service.submit(self.PARAM_TEXT, params={"name": ["not", "hashable"]}).result()
        assert first.ok and repeat.ok  # executed, empty result, no crash
        assert not first.result_cache_hit and not repeat.result_cache_hit
        assert repeat.params == ()

    def test_missing_binding_is_a_failure_not_a_crash(self) -> None:
        with QueryService(figure1_graph(), workers=0) as service:
            outcome = service.submit(self.PARAM_TEXT).result()
        assert not outcome.ok
        assert outcome.error is not None
        assert "ParameterError" in outcome.error


class TestServiceAPI:
    TEXT = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"

    def test_expired_deadline_times_out_without_executing(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=1) as service:
            outcome = service.submit(self.TEXT, deadline=-1.0).result()
            stats = service.statistics()
        assert outcome.timed_out
        assert not outcome.ok
        assert stats.timed_out == 1
        assert stats.executed == 0

    def test_ticket_result_timeout(self) -> None:
        with pytest.raises(TimeoutError):
            QueryTicket().result(timeout=0.01)

    def test_submit_after_close_raises(self) -> None:
        service = QueryService(figure1_graph(), workers=1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(self.TEXT)

    def test_invalid_configuration_rejected(self) -> None:
        with pytest.raises(ServiceError):
            QueryService(figure1_graph(), workers=-1)
        with pytest.raises(ServiceError):
            QueryService(figure1_graph(), executor="vectorized")

    def test_worker_survives_bad_queries(self) -> None:
        with QueryService(figure1_graph(), workers=1) as service:
            bad = service.submit("THIS IS NOT GQL").result()
            good = service.submit(self.TEXT).result()
            stats = service.statistics()
        assert bad.error is not None and not bad.ok
        assert good.ok and len(good) == 4
        assert stats.failed == 1
        assert stats.completed == 2

    def test_submit_many_preserves_order(self) -> None:
        texts = [QUERIES[index % len(QUERIES)] for index in range(8)]
        with QueryService(figure1_graph(), workers=3) as service:
            outcomes = service.run_batch(texts)
        assert [outcome.text for outcome in outcomes] == texts

    def test_statistics_shape(self) -> None:
        with QueryService(figure1_graph(), workers=2) as service:
            service.run_batch([self.TEXT] * 5)
            stats = service.statistics()
        assert stats.submitted == 5
        assert stats.completed == 5
        assert stats.executed + stats.result_cache_served == 5
        assert stats.workers == 2
        assert stats.backend == "thread"
        assert stats.result_cache["hits"] == stats.result_cache_served

    def test_thread_mode_never_loads_the_process_pool(self) -> None:
        """A thread-mode server process pays no resident memory for the pool."""
        script = (
            "import sys, repro\n"
            "from repro.datasets.figure1 import figure1_graph\n"
            "db = repro.connect(figure1_graph())\n"
            f"assert db.service().submit({self.TEXT!r}).result().ok\n"
            "db.close()\n"
            "loaded = {'multiprocessing', 'repro.service.procpool'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "from repro.service import ProcessWorkerPool, WorkerDied\n"
            "assert ProcessWorkerPool.__module__ == 'repro.service.procpool'\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr


class TestDeadlineKillPath:
    """ISSUE 4 acceptance: deadlines kill in-flight queries, not just queued ones.

    The heavy workload is a Walk recursion over the cyclic LDBC-like Knows
    network with a generous bound — unbudgeted it runs for many seconds
    (``max_length=7`` measures > 5 s on the reference host), which is exactly
    the query that used to wedge a worker past its deadline.
    """

    HEAVY = "MATCH ALL WALK p = (?x)-[Knows+]->(?y)"
    HEAVY_MAX_LENGTH = 7
    DEADLINE = 0.1

    @pytest.fixture(scope="class")
    def ldbc_graph(self):
        from repro.datasets.ldbc import ldbc_like_graph

        return ldbc_like_graph()

    def test_in_flight_kill_within_a_small_multiple_of_the_deadline(self, ldbc_graph) -> None:
        with QueryService(graph=ldbc_graph, workers=1) as service:
            started = time.monotonic()
            outcome = service.submit(
                self.HEAVY, max_length=self.HEAVY_MAX_LENGTH, deadline=self.DEADLINE
            ).result(timeout=30)
            wall = time.monotonic() - started
            stats = service.statistics()
        assert outcome.timed_out and not outcome.ok
        assert outcome.budget_reason == "deadline"
        # The kill lands at the first budget checkpoint after the deadline —
        # on the reference host within 1.1x; the bound here leaves slack for
        # loaded CI hosts while still proving the query did not run to
        # completion (which takes two orders of magnitude longer).
        assert wall < 10 * self.DEADLINE
        # Partial progress is populated: the query was genuinely in flight.
        assert outcome.stopped_at not in ("", "queue")
        assert outcome.paths_visited > 0
        assert outcome.depth_reached >= 1
        assert stats.timed_out_in_flight == 1
        assert stats.timed_out_at_dequeue == 0

    def test_worker_survives_the_kill_and_serves_the_next_request(self, ldbc_graph) -> None:
        with QueryService(graph=ldbc_graph, workers=1) as service:
            killed = service.submit(
                self.HEAVY, max_length=self.HEAVY_MAX_LENGTH, deadline=self.DEADLINE
            ).result(timeout=30)
            follow_up = service.submit(
                "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"
            ).result(timeout=30)
            stats = service.statistics()
        assert killed.timed_out
        assert follow_up.ok and len(follow_up) > 0
        assert stats.completed == 2
        assert stats.executed == 1

    def test_budget_killed_queries_never_poison_the_caches(self, ldbc_graph) -> None:
        with QueryService(graph=ldbc_graph, workers=1) as service:
            killed = service.submit(self.HEAVY, max_length=4, max_visited=1_000).result(
                timeout=30
            )
            assert killed.timed_out and killed.budget_reason == "max_visited"
            # Same query text/options without a budget: must compute the full
            # result, not serve a cached partial one.
            full = service.submit(self.HEAVY, max_length=4).result(timeout=60)
            repeat = service.submit(self.HEAVY, max_length=4).result(timeout=60)
        reference = PathQueryEngine(ldbc_graph, plan_cache_size=0).query(
            self.HEAVY, max_length=4
        )
        assert full.ok and not full.result_cache_hit
        assert full.path_strings() == _canonical(reference.paths)
        # The *complete* outcome is cacheable as usual.
        assert repeat.result_cache_hit
        assert repeat.path_strings() == full.path_strings()

    def test_max_visited_kill_is_deterministic(self, ldbc_graph) -> None:
        with QueryService(graph=ldbc_graph, workers=1) as service:
            outcome = service.submit(
                self.HEAVY, max_length=self.HEAVY_MAX_LENGTH, max_visited=10_000
            ).result(timeout=30)
        assert outcome.timed_out
        assert outcome.budget_reason == "max_visited"
        assert outcome.paths_visited > 10_000

    def test_dequeue_timeout_reports_queue_wait(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=1) as service:
            outcome = service.submit(
                "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)", deadline=-1.0
            ).result(timeout=10)
            stats = service.statistics()
        assert outcome.timed_out
        assert outcome.stopped_at == "queue"
        assert outcome.budget_reason == "deadline"
        # The satellite fix: queue wait is stamped and attributed instead of
        # being folded into a zero elapsed_seconds.
        assert outcome.queued_seconds >= 0.0
        assert outcome.elapsed_seconds == 0.0
        assert stats.timed_out_at_dequeue == 1
        assert stats.timed_out_in_flight == 0
        assert stats.queued_seconds_max >= outcome.queued_seconds

    def test_queued_seconds_populated_on_success(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=1) as service:
            outcome = service.submit("MATCH ALL TRAIL p = (?x)-[Knows]->(?y)").result(
                timeout=10
            )
            stats = service.statistics()
        assert outcome.ok
        assert outcome.queued_seconds >= 0.0
        assert stats.queued_seconds_total >= outcome.queued_seconds

    def test_default_max_visited_applies_to_every_submission(self, ldbc_graph) -> None:
        with QueryService(
            graph=ldbc_graph, workers=1, default_max_visited=1_000
        ) as service:
            outcome = service.submit(self.HEAVY, max_length=4).result(timeout=30)
        assert outcome.timed_out and outcome.budget_reason == "max_visited"


class TestDeltaAwareResultCache:
    """Cross-version result serving: writes only evict what they can change."""

    TEXT = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"

    def test_disjoint_mutation_serves_across_the_bump(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            first = service.submit(self.TEXT).result()
            graph.add_edge("elikes", "n1", "n3", "Likes")  # disjoint label
            graph.add_node("fresh", "Person")  # node inserts don't touch edge scans
            served = service.submit(self.TEXT).result()
            stats = service.statistics()
        assert served.result_cache_hit
        assert served.version == graph.version  # re-stamped at the serving version
        assert served.version > first.version
        assert served.rendered() == first.rendered()
        assert stats.result_cache_cross_version_hits == 1
        assert stats.result_cache_delta_rejected == 0

    def test_affecting_mutation_recomputes(self) -> None:
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            first = service.submit(self.TEXT).result()
            graph.add_edge("eknows", "n1", "n3", "Knows")  # intersects the footprint
            recomputed = service.submit(self.TEXT).result()
            stats = service.statistics()
        assert not recomputed.result_cache_hit
        assert len(recomputed) == len(first) + 1
        assert stats.result_cache_delta_rejected == 1
        assert stats.result_cache_cross_version_hits == 0

    def test_property_update_only_evicts_property_readers(self) -> None:
        graph = figure1_graph()
        reader = "MATCH ALL TRAIL p = (?x {name: 'Moe'})-[Knows]->(?y)"
        with QueryService(graph, workers=0) as service:
            plain_before = service.submit(self.TEXT).result()
            reader_before = service.submit(reader).result()
            graph.set_node_property("n2", "name", "Renamed")
            plain_after = service.submit(self.TEXT).result()
            reader_after = service.submit(reader).result()
            stats = service.statistics()
        assert plain_after.result_cache_hit  # label-only query: unaffected
        assert plain_after.rendered() == plain_before.rendered()
        assert not reader_after.result_cache_hit  # reads node properties
        assert reader_after.ok and reader_before.ok
        assert stats.result_cache_cross_version_hits == 1
        assert stats.result_cache_delta_rejected == 1

    def test_expired_journal_falls_back_to_recompute(self, monkeypatch) -> None:
        monkeypatch.setattr("repro.graph.model.JOURNAL_CAPACITY", 2)
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            service.submit(self.TEXT).result()
            for index in range(3):  # push the window past the journal capacity
                graph.add_node(f"filler{index}", "Filler")
            repeat = service.submit(self.TEXT).result()
            stats = service.statistics()
        # The delta window expired, so the service must recompute even though
        # none of the mutations could have changed the result.
        assert not repeat.result_cache_hit
        assert stats.result_cache_delta_rejected == 1

    def test_invalid_invalidation_mode_is_rejected(self) -> None:
        # Delta is the only policy: the knob itself is gone, so every value
        # (the legacy "version" included) is rejected.
        for mode in ("sometimes", "version", "delta"):
            with pytest.raises(TypeError, match="invalidation"):
                QueryService(figure1_graph(), workers=0, invalidation=mode)
            with pytest.raises(TypeError, match="invalidation"):
                PathQueryEngine(figure1_graph(), invalidation=mode)

    def test_cross_version_hit_still_isolated_from_mutation(self) -> None:
        """A served cross-version outcome must not alias the cached PathSet."""
        graph = figure1_graph()
        with QueryService(graph, workers=0) as service:
            first = service.submit(self.TEXT).result()
            baseline = first.rendered()
            graph.add_node("bystander", "Person")
            served = service.submit(self.TEXT).result()
            assert served.result_cache_hit
            likes = service.submit("MATCH ALL TRAIL p = (?x)-[Likes]->(?y)").result()
            served.paths.update(likes.paths)  # vandalize the served copy
            again = service.submit(self.TEXT).result()
        assert again.rendered() == baseline
