"""The columnar frozen graph core: CSR adjacency, interned labels, int paths.

``CompactGraph`` is a read-only columnar twin of ``PropertyGraph`` that the
closure strategies, both executors and the process pool switch to when the
engine detects a frozen graph.  The contract is strict: every result computed
over the compact core must be *byte-identical* to the one computed over the
mutable object graph — same paths, same production order, same partial
progress when a budget kills the query mid-closure.  This suite locks that
contract over the shared 50-graph corpus, plus the freeze/thaw lifecycle,
the rule that no read builds a core, the int encoding itself, and the memory story
the whole exercise exists for.
"""

from __future__ import annotations

import sys

import pytest

from graph_corpus import closure_corpus, frozen_twin
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import EdgesScan, NodesScan, Recursive
from repro.api import Database
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import complete_graph, random_graph
from repro.engine.physical import execute_pipeline
from repro.errors import BudgetExceeded, FrozenGraphError
from repro.execution import QueryBudget
from repro.graph.compact import CompactGraph, compact_core_of
from repro.graph.model import PropertyGraph
from repro.paths.intpath import IntPath, IntPathSet, decode_seq, encode_seq
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import (
    Restrictor,
    iter_recursive_closure,
    recursive_closure,
)
from repro.service import QueryService

ALL_GRAPHS: list[PropertyGraph] = closure_corpus()
RESTRICTORS = tuple(Restrictor)

#: Bound for the corpus parity sweeps — matches test_closure_equivalence so
#: the two suites exercise the same closure workloads.
COMMON_BOUND = 6


def _ordered(paths) -> tuple[str, ...]:
    """Canonical *production-order* rendering — order differences fail too."""
    return tuple(str(path) for path in paths)


# ----------------------------------------------------------------------
# Read-API parity: CompactGraph is a drop-in read-only PropertyGraph
# ----------------------------------------------------------------------
class TestReadApiParity:
    @pytest.fixture(scope="class")
    def pair(self) -> tuple[PropertyGraph, CompactGraph]:
        graph = figure1_graph()
        return graph, CompactGraph.from_graph(graph)

    def test_identity_and_cardinalities(self, pair) -> None:
        graph, compact = pair
        assert compact.name == graph.name
        assert compact.version == graph.version
        assert compact.num_nodes() == graph.num_nodes()
        assert compact.num_edges() == graph.num_edges()
        assert len(compact) == len(graph)
        assert compact.node_ids() == graph.node_ids()
        assert compact.edge_ids() == graph.edge_ids()

    def test_nodes_and_edges_round_trip_with_labels_and_properties(self, pair) -> None:
        graph, compact = pair
        for node_id in graph.node_ids():
            ours, theirs = compact.node(node_id), graph.node(node_id)
            assert ours.id == theirs.id
            assert ours.label == theirs.label
            assert ours.properties == theirs.properties
        for edge_id in graph.edge_ids():
            ours, theirs = compact.edge(edge_id), graph.edge(edge_id)
            assert (ours.source, ours.target) == (theirs.source, theirs.target)
            assert ours.label == theirs.label
            assert ours.properties == theirs.properties

    def test_adjacency_matches_in_order(self, pair) -> None:
        graph, compact = pair
        for node_id in graph.node_ids():
            assert [e.id for e in compact.out_edges(node_id)] == [
                e.id for e in graph.out_edges(node_id)
            ]
            assert [e.id for e in compact.in_edges(node_id)] == [
                e.id for e in graph.in_edges(node_id)
            ]
            assert compact.out_degree(node_id) == graph.out_degree(node_id)
            assert compact.in_degree(node_id) == graph.in_degree(node_id)
            assert list(compact.neighbors(node_id)) == list(graph.neighbors(node_id))

    def test_label_lookups_match(self, pair) -> None:
        graph, compact = pair
        assert compact.node_labels() == graph.node_labels()
        assert compact.edge_labels() == graph.edge_labels()
        for label in graph.node_labels():
            assert [n.id for n in compact.nodes_by_label(label)] == [
                n.id for n in graph.nodes_by_label(label)
            ]
        for label in graph.edge_labels():
            assert [e.id for e in compact.edges_by_label(label)] == [
                e.id for e in graph.edges_by_label(label)
            ]

    def test_membership_and_missing_objects(self, pair) -> None:
        graph, compact = pair
        some = next(iter(graph.node_ids()))
        assert some in compact
        assert "definitely-not-a-node" not in compact
        assert not compact.has_node("definitely-not-a-node")
        assert not compact.has_edge("definitely-not-an-edge")

    def test_label_partition_slices_match_filtered_adjacency(self, pair) -> None:
        graph, compact = pair
        for label in graph.edge_labels():
            for node_id in graph.node_ids():
                index = compact.node_index_of(node_id)
                edges, targets, start, end = compact.label_out_slice(label, index)
                got = [compact.edge_id_at(edges[i]) for i in range(start, end)]
                expected = [
                    e.id for e in graph.out_edges(node_id) if e.label == label
                ]
                assert got == expected, (label, node_id)
                for i in range(start, end):
                    edge = graph.edge(compact.edge_id_at(edges[i]))
                    assert compact.node_id_at(targets[i]) == edge.target

    def test_mutators_refuse(self, pair) -> None:
        _, compact = pair
        with pytest.raises(FrozenGraphError):
            compact.add_node("nope", "Person")
        with pytest.raises(FrozenGraphError):
            compact.set_node_property(next(iter(compact.node_ids())), "age", 99)


# ----------------------------------------------------------------------
# Freeze / thaw / ensure_compact lifecycle on the mutable graph
# ----------------------------------------------------------------------
class TestFreezeLifecycle:
    def test_freeze_builds_core_and_rejects_writes(self) -> None:
        graph = figure1_graph()
        assert graph.compact_core() is None
        graph.freeze()
        core = graph.compact_core()
        assert isinstance(core, CompactGraph)
        assert core.version == graph.version
        with pytest.raises(FrozenGraphError):
            graph.add_node("nope", "Person")

    def test_thaw_restores_mutability_and_drops_core(self) -> None:
        graph = figure1_graph()
        graph.freeze()
        graph.thaw()
        graph.add_node("after-thaw", "Person")
        assert graph.compact_core() is None

    def test_mutation_invalidates_soft_core(self) -> None:
        graph = figure1_graph()
        core = graph.ensure_compact()
        assert graph.compact_core() is core
        graph.add_node("another", "Person")
        assert graph.compact_core() is None
        rebuilt = graph.ensure_compact()
        assert rebuilt is not core
        assert rebuilt.has_node("another")

    def test_ensure_compact_is_cached_per_version(self) -> None:
        graph = figure1_graph()
        assert graph.ensure_compact() is graph.ensure_compact()

    def test_snapshot_exposes_core_only_at_matching_version(self) -> None:
        graph = figure1_graph()
        snapshot = graph.snapshot()
        assert compact_core_of(snapshot) is None
        graph.ensure_compact()
        assert compact_core_of(snapshot) is graph.compact_core()
        stale = graph.snapshot()
        graph.add_node("moves-the-version", "Person")
        graph.ensure_compact()
        # The old snapshot pins the old version; the new core must not leak.
        assert compact_core_of(stale) is None

    def test_compact_core_of_handles_foreign_objects(self) -> None:
        assert compact_core_of(object()) is None
        assert compact_core_of(None) is None


# ----------------------------------------------------------------------
# No read builds a core: only freeze() / ensure_compact() do
# ----------------------------------------------------------------------
#: Closures, a join and a label scan: every access path a core could serve.
NO_BUILD_QUERIES = (
    "MATCH ALL ACYCLIC p = (?x)-[Knows+]->(?y)",
    "MATCH ALL TRAIL p = (?x)-[Knows/Likes]->(?y)",
    "MATCH ANY SHORTEST WALK p = (?x)-[Knows]->+(?y)",
    "MATCH ALL WALK p = (?x)-[Likes]->(?y)",
)


@pytest.fixture
def core_builds(monkeypatch) -> list[int]:
    """Spy on ``CompactGraph.from_graph``: one entry per core built."""
    builds: list[int] = []
    build = CompactGraph.from_graph.__func__

    def spy(cls, source):
        builds.append(source.version)
        return build(cls, source)

    monkeypatch.setattr(CompactGraph, "from_graph", classmethod(spy))
    return builds


def _oracle(graph: PropertyGraph, text: str) -> list[str]:
    fresh = Database(graph, plan_cache_size=0, executor="materialize")
    return [str(path) for path in fresh.query(text).paths]


def _read_everywhere(db: Database, services, text: str) -> list[list[str]]:
    """Run ``text`` once through every read surface; one row list each."""
    answers = [
        list(db.query(text).paths),
        db.execute(text).fetchall(),
        list(db.session().query(text).paths),
        list(db.engine.query(text, graph=db.snapshot()).paths),
    ]
    for service in services:
        for submit in (service.submit, service.try_submit):
            outcome = submit(text).result(timeout=30)
            assert outcome.ok, outcome.error
            answers.append(list(outcome.paths))
    return [[str(path) for path in rows] for rows in answers]


@pytest.fixture
def surfaces():
    """Figure 1 behind a ``Database`` and ``QueryService`` at 1 and 0 workers."""
    graph = figure1_graph()
    services = [QueryService(graph, workers=workers) for workers in (1, 0)]
    yield graph, Database(graph), services
    for service in services:
        service.close()


class TestNoReadBuildsACore:
    def test_write_interleaved_reads_build_nothing(self, surfaces, core_builds) -> None:
        graph, db, services = surfaces
        for step in range(3):
            graph.add_node(f"w{step}", "Person", {"name": f"W{step}"})
            graph.add_edge(f"we{step}", "n4", f"w{step}", "Knows")
            for text in NO_BUILD_QUERIES:
                expected = _oracle(graph, text)
                # Two reads at one version: where a freeze-on-read policy builds.
                for _ in range(2):
                    for rows in _read_everywhere(db, services, text):
                        assert rows == expected
        assert core_builds == []
        assert graph.compact_core() is None

    def test_quiescent_reads_build_nothing(self, surfaces, core_builds) -> None:
        graph, db, services = surfaces
        for text in NO_BUILD_QUERIES:
            expected = _oracle(graph, text)
            for _ in range(3):
                for rows in _read_everywhere(db, services, text):
                    assert rows == expected
        assert core_builds == []
        assert graph.compact_core() is None

    def test_explicit_builds_once_per_version_and_a_write_drops_it(
        self, surfaces, core_builds
    ) -> None:
        graph, db, services = surfaces
        text = NO_BUILD_QUERIES[0]
        core = graph.ensure_compact()
        assert graph.ensure_compact() is core
        assert core_builds == [graph.version]
        expected = _oracle(graph, text)
        for rows in _read_everywhere(db, services, text):
            assert rows == expected
        assert graph.compact_core() is core
        # A write drops the core; reads after it do not bring it back.
        graph.add_node("late-arrival", "Person")
        graph.add_edge("late-edge", "n4", "late-arrival", "Knows")
        assert graph.compact_core() is None
        expected = _oracle(graph, text)
        for _ in range(2):
            for rows in _read_everywhere(db, services, text):
                assert rows == expected
        assert graph.compact_core() is None
        assert len(core_builds) == 1
        # freeze() builds at the new version, once; thaw() drops it.
        graph.freeze()
        graph.freeze()
        assert core_builds == [core.version, graph.version]
        assert graph.compact_core().has_node("late-arrival")
        for rows in _read_everywhere(db, services, text):
            assert rows == expected
        graph.thaw()
        assert graph.compact_core() is None


class TestAutoCompact:
    def test_database_auto_compact_can_be_disabled(self) -> None:
        # The keyword is a deprecated no-op: any value warns, none builds.
        for value in (False, True):
            with pytest.warns(DeprecationWarning, match="freeze"):
                db = Database(figure1_graph(), auto_compact=value)
            query = "MATCH ALL ACYCLIC p = (?x)-[Knows+]->(?y)"
            for _ in range(3):
                db.query(query)
            assert db.graph.compact_core() is None


# ----------------------------------------------------------------------
# Int encoding: lossless round-trips
# ----------------------------------------------------------------------
class TestIntEncoding:
    def test_encode_decode_round_trips_every_closure_path(self) -> None:
        graph = figure1_graph()
        compact = graph.ensure_compact()
        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.TRAIL, 4)
        for path in paths:
            seq = encode_seq(compact, path)
            assert seq is not None
            assert decode_seq(compact, graph, seq) == path

    def test_encode_fails_cleanly_on_foreign_paths(self) -> None:
        graph = figure1_graph()
        other = complete_graph(3)
        compact = graph.ensure_compact()
        foreign = next(iter(PathSet.edges_of(other)))
        assert encode_seq(compact, foreign) is None

    def test_intpath_mirrors_path(self) -> None:
        graph = figure1_graph()
        compact = graph.ensure_compact()
        path = next(iter(recursive_closure(PathSet.edges_of(graph), Restrictor.TRAIL, 3)))
        intpath = IntPath.encode(compact, path)
        assert len(intpath) == len(path)
        assert intpath.decode(graph) == path
        assert intpath == IntPath.encode(compact, path)
        assert hash(intpath) == hash(IntPath.encode(compact, path))

    def test_intpathset_round_trips_preserving_order(self) -> None:
        graph = figure1_graph()
        compact = graph.ensure_compact()
        paths = recursive_closure(PathSet.edges_of(graph), Restrictor.ACYCLIC, 3)
        encoded = IntPathSet.encode(compact, paths)
        assert len(encoded) == len(paths)
        assert _ordered(encoded.decode(graph)) == _ordered(paths)


# ----------------------------------------------------------------------
# The headline contract: frozen results are byte-identical to mutable ones
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=lambda graph: graph.name)
def test_corpus_closures_identical_frozen_vs_mutable(graph: PropertyGraph) -> None:
    frozen = frozen_twin(graph)
    base = PathSet.edges_of(graph)
    frozen_base = PathSet.edges_of(frozen)
    for restrictor in RESTRICTORS:
        expected = recursive_closure(base, restrictor, COMMON_BOUND)
        got = recursive_closure(frozen_base, restrictor, COMMON_BOUND)
        assert _ordered(got) == _ordered(expected), (graph.name, restrictor)
        streamed = list(iter_recursive_closure(frozen_base, restrictor, COMMON_BOUND))
        reference = list(iter_recursive_closure(base, restrictor, COMMON_BOUND))
        assert [str(p) for p in streamed] == [str(p) for p in reference], (
            graph.name,
            restrictor,
        )


@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=lambda graph: graph.name)
def test_corpus_executors_identical_frozen_vs_mutable(graph: PropertyGraph) -> None:
    frozen = frozen_twin(graph)
    for restrictor in RESTRICTORS:
        plan = Recursive(EdgesScan(), restrictor, COMMON_BOUND)
        assert _ordered(execute_pipeline(plan, frozen)) == _ordered(
            execute_pipeline(plan, graph)
        ), (graph.name, restrictor, "pipeline")
        assert _ordered(evaluate_to_paths(plan, frozen)) == _ordered(
            evaluate_to_paths(plan, graph)
        ), (graph.name, restrictor, "evaluator")
    scan = NodesScan()
    assert _ordered(execute_pipeline(scan, frozen)) == _ordered(
        execute_pipeline(scan, graph)
    )


@pytest.mark.parametrize(
    "restrictor", RESTRICTORS, ids=lambda restrictor: restrictor.value
)
def test_budget_kill_mid_closure_matches_partial_progress(
    restrictor: Restrictor,
) -> None:
    """A budget kill must stop at the same point with the same counters."""
    graph = complete_graph(4)
    frozen = frozen_twin(graph)

    def kill(target: PropertyGraph):
        budget = QueryBudget(max_visited=10, check_interval=1)
        with pytest.raises(BudgetExceeded) as excinfo:
            recursive_closure(
                PathSet.edges_of(target), restrictor, 5, budget=budget
            )
        err = excinfo.value
        return (err.reason, err.paths_visited, err.stopped_at)

    assert kill(frozen) == kill(graph)


@pytest.mark.parametrize(
    "restrictor", RESTRICTORS, ids=lambda restrictor: restrictor.value
)
def test_budget_kill_mid_stream_yields_identical_prefix(
    restrictor: Restrictor,
) -> None:
    graph = complete_graph(4)
    frozen = frozen_twin(graph)

    def drain(target: PropertyGraph):
        budget = QueryBudget(max_visited=10, check_interval=1)
        produced: list[str] = []
        try:
            for path in iter_recursive_closure(
                PathSet.edges_of(target), restrictor, 5, budget=budget
            ):
                produced.append(str(path))
        except BudgetExceeded as err:
            return produced, err.reason
        return produced, None

    assert drain(frozen) == drain(graph)


# ----------------------------------------------------------------------
# Memory story: the columnar core is measurably smaller than the dicts
# ----------------------------------------------------------------------
class TestMemoryFootprint:
    def test_memory_report_shape(self) -> None:
        compact = figure1_graph().ensure_compact()
        report = compact.memory_report()
        for key in ("ids", "indexes", "tables", "columns", "csr", "partitions"):
            assert report[key] > 0, key
        assert report["total"] >= sum(
            report[k] for k in ("ids", "indexes", "tables", "columns", "csr")
        )
        assert report["bytes_per_object"] > 0

    def test_columns_beat_object_rows(self) -> None:
        """Adjacency + labels in flat arrays undercut per-object dicts."""
        graph = random_graph(200, 800, labels=("Knows", "Likes"), seed=7)
        compact = graph.ensure_compact()
        report = compact.memory_report()
        # The dict representation pays for Node/Edge objects plus per-node
        # adjacency lists; measure the dominant object overhead directly.
        object_bytes = sum(
            sys.getsizeof(node) + sys.getsizeof(node.properties)
            for node in graph.nodes()
        ) + sum(
            sys.getsizeof(edge) + sys.getsizeof(edge.properties)
            for edge in graph.edges()
        )
        columnar_bytes = report["columns"] + report["csr"] + report["partitions"]
        assert columnar_bytes < object_bytes
        # Hard budget so regressions show up in CI: CSR rows are 3 int64
        # columns (edge, target, source) each direction plus offsets, label
        # codes are int32 — generously under 1 KiB per object all-in.
        assert report["bytes_per_object"] < 1024

    def test_freeze_allocation_stays_within_budget(self) -> None:
        """Building the core allocates O(V+E) flat arrays, not object soup."""
        import tracemalloc

        graph = random_graph(200, 800, labels=("Knows", "Likes"), seed=7)
        tracemalloc.start()
        try:
            compact = CompactGraph.from_graph(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Peak build allocation must stay within a small constant factor of
        # the finished core (counting sort uses one temp pass per direction).
        assert peak < 8 * compact.memory_report()["total"]
