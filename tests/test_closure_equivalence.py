"""Seeded-random equivalence properties of the closure strategies.

For every restrictor, independent evaluation paths must agree exactly:

* :func:`recursive_closure` / :func:`iter_recursive_closure` — the one closure
  kernel (interleaved tuples, bitmask state), drained and streamed;
* :func:`~repro.baselines.closure.recursive_closure_baseline` — the
  pre-incremental per-round-rebuild strategy with full predicate re-scans,
  which shares no code with the kernel;
* :func:`recursive_closure_postfilter` — enumerate bounded walks, then filter
  (the ablation oracle);
* the physical pipeline's ``Recursive`` operator and the logical evaluator.

The graphs cover the nasty shapes: cyclic graphs, self-loops, parallel edges
(multigraphs), dense cliques and random multigraphs.  All strategies are
compared under a common ``max_length`` bound, for which the equivalence holds
unconditionally; where the bound provably covers every conforming path, the
unbounded pruned closure is asserted equal as well.

The second half pins what the kernel's representation could get wrong: the
streaming order (it *is* the blocking order, for all five restrictors), masks
wider than a machine word, identifiers shared between a node and an edge,
multi-edge base segments whose probed identifiers repeat among themselves,
ϕShortest's pop order (the baseline's heap order, row for row), the
deduplication set that only bases of mixed lengths need, and budget kills that
report the same place blocking and streaming.
"""

from __future__ import annotations

import pytest

from graph_corpus import closure_corpus
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import EdgesScan, Recursive
from repro.baselines.closure import recursive_closure_baseline
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import chain_graph, complete_graph, cycle_graph
from repro.engine.physical import execute_pipeline
from repro.errors import BudgetExceeded
from repro.execution import QueryBudget
from repro.graph.builder import GraphBuilder
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.paths.pathset import PathSet
from repro.paths.predicates import is_acyclic, is_simple, is_trail
from repro.semantics import restrictors
from repro.semantics.restrictors import (
    Restrictor,
    iter_recursive_closure,
    recursive_closure,
    recursive_closure_postfilter,
)

#: Bound used for every bounded comparison; small enough to keep the walk
#: enumeration of the postfilter oracle tractable on ~50 graphs.
COMMON_BOUND = 6

ALL_GRAPHS: list[PropertyGraph] = closure_corpus()

RESTRICTORS = tuple(Restrictor)


def _covering_bound(graph: PropertyGraph, restrictor: Restrictor) -> int | None:
    """A bound that provably covers every conforming closure path, if tractable.

    Trails have at most ``|E|`` edges; acyclic and simple paths at most
    ``|V|``; shortest compositions of single edges at most ``|V|``.  WALK has
    no covering bound on cyclic inputs.
    """
    if restrictor is Restrictor.WALK:
        return None
    if restrictor is Restrictor.TRAIL:
        return len(graph.edge_ids())
    return len(graph.node_ids())


@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=lambda graph: graph.name)
def test_all_strategies_agree_under_common_bound(graph: PropertyGraph) -> None:
    base = PathSet.edges_of(graph)
    for restrictor in RESTRICTORS:
        pruned = recursive_closure(base, restrictor, COMMON_BOUND)
        oracle = recursive_closure_postfilter(base, restrictor, COMMON_BOUND)
        assert pruned == oracle, (graph.name, restrictor)
        baseline = recursive_closure_baseline(base, restrictor, COMMON_BOUND)
        assert pruned == baseline, (graph.name, restrictor)
        plan = Recursive(EdgesScan(), restrictor, COMMON_BOUND)
        assert pruned == execute_pipeline(plan, graph), (graph.name, restrictor)
        assert pruned == evaluate_to_paths(plan, graph), (graph.name, restrictor)


@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=lambda graph: graph.name)
def test_unbounded_pruned_closure_is_covered(graph: PropertyGraph) -> None:
    """Where the covering bound is tractable, the unbounded closure equals it."""
    base = PathSet.edges_of(graph)
    for restrictor in (Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE, Restrictor.SHORTEST):
        bound = _covering_bound(graph, restrictor)
        if bound > COMMON_BOUND + 2:
            continue  # walk enumeration for the oracle would be intractable
        unbounded = recursive_closure(base, restrictor)
        oracle = recursive_closure_postfilter(base, restrictor, bound)
        assert unbounded == oracle, (graph.name, restrictor)
        assert unbounded == recursive_closure_baseline(base, restrictor), (
            graph.name,
            restrictor,
        )


# ----------------------------------------------------------------------
# Streaming order == blocking order
# ----------------------------------------------------------------------
def _seed_sets(base: PathSet) -> list[PathSet | None]:
    """Unseeded, plus σ[first = v](base) for the first and the last base path's first node."""
    paths = list(base)
    if not paths:
        return [None]
    firsts = {paths[0].first(), paths[-1].first()}
    return [None] + [base.filter(lambda path, v=v: path.first() == v) for v in sorted(firsts)]


@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=lambda graph: graph.name)
def test_streaming_order_is_blocking_order(graph: PropertyGraph) -> None:
    """``iter_recursive_closure`` yields what ``recursive_closure`` returns, row for row.

    For WALK this is only true since the stream starts from base order (it used
    to bootstrap from a hash-ordered set); run under two ``PYTHONHASHSEED``
    values in CI, where a hash-ordered start would show.
    """
    base = PathSet.edges_of(graph)
    for restrictor in RESTRICTORS:
        for seeds in _seed_sets(base):
            blocking = list(recursive_closure(base, restrictor, COMMON_BOUND, seeds=seeds))
            streamed = list(iter_recursive_closure(base, restrictor, COMMON_BOUND, seeds=seeds))
            assert streamed == blocking, (graph.name, restrictor, seeds is not None)
            origin = base if seeds is None else seeds
            if restrictor is Restrictor.WALK:
                assert streamed[: len(origin)] == list(origin), (graph.name, "base order first")


@pytest.mark.parametrize("graph", ALL_GRAPHS, ids=lambda graph: graph.name)
def test_shortest_order_is_the_baseline_order(graph: PropertyGraph) -> None:
    """ϕShortest's length-bucket queue pops in the baseline heap's ``(length, push
    order)`` order: blocking, streaming and seeded lists equal the baseline's
    (seeded: its rows that start at a seed), at a short and a common bound."""
    base = PathSet.edges_of(graph)
    shortest = Restrictor.SHORTEST
    for bound in (3, COMMON_BOUND):
        expected = list(recursive_closure_baseline(base, shortest, bound))
        assert list(recursive_closure(base, shortest, bound)) == expected, (graph.name, bound)
        assert list(iter_recursive_closure(base, shortest, bound)) == expected, (graph.name, bound)
        for seeds in _seed_sets(base)[1:]:
            firsts = {path.first() for path in seeds}
            seeded = list(recursive_closure(base, shortest, bound, seeds=seeds))
            assert seeded == [path for path in expected if path.first() in firsts], (
                graph.name,
                bound,
            )


# ----------------------------------------------------------------------
# Masks wider than a machine word
# ----------------------------------------------------------------------
PRUNED = (Restrictor.TRAIL, Restrictor.ACYCLIC, Restrictor.SIMPLE)


@pytest.mark.parametrize(
    "graph", [cycle_graph(100, name="cycle-100"), chain_graph(160, name="chain-160")],
    ids=lambda graph: graph.name,
)
@pytest.mark.parametrize("restrictor", PRUNED)
def test_wide_masks_agree_with_the_baseline(graph: PropertyGraph, restrictor: Restrictor) -> None:
    """100 / 159 interned bits, unbounded: every path of the cycle wraps into high bits."""
    base = PathSet.edges_of(graph)
    assert list(recursive_closure(base, restrictor)) == list(
        recursive_closure_baseline(base, restrictor)
    )


@pytest.mark.parametrize("restrictor", PRUNED)
def test_300_node_cycle_from_three_seeds(restrictor: Restrictor) -> None:
    """300 bits.  The full closure (90 000 paths, ~0.7 GB with an oracle beside it) is
    too big for tier-1, so the closure is seeded at the lowest, a middle and the
    highest bit and checked against what a cycle admits: from each node one path
    per length, every one conforming, the last one closing the cycle (or, for
    ACYCLIC, stopping one short of it)."""
    graph = cycle_graph(300)
    base = PathSet.edges_of(graph)
    starts = ("v0", "v150", "v299")
    seeds = base.filter(lambda path: path.first() in starts)
    closure = list(recursive_closure(base, restrictor, seeds=seeds))
    assert closure == list(iter_recursive_closure(base, restrictor, seeds=seeds))
    predicate = {Restrictor.TRAIL: is_trail, Restrictor.ACYCLIC: is_acyclic, Restrictor.SIMPLE: is_simple}
    assert all(predicate[restrictor](path) for path in closure)
    longest = 299 if restrictor is Restrictor.ACYCLIC else 300
    for start in starts:
        lengths = [path.len() for path in closure if path.first() == start]
        assert lengths == list(range(1, longest + 1)), (restrictor, start)
    assert len(closure) == 3 * longest


# ----------------------------------------------------------------------
# Identifiers are opaque: a node and an edge may share one
# ----------------------------------------------------------------------
def test_a_node_and_an_edge_may_share_an_identifier() -> None:
    """The kernel interns bits over one kind of identifier per closure and tells a
    tuple's slots apart by parity, so an edge called like a node changes nothing.
    (``PropertyGraph`` refuses such a graph; unvalidated paths do not.)"""
    graph = PropertyGraph(name="shared-ids")
    triangle = [("a", "b", "a"), ("b", "c", "b"), ("c", "a", "c"), ("a", "a", "x")]
    shared = PathSet(
        Path(graph, [source, target], [edge], validate=False) for source, edge, target in triangle
    )
    renamed = PathSet(
        Path(graph, [source, target], ["e-" + edge], validate=False)
        for source, edge, target in triangle
    )

    def rename(paths) -> list[tuple]:
        return [(path.node_ids, tuple("e-" + edge for edge in path.edge_ids)) for path in paths]

    for restrictor in RESTRICTORS:
        closure = recursive_closure(shared, restrictor, 5)
        assert list(closure) == list(recursive_closure_baseline(shared, restrictor, 5)), restrictor
        assert list(closure) == list(iter_recursive_closure(shared, restrictor, 5)), restrictor
        expected = recursive_closure(renamed, restrictor, 5)
        assert rename(closure) == [(path.node_ids, path.edge_ids) for path in expected], restrictor


# ----------------------------------------------------------------------
# Multi-edge base segments
# ----------------------------------------------------------------------
def _two_label_graph() -> PropertyGraph:
    """A/B edges over four nodes with a self-loop per label and a parallel A edge."""
    builder = GraphBuilder("two-labels")
    for node in "wxyz":
        builder.node(node, "N")
    for source, target, label in [
        ("w", "x", "A"), ("w", "x", "A"), ("x", "x", "A"), ("y", "z", "A"), ("z", "w", "A"),
        ("x", "y", "B"), ("x", "x", "B"), ("z", "z", "B"), ("x", "w", "B"), ("w", "y", "B"),
    ]:
        builder.edge(source, target, label)
    return builder.build()


def test_multi_edge_segments_exercise_distinct_and_the_simple_split() -> None:
    """Base = (A ⋈ B) ∪ (A ⋈ B ⋈ A): extensions whose own nodes repeat (``distinct`` is
    false: a self-loop inside the segment) and, for SIMPLE, segments whose interior
    and last node must be told apart (the last may close the cycle, the interior not)."""
    graph = _two_label_graph()
    edges = PathSet.edges_of(graph)
    a = edges.filter(lambda path: graph.edge(path.edge_ids[0]).label == "A")
    b = edges.filter(lambda path: graph.edge(path.edge_ids[0]).label == "B")
    ab = a.join(b)
    base = ab.union(ab.join(a))
    assert {path.len() for path in base} == {2, 3}
    assert any(not is_acyclic(path) for path in base) and any(is_simple(path) for path in base)
    for restrictor in RESTRICTORS:
        for bound in (6, 9):
            closure = recursive_closure(base, restrictor, bound)
            assert list(closure) == list(recursive_closure_baseline(base, restrictor, bound)), (
                restrictor,
                bound,
            )
            assert closure == recursive_closure_postfilter(base, restrictor, bound)
            assert list(closure) == list(iter_recursive_closure(base, restrictor, bound))
    for restrictor in PRUNED:
        assert list(recursive_closure(base, restrictor)) == list(
            recursive_closure_baseline(base, restrictor)
        )


# ----------------------------------------------------------------------
# The deduplication set: only bases of mixed lengths need it
# ----------------------------------------------------------------------
def _knows(graph: PropertyGraph) -> PathSet:
    return PathSet.edges_of(graph).filter(lambda path: graph.label_of(path.edge(1)) == "Knows")


def _dedup_bases() -> list[tuple[str, PathSet, bool]]:
    """``(name, base, whether the kernel must keep a dedup set)``.

    ``Nodes(G) ∪ Edges(G)`` has lengths {0, 1}: ``(n) ∘ e`` is the start path ``e``.
    ``Knows ∪ Knows/Knows`` has lengths {1, 2}: on Figure 1 ``e1 ∘ e2`` is the base
    path ``(n1, e1, n2, e2, n3)``, and on the 4-clique every two-edge path is
    built a second time.  ``Knows/Knows`` alone splits one way only."""
    bases = []
    for graph in (figure1_graph(), complete_graph(4)):
        knows = _knows(graph)
        two = knows.join(knows)
        atoms = PathSet.nodes_of(graph).union(PathSet.edges_of(graph))
        bases += [
            (f"{graph.name}:nodes+edges", atoms, True),
            (f"{graph.name}:knows+knows2", knows.union(two), True),
            (f"{graph.name}:knows2", two, False),
        ]
    return bases


DEDUP_BASES = _dedup_bases()


@pytest.fixture
def dedup_routes(monkeypatch: pytest.MonkeyPatch) -> list[bool]:
    """The ``dedup`` flag every kernel loop started in this test was handed."""
    routes: list[bool] = []
    for name in ("_rounds", "_shortest"):
        loop = getattr(restrictors, name)

        def spy(*args, _loop=loop):
            routes.append(args[-1])
            return _loop(*args)

        monkeypatch.setattr(restrictors, name, spy)
    return routes


@pytest.mark.parametrize("name, base, dedup", DEDUP_BASES, ids=[name for name, _, _ in DEDUP_BASES])
def test_dedup_guard_matches_the_baseline(
    name: str, base: PathSet, dedup: bool, dedup_routes: list[bool]
) -> None:
    """Mixed lengths still deduplicate; a uniform multi-edge base runs set-free."""
    lengths = {path.len() for path in base}
    assert (len(lengths) > 1) is dedup, lengths
    for restrictor in RESTRICTORS:
        expected = list(recursive_closure_baseline(base, restrictor, COMMON_BOUND))
        assert list(recursive_closure(base, restrictor, COMMON_BOUND)) == expected, restrictor
        assert list(iter_recursive_closure(base, restrictor, COMMON_BOUND)) == expected, restrictor
    assert dedup_routes == [dedup] * (2 * len(RESTRICTORS))


@pytest.mark.parametrize("restrictor", RESTRICTORS)
@pytest.mark.parametrize("max_visited", [0, 7, 60])
def test_dedup_guard_budget_kill_is_the_same_with_and_without_the_set(
    restrictor: Restrictor, max_visited: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """On a uniform base the set rejects nothing, so forcing it on changes neither
    the rows nor where a tight ``max_visited`` stops them, blocking or streaming."""
    knows = _knows(complete_graph(5))
    base = knows.join(knows)

    def runs() -> list[tuple]:
        def blocking(budget: QueryBudget) -> None:
            recursive_closure(base, restrictor, 4, budget=budget)

        def streaming(budget: QueryBudget) -> None:
            for _ in iter_recursive_closure(base, restrictor, 4, budget=budget):
                pass

        return [
            list(recursive_closure(base, restrictor, 4)),
            _outcome(blocking, QueryBudget(max_visited=max_visited)),
            _outcome(streaming, QueryBudget(max_visited=max_visited)),
        ]

    set_free = runs()
    assert set_free[1] == set_free[2]
    if max_visited < 50:
        assert set_free[1][0] == "max_visited", set_free[1]
    for name in ("_rounds", "_shortest"):
        loop = getattr(restrictors, name)
        monkeypatch.setattr(restrictors, name, lambda *args, _loop=loop: _loop(*args[:-1], True))
    assert runs() == set_free


# ----------------------------------------------------------------------
# Budget kills: blocking and streaming stop in the same place
# ----------------------------------------------------------------------
def _outcome(run, budget: QueryBudget) -> tuple[str, str, int, int]:
    """Where ``run`` was killed, or ``finished`` with what it charged."""
    try:
        run(budget)
    except BudgetExceeded as error:
        return error.reason, error.stopped_at, error.depth_reached, error.paths_visited
    return "finished", "", budget.depth_reached, budget.paths_visited


@pytest.mark.parametrize("restrictor", RESTRICTORS)
@pytest.mark.parametrize("max_visited", [0, 40, 700])
def test_budget_kill_is_the_same_blocking_and_streaming(
    restrictor: Restrictor, max_visited: int
) -> None:
    base = PathSet.edges_of(complete_graph(6))
    label = f"ϕ{restrictor.value.capitalize()}"

    def blocking(budget: QueryBudget) -> None:
        recursive_closure(base, restrictor, 5, budget=budget)

    def streaming(budget: QueryBudget) -> None:
        for _ in iter_recursive_closure(base, restrictor, 5, budget=budget):
            pass

    outcome = _outcome(blocking, QueryBudget(max_visited=max_visited))
    assert outcome == _outcome(streaming, QueryBudget(max_visited=max_visited))
    if max_visited < 100:  # ϕShortest pops 120 paths in all, the others build thousands
        assert outcome[:2] == ("max_visited", label)

    # ϕShortest's heap loop reads the clock through charge(), once per check interval.
    interval = 1 if restrictor is Restrictor.SHORTEST else 1024
    outcome = _outcome(blocking, QueryBudget(deadline=0.0, check_interval=interval))
    assert outcome == _outcome(streaming, QueryBudget(deadline=0.0, check_interval=interval))
    if restrictor is not Restrictor.SHORTEST:  # it finishes inside its first charge batch
        assert outcome[:3] == ("deadline", label, 1)
