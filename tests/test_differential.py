"""Differential testing: every evaluation route must agree on random RPQs.

The system has four independently implemented ways to answer a regular path
query — the materializing algebra evaluator, the pull-based pipeline, the
traversal baseline (DFS + NFA simulation) and the automaton baseline
(product-graph BFS).  This suite generates seeded random regexes over the
shared 50-graph corpus (two-label variant) and locks down their agreement:

* **executor parity** holds for *arbitrary* regexes under every restrictor:
  both executors realize the same compositional semantics, so they must
  agree path-for-path;
* **traversal parity** holds exactly where whole-path restrictor semantics
  coincide with the algebra's per-ϕ semantics: single-label closures
  (the plan is one ϕ) and non-recursive regexes (no ϕ at all — under WALK
  directly, and under the other restrictors via post-filtering with the
  path predicates);
* the **automaton baseline** answers the endpoint-pair question for
  unbounded walks; bounded-walk results must be consistent with its pairs
  and shortest distances.

Seeds are fixed, so failures reproduce; bump ``REGEXES_PER_GRAPH`` locally
for a deeper sweep.
"""

from __future__ import annotations

import random

import pytest

from graph_corpus import closure_corpus
from repro.errors import BudgetExceeded
from repro.execution import QueryBudget
from repro.baselines.automaton_eval import evaluate_rpq_pairs
from repro.baselines.traversal import TraversalOptions, evaluate_rpq_traversal
from repro.engine.engine import PathQueryEngine
from repro.graph.model import PropertyGraph
from repro.paths.predicates import is_acyclic, is_simple, is_trail
from repro.semantics.restrictors import Restrictor

LABELS = ("Knows", "Likes")
CORPUS: list[PropertyGraph] = closure_corpus(labels=LABELS)

#: Per-ϕ bound used for WALK/SHORTEST sweeps (keeps cyclic corpora finite).
BOUND = 3
REGEXES_PER_GRAPH = 3

ALL_RESTRICTORS = (
    Restrictor.TRAIL,
    Restrictor.ACYCLIC,
    Restrictor.SIMPLE,
    Restrictor.WALK,
    Restrictor.SHORTEST,
)

#: Whole-path filters matching each restrictor, for the post-filter parity.
RESTRICTOR_PREDICATES = {
    Restrictor.TRAIL: is_trail,
    Restrictor.ACYCLIC: is_acyclic,
    Restrictor.SIMPLE: is_simple,
}


def _random_regex(rng: random.Random, depth: int) -> str:
    """An arbitrary random regex: labels, concat, union, plus, star."""
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


def _random_nonrecursive_regex(rng: random.Random, depth: int) -> str:
    """A random regex without closures (concatenation and union only)."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LABELS)
    if rng.random() < 0.6:
        return (
            f"{_random_nonrecursive_regex(rng, depth - 1)}"
            f"/{_random_nonrecursive_regex(rng, depth - 1)}"
        )
    return (
        f"({_random_nonrecursive_regex(rng, depth - 1)}"
        f"|{_random_nonrecursive_regex(rng, depth - 1)})"
    )


def _seeded_regexes(index: int, generator, depth: int = 2) -> list[str]:
    rng = random.Random(1000 + index)
    return [generator(rng, depth) for _ in range(REGEXES_PER_GRAPH)]


GRAPH_IDS = [graph.name for graph in CORPUS]


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=GRAPH_IDS)
def test_executors_agree_on_random_regexes(index: int) -> None:
    """All three executors agree path-for-path on arbitrary regexes.

    The automaton executor evaluates its native ϕShortest shapes on the
    product graph and falls back to the materializing evaluator elsewhere, so
    the random sweep exercises both routes against the compositional semantics.
    """
    graph = CORPUS[index]
    engine = PathQueryEngine(graph)
    for regex in _seeded_regexes(index, _random_regex):
        for restrictor in ALL_RESTRICTORS:
            materialized = engine.execute_regex(
                regex, restrictor=restrictor, max_length=BOUND, executor="materialize"
            )
            pipelined = engine.execute_regex(
                regex, restrictor=restrictor, max_length=BOUND, executor="pipeline"
            )
            assert materialized == pipelined, (graph.name, regex, restrictor)
            product = engine.execute_regex(
                regex, restrictor=restrictor, max_length=BOUND, executor="automaton"
            )
            assert materialized == product, (graph.name, regex, restrictor)


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=GRAPH_IDS)
def test_executors_agree_on_frozen_graphs(index: int) -> None:
    """Three-way parity holds on frozen (CompactGraph-backed) twins too.

    The automaton's ϕShortest product search runs the same code there as on
    the mutable graph; the other restrictors fall back to the evaluator.  Both
    must match the compositional result byte-for-byte.
    """
    graph = CORPUS[index].copy()
    graph.freeze()
    engine = PathQueryEngine(graph)
    for regex in _seeded_regexes(index, _random_regex)[:1]:
        for restrictor in ALL_RESTRICTORS:
            materialized = engine.execute_regex(
                regex, restrictor=restrictor, max_length=BOUND, executor="materialize"
            )
            product = engine.execute_regex(
                regex, restrictor=restrictor, max_length=BOUND, executor="automaton"
            )
            assert materialized == product, (graph.name, regex, restrictor)


@pytest.mark.parametrize("index", range(0, len(CORPUS), 5), ids=GRAPH_IDS[::5])
def test_executors_agree_on_budget_kills(index: int) -> None:
    """A mid-closure budget kill is typed and carries progress on all routes.

    Partial progress legitimately differs between evaluation strategies, so
    the parity claim here is about the *failure shape*: every executor must
    raise :class:`BudgetExceeded` with the visited-cap reason and non-trivial
    partial-progress counters — never a wrong answer or a hang.
    """
    graph = CORPUS[index]
    engine = PathQueryEngine(graph)
    for executor in ("materialize", "pipeline", "automaton"):
        budget = QueryBudget.from_timeout(3600.0, max_visited=1)
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.execute_regex(
                "(Knows|Likes)+",
                restrictor=Restrictor.SHORTEST,
                max_length=BOUND,
                executor=executor,
                budget=budget,
            )
        error = excinfo.value
        assert error.reason == "max_visited", (graph.name, executor)
        assert error.paths_visited >= 1, (graph.name, executor)
        assert error.stopped_at, (graph.name, executor)


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=GRAPH_IDS)
def test_traversal_agrees_on_single_label_closures(index: int) -> None:
    """On one-ϕ plans, whole-path and per-ϕ restrictor semantics coincide."""
    graph = CORPUS[index]
    engine = PathQueryEngine(graph)
    for restrictor in ALL_RESTRICTORS:
        bound = BOUND if restrictor in (Restrictor.WALK, Restrictor.SHORTEST) else None
        for executor in ("materialize", "pipeline"):
            algebra = engine.execute_regex(
                "Knows+", restrictor=restrictor, max_length=bound, executor=executor
            )
            baseline = evaluate_rpq_traversal(
                graph, "Knows+", TraversalOptions(restrictor=restrictor, max_length=bound)
            )
            assert algebra == baseline, (graph.name, restrictor, executor)
    star_algebra = engine.execute_regex("Knows*", restrictor=Restrictor.TRAIL)
    star_baseline = evaluate_rpq_traversal(
        graph, "Knows*", TraversalOptions(restrictor=Restrictor.TRAIL)
    )
    assert star_algebra == star_baseline, graph.name


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=GRAPH_IDS)
def test_traversal_agrees_on_nonrecursive_regexes(index: int) -> None:
    """Without ϕ nodes the algebra produces all matching walks.

    The traversal baseline under WALK must agree exactly; under the
    edge/node-repetition restrictors the baseline prunes *whole* paths, which
    on a ϕ-free plan equals post-filtering the walks with the corresponding
    path predicate.
    """
    graph = CORPUS[index]
    engine = PathQueryEngine(graph)
    # Non-recursive regexes of depth 2 concatenate at most 4 labels.
    walk_bound = 8
    for regex in _seeded_regexes(index, _random_nonrecursive_regex):
        walks = engine.execute_regex(regex, restrictor=Restrictor.WALK, max_length=walk_bound)
        baseline_walks = evaluate_rpq_traversal(
            graph, regex, TraversalOptions(restrictor=Restrictor.WALK, max_length=walk_bound)
        )
        assert walks == baseline_walks, (graph.name, regex)
        for restrictor, predicate in RESTRICTOR_PREDICATES.items():
            filtered = walks.filter(predicate)
            baseline = evaluate_rpq_traversal(
                graph, regex, TraversalOptions(restrictor=restrictor)
            )
            assert filtered == baseline, (graph.name, regex, restrictor)


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=GRAPH_IDS)
def test_automaton_pairs_consistent_with_bounded_walks(index: int) -> None:
    """The product-graph BFS and the bounded-walk evaluation cross-check.

    ``evaluate_rpq_pairs`` answers over *unbounded* walks, so (a) every
    endpoint pair the algebra produces must be a known pair, and (b) every
    pair whose shortest matching walk fits the bound must be produced, with
    matching minimal length: a walk of total length <= BOUND keeps every ϕ
    segment within the per-ϕ bound, so the compositional evaluation cannot
    miss it.
    """
    graph = CORPUS[index]
    engine = PathQueryEngine(graph)
    for regex in _seeded_regexes(index, _random_regex):
        walks = engine.execute_regex(regex, restrictor=Restrictor.WALK, max_length=BOUND)
        product = evaluate_rpq_pairs(graph, regex)
        endpoints = walks.endpoints()
        assert endpoints <= product.pairs, (graph.name, regex)
        min_lengths: dict[tuple[str, str], int] = {}
        for path in walks:
            pair = path.endpoints()
            length = path.len()
            if pair not in min_lengths or length < min_lengths[pair]:
                min_lengths[pair] = length
        for pair, distance in product.distances.items():
            if distance <= BOUND:
                assert pair in min_lengths, (graph.name, regex, pair)
                assert min_lengths[pair] == distance, (graph.name, regex, pair)
