"""Workload definitions shared by the benchmark harness.

A *workload* bundles a graph, a set of queries (regexes or extended-GQL
strings) and metadata describing which paper artifact it reproduces, so every
benchmark file in ``benchmarks/`` stays declarative.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import chain_graph, cycle_graph, grid_graph, layered_graph, random_graph
from repro.graph.model import PropertyGraph

__all__ = [
    "Workload",
    "BatchWorkload",
    "figure1_workload",
    "scaling_workloads",
    "selectivity_workloads",
    "executor_workloads",
    "service_workloads",
    "mixed_service_workload",
    "quick_mode",
    "select_sizes",
]

_SizeT = TypeVar("_SizeT")


def quick_mode() -> bool:
    """Whether the ``quick`` benchmark mode is active (``BENCH_QUICK=1``).

    In quick mode every size-parameterized benchmark runs only at its smallest
    configured size, so a full pass over ``benchmarks/`` stays cheap enough
    for CI while still exercising every code path and refreshing the
    ``BENCH_*.json`` perf trajectory.
    """
    return os.environ.get("BENCH_QUICK", "") not in ("", "0")


def select_sizes(sizes: Sequence[_SizeT]) -> Sequence[_SizeT]:
    """Return ``sizes`` unchanged, or only the smallest in quick mode.

    Benchmarks list their sizes in ascending order; quick mode keeps the
    first entry.
    """
    return sizes[:1] if quick_mode() else sizes


@dataclass
class Workload:
    """A named benchmark workload.

    Attributes:
        name: Short identifier used in benchmark output.
        graph_factory: Zero-argument callable building the workload graph.
        regex: The regular path expression the workload evaluates.
        description: What paper artifact or scenario the workload reproduces.
        parameters: Free-form parameters recorded alongside results.
    """

    name: str
    graph_factory: Callable[[], PropertyGraph]
    regex: str
    description: str = ""
    parameters: dict = field(default_factory=dict)

    def build_graph(self) -> PropertyGraph:
        """Build (or rebuild) the workload graph."""
        return self.graph_factory()


def figure1_workload(regex: str = "Knows+") -> Workload:
    """The paper's running example: the Figure 1 graph and the ``Knows+`` pattern."""
    return Workload(
        name="figure1",
        graph_factory=figure1_graph,
        regex=regex,
        description="Figure 1 LDBC SNB snippet (Tables 3 and 5)",
    )


def scaling_workloads(sizes: tuple[int, ...] = (50, 100, 200, 400)) -> list[Workload]:
    """Graphs of increasing size for the scaling experiment (E-S1)."""
    workloads = []
    for size in sizes:
        workloads.append(
            Workload(
                name=f"chain-{size}",
                graph_factory=lambda n=size: chain_graph(n),
                regex="Knows+",
                description="acyclic chain; single path per pair",
                parameters={"nodes": size, "shape": "chain"},
            )
        )
        workloads.append(
            Workload(
                name=f"random-{size}",
                graph_factory=lambda n=size: random_graph(n, 2 * n, seed=7),
                regex="Knows+",
                description="uniform random multigraph",
                parameters={"nodes": size, "shape": "random"},
            )
        )
        workloads.append(
            Workload(
                name=f"grid-{size}",
                graph_factory=lambda n=size: grid_graph(max(2, int(n ** 0.5)), max(2, int(n ** 0.5))),
                regex="Knows+",
                description="grid; exponentially many equal-length shortest paths",
                parameters={"nodes": size, "shape": "grid"},
            )
        )
    return workloads


def selectivity_workloads(num_nodes: int = 120, seed: int = 11) -> list[Workload]:
    """Workloads with varying label selectivity for the optimizer ablation (E-S2)."""
    mixes = {
        "high-selectivity": ("Knows", "Likes", "Has_creator", "Follows", "Replies"),
        "medium-selectivity": ("Knows", "Likes", "Has_creator"),
        "low-selectivity": ("Knows",),
    }
    workloads = []
    for name, labels in mixes.items():
        workloads.append(
            Workload(
                name=name,
                graph_factory=lambda labs=labels: random_graph(
                    num_nodes, 3 * num_nodes, labels=labs, seed=seed
                ),
                regex="Knows/Knows",
                description="label-selectivity sweep for selection pushdown",
                parameters={"labels": list(labels)},
            )
        )
    return workloads


def executor_workloads(num_nodes: int | None = None, seed: int = 13) -> list[Workload]:
    """Streaming-friendly workloads for the executor comparison (BENCH_engine.json).

    Every workload is a join/union plan with no recursion and carries a
    ``limit`` parameter for the early-termination (``LIMIT k``) measurement:
    the pipeline stops pulling after ``limit`` paths while the materializing
    evaluator always computes the full join.
    """
    nodes = num_nodes if num_nodes is not None else (60 if quick_mode() else 200)
    edges = 3 * nodes
    factory = lambda: random_graph(  # noqa: E731 - shared by all workloads
        nodes, edges, labels=("Knows", "Likes"), seed=seed
    )
    return [
        Workload(
            name=f"join2-{nodes}",
            graph_factory=factory,
            regex="Knows/Knows",
            description="two-step join; streaming hash join end to end",
            parameters={"nodes": nodes, "edges": edges, "limit": 5},
        ),
        Workload(
            name=f"join3-{nodes}",
            graph_factory=factory,
            regex="Knows/Knows/Knows",
            description="three-step join; deepest streaming pipeline",
            parameters={"nodes": nodes, "edges": edges, "limit": 5},
        ),
        Workload(
            name=f"union-{nodes}",
            graph_factory=factory,
            regex="Knows|Likes",
            description="label union; pure scan + filter streaming",
            parameters={"nodes": nodes, "edges": edges, "limit": 10},
        ),
    ]


@dataclass
class BatchWorkload:
    """A serving workload: one graph plus a batch of query texts.

    Attributes:
        name: Short identifier used in benchmark output.
        graph_factory: Zero-argument callable building the workload graph.
        queries: The extended-GQL query texts, in submission order.
        description: What serving scenario the workload models.
        parameters: Free-form parameters recorded alongside results.
    """

    name: str
    graph_factory: Callable[[], PropertyGraph]
    queries: list[str] = field(default_factory=list)
    description: str = ""
    parameters: dict = field(default_factory=dict)

    def build_graph(self) -> PropertyGraph:
        """Build (or rebuild) the workload graph."""
        return self.graph_factory()


_SERVICE_LABELS = ("Knows", "Likes", "Follows")


def _service_query_pool(seed: int) -> list[str]:
    """Distinct non-recursive GQL texts (label sequences joined by ``/`` or ``|``)."""
    rng = random.Random(seed)
    pool: list[str] = []
    seen: set[str] = set()
    sequences: list[list[str]] = [[label] for label in _SERVICE_LABELS]
    while sequences:
        layer: list[list[str]] = []
        for sequence in sequences:
            regex = sequence[0]
            for index, label in enumerate(sequence[1:]):
                regex += ("/" if index % 2 == 0 else "|") + label
            for restrictor in ("TRAIL", "ACYCLIC", "SIMPLE"):
                text = f"MATCH ALL {restrictor} p = (?x)-[{regex}]->(?y)"
                if text not in seen:
                    seen.add(text)
                    pool.append(text)
            if len(sequence) < 4:
                layer.extend(sequence + [label] for label in _SERVICE_LABELS)
        sequences = layer
    rng.shuffle(pool)
    return pool


def service_workloads(seed: int = 17) -> list[BatchWorkload]:
    """Cache-hot and cache-cold batches for the query-service throughput bench.

    Both workloads share one read-only random graph and one batch size; they
    differ only in the number of *distinct* query texts:

    * **cache-hot** repeats a small hot set, the repeat-heavy read-only
      traffic a result cache collapses to one evaluation per distinct query;
    * **cache-cold** makes every text distinct, so nothing is reusable and
      the measurement exposes the service's raw per-query overhead.
    """
    quick = quick_mode()
    nodes = 60 if quick else 150
    edges = 3 * nodes
    batch_size = 80 if quick else 240
    hot_unique = 8
    factory = lambda: random_graph(  # noqa: E731 - shared by both workloads
        nodes, edges, labels=_SERVICE_LABELS, seed=seed, name="service"
    )
    pool = _service_query_pool(seed)
    assert len(pool) >= batch_size, "query pool too small for the batch size"
    rng = random.Random(seed + 1)
    hot = [pool[index % hot_unique] for index in range(batch_size)]
    rng.shuffle(hot)
    shared = {"nodes": nodes, "edges": edges, "batch_size": batch_size}
    return [
        BatchWorkload(
            name="cache-hot",
            graph_factory=factory,
            queries=hot,
            description="repeat-heavy read-only traffic (8 distinct queries)",
            parameters={**shared, "unique_queries": hot_unique},
        ),
        BatchWorkload(
            name="cache-cold",
            graph_factory=factory,
            queries=pool[:batch_size],
            description="every query distinct; no result reuse possible",
            parameters={**shared, "unique_queries": batch_size},
        ),
    ]


def mixed_service_workload(seed: int = 23) -> BatchWorkload:
    """Mixed read/write traffic for the invalidation-policy comparison.

    The schedule (``parameters["steps"]``) interleaves repeat-heavy reads
    over a small hot query set with writes.  Most writes are *disjoint* from
    every query footprint (audit-style ``Audit`` nodes and ``Flagged`` edges
    no query reads); a minority add ``Knows`` edges that genuinely change
    answers.  Under whole-version invalidation every write turns the next
    repeat into a miss; delta-aware invalidation only recomputes when the
    write's labels intersect the query's footprint — which is exactly the
    hit-rate gap this workload measures.

    Steps are fully materialized tuples (ids and endpoints precomputed) so
    the same schedule replays identically across invalidation modes and the
    cache-free reference run.
    """
    quick = quick_mode()
    nodes = 60 if quick else 150
    edges = 3 * nodes
    total_steps = 120 if quick else 300
    hot_unique = 8
    factory = lambda: random_graph(  # noqa: E731 - rebuilt per measured mode
        nodes, edges, labels=_SERVICE_LABELS, seed=seed, name="mixed"
    )
    hot = _service_query_pool(seed)[:hot_unique]
    rng = random.Random(seed + 2)
    audit_nodes = ["audit0", "audit1"]
    steps: list[tuple] = [("audit-node", "audit0"), ("audit-node", "audit1")]
    counters = {"audit": 2, "edge": 0, "reads": 0, "writes": 2, "hot_writes": 0}
    while len(steps) < total_steps:
        roll = rng.random()
        if roll < 0.75:
            steps.append(("query", rng.choice(hot)))
            counters["reads"] += 1
        elif roll < 0.90:
            node_id = f"audit{counters['audit']}"
            counters["audit"] += 1
            counters["writes"] += 1
            audit_nodes.append(node_id)
            steps.append(("audit-node", node_id))
        elif roll < 0.95:
            counters["edge"] += 1
            counters["writes"] += 1
            steps.append(
                (
                    "audit-edge",
                    f"flag{counters['edge']}",
                    rng.choice(audit_nodes),
                    rng.choice(audit_nodes),
                )
            )
        else:
            counters["edge"] += 1
            counters["writes"] += 1
            counters["hot_writes"] += 1
            steps.append(
                (
                    "hot-edge",
                    f"hot{counters['edge']}",
                    rng.choice(audit_nodes),
                    rng.choice(audit_nodes),
                )
            )
    return BatchWorkload(
        name="mixed-read-write",
        graph_factory=factory,
        queries=hot,
        description="hot reads racing mostly-disjoint writes; invalidation-policy A/B",
        parameters={
            "nodes": nodes,
            "edges": edges,
            "steps": steps,
            "unique_queries": hot_unique,
            "reads": counters["reads"],
            "writes": counters["writes"],
            "hot_writes": counters["hot_writes"],
        },
    )


def cyclic_workloads(sizes: tuple[int, ...] = (4, 8, 16, 32)) -> list[Workload]:
    """Pure cycles of increasing size for the restrictor-cost experiment (E-S3)."""
    return [
        Workload(
            name=f"cycle-{size}",
            graph_factory=lambda n=size: cycle_graph(n),
            regex="Knows+",
            description="directed cycle; worst case for unbounded walks",
            parameters={"nodes": size, "shape": "cycle"},
        )
        for size in sizes
    ]


def dag_workloads(depths: tuple[int, ...] = (3, 4, 5, 6)) -> list[Workload]:
    """Layered DAGs whose walk counts grow exponentially with depth."""
    return [
        Workload(
            name=f"layered-{depth}",
            graph_factory=lambda d=depth: layered_graph(layers=d, width=4, fanout=2, seed=3),
            regex="Knows+",
            description="layered DAG; exponential walk count without cycles",
            parameters={"layers": depth, "width": 4},
        )
        for depth in depths
    ]
