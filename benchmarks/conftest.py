"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (each
module's docstring names which) and additionally measures the wall-clock
cost of the operation via pytest-benchmark.  The reproduced rows are printed
with ``-s`` / captured in the benchmark output so they can be compared with
the paper side by side.

Two harness modes exist (PERFORMANCE.md, "Running the benchmarks"):

* the default mode runs every size-parameterized benchmark at all sizes;
* the **quick** mode (``BENCH_QUICK=1``, or selecting the ``quick`` marker)
  runs each bench at its smallest configured size.

In both modes the session writes ``BENCH_closure.json`` (to the directory
:func:`bench_json_path` picks) via
:func:`repro.bench.reporting.write_bench_json`: wall-clock timings of the
incremental closure engine (:func:`~repro.semantics.restrictors.recursive_closure`)
against the pre-incremental baseline
(:func:`~repro.baselines.closure.recursive_closure_baseline`) and the
product-graph automaton executor (:class:`~repro.engine.automaton.AutomatonExecutor`,
on both the mutable graph and its frozen twin: its product search on SHORTEST
rows, its materializing-evaluator fallback on the others) on the
restrictor-scaling workloads, giving future PRs a perf trajectory to compare
against.
"""

from __future__ import annotations

import gc
import os
import time
from pathlib import Path as FilePath

import pytest

from repro.algebra.expressions import EdgesScan, Recursive
from repro.baselines.closure import recursive_closure_baseline
from repro.bench.reporting import write_bench_json
from repro.bench.workloads import quick_mode
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import complete_graph, cycle_graph
from repro.engine.automaton import AutomatonExecutor
from repro.execution import QueryBudget
from repro.graph.compact import CompactGraph
from repro.graph.model import PropertyGraph
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import Restrictor, recursive_closure

_REPO_ROOT = FilePath(__file__).resolve().parent.parent

#: Closure workloads recorded in BENCH_closure.json: (name, base factory,
#: restrictors, max_length).  Cycles mirror the sparse tier of
#: test_bench_restrictor_scaling; cliques its dense tier (the bound keeps the
#: Trail closure tractable and covers every acyclic/simple path).  In full
#: mode every size after the quick tier is measured, so the legacy tiers
#: (cycle-16, clique-6) keep their trajectory and the top tiers (cycle-24,
#: clique-7) record the columnar-core scaling.
_TRAJECTORY_SIZES = {"cycle": (4, 16, 24), "clique": (4, 6, 7)}
#: Workloads where the pre-incremental baseline is skipped: clique-7 was
#: infeasible before the columnar core (the per-round re-scan baseline takes
#: tens of seconds there), so its rows record the incremental-vs-compact
#: comparison only and report baseline fields as null.
_BASELINE_SKIP = {("clique", 7)}
_TRAJECTORY_RESTRICTORS = (
    Restrictor.TRAIL,
    Restrictor.ACYCLIC,
    Restrictor.SIMPLE,
    Restrictor.SHORTEST,
)


_quick_session = False


def pytest_configure(config: pytest.Config) -> None:
    global _quick_session
    config.addinivalue_line(
        "markers",
        "quick: smallest-size variant of a scaling benchmark (run with -m quick or BENCH_QUICK=1)",
    )
    # Either entry point to quick mode — the env var or selecting the quick
    # marker — must also shrink the trajectory measurement below.
    _quick_session = quick_mode() or "quick" in (config.option.markexpr or "")


@pytest.fixture(scope="session")
def bench_json_path():
    """Resolve where this session writes a ``BENCH_*.json`` report.

    Measuring is not verifying: a plain run (tier-1 included) writes under the
    git-ignored ``.benchmarks/`` and leaves the tracked trajectories alone;
    ``BENCH_WRITE=1`` is the deliberate act of regenerating them in place.
    """

    def resolve(name: str) -> str:
        if os.environ.get("BENCH_WRITE") == "1":
            return str(_REPO_ROOT / name)
        directory = _REPO_ROOT / ".benchmarks"
        directory.mkdir(exist_ok=True)
        return str(directory / name)

    return resolve


@pytest.fixture(scope="module")
def figure1() -> PropertyGraph:
    """The paper's Figure 1 graph."""
    return figure1_graph()


@pytest.fixture(scope="module")
def knows_edges(figure1: PropertyGraph) -> PathSet:
    """The Knows edges of Figure 1 (the base set of the Table 3 / Figure 5 examples)."""
    return PathSet.edges_of(figure1).filter(
        lambda path: figure1.edge(path.edge(1)).label == "Knows"
    )


def _best_of_each(
    callables: list, repetitions: int = 3
) -> tuple[list[float], list[object]]:
    """Best per-call wall-clock time of each callable, plus their results.

    The trajectory compares *ratios* between strategies, so the samples are
    interleaved round-robin — drift on a shared CI host lands on every
    strategy equally instead of skewing whichever was measured last.  Two
    more noise controls: sub-millisecond workloads (quick mode) are batched
    timeit-style until one sample spans a few milliseconds, and the cyclic
    GC is paused while sampling so collection pauses cannot land in one
    strategy's samples but not another's.
    """
    results: list[object] = []
    inners: list[int] = []
    for callable_ in callables:
        start = time.perf_counter()
        results.append(callable_())
        first = time.perf_counter() - start
        inners.append(max(1, round(0.02 / first)) if first < 0.02 else 1)
    samples = max(repetitions, 5) if max(inners) > 1 else repetitions
    bests = [float("inf")] * len(callables)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            for index, callable_ in enumerate(callables):
                inner = inners[index]
                start = time.perf_counter()
                for _ in range(inner):
                    results[index] = callable_()
                elapsed = (time.perf_counter() - start) / inner
                if elapsed < bests[index]:
                    bests[index] = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return bests, results


def _closure_trajectory_entries() -> list[dict]:
    quick = _quick_session
    entries: list[dict] = []
    for family, sizes in _TRAJECTORY_SIZES.items():
        for size in sizes[:1] if quick else sizes[1:]:
            if family == "cycle":
                graph = cycle_graph(size)
                max_length = None
            else:
                graph = complete_graph(size)
                max_length = size - 1
            # The frozen twin runs the same closure kernel and the same product
            # search as the mutable graph (only the EDGES(G) scan reads the
            # columnar core); freeze() cost is measured separately and
            # reported per row so the one-off conversion is never hidden
            # inside the closure timings.
            frozen = graph.copy()
            frozen.freeze()
            (freeze_s,), _ = _best_of_each([lambda: CompactGraph.from_graph(graph)])
            base = PathSet.edges_of(graph)
            frozen_base = PathSet.edges_of(frozen)
            with_baseline = (family, size) not in _BASELINE_SKIP
            for restrictor in _TRAJECTORY_RESTRICTORS:
                # The budgeted strategy is the incremental closure with a
                # budget that never trips: it measures the pure cost of
                # cooperative cancellation checks on the hot loop (the
                # ISSUE 4 acceptance bound is < 5 % on the clique
                # workloads).  The budget is built outside the timed call,
                # like a serving worker does — construction is engine-side,
                # not loop overhead.
                budget = QueryBudget.from_timeout(3600.0, max_visited=10**12)
                # The automaton rows evaluate the *same* closure plan: a product
                # search over graph × NFA(edge-label+) on SHORTEST rows, the
                # evaluator fallback on the others; parity with the
                # incremental result is asserted before any row is written.
                plan = Recursive(EdgesScan(), restrictor, max_length)
                automaton = AutomatonExecutor()
                callables = [
                    lambda: recursive_closure(base, restrictor, max_length),
                    lambda: recursive_closure(frozen_base, restrictor, max_length),
                    lambda: automaton.execute(plan, graph).paths,
                    lambda: automaton.execute(plan, frozen).paths,
                ]
                if with_baseline:
                    callables += [
                        lambda: recursive_closure_baseline(base, restrictor, max_length),
                        lambda: recursive_closure(
                            base, restrictor, max_length, budget=budget
                        ),
                    ]
                timings, results = _best_of_each(callables)
                incremental_s, compact_s = timings[0], timings[1]
                automaton_s, automaton_compact_s = timings[2], timings[3]
                result, compact_result = results[0], results[1]
                assert result == compact_result, (family, size, restrictor)
                assert result == results[2], (family, size, restrictor)
                assert result == results[3], (family, size, restrictor)
                entry = {
                    "workload": f"{family}-{size}",
                    "restrictor": restrictor.value,
                    "max_length": max_length,
                    "paths": len(result),
                    "incremental_s": round(incremental_s, 6),
                    "compact_s": round(compact_s, 6),
                    "compact_speedup": round(incremental_s / compact_s, 2),
                    "freeze_s": round(freeze_s, 6),
                    "automaton_s": round(automaton_s, 6),
                    "automaton_speedup": round(incremental_s / automaton_s, 2),
                    "automaton_compact_s": round(automaton_compact_s, 6),
                    "automaton_compact_speedup": round(
                        compact_s / automaton_compact_s, 2
                    ),
                }
                if with_baseline:
                    baseline_s, budgeted_s = timings[4], timings[5]
                    assert result == results[4], (family, size, restrictor)
                    assert result == results[5], (family, size, restrictor)
                    entry.update(
                        {
                            "baseline_s": round(baseline_s, 6),
                            "speedup": round(baseline_s / incremental_s, 2),
                            "budgeted_s": round(budgeted_s, 6),
                            "budget_overhead": round(budgeted_s / incremental_s, 3),
                        }
                    )
                else:
                    entry.update(
                        {
                            "baseline_s": None,
                            "speedup": None,
                            "budgeted_s": None,
                            "budget_overhead": None,
                        }
                    )
                entries.append(entry)
    return entries


@pytest.fixture(scope="session", autouse=True)
def closure_perf_trajectory(bench_json_path) -> None:
    """Write BENCH_closure.json after the benchmark session (both modes)."""
    yield
    entries = _closure_trajectory_entries()
    write_bench_json(
        bench_json_path("BENCH_closure.json"),
        "closure-incremental-vs-baseline",
        entries,
        metadata={
            "mode": "quick" if _quick_session else "full",
            "strategies": {
                "incremental": "recursive_closure (indexed frontier, O(1) restrictor checks)",
                "compact": "recursive_closure over the base of a frozen twin "
                "(the same kernel; compact_speedup = incremental_s / compact_s, "
                "freeze_s = one-off CompactGraph.from_graph cost)",
                "baseline": "recursive_closure_baseline (per-round re-index + full re-scans)",
                "budgeted": "recursive_closure with a never-tripping QueryBudget "
                "(budget_overhead = budgeted_s / incremental_s)",
                "automaton": "AutomatonExecutor on the same closure plan: its "
                "product-graph search on SHORTEST rows, the materializing "
                "evaluator fallback on the others (automaton_speedup = "
                "incremental_s / automaton_s; automaton_compact_* is the same "
                "on the frozen twin, against the compact closure)",
            },
        },
    )
