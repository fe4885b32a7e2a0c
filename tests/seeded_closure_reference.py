"""The pre-seeding route, kept as the test oracle: the whole closure, then the filter.

Before ``σ[first.c ∧ rest](ϕr(S))`` started ϕ from ``σ[first.c](S)``, every
executor computed ``ϕr(S)`` in full and filtered it: the evaluator's selection
was a filter over ``_eval_recursive``'s result, the pipeline put a ``_FilterOp``
on a ``_RecursiveOp``, the automaton executor fell back to the evaluator.
Those are the bodies the executors still run for a selection
``seeded_closure_input`` does not recognise, so the old route verbatim is the
real executors with the recognizer answering "no" underneath them —
:func:`unseeded`, the only place that can happen; nothing in ``src/`` can
select it.  Limits, truncation and the automaton's materializing fallback are
then the executors' own.

:func:`filtered_closure` says the same thing without mentioning the recognizer
at all: run the bare ``ϕr(S)`` through an executor and filter the rows in
Python.  It is the oracle for the one route that did not exist before — the
product-graph search started from the seed's source nodes, whose row order is
the automaton's own, not the evaluator's.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

from repro.algebra.expressions import Expression, Selection
from repro.engine.executor import ExecutionResult, resolve_executor
from repro.execution import QueryBudget
from repro.paths.path import Path

__all__ = ["filtered_closure", "reference_execute", "unseeded"]

#: Every module that asks ``seeded_closure_input`` before *running* a plan.
_EXECUTING_CALLERS = (
    "repro.algebra.evaluator",
    "repro.engine.physical",
    "repro.engine.automaton.decompile",
)


@contextmanager
def unseeded() -> Iterator[None]:
    """Inside, no executor recognises a seeded closure: full closure, then filter."""
    with ExitStack() as stack:
        for module in _EXECUTING_CALLERS:
            stack.enter_context(mock.patch(f"{module}.seeded_closure_input", _never))
        yield


def _never(plan: Expression) -> None:
    return None


def reference_execute(
    executor: str,
    plan: Expression,
    graph,
    *,
    default_max_length: int | None = None,
    limit: int | None = None,
    budget: QueryBudget | None = None,
) -> ExecutionResult:
    """Run ``plan`` through the named executor the way it ran before closures were seeded."""
    with unseeded():
        return resolve_executor(executor).execute(
            plan, graph, default_max_length=default_max_length, limit=limit, budget=budget
        )


def filtered_closure(
    executor: str, selection: Selection, graph, *, default_max_length: int | None = None
) -> list[Path]:
    """``σ[c](ϕ(S))`` as the rows of ``ϕ(S)`` under ``executor`` that satisfy ``c``, in its order."""
    closure = resolve_executor(executor).execute(
        selection.child, graph, default_max_length=default_max_length
    )
    return [path for path in closure.paths if selection.condition.evaluate(path)]
