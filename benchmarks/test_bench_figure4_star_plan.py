"""E-F4 — Figure 4: the evaluation tree with Kleene plus and Kleene star branches.

Regenerates Figure 4: the plan
``σ[first.name='Moe' ∧ last.name='Apu']( ϕ(Knows) ∪ (ϕ(Likes ⋈ Has_creator) ∪ Nodes(G)) )``
where the right-hand union with ``Nodes(G)`` encodes the ``*`` (zero or more)
of ``(Likes/Has_creator)*``.  The regex compiler is checked to produce exactly
this shape, and evaluation under ϕSimple / ϕAcyclic is checked.
"""

from __future__ import annotations

from repro.algebra.conditions import prop_of_first, prop_of_last
from repro.algebra.evaluator import evaluate_to_paths
from repro.algebra.expressions import NodesScan, Recursive, Selection, Union
from repro.algebra.printer import to_algebra_notation
from repro.bench.reporting import format_table
from repro.rpq.compile import CompileOptions, compile_pattern, compile_regex
from repro.semantics.restrictors import Restrictor

REGEX = "(:Knows+)|((:Likes/:Has_creator)*)"


def test_figure4_compiled_shape() -> None:
    """The compiler produces the Figure 4 tree: Union(ϕ(Knows), Union(ϕ(L⋈H), Nodes(G)))."""
    plan = compile_regex(REGEX, CompileOptions(restrictor=Restrictor.SIMPLE))
    assert isinstance(plan, Union)
    assert isinstance(plan.left, Recursive)
    assert isinstance(plan.right, Union)
    assert isinstance(plan.right.left, Recursive)
    assert plan.right.right == NodesScan()
    notation = to_algebra_notation(plan)
    assert "Nodes(G)" in notation
    assert notation.count("ϕSimple") == 2


def _figure4_query_plan(restrictor: Restrictor) -> Selection:
    return compile_pattern(
        REGEX,
        source_condition=prop_of_first("name", "Moe"),
        target_condition=prop_of_last("name", "Apu"),
        options=CompileOptions(restrictor=restrictor),
    )


def test_figure4_simple_evaluation(figure1) -> None:
    plan = _figure4_query_plan(Restrictor.SIMPLE)
    result = evaluate_to_paths(plan, figure1)
    # Same two answers as Figure 2: the star's extra empty-path branch cannot
    # connect Moe to Apu (they are different nodes).
    assert {path.interleaved() for path in result} == {
        ("n1", "e1", "n2", "e4", "n4"),
        ("n1", "e8", "n6", "e11", "n3", "e7", "n7", "e10", "n4"),
    }


def test_figure4_star_matches_empty_path(figure1) -> None:
    """With equal endpoints the star branch contributes the length-zero path."""
    plan = compile_pattern(
        REGEX,
        source_condition=prop_of_first("name", "Moe"),
        target_condition=prop_of_last("name", "Moe"),
        options=CompileOptions(restrictor=Restrictor.SIMPLE),
    )
    result = evaluate_to_paths(plan, figure1)
    assert any(path.len() == 0 and path.first() == "n1" for path in result)


def test_figure4_report(figure1) -> None:
    """Print the Figure 4 reproduction under the terminating ϕ variants."""
    rows = []
    for restrictor in (Restrictor.SIMPLE, Restrictor.ACYCLIC, Restrictor.TRAIL, Restrictor.SHORTEST):
        result = evaluate_to_paths(_figure4_query_plan(restrictor), figure1)
        rows.append((f"ϕ{restrictor.value.title()}", len(result)))
    print()
    print(
        format_table(
            ["Recursive operator", "|paths Moe→Apu|"],
            rows,
            title="Figure 4 — (:Knows+)|((:Likes/:Has_creator)*) from Moe to Apu",
        )
    )
