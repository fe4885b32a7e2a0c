"""Textual rendering of logical plans.

Two renderings are provided:

* :func:`to_algebra_notation` — the compact single-line notation used in the
  paper's prose, e.g. ``π(*,*,1)(τA(γST(ϕWalk(σ[...](Edges(G))))))``;
* :func:`to_plan_tree` — the indented multi-line tree that the paper's parser
  prints (Section 7.2), with one operator per line and arrows indicating
  nesting depth.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import (
    Difference,
    EdgesScan,
    Expression,
    GroupBy,
    Intersection,
    Join,
    NodesScan,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    Union,
)

__all__ = ["to_algebra_notation", "to_plan_tree", "to_indented_tree"]


def to_algebra_notation(expression: Expression) -> str:
    """Render ``expression`` in the paper's compact algebraic notation."""
    if isinstance(expression, NodesScan):
        return "Nodes(G)"
    if isinstance(expression, EdgesScan):
        return "Edges(G)"
    if isinstance(expression, Selection):
        return f"σ[{expression.condition}]({to_algebra_notation(expression.child)})"
    if isinstance(expression, Join):
        return (
            f"({to_algebra_notation(expression.left)} ⋈ {to_algebra_notation(expression.right)})"
        )
    if isinstance(expression, Union):
        return (
            f"({to_algebra_notation(expression.left)} ∪ {to_algebra_notation(expression.right)})"
        )
    if isinstance(expression, Intersection):
        return (
            f"({to_algebra_notation(expression.left)} ∩ {to_algebra_notation(expression.right)})"
        )
    if isinstance(expression, Difference):
        return (
            f"({to_algebra_notation(expression.left)} ∖ {to_algebra_notation(expression.right)})"
        )
    if isinstance(expression, Recursive):
        name = expression.restrictor.value.title()
        bound = f",≤{expression.max_length}" if expression.max_length is not None else ""
        return f"ϕ{name}{bound}({to_algebra_notation(expression.child)})"
    if isinstance(expression, GroupBy):
        subscript = expression.key.value
        return f"γ{subscript}({to_algebra_notation(expression.child)})"
    if isinstance(expression, OrderBy):
        return f"τ{expression.key.value}({to_algebra_notation(expression.child)})"
    if isinstance(expression, Projection):
        spec = expression.spec
        return (
            f"π({spec.partitions},{spec.groups},{spec.paths})"
            f"({to_algebra_notation(expression.child)})"
        )
    return str(expression)


def _describe(expression: Expression) -> str:
    """One-line description of a node in the Section 7.2 output style."""
    if isinstance(expression, Projection):
        spec = expression.spec
        def render(component: int | str) -> str:
            return "ALL" if component == "*" else str(component)
        return (
            f"Projection ({render(spec.partitions)} PARTITIONS "
            f"{render(spec.groups)} GROUPS {render(spec.paths)} PATHS)"
        )
    if isinstance(expression, OrderBy):
        names = {"P": "Partition", "G": "Group", "A": "Path"}
        parts = ", ".join(names[letter] for letter in expression.key.value)
        return f"OrderBy ({parts})"
    if isinstance(expression, GroupBy):
        names = {"S": "Source", "T": "Target", "L": "Length"}
        parts = ", ".join(names[letter] for letter in expression.key.value) or "None"
        return f"Group ({parts})"
    if isinstance(expression, Recursive):
        return f"Recursive Join (restrictor: {expression.restrictor.value})"
    if isinstance(expression, Selection):
        return f"Select: ({expression.condition})"
    if isinstance(expression, Join):
        return "Join"
    if isinstance(expression, Union):
        return "Union"
    if isinstance(expression, Intersection):
        return "Intersection"
    if isinstance(expression, Difference):
        return "Difference"
    if isinstance(expression, EdgesScan):
        return "EDGES(G)"
    if isinstance(expression, NodesScan):
        return "NODES(G)"
    return expression.operator_name()


def to_plan_tree(expression: Expression, notes: Sequence[str | None] | None = None) -> str:
    """Render a plan as the numbered, arrow-indented listing of Section 7.2.

    ``notes``, when given, holds one optional remark per node of
    ``expression.iter_subtree()``; a node's remark is printed in brackets
    after its line (``explain`` names access paths this way).  Without notes
    the listing is the paper's, unchanged.

    Example output for the paper's sample query::

        1 Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)
        2 OrderBy (Path)
        3 Group (Target)
        4 Restrictor (TRAIL)
        5 -> Recursive Join (restrictor: TRAIL)
        6 -> Select: (label(edge(1)) = 'Knows' , EDGES(G))
    """
    lines: list[str] = []
    remaining = iter(notes if notes is not None else ())

    def described(sub: Expression) -> str:
        note = next(remaining, None)
        return _describe(sub) if note is None else f"{_describe(sub)}  [{note}]"

    # The paper prints the "mode" operators (projection / order-by / group-by /
    # restrictor) as a flat header followed by the arrow-indented query body.
    header: list[str] = []
    node: Expression = expression
    while True:
        if isinstance(node, (Projection, OrderBy, GroupBy)):
            header.append(described(node))
            node = node.child
        elif isinstance(node, Recursive):
            header.append(f"Restrictor ({node.restrictor.value})")
            break
        else:
            # The paper's parser prints the query-level restrictor even when
            # the recursive operator is nested below a union (e.g. the plan of
            # a Kleene-star pattern); report the first ϕ found in the body.
            nested = next(
                (sub for sub in node.iter_subtree() if isinstance(sub, Recursive)), None
            )
            if nested is not None:
                header.append(f"Restrictor ({nested.restrictor.value})")
            break

    for line_number, text in enumerate(header, start=1):
        lines.append(f"{line_number} {text}")

    def walk(sub: Expression, depth: int) -> None:
        indent = "  " * depth
        lines.append(f"{len(lines) + 1} {indent}-> {described(sub)}")
        for child in sub.children():
            walk(child, depth + 1)

    walk(node, 0)
    return "\n".join(lines)


def to_indented_tree(expression: Expression) -> str:
    """Render a plan as a plain indented tree (one operator per line, no numbering)."""
    lines: list[str] = []

    def walk(node: Expression, depth: int) -> None:
        lines.append("  " * depth + node.operator_name())
        for child in node.children():
            walk(child, depth + 1)

    walk(expression, 0)
    return "\n".join(lines)
