"""Expression trees of the path algebra (logical plans).

Every operator of the paper's algebra is represented as an immutable node of
an expression tree:

* atoms: :class:`NodesScan` (``Nodes(G)``) and :class:`EdgesScan` (``Edges(G)``);
* core algebra (Section 3): :class:`Selection`, :class:`Join`, :class:`Union`;
* recursive algebra (Section 4): :class:`Recursive` (ϕ with a restrictor);
* extended algebra (Section 5): :class:`GroupBy`, :class:`OrderBy`,
  :class:`Projection`.

Expression trees are the *logical plans* of Section 7: they are what the GQL
front end produces, what the optimizer rewrites, and what the evaluator
executes.  Nodes are dataclasses with structural equality, so rewrite rules
can compare plans directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.algebra.conditions import (
    Comparator,
    Condition,
    LabelCondition,
    Target,
    join_conjunction,
    references_only,
    split_conjunction,
    tests_endpoints_only,
)
from repro.algebra.solution_space import ALL, GroupByKey, OrderByKey, ProjectionSpec
from repro.semantics.restrictors import Restrictor

__all__ = [
    "Expression",
    "NodesScan",
    "EdgesScan",
    "Selection",
    "Join",
    "Union",
    "Intersection",
    "Difference",
    "Recursive",
    "GroupBy",
    "OrderBy",
    "Projection",
    "identity_crown_input",
    "label_scan_input",
    "seeded_closure_input",
    "shortest_selector_input",
    "walk",
    "trail",
    "acyclic",
    "simple",
    "shortest",
]


@dataclass(frozen=True)
class Expression:
    """Abstract base class of all path-algebra expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        """Return the child expressions (empty for atoms)."""
        return ()

    def returns_solution_space(self) -> bool:
        """``True`` when evaluation yields a solution space rather than a path set."""
        return False

    def iter_subtree(self) -> Iterator["Expression"]:
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children():
            yield from child.iter_subtree()

    def operator_name(self) -> str:
        """Short name used in plan printouts."""
        return type(self).__name__

    def depth(self) -> int:
        """Height of the expression tree rooted at this node."""
        children = self.children()
        if not children:
            return 1
        return 1 + max(child.depth() for child in children)

    def count_operators(self) -> int:
        """Total number of operator nodes in the subtree."""
        return sum(1 for _ in self.iter_subtree())

    # -- convenience builders so plans read like the paper ---------------
    def select(self, condition: Condition) -> "Selection":
        """Return ``σ_condition(self)``."""
        return Selection(condition, self)

    def join(self, other: "Expression") -> "Join":
        """Return ``self ⋈ other``."""
        return Join(self, other)

    def union(self, other: "Expression") -> "Union":
        """Return ``self ∪ other``."""
        return Union(self, other)

    def intersect(self, other: "Expression") -> "Intersection":
        """Return ``self ∩ other``."""
        return Intersection(self, other)

    def difference(self, other: "Expression") -> "Difference":
        """Return ``self ∖ other``."""
        return Difference(self, other)

    def recursive(self, restrictor: Restrictor = Restrictor.WALK, max_length: int | None = None) -> "Recursive":
        """Return ``ϕ_restrictor(self)``."""
        return Recursive(self, restrictor, max_length)

    def group_by(self, key: GroupByKey | str = GroupByKey.NONE) -> "GroupBy":
        """Return ``γ_key(self)``."""
        if isinstance(key, str):
            key = GroupByKey.from_string(key)
        return GroupBy(self, key)

    def order_by(self, key: OrderByKey | str) -> "OrderBy":
        """Return ``τ_key(self)``."""
        if isinstance(key, str):
            key = OrderByKey.from_string(key)
        return OrderBy(self, key)

    def project(self, partitions: int | str = "*", groups: int | str = "*", paths: int | str = "*") -> "Projection":
        """Return ``π(partitions, groups, paths)(self)``."""
        return Projection(self, ProjectionSpec(partitions, groups, paths))


@dataclass(frozen=True)
class NodesScan(Expression):
    """``Nodes(G)`` — every node of the graph as a length-zero path."""

    def operator_name(self) -> str:
        return "Nodes(G)"

    def __str__(self) -> str:
        return "Nodes(G)"


@dataclass(frozen=True)
class EdgesScan(Expression):
    """``Edges(G)`` — every edge of the graph as a length-one path."""

    def operator_name(self) -> str:
        return "Edges(G)"

    def __str__(self) -> str:
        return "Edges(G)"


@dataclass(frozen=True)
class Selection(Expression):
    """``σ_condition(child)`` — keep the paths satisfying ``condition``."""

    condition: Condition
    child: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def operator_name(self) -> str:
        return f"σ[{self.condition}]"

    def __str__(self) -> str:
        return f"σ[{self.condition}]({self.child})"


@dataclass(frozen=True)
class Join(Expression):
    """``left ⋈ right`` — concatenate compatible path pairs."""

    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def operator_name(self) -> str:
        return "⋈"

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class Union(Expression):
    """``left ∪ right`` — set union of two path sets."""

    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def operator_name(self) -> str:
        return "∪"

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


@dataclass(frozen=True)
class Intersection(Expression):
    """``left ∩ right`` — paths present in both inputs.

    One of the "natural graph operators missing from the two proposals" the
    paper mentions: GQL cannot intersect two path-query answers, but the
    algebra is closed under it because both carriers are sets of paths.
    """

    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def operator_name(self) -> str:
        return "∩"

    def __str__(self) -> str:
        return f"({self.left} ∩ {self.right})"


@dataclass(frozen=True)
class Difference(Expression):
    """``left ∖ right`` — paths of the left input not present in the right input.

    Like :class:`Intersection`, a natural set operator over path sets that the
    current GQL / SQL-PGQ drafts do not expose.
    """

    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def operator_name(self) -> str:
        return "∖"

    def __str__(self) -> str:
        return f"({self.left} ∖ {self.right})"


@dataclass(frozen=True)
class Recursive(Expression):
    """``ϕ_restrictor(child)`` — recursive self-join under a path semantics (Section 4)."""

    child: Expression
    restrictor: Restrictor = Restrictor.WALK
    max_length: int | None = None

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def operator_name(self) -> str:
        bound = f", ≤{self.max_length}" if self.max_length is not None else ""
        return f"ϕ{self.restrictor.value.title()}{bound}"

    def __str__(self) -> str:
        return f"{self.operator_name()}({self.child})"


@dataclass(frozen=True)
class GroupBy(Expression):
    """``γψ(child)`` — build a solution space from a path set (Section 5.1)."""

    child: Expression
    key: GroupByKey = GroupByKey.NONE

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def returns_solution_space(self) -> bool:
        return True

    def operator_name(self) -> str:
        return f"γ{self.key.value}" if self.key.value else "γ"

    def __str__(self) -> str:
        return f"{self.operator_name()}({self.child})"


@dataclass(frozen=True)
class OrderBy(Expression):
    """``τθ(child)`` — re-rank the elements of a solution space (Section 5.2)."""

    child: Expression
    key: OrderByKey = OrderByKey.A

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def returns_solution_space(self) -> bool:
        return True

    def operator_name(self) -> str:
        return f"τ{self.key.value}"

    def __str__(self) -> str:
        return f"{self.operator_name()}({self.child})"


@dataclass(frozen=True)
class Projection(Expression):
    """``π(#P,#G,#A)(child)`` — extract a path set from a solution space (Section 5.3)."""

    child: Expression
    spec: ProjectionSpec = field(default_factory=ProjectionSpec)

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def operator_name(self) -> str:
        return f"π{self.spec}"

    def __str__(self) -> str:
        return f"{self.operator_name()}({self.child})"


def identity_crown_input(plan: Expression) -> Expression | None:
    """Return ``E`` when ``plan`` is a solution-space crown that returns exactly ``E``'s paths.

    * ``π(*,*,*)(γψ(E))``, every ψ: group-by only arranges paths and this
      projection drops none.  (``π(*,*,*)`` straight over a path set is
      evaluated as ``π(*,*,*)(γ(E))`` and counts; an order-by in between does
      not — it asks for an order the caller can see.)
    * ``π(*,1,*)(τG(γSTL(ϕShortest(X))))``: ϕShortest keeps only the
      minimum-length paths of an endpoint pair, so every (source, target)
      partition holds one length group and its first group is all of it.

    The one definition of the fact: the optimizer eliminates such crowns, the
    pipeline streams through them, the automaton classifier looks past them.
    """
    if not isinstance(plan, Projection):
        return None
    child = plan.child
    if plan.spec == ProjectionSpec():
        if isinstance(child, GroupBy):
            return child.child
        return None if child.returns_solution_space() else child
    if (
        plan.spec == ProjectionSpec(ALL, 1, ALL)
        and isinstance(child, OrderBy)
        and child.key is OrderByKey.G
        and isinstance(child.child, GroupBy)
        and child.child.key is GroupByKey.STL
    ):
        closure = child.child.child
        if isinstance(closure, Recursive) and closure.restrictor is Restrictor.SHORTEST:
            return closure
    return None


def label_scan_input(plan: Expression) -> tuple[str, Condition | None] | None:
    """Split ``σ[c](Edges(G))`` into ``(L, residual)`` when it is an index lookup.

    That is when a top-level conjunct of the *bound* ``c`` is
    ``label(edge(1)) = L`` with ``L`` a string: the selection's answer is then
    the residual conjuncts (``None`` when there are none) applied to the edges
    labelled ``L``, which every graph encoding keeps an index of.  Never under
    ``Or`` / ``Not``, never ``!=``, never another position or target, never a
    ``$parameter`` or a non-string value — those stay a filter over the full
    scan.  Conditions are pure, so dropping one conjunct and keeping the rest
    in their order selects the same paths in the same order.

    The one definition of the fact: the materializing evaluator and the
    pipeline read such a selection off the label index, the pipeline turns a
    join against one into an adjacency expand, the automaton decompiler reads
    its regex label from it, ``explain`` names it.
    """
    if not (isinstance(plan, Selection) and isinstance(plan.child, EdgesScan)):
        return None
    conjuncts = split_conjunction(plan.condition)
    for position, condition in enumerate(conjuncts):
        if (
            isinstance(condition, LabelCondition)
            and condition.target is Target.EDGE
            and condition.position == 1
            and condition.comparator is Comparator.EQ
            and isinstance(condition.value, str)
        ):
            rest = conjuncts[:position] + conjuncts[position + 1 :]
            return condition.value, join_conjunction(rest) if rest else None
    return None


def seeded_closure_input(
    plan: Expression,
) -> tuple[Recursive, Condition, Condition | None] | None:
    """Split ``σ[c](ϕr(S))`` into ``(ϕr(S), seed, residual)`` when it is a seeded closure.

    That is when top-level conjuncts of ``c`` test only the first node
    (``label(first)`` / ``first.pr``, any comparator, ``$parameter`` values
    included): the first node of a closure path is the first node of its first
    segment, so ``σ[seed](ϕr(S))`` is ϕr started from the frontier
    ``σ[seed](S)`` and extended through the index over all of ``S`` — for all
    five restrictors — in the order the filtered full closure has.  ``seed``
    is the conjunction of those conjuncts, ``residual`` the remaining ones in
    their order (``None`` when there are none), applied to what the seeded
    closure produces.  Never under ``Or`` / ``Not``, never ``last`` /
    ``node(i)`` / ``len()`` (those stay a filter over the full closure), never
    a selection that is not directly on the ϕ.

    The one definition of the fact: the materializing evaluator, the pipeline
    and the automaton classifier start the closure from the seeds, the cost
    model prices it, ``explain`` names it.
    """
    if not (isinstance(plan, Selection) and isinstance(plan.child, Recursive)):
        return None
    seed: list[Condition] = []
    rest: list[Condition] = []
    for condition in split_conjunction(plan.condition):
        (seed if references_only(condition, Target.FIRST) else rest).append(condition)
    if not seed:
        return None
    return plan.child, join_conjunction(seed), join_conjunction(rest) if rest else None


def shortest_selector_input(plan: Expression) -> Expression | None:
    """Return ``E`` when ``plan`` is ``π(*,*,1)(τA(γST(E)))`` and ``E`` can be searched for.

    That is when ``E`` is ``ϕShortest(X)``, or ``σ[c](ϕShortest(X))`` whose
    top-level conjuncts each test only the first or only the last node.  The
    crown keeps, per endpoint pair, the first of its shortest paths, with the
    pairs in first-appearance order: exactly what ϕShortest yields with a
    quota of one path per pair (``one_per_pair``, see
    :func:`~repro.semantics.restrictors._shortest`), so the crown is never
    built and the closure stops building a pair's other paths.  A ``first`` /
    ``last`` test keeps or drops a whole pair, so it commutes with the quota
    (its ``first`` part still seeds the closure, ``seeded_closure_input``);
    ``len()``, ``node(i)`` or ``edge(i)`` could drop the pair's representative
    and keep another of its paths, and ``Or`` / ``Not`` are not looked into —
    those keep the crown over the full closure.

    The one definition of the fact: the materializing evaluator returns the
    quota closure as the projection's result, the pipeline streams it (so a
    limited ``ANY SHORTEST`` stops early), ``explain`` names it.
    """
    if not (
        isinstance(plan, Projection)
        and isinstance(plan.child, OrderBy)
        and plan.child.key is OrderByKey.A
        and isinstance(plan.child.child, GroupBy)
        and plan.child.child.key is GroupByKey.ST
        and plan.spec == ProjectionSpec(ALL, ALL, 1)
    ):
        return None
    closure = plan.child.child.child
    recursive = closure
    if isinstance(closure, Selection) and tests_endpoints_only(closure.condition):
        recursive = closure.child
    if isinstance(recursive, Recursive) and recursive.restrictor is Restrictor.SHORTEST:
        return closure
    return None


# ----------------------------------------------------------------------
# Shorthand constructors for the five ϕ variants
# ----------------------------------------------------------------------
def walk(child: Expression, max_length: int | None = None) -> Recursive:
    """``ϕWalk(child)`` — arbitrary path semantics."""
    return Recursive(child, Restrictor.WALK, max_length)


def trail(child: Expression, max_length: int | None = None) -> Recursive:
    """``ϕTrail(child)`` — no repeated edges."""
    return Recursive(child, Restrictor.TRAIL, max_length)


def acyclic(child: Expression, max_length: int | None = None) -> Recursive:
    """``ϕAcyclic(child)`` — no repeated nodes."""
    return Recursive(child, Restrictor.ACYCLIC, max_length)


def simple(child: Expression, max_length: int | None = None) -> Recursive:
    """``ϕSimple(child)`` — no repeated nodes except first == last."""
    return Recursive(child, Restrictor.SIMPLE, max_length)


def shortest(child: Expression, max_length: int | None = None) -> Recursive:
    """``ϕShortest(child)`` — minimum-length paths per endpoint pair."""
    return Recursive(child, Restrictor.SHORTEST, max_length)
