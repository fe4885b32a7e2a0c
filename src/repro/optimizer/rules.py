"""Rewrite rules over path-algebra logical plans (paper Section 7.3).

Each rule is a small class with a ``name`` and an ``apply`` method that takes
an expression node and either returns a rewritten node or ``None`` when the
rule does not match.  Rules are purely structural: they never consult the
data, only the plan, so they are valid for every graph (the walk-to-shortest
rule is the one the paper discusses at length — it is only applied in the
specific selector shapes where it is semantics-preserving).

Implemented rules:

* :class:`PushSelectionBelowUnion` — ``σc(A ∪ B) -> σc(A) ∪ σc(B)``;
* :class:`PushSelectionIntoJoin` — endpoint conditions move to the join side
  they constrain (Figure 6's classical "pushing filters" example);
* :class:`MergeSelections` — ``σc1(σc2(X)) -> σ(c1 ∧ c2)(X)``;
* :class:`RemoveRedundantOrderBy` — drop order-by components that order
  singleton collections (the paper's ``τPG`` over ``γ`` example);
* :class:`WalkToShortest` — replace ``ϕWalk`` by ``ϕShortest`` under the
  ``ANY SHORTEST`` / ``ALL SHORTEST`` pipelines of Table 7, which restores
  termination on cyclic graphs (Section 7.3); under ``ANY SHORTEST`` also
  ``ϕTrail`` / ``ϕSimple`` over single edges, whose shortest paths are the
  shortest walks;
* :class:`SimplifyUnionDuplicates` — ``A ∪ A -> A``;
* :class:`EliminateIdentityCrown` — ``π(*,*,*)(γψ(E)) -> E`` (Table 7's ``ALL``)
  and ``π(*,1,*)(τG(γSTL(ϕShortest(X)))) -> ϕShortest(X)``.
"""

from __future__ import annotations

from repro.algebra.conditions import (
    And,
    Target,
    join_conjunction,
    references_only,
    split_conjunction,
    tests_endpoints_only,
)
from repro.algebra.expressions import (
    EdgesScan,
    Expression,
    GroupBy,
    Join,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    Union,
    identity_crown_input,
)
from repro.algebra.solution_space import GroupByKey, OrderByKey
from repro.semantics.restrictors import Restrictor

__all__ = [
    "RewriteRule",
    "PushSelectionBelowUnion",
    "PushSelectionIntoJoin",
    "MergeSelections",
    "RemoveRedundantOrderBy",
    "WalkToShortest",
    "SimplifyUnionDuplicates",
    "EliminateIdentityCrown",
    "DEFAULT_RULES",
]


class RewriteRule:
    """Base class for plan rewrite rules."""

    name: str = "rule"

    def apply(self, expression: Expression) -> Expression | None:
        """Return the rewritten node, or ``None`` when the rule does not apply here."""
        raise NotImplementedError


class PushSelectionBelowUnion(RewriteRule):
    """``σc(A ∪ B) -> σc(A) ∪ σc(B)`` — selection distributes over union."""

    name = "push-selection-below-union"

    def apply(self, expression: Expression) -> Expression | None:
        if not isinstance(expression, Selection):
            return None
        child = expression.child
        if not isinstance(child, Union):
            return None
        return Union(
            Selection(expression.condition, child.left),
            Selection(expression.condition, child.right),
        )


class PushSelectionIntoJoin(RewriteRule):
    """Move endpoint conjuncts of a selection to the join side they constrain.

    For ``σc(A ⋈ B)``: conjuncts that only reference the *first* node hold on
    the left input (the first node of ``p1 ∘ p2`` is the first node of
    ``p1``), and conjuncts that only reference the *last* node hold on the
    right input.  Remaining conjuncts stay above the join.  This is the
    pushdown of Figure 6.
    """

    name = "push-selection-into-join"

    def apply(self, expression: Expression) -> Expression | None:
        if not isinstance(expression, Selection):
            return None
        child = expression.child
        if not isinstance(child, Join):
            return None

        conjuncts = split_conjunction(expression.condition)
        to_left = [c for c in conjuncts if references_only(c, Target.FIRST)]
        to_right = [c for c in conjuncts if references_only(c, Target.LAST)]
        remaining = [c for c in conjuncts if c not in to_left and c not in to_right]
        if not to_left and not to_right:
            return None

        left: Expression = child.left
        right: Expression = child.right
        if to_left:
            left = Selection(join_conjunction(to_left), left)
        if to_right:
            right = Selection(join_conjunction(to_right), right)
        new_join = Join(left, right)
        if remaining:
            return Selection(join_conjunction(remaining), new_join)
        return new_join


class MergeSelections(RewriteRule):
    """``σc1(σc2(X)) -> σ(c1 ∧ c2)(X)`` — adjacent selections collapse into one."""

    name = "merge-selections"

    def apply(self, expression: Expression) -> Expression | None:
        if not isinstance(expression, Selection):
            return None
        child = expression.child
        if not isinstance(child, Selection):
            return None
        return Selection(And(expression.condition, child.condition), child.child)


class RemoveRedundantOrderBy(RewriteRule):
    """Drop order-by components that order collections that are necessarily singletons.

    Ordering partitions is useless when the group-by key has neither Source
    nor Target (there is a single partition); ordering groups is useless when
    the key has no Length component (one group per partition).  If every
    component of the order-by is useless, the operator disappears entirely —
    this is the paper's ``π(*,*,1)(τPG(γ(...)))`` simplification.
    """

    name = "remove-redundant-order-by"

    def apply(self, expression: Expression) -> Expression | None:
        if not isinstance(expression, OrderBy):
            return None
        child = expression.child
        if not isinstance(child, GroupBy):
            return None
        key = expression.key
        group_key = child.key

        single_partition = not (group_key.uses_source or group_key.uses_target)
        single_group = not group_key.uses_length

        letters = ""
        if key.orders_partitions and not single_partition:
            letters += "P"
        if key.orders_groups and not single_group:
            letters += "G"
        if key.orders_paths:
            letters += "A"

        if letters == key.value:
            return None
        if not letters:
            return child
        return OrderBy(child, OrderByKey.from_string(letters))


class WalkToShortest(RewriteRule):
    """Replace ``ϕWalk`` by ``ϕShortest`` under shortest-selecting pipelines (Section 7.3).

    Two shapes are rewritten, both derived from Table 7:

    * ``π(*,*,1)(τA(γST(ϕWalk(X))))``   (ANY SHORTEST WALK)
    * ``π(*,1,*)(τG(γSTL(ϕWalk(X))))``  (ALL SHORTEST WALK)

    In both, only minimum-length paths per endpoint pair can survive the
    projection, so computing the full (possibly infinite) walk closure is
    unnecessary; ``ϕShortest`` produces the same result and always terminates.
    A selection between ϕ and the crown must test endpoints only: one on
    ``len()`` or on an inner node or edge can reject a pair's shortest paths
    and leave a longer one for the crown to keep.

    ``ϕTrail`` and ``ϕSimple`` collapse the same way when ``X`` is single
    edges (``Edges(G)`` or ``σ(Edges(G))``, the label scan included): a
    minimum-length walk between distinct endpoints repeats no node, and a
    minimum closed walk is a simple cycle, so each pair's minimum-length
    trails (simple paths) are exactly its minimum-length walks, under any
    length bound, found in the same (length, base position) order.  Only
    under ANY SHORTEST: under ALL SHORTEST the crown over ϕShortest is then
    eliminated as an identity, and a bare ϕShortest lists a pair's paths in
    pop order, interleaved with other pairs, where the crown lists them pair
    by pair — the same paths in another row order.  Not over a multi-edge
    base: composing a→x→b with b→x→c repeats x where no shorter trail may
    exist.  Not ``ϕAcyclic``, which also drops ``first = last`` — a condition
    the algebra has no term for.
    """

    name = "walk-to-shortest"

    def apply(self, expression: Expression) -> Expression | None:
        if not isinstance(expression, Projection):
            return None
        order = expression.child
        if not isinstance(order, OrderBy):
            return None
        group = order.child
        if not isinstance(group, GroupBy):
            return None
        recursive = group.child
        spec = expression.spec
        any_shortest_shape = (
            spec.partitions == "*"
            and spec.groups == "*"
            and spec.paths == 1
            and order.key is OrderByKey.A
            and group.key is GroupByKey.ST
        )
        all_shortest_shape = (
            spec.partitions == "*"
            and spec.groups == 1
            and spec.paths == "*"
            and order.key is OrderByKey.G
            and group.key is GroupByKey.STL
        )
        if not (any_shortest_shape or all_shortest_shape):
            return None
        target = self._find_walk(recursive, single_edges_collapse=any_shortest_shape)
        if target is None:
            return None

        rewritten = self._replace_walk(recursive, target)
        return Projection(OrderBy(GroupBy(rewritten, group.key), order.key), spec)

    @staticmethod
    def _find_walk(expression: Expression, single_edges_collapse: bool) -> Recursive | None:
        """Return the ϕ node if ``expression`` is ϕ or σ(ϕ) and that ϕ is ϕWalk —
        or, with ``single_edges_collapse``, ϕTrail / ϕSimple over ``Edges(G)``
        or ``σ(Edges(G))``.  The σ must test endpoints only
        (:func:`tests_endpoints_only`): ``len()``, ``node(i)`` or ``edge(i)``
        can drop every shortest path of a pair and keep a longer one, which
        ϕShortest never builds."""
        if isinstance(expression, Selection):
            if not tests_endpoints_only(expression.condition):
                return None
            expression = expression.child
        if not isinstance(expression, Recursive):
            return None
        if expression.restrictor is Restrictor.WALK:
            return expression
        if single_edges_collapse and expression.restrictor in (Restrictor.TRAIL, Restrictor.SIMPLE):
            base = expression.child
            if isinstance(base, Selection):
                base = base.child
            if isinstance(base, EdgesScan):
                return expression
        return None

    @staticmethod
    def _replace_walk(expression: Expression, target: Recursive) -> Expression:
        replacement = Recursive(target.child, Restrictor.SHORTEST, target.max_length)
        if expression is target:
            return replacement
        assert isinstance(expression, Selection)
        return Selection(expression.condition, replacement)


class SimplifyUnionDuplicates(RewriteRule):
    """``A ∪ A -> A`` — union of identical subplans is the subplan itself."""

    name = "simplify-union-duplicates"

    def apply(self, expression: Expression) -> Expression | None:
        if not isinstance(expression, Union):
            return None
        if expression.left == expression.right:
            return expression.left
        return None


class EliminateIdentityCrown(RewriteRule):
    """Drop a γ/τ/π crown that returns exactly its input (:func:`identity_crown_input`).

    With :class:`WalkToShortest`, one fix point turns ``ALL SHORTEST WALK`` into a bare ϕShortest.
    """

    name = "eliminate-identity-crown"

    def apply(self, expression: Expression) -> Expression | None:
        return identity_crown_input(expression)


#: The rule set used by the optimizer by default, in priority order.
DEFAULT_RULES: tuple[RewriteRule, ...] = (
    MergeSelections(),
    PushSelectionBelowUnion(),
    PushSelectionIntoJoin(),
    SimplifyUnionDuplicates(),
    RemoveRedundantOrderBy(),
    WalkToShortest(),
    EliminateIdentityCrown(),
)
