"""The rewrite-rule driver for logical plan optimization.

:class:`Optimizer` repeatedly applies a rule set bottom-up over the plan until
no rule fires anymore (a fix point), recording which rules fired.  The rules
themselves live in :mod:`repro.optimizer.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algebra.expressions import (
    Difference,
    Expression,
    GroupBy,
    Intersection,
    Join,
    OrderBy,
    Projection,
    Recursive,
    Selection,
    Union,
)
from repro.errors import OptimizerError
from repro.optimizer.rules import DEFAULT_RULES, RewriteRule

__all__ = ["OptimizationResult", "Optimizer", "optimize"]

_MAX_PASSES = 50


@dataclass
class OptimizationResult:
    """The outcome of optimizing a plan."""

    original: Expression
    optimized: Expression
    applied_rules: list[str] = field(default_factory=list)
    passes: int = 0

    @property
    def changed(self) -> bool:
        """Whether any rule fired."""
        return bool(self.applied_rules)


class Optimizer:
    """Apply rewrite rules to logical plans until a fix point is reached."""

    def __init__(self, rules: Sequence[RewriteRule] | None = None) -> None:
        self.rules: tuple[RewriteRule, ...] = tuple(rules) if rules is not None else DEFAULT_RULES

    def optimize(self, plan: Expression) -> OptimizationResult:
        """Optimize ``plan`` and return the result together with the applied-rule trace."""
        applied: list[str] = []
        current = plan
        for pass_number in range(1, _MAX_PASSES + 1):
            fired: list[tuple[str, bool]] = []  # per firing: (rule name, built a new node)
            current = self._rewrite_node(current, fired)
            applied.extend(name for name, _ in fired)
            # Rules see only the subtree they are applied to, so a rewrite that
            # answers with a subtree of its input yields nodes every rule was
            # already tried on: only a pass that built new nodes needs another
            # to confirm the fix point.
            if not any(built for _, built in fired):
                return OptimizationResult(plan, current, applied, pass_number if fired else pass_number - 1)
        raise OptimizerError(
            f"optimization did not reach a fix point within {_MAX_PASSES} passes; "
            f"rules applied so far: {applied}"
        )

    # ------------------------------------------------------------------
    # One bottom-up pass
    # ------------------------------------------------------------------
    def _rewrite_node(self, expression: Expression, fired: list[tuple[str, bool]]) -> Expression:
        children = expression.children()
        rewritten = tuple(self._rewrite_node(child, fired) for child in children)
        # Nodes are immutable values: with no child changed, the node is its own rebuild.
        rebuilt = expression if rewritten == children else self._rebuild_with_children(expression, rewritten)
        for rule in self.rules:
            result = rule.apply(rebuilt)
            if result is not None and result != rebuilt:
                fired.append((rule.name, all(result is not node for node in rebuilt.iter_subtree())))
                return result
        return rebuilt

    @staticmethod
    def _rebuild_with_children(
        expression: Expression, children: tuple[Expression, ...]
    ) -> Expression:
        """Return a copy of ``expression`` with its children replaced."""
        if isinstance(expression, Selection):
            return Selection(expression.condition, children[0])
        if isinstance(expression, Join):
            return Join(children[0], children[1])
        if isinstance(expression, Union):
            return Union(children[0], children[1])
        if isinstance(expression, Intersection):
            return Intersection(children[0], children[1])
        if isinstance(expression, Difference):
            return Difference(children[0], children[1])
        if isinstance(expression, Recursive):
            return Recursive(children[0], expression.restrictor, expression.max_length)
        if isinstance(expression, GroupBy):
            return GroupBy(children[0], expression.key)
        if isinstance(expression, OrderBy):
            return OrderBy(children[0], expression.key)
        if isinstance(expression, Projection):
            return Projection(children[0], expression.spec)
        raise OptimizerError(f"cannot rebuild expression of type {type(expression).__name__}")


def optimize(plan: Expression, rules: Sequence[RewriteRule] | None = None) -> OptimizationResult:
    """Convenience wrapper: optimize ``plan`` with the default (or given) rule set."""
    return Optimizer(rules).optimize(plan)
