"""Selection conditions of the core path algebra (paper Section 3.1).

A *simple* selection condition compares a feature of a path against a value:

* ``label(node(i)) = v`` / ``label(edge(i)) = v``
* ``label(first) = v`` / ``label(last) = v``
* ``node(i).pr = v`` / ``edge(i).pr = v``
* ``first.pr = v`` / ``last.pr = v``
* ``len() = i``

*Complex* conditions combine simple ones with ``and`` / ``or`` / ``not``.
Following the paper's footnote, simple conditions also support the
inequality comparators (``!=``, ``<``, ``>``, ``<=``, ``>=``).

Conditions are immutable value objects with structural equality so that plan
rewrites can compare and deduplicate them.  Every condition evaluates over a
:class:`~repro.paths.path.Path` and returns ``True`` or ``False``; accesses
to positions outside the path (e.g. ``edge(3)`` on a length-one path) return
``False`` rather than raising, matching the paper's "returns v" phrasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from repro.errors import ConditionError
from repro.paths.path import Path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.model import Edge, Node

__all__ = [
    "Comparator",
    "Condition",
    "SimpleCondition",
    "LabelCondition",
    "PropertyCondition",
    "LengthCondition",
    "And",
    "Or",
    "Not",
    "TrueCondition",
    "split_conjunction",
    "join_conjunction",
    "references_only",
    "tests_endpoints_only",
    "label_of_edge",
    "label_of_node",
    "label_of_first",
    "label_of_last",
    "prop_of_edge",
    "prop_of_node",
    "prop_of_first",
    "prop_of_last",
    "length_equals",
    "length_at_most",
    "length_at_least",
]


class Comparator(str, Enum):
    """Comparison operators allowed in simple selection conditions."""

    EQ = "="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="

    def apply(self, left: Any, right: Any) -> bool:
        """Apply the comparator; ordered comparisons on ``None`` are ``False``."""
        if self is Comparator.EQ:
            return left == right
        if self is Comparator.NE:
            return left != right
        if left is None or right is None:
            return False
        try:
            if self is Comparator.LT:
                return left < right
            if self is Comparator.GT:
                return left > right
            if self is Comparator.LE:
                return left <= right
            return left >= right
        except TypeError:
            return False


class Target(str, Enum):
    """What part of the path a simple condition inspects."""

    NODE = "node"
    EDGE = "edge"
    FIRST = "first"
    LAST = "last"
    PATH = "path"


class Condition:
    """Abstract base class of all selection conditions."""

    def evaluate(self, path: Path) -> bool:
        """Return the truth value of this condition over ``path``."""
        raise NotImplementedError

    # Convenience combinators mirroring the paper's (c1 ∧ c2), (c1 ∨ c2), ¬(c1).
    def __and__(self, other: "Condition") -> "And":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def __call__(self, path: Path) -> bool:
        return self.evaluate(path)


@dataclass(frozen=True)
class TrueCondition(Condition):
    """A condition that is always true (the neutral element for ∧)."""

    def evaluate(self, path: Path) -> bool:
        return True

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class SimpleCondition(Condition):
    """Common base for the paper's simple conditions."""


@dataclass(frozen=True)
class LabelCondition(SimpleCondition):
    """``label(node(i)) = v``, ``label(edge(i)) = v``, ``label(first) = v``, ``label(last) = v``."""

    target: Target
    value: Any
    position: int | None = None
    comparator: Comparator = Comparator.EQ

    def __post_init__(self) -> None:
        if self.target in (Target.NODE, Target.EDGE) and (
            self.position is None or self.position < 1
        ):
            raise ConditionError("label(node(i)) / label(edge(i)) require a 1-based position")
        if self.target is Target.PATH:
            raise ConditionError("label conditions cannot target the whole path")

    def evaluate(self, path: Path) -> bool:
        resolved = _resolve_object(path, self.target, self.position)
        if resolved is None:
            return False
        return self.comparator.apply(resolved.label, self.value)

    def __str__(self) -> str:
        if self.target is Target.NODE:
            subject = f"label(node({self.position}))"
        elif self.target is Target.EDGE:
            subject = f"label(edge({self.position}))"
        else:
            subject = f"label({self.target.value})"
        return f"{subject} {self.comparator.value} {self.value!r}"


@dataclass(frozen=True)
class PropertyCondition(SimpleCondition):
    """``node(i).pr = v``, ``edge(i).pr = v``, ``first.pr = v``, ``last.pr = v``."""

    target: Target
    property_name: str
    value: Any
    position: int | None = None
    comparator: Comparator = Comparator.EQ

    def __post_init__(self) -> None:
        if self.target in (Target.NODE, Target.EDGE) and (
            self.position is None or self.position < 1
        ):
            raise ConditionError("node(i).pr / edge(i).pr require a 1-based position")
        if self.target is Target.PATH:
            raise ConditionError("property conditions cannot target the whole path")

    def evaluate(self, path: Path) -> bool:
        resolved = _resolve_object(path, self.target, self.position)
        if resolved is None:
            return False
        value = resolved.property(self.property_name)
        if value is None:
            return False
        return self.comparator.apply(value, self.value)

    def __str__(self) -> str:
        if self.target is Target.NODE:
            subject = f"node({self.position}).{self.property_name}"
        elif self.target is Target.EDGE:
            subject = f"edge({self.position}).{self.property_name}"
        else:
            subject = f"{self.target.value}.{self.property_name}"
        return f"{subject} {self.comparator.value} {self.value!r}"


@dataclass(frozen=True)
class LengthCondition(SimpleCondition):
    """``len() = i`` (and the inequality variants from the paper's footnote)."""

    value: int
    comparator: Comparator = Comparator.EQ

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConditionError("path length comparisons require a non-negative value")

    def evaluate(self, path: Path) -> bool:
        return self.comparator.apply(path.len(), self.value)

    def __str__(self) -> str:
        return f"len() {self.comparator.value} {self.value}"


@dataclass(frozen=True)
class And(Condition):
    """Conjunction ``(c1 ∧ c2)``."""

    left: Condition
    right: Condition

    def evaluate(self, path: Path) -> bool:
        return self.left.evaluate(path) and self.right.evaluate(path)

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Condition):
    """Disjunction ``(c1 ∨ c2)``."""

    left: Condition
    right: Condition

    def evaluate(self, path: Path) -> bool:
        return self.left.evaluate(path) or self.right.evaluate(path)

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Condition):
    """Negation ``¬(c)``."""

    operand: Condition

    def evaluate(self, path: Path) -> bool:
        return not self.operand.evaluate(path)

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


def split_conjunction(condition: Condition) -> list[Condition]:
    """Flatten nested conjunctions into the list of their conjuncts, left to right."""
    if isinstance(condition, And):
        return split_conjunction(condition.left) + split_conjunction(condition.right)
    return [condition]


def join_conjunction(conditions: list[Condition]) -> Condition:
    """Fold a non-empty list of conditions back into a left-deep conjunction."""
    result = conditions[0]
    for extra in conditions[1:]:
        result = And(result, extra)
    return result


def references_only(condition: Condition, target: Target) -> bool:
    """True if ``condition`` is a simple label/property test on ``target`` alone.

    With ``Target.FIRST`` / ``Target.LAST`` these are the endpoint conditions
    that hold on one operand of a join or on the first segment of a closure.
    """
    return isinstance(condition, (LabelCondition, PropertyCondition)) and condition.target is target


def tests_endpoints_only(condition: Condition) -> bool:
    """True if every top-level conjunct of ``condition`` tests only the first
    or only the last node (:func:`references_only`).

    Such a selection keeps or drops whole endpoint pairs, so it commutes with
    anything that picks paths within a pair — a shortest-path selector above
    it, or the choice of which of a pair's paths a closure builds.  ``len()``,
    ``node(i)`` and ``edge(i)`` tests, and ``Or`` / ``Not``, are not looked into.
    """
    return all(
        references_only(conjunct, Target.FIRST) or references_only(conjunct, Target.LAST)
        for conjunct in split_conjunction(condition)
    )


def _resolve_object(path: Path, target: Target, position: int | None) -> "Node | Edge | None":
    """Return the node/edge a simple condition refers to, or ``None`` if absent.

    The target says which kind it is, so the object is looked up by kind
    (``graph.node`` / ``graph.edge``) instead of probing both id spaces.
    """
    graph = path.graph
    if target is Target.FIRST:
        return graph.node(path.first())
    if target is Target.LAST:
        return graph.node(path.last())
    if target is Target.NODE:
        assert position is not None
        if position > path.len() + 1:
            return None
        return graph.node(path.node(position))
    if target is Target.EDGE:
        assert position is not None
        if position > path.len():
            return None
        return graph.edge(path.edge(position))
    return None


# ----------------------------------------------------------------------
# Constructor helpers mirroring the paper's notation
# ----------------------------------------------------------------------
def label_of_edge(position: int, value: Any, comparator: Comparator = Comparator.EQ) -> LabelCondition:
    """``label(edge(position)) = value`` — the condition used throughout the paper's figures."""
    return LabelCondition(Target.EDGE, value, position, comparator)


def label_of_node(position: int, value: Any, comparator: Comparator = Comparator.EQ) -> LabelCondition:
    """``label(node(position)) = value``."""
    return LabelCondition(Target.NODE, value, position, comparator)


def label_of_first(value: Any, comparator: Comparator = Comparator.EQ) -> LabelCondition:
    """``label(first) = value``."""
    return LabelCondition(Target.FIRST, value, None, comparator)


def label_of_last(value: Any, comparator: Comparator = Comparator.EQ) -> LabelCondition:
    """``label(last) = value``."""
    return LabelCondition(Target.LAST, value, None, comparator)


def prop_of_edge(
    position: int, property_name: str, value: Any, comparator: Comparator = Comparator.EQ
) -> PropertyCondition:
    """``edge(position).property_name = value``."""
    return PropertyCondition(Target.EDGE, property_name, value, position, comparator)


def prop_of_node(
    position: int, property_name: str, value: Any, comparator: Comparator = Comparator.EQ
) -> PropertyCondition:
    """``node(position).property_name = value``."""
    return PropertyCondition(Target.NODE, property_name, value, position, comparator)


def prop_of_first(
    property_name: str, value: Any, comparator: Comparator = Comparator.EQ
) -> PropertyCondition:
    """``first.property_name = value`` (e.g. ``first.name = "Moe"``)."""
    return PropertyCondition(Target.FIRST, property_name, value, None, comparator)


def prop_of_last(
    property_name: str, value: Any, comparator: Comparator = Comparator.EQ
) -> PropertyCondition:
    """``last.property_name = value`` (e.g. ``last.name = "Apu"``)."""
    return PropertyCondition(Target.LAST, property_name, value, None, comparator)


def length_equals(value: int) -> LengthCondition:
    """``len() = value``."""
    return LengthCondition(value, Comparator.EQ)


def length_at_most(value: int) -> LengthCondition:
    """``len() <= value``."""
    return LengthCondition(value, Comparator.LE)


def length_at_least(value: int) -> LengthCondition:
    """``len() >= value``."""
    return LengthCondition(value, Comparator.GE)
