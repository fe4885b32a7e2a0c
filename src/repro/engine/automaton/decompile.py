"""Plan → regex decompiler and native-shape classifier.

The automaton executor evaluates ϕShortest closures on the product of
graph × NFA, which computes *word-level* semantics: a path qualifies iff its
label word is in the regex language.  The algebra's ``Recursive`` operator
instead composes whole sub-paths, and the two notions coincide only for
specific plan shapes — exactly the shapes :mod:`repro.rpq.compile` emits for
regular path queries.  This module recognizes those shapes by *decompiling*
the closure's base back into the regex it was compiled from; anything that
fails to decompile is reported as unsupported and the executor falls back to
the materializing evaluator, so parity is never at risk on exotic plans.

Supported shapes (``classify_plan``), all with restrictor ``SHORTEST``:

* ``Recursive(inner, SHORTEST, ml)`` with a ϕ-free decompilable ``inner``
  (the base regex ``R``) → the ϕShortest closure of the base set ``L(R)``;
* ``Union(Recursive(inner, SHORTEST, ml), NodesScan())`` — the ``R*`` compile
  shape: the closure above plus every length-zero node path;
* ``σ[first.c](Recursive(inner, SHORTEST, ml))`` with nothing else in the
  condition (``seeded_closure_input`` with no residual) — the same closure
  searched from the source nodes satisfying ``c`` only;
* any of the above under an identity crown (``identity_crown_input``) — an
  ``ALL`` query the optimizer did not see; it removes such crowns otherwise.

Other restrictors and ϕ-free plans run through the closure kernel and the
access paths, which the executor reaches by falling back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.algebra.conditions import Condition
from repro.algebra.expressions import (
    EdgesScan,
    Expression,
    Join,
    NodesScan,
    Recursive,
    Selection,
    Union,
    identity_crown_input,
    label_scan_input,
    seeded_closure_input,
)
from repro.graph.model import PropertyGraph
from repro.paths.path import Path
from repro.rpq.ast import Alternation, AnyLabel, Concat, Epsilon, Label, RegexNode
from repro.semantics.restrictors import Restrictor

__all__ = [
    "AutomatonPlan",
    "classify_plan",
    "decompile_plan",
]


@dataclass(frozen=True)
class AutomatonPlan:
    """A ϕShortest closure the product-graph executor evaluates natively.

    Attributes:
        kind: ``"closure"`` (a single ``Recursive`` node) or
            ``"closure_with_nodes"`` (the ``R*`` compile shape
            ``closure ∪ NodesScan``).
        regex: The regex of the ``Recursive`` child (one segment).
        max_length: The *effective* closure bound — the plan's own
            ``max_length`` if set, else the engine ``default_max_length``.
        sources: A first-node condition restricting the nodes the search
            starts from (a seeded closure), or ``None`` for every node.
    """

    kind: str
    regex: RegexNode
    max_length: int | None
    sources: Condition | None = None

    def source_nodes(self, graph: PropertyGraph) -> list[str]:
        """The nodes the product search starts from, in ``graph.node_ids()`` order."""
        nodes = graph.node_ids()
        if self.sources is None:
            return nodes
        accepts = self.sources.evaluate
        return [node_id for node_id in nodes if accepts(Path.from_node(graph, node_id))]


def decompile_plan(plan: Expression) -> RegexNode | None:
    """Invert :func:`repro.rpq.compile.compile_regex` on ϕ-free plans.

    Returns ``None`` when the plan contains any operator the compiler never
    emits for a regex (recursion, selections other than the single-edge label
    probe, set operators beyond union, solution-space operators, ...).
    """
    if isinstance(plan, NodesScan):
        return Epsilon()
    if isinstance(plan, EdgesScan):
        return AnyLabel()
    if isinstance(plan, Selection):
        indexed = label_scan_input(plan)
        if indexed is not None and indexed[1] is None:
            return Label(indexed[0])
        return None
    if isinstance(plan, Join):
        left = decompile_plan(plan.left)
        right = decompile_plan(plan.right)
        if left is None or right is None:
            return None
        return Concat(left, right)
    if isinstance(plan, Union):
        left = decompile_plan(plan.left)
        right = decompile_plan(plan.right)
        if left is None or right is None:
            return None
        return Alternation(left, right)
    return None


def _classify_recursive(plan: Recursive, default_max_length: int | None) -> AutomatonPlan | None:
    if plan.restrictor is not Restrictor.SHORTEST:
        return None
    regex = decompile_plan(plan.child)
    if regex is None:
        return None
    bound = plan.max_length if plan.max_length is not None else default_max_length
    return AutomatonPlan("closure", regex, bound)


def classify_plan(
    plan: Expression, default_max_length: int | None = None
) -> AutomatonPlan | None:
    """Return the native evaluation shape of ``plan``, or ``None``."""
    plan = identity_crown_input(plan) or plan
    if isinstance(plan, Recursive):
        return _classify_recursive(plan, default_max_length)
    seeded = seeded_closure_input(plan)
    if seeded is not None:
        recursive, seed, residual = seeded
        if residual is not None:
            return None
        closure = _classify_recursive(recursive, default_max_length)
        return None if closure is None else replace(closure, sources=seed)
    if (
        isinstance(plan, Union)
        and isinstance(plan.left, Recursive)
        and isinstance(plan.right, NodesScan)
    ):
        closure = _classify_recursive(plan.left, default_max_length)
        return None if closure is None else replace(closure, kind="closure_with_nodes")
    return None
