"""Finite automata for regular path expressions.

The automaton-based evaluation strategy of Section 8.2 ("traverse the graph
while tracking the states of an automaton constructed from the regular
expression") needs a nondeterministic finite automaton over the alphabet of
edge labels.  This module builds a Thompson-style NFA (with epsilon
transitions) from a :class:`~repro.rpq.ast.RegexNode`, offers epsilon-closure
computation, word acceptance, and a determinized view (``initial_states`` /
``step`` over state sets) used by the automaton executor's ϕShortest product
search (:mod:`repro.engine.automaton.product`) and by the reference baselines
in :mod:`repro.baselines.automaton_eval` and :mod:`repro.baselines.traversal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.rpq.ast import (
    Alternation,
    AnyLabel,
    Concat,
    Epsilon,
    Label,
    Optional,
    Plus,
    RegexNode,
    Star,
)
from repro.rpq.parser import parse_regex

__all__ = ["NFA", "build_nfa", "ANY_LABEL"]

#: Symbol used on transitions that match any edge label (the ``%`` wildcard).
ANY_LABEL = "%any%"

#: Symbol used for epsilon transitions.
_EPSILON = None


@dataclass
class NFA:
    """A nondeterministic finite automaton over edge labels.

    States are integers; ``transitions[state]`` is a list of
    ``(symbol, target)`` pairs where ``symbol`` is an edge label,
    :data:`ANY_LABEL`, or ``None`` for an epsilon move.
    """

    start: int = 0
    accepting: set[int] = field(default_factory=set)
    transitions: dict[int, list[tuple[str | None, int]]] = field(default_factory=dict)
    num_states: int = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def new_state(self) -> int:
        """Allocate and return a fresh state."""
        state = self.num_states
        self.num_states += 1
        self.transitions.setdefault(state, [])
        return state

    def add_transition(self, source: int, symbol: str | None, target: int) -> None:
        """Add a transition; ``symbol=None`` is an epsilon move."""
        self.transitions.setdefault(source, []).append((symbol, target))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        """Return the set of states reachable from ``states`` via epsilon moves."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for symbol, target in self.transitions.get(state, ()):
                if symbol is _EPSILON and target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states: frozenset[int], label: str | None) -> frozenset[int]:
        """Advance the state set over one edge carrying ``label``."""
        moved: set[int] = set()
        for state in states:
            for symbol, target in self.transitions.get(state, ()):
                if symbol is _EPSILON:
                    continue
                if symbol == ANY_LABEL or symbol == label:
                    moved.add(target)
        return self.epsilon_closure(moved)

    def initial_states(self) -> frozenset[int]:
        """Return the epsilon closure of the start state."""
        return self.epsilon_closure([self.start])

    def is_accepting(self, states: frozenset[int]) -> bool:
        """Return ``True`` if any state in ``states`` is accepting."""
        return bool(self.accepting & states)

    def accepts(self, word: Iterable[str | None]) -> bool:
        """Return ``True`` if the automaton accepts the given sequence of edge labels."""
        states = self.initial_states()
        for label in word:
            states = self.step(states, label)
            if not states:
                return False
        return self.is_accepting(states)

    def alphabet(self) -> set[str]:
        """Return the set of concrete labels appearing on transitions."""
        result: set[str] = set()
        for moves in self.transitions.values():
            for symbol, _ in moves:
                if symbol is not _EPSILON and symbol != ANY_LABEL:
                    result.add(symbol)
        return result

    def matches_empty_word(self) -> bool:
        """Return ``True`` if the automaton accepts the empty word (length-zero paths)."""
        return self.is_accepting(self.initial_states())


def build_nfa(regex: RegexNode | str) -> NFA:
    """Build a Thompson NFA for ``regex``."""
    if isinstance(regex, str):
        regex = parse_regex(regex)
    nfa = NFA()
    start = nfa.new_state()
    end = nfa.new_state()
    nfa.start = start
    nfa.accepting = {end}
    _build(regex, nfa, start, end)
    return nfa


def _build(node: RegexNode, nfa: NFA, source: int, target: int) -> None:
    """Wire ``node`` between ``source`` and ``target`` using fresh intermediate states."""
    if isinstance(node, Epsilon):
        nfa.add_transition(source, _EPSILON, target)
        return
    if isinstance(node, Label):
        nfa.add_transition(source, node.name, target)
        return
    if isinstance(node, AnyLabel):
        nfa.add_transition(source, ANY_LABEL, target)
        return
    if isinstance(node, Concat):
        middle = nfa.new_state()
        _build(node.left, nfa, source, middle)
        _build(node.right, nfa, middle, target)
        return
    if isinstance(node, Alternation):
        _build(node.left, nfa, source, target)
        _build(node.right, nfa, source, target)
        return
    if isinstance(node, Star):
        inner_start = nfa.new_state()
        inner_end = nfa.new_state()
        nfa.add_transition(source, _EPSILON, inner_start)
        nfa.add_transition(source, _EPSILON, target)
        nfa.add_transition(inner_end, _EPSILON, inner_start)
        nfa.add_transition(inner_end, _EPSILON, target)
        _build(node.operand, nfa, inner_start, inner_end)
        return
    if isinstance(node, Plus):
        inner_start = nfa.new_state()
        inner_end = nfa.new_state()
        nfa.add_transition(source, _EPSILON, inner_start)
        nfa.add_transition(inner_end, _EPSILON, inner_start)
        nfa.add_transition(inner_end, _EPSILON, target)
        _build(node.operand, nfa, inner_start, inner_end)
        return
    if isinstance(node, Optional):
        nfa.add_transition(source, _EPSILON, target)
        _build(node.operand, nfa, source, target)
        return
    raise TypeError(f"cannot build an NFA for {type(node).__name__}")
