"""Pattern compilation: Thompson NFA over event tests.

Table 3 patterns are regular expressions whose alphabet "letters" are
event tests — a letter inspects an event's polarity (``!``/``?``), its
principal (a group-membership test), and *recursively* matches the event's
channel provenance against a nested pattern.  :func:`compile_pattern`
turns a pattern into a non-deterministic finite automaton (Thompson's
construction) once; :func:`edge_accepts` is the one definition of what an
event test means.

Nothing here decides ``κ ⊨ π`` on its own.  The lazy-DFA engine
(:mod:`repro.patterns.dfa`) determinizes the reversed automaton on
demand, and the pattern algebra (:mod:`repro.patterns.algebra`) builds
its product constructions on the same edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.provenance import Event, InputEvent, OutputEvent
from repro.patterns.ast import (
    Alternation,
    AnyPattern,
    Empty,
    EventPattern,
    Repetition,
    SamplePattern,
    Sequence,
)

__all__ = [
    "NFA",
    "WILDCARD",
    "compile_pattern",
    "edge_accepts",
]


WILDCARD = "wild"

# An edge test: None is an epsilon edge; the wildcard consumes any event;
# an EventPattern consumes one event satisfying the (recursive) test.
EdgeTest = Union[None, str, EventPattern]


@dataclass(slots=True)
class NFA:
    """A compiled pattern: adjacency lists of ``(test, target)`` edges."""

    edges: list[list[tuple[EdgeTest, int]]] = field(default_factory=list)
    start: int = 0
    accept: int = 0

    def new_state(self) -> int:
        self.edges.append([])
        return len(self.edges) - 1

    def add_edge(self, source: int, test: EdgeTest, target: int) -> None:
        self.edges[source].append((test, target))

    @property
    def state_count(self) -> int:
        return len(self.edges)

    def epsilon_closure(self, states: frozenset[int]) -> frozenset[int]:
        """All states reachable via epsilon edges."""

        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for test, target in self.edges[state]:
                if test is None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def reverse(self) -> "NFA":
        """The automaton for the reversed language.

        Every edge is flipped and start/accept swap roles, so the reverse
        accepts ``eₙ…e₁`` exactly when this automaton accepts ``e₁…eₙ``.
        This is what :mod:`repro.patterns.dfa` determinizes: consuming a
        provenance spine tail→head through the reversed automaton lets a
        prepended event (the only update the semantics performs) extend a
        cached run by a single transition.
        """

        reversed_nfa = NFA(edges=[[] for _ in self.edges])
        for source, edges in enumerate(self.edges):
            for test, target in edges:
                reversed_nfa.edges[target].append((test, source))
        reversed_nfa.start = self.accept
        reversed_nfa.accept = self.start
        return reversed_nfa


def compile_pattern(pattern: SamplePattern) -> NFA:
    """Thompson's construction, specialized for Table 3 patterns."""

    nfa = NFA()
    nfa.start, nfa.accept = _build(nfa, pattern)
    return nfa


def _build(nfa: NFA, p: SamplePattern) -> tuple[int, int]:
    """Add ``p``'s fragment to ``nfa``; return its (start, accept).

    A module-level function rather than a closure: a recursive closure
    references itself through its cell, so every compile would leave a
    reference cycle for the collector.
    """

    if isinstance(p, Empty):
        state = nfa.new_state()
        return state, state
    if isinstance(p, AnyPattern):
        state = nfa.new_state()
        nfa.add_edge(state, WILDCARD, state)
        return state, state
    if isinstance(p, EventPattern):
        start = nfa.new_state()
        accept = nfa.new_state()
        nfa.add_edge(start, p, accept)
        return start, accept
    if isinstance(p, Sequence):
        left_start, left_accept = _build(nfa, p.left)
        right_start, right_accept = _build(nfa, p.right)
        nfa.add_edge(left_accept, None, right_start)
        return left_start, right_accept
    if isinstance(p, Alternation):
        start = nfa.new_state()
        accept = nfa.new_state()
        for part in (p.left, p.right):
            part_start, part_accept = _build(nfa, part)
            nfa.add_edge(start, None, part_start)
            nfa.add_edge(part_accept, None, accept)
        return start, accept
    if isinstance(p, Repetition):
        hub = nfa.new_state()
        body_start, body_accept = _build(nfa, p.body)
        nfa.add_edge(hub, None, body_start)
        nfa.add_edge(body_accept, None, hub)
        return hub, hub
    raise TypeError(f"not a sample pattern: {p!r}")


def edge_accepts(test: EdgeTest, event: Event, nested_matches) -> bool:
    """Does one non-epsilon edge consume ``event``?

    ``nested_matches(provenance, pattern)`` decides the recursive channel
    test — the lazy-DFA engine passes its incremental ``matches``, so
    every consumer of the automaton shares one definition of what an
    event test means.
    """

    if test == WILDCARD:
        return True
    assert isinstance(test, EventPattern)
    if test.direction == "!" and not isinstance(event, OutputEvent):
        return False
    if test.direction == "?" and not isinstance(event, InputEvent):
        return False
    if not test.group.contains(event.principal):
        return False
    return nested_matches(event.channel_provenance, test.channel_pattern)
