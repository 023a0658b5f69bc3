"""Compiled pattern matcher: Thompson NFA over event tests.

Table 3 patterns are regular expressions whose alphabet "letters" are
event tests — a letter inspects an event's polarity (``!``/``?``), its
principal (a group-membership test), and *recursively* matches the event's
channel provenance against a nested pattern.  We compile a pattern once
into a non-deterministic finite automaton (Thompson's construction) and
decide ``κ ⊨ π`` by subset simulation:

* simulation is ``O(|κ| · |states| · edge-cost)`` instead of the naive
  matcher's exponential split search;
* nested channel-provenance tests recurse into the same matcher, memoized
  on ``(provenance, pattern)`` so repeated sub-derivations (ubiquitous —
  channel provenances are shared across events) are decided once.
  Provenances are hash-consed (:mod:`repro.core.provenance`): cache keys
  hash in O(1) off the memoized structural hash, compare by identity, and
  a subtree shared across the provenance DAG hits the cache on every
  occurrence after the first — the matcher is O(DAG), not O(tree).

The matcher is a class so caches have an owner and tests can measure cold
and warm behaviour; a process-wide :func:`default_matcher` instance serves
:meth:`SamplePattern.matches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.provenance import Event, InputEvent, OutputEvent, Provenance
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
    "NFAMatcher",
    "default_matcher",
]


WILDCARD = "wild"
_WILDCARD = WILDCARD  # historical alias

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
        nfa.add_edge(state, _WILDCARD, state)
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
    test — the NFA matcher passes its own memoized :meth:`matches`, the
    lazy-DFA engine passes its incremental one, so both matchers share
    the single definition of what an event test means.
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


class NFAMatcher:
    """Decides ``κ ⊨ π`` via compiled NFAs with memoization.

    ``cache_limit`` bounds both internal caches; when a cache grows past
    the limit it is cleared wholesale (simple, and the caches rebuild
    quickly from the recursive structure of real workloads).
    """

    def __init__(self, cache_limit: int = 1 << 16) -> None:
        self._cache_limit = cache_limit
        self._compiled: dict[SamplePattern, NFA] = {}
        self._decided: dict[tuple[Provenance, SamplePattern], bool] = {}
        self.events_stepped = 0
        """Spine events consumed by subset simulation (cache hits consume
        none) — the work counter the incremental-vetting benchmark
        compares against the lazy DFA's transitions taken."""
        self.decided_hits = 0
        """Queries answered from the (provenance, pattern) memo — the
        counterpart of the DFA engine's run-cache hits, so the A/B
        metric surface is symmetric."""

    def compiled(self, pattern: SamplePattern) -> NFA:
        nfa = self._compiled.get(pattern)
        if nfa is None:
            if len(self._compiled) >= self._cache_limit:
                self._compiled.clear()
            nfa = compile_pattern(pattern)
            self._compiled[pattern] = nfa
        return nfa

    def matches(self, provenance: Provenance, pattern: SamplePattern) -> bool:
        """Decide ``κ ⊨ π``."""

        key = (provenance, pattern)
        decided = self._decided.get(key)
        if decided is not None:
            self.decided_hits += 1
            return decided
        result = self._simulate(provenance, pattern)
        if len(self._decided) >= self._cache_limit:
            self._decided.clear()
        self._decided[key] = result
        return result

    def _simulate(self, provenance: Provenance, pattern: SamplePattern) -> bool:
        nfa = self.compiled(pattern)
        states = nfa.epsilon_closure(frozenset((nfa.start,)))
        for event in provenance:
            self.events_stepped += 1
            moved: set[int] = set()
            for state in states:
                for test, target in nfa.edges[state]:
                    if test is None or target in moved:
                        continue
                    if edge_accepts(test, event, self.matches):
                        moved.add(target)
            if not moved:
                return False
            states = nfa.epsilon_closure(frozenset(moved))
        return nfa.accept in states

    def cache_sizes(self) -> tuple[int, int]:
        """(compiled patterns, decided queries) — for tests and benches."""

        return len(self._compiled), len(self._decided)

    def clear(self) -> None:
        self._compiled.clear()
        self._decided.clear()


_DEFAULT: Optional[NFAMatcher] = None


def default_matcher() -> NFAMatcher:
    """The process-wide matcher behind :meth:`SamplePattern.matches`."""

    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = NFAMatcher()
    return _DEFAULT
