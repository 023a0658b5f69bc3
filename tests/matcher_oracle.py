"""Reference matchers for ``κ ⊨ π``: the references for the policy engine.

:class:`~repro.patterns.dfa.PolicyEngine` is the one decision procedure
for Table 3's satisfaction relation in ``src/``: reversed lazy DFAs with
runs cached on the interned spine.  This module keeps the two readings
it is differentially tested against:

* :func:`naive_matches` — a literal transcription of Table 3's rules.
  Each inference rule becomes one case of a recursive function;
  sequential composition and repetition try *every* split of the
  provenance, exactly as the declarative rules demand, so the worst
  case is exponential.  Rules: S-Empty ``ε ⊨ ε``; S-Send/S-Recv
  ``a!κ ⊨ G!π`` when ``a ∈ ⟦G⟧`` and ``κ ⊨ π`` (dually ``?``); S-Cat
  ``κ;κ' ⊨ π;π'`` for some split; S-AltL/S-AltR; S-Rep ``κ₁;…;κₙ ⊨ π*``
  when every chunk matches ``π``; S-Any ``κ ⊨ Any``.  (The paper's table
  renders the alternation rules with a typo — ``κ ∨ κ'`` on the left —
  but its prose is unambiguous: alternation is on *patterns*.)
* :class:`NFAMatcher` — subset simulation of the pattern's Thompson NFA
  (:func:`~repro.patterns.nfa.compile_pattern`) over the whole spine,
  memoized per interned ``(provenance, pattern)``.  It re-simulates on
  every query, which is what per-message vetting did before the engine
  extended cached runs by one transition per new event.

``tests/test_dfa_matcher.py`` pins naive ≡ NFA ≡ lazy DFA; the E3 bench
(``bench_table3_patterns.py``) times naive against NFA, and
``tests/vetting_oracle.py`` vets through :class:`NFAMatcher` for E18.
It is test-only: nothing in ``src/`` imports it.
"""

from __future__ import annotations

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
from repro.patterns.nfa import NFA, compile_pattern, edge_accepts


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


_NestedMemo = dict[tuple["Provenance", SamplePattern], bool]


def naive_matches(provenance: Provenance, pattern: SamplePattern) -> bool:
    """Decide ``κ ⊨ π`` by direct rule application (exponential).

    The split search over the spine is deliberately left exponential (it
    is the transcription of S-Cat/S-Rep), but nested channel-provenance
    tests — a *pure* sub-decision ``κ' ⊨ π'`` — are memoized per call on
    the interned ``(provenance, pattern)`` pair, so shared subtrees of
    the provenance DAG are decided once instead of once per occurrence.
    """

    return _matches(tuple(provenance), pattern, {})


def _matches(
    events: tuple[Event, ...], pattern: SamplePattern, nested: _NestedMemo
) -> bool:
    if isinstance(pattern, AnyPattern):
        # S-Any
        return True
    if isinstance(pattern, Empty):
        # S-Empty
        return not events
    if isinstance(pattern, EventPattern):
        # S-Send / S-Recv: exactly one event of the right polarity whose
        # principal is in the group and whose channel provenance matches.
        if len(events) != 1:
            return False
        event = events[0]
        if pattern.direction == "!" and not isinstance(event, OutputEvent):
            return False
        if pattern.direction == "?" and not isinstance(event, InputEvent):
            return False
        if not pattern.group.contains(event.principal):
            return False
        key = (event.channel_provenance, pattern.channel_pattern)
        decided = nested.get(key)
        if decided is None:
            decided = _matches(
                tuple(event.channel_provenance), pattern.channel_pattern, nested
            )
            nested[key] = decided
        return decided
    if isinstance(pattern, Sequence):
        # S-Cat: try every split point, including the empty extremes.
        return any(
            _matches(events[:i], pattern.left, nested)
            and _matches(events[i:], pattern.right, nested)
            for i in range(len(events) + 1)
        )
    if isinstance(pattern, Alternation):
        # S-AltL / S-AltR
        return _matches(events, pattern.left, nested) or _matches(
            events, pattern.right, nested
        )
    if isinstance(pattern, Repetition):
        # S-Rep: zero chunks matches the empty provenance; otherwise peel a
        # non-empty first chunk (empty chunks never change the residue, so
        # restricting to non-empty chunks loses no derivations and keeps
        # the recursion well-founded).
        if not events:
            return True
        return any(
            _matches(events[:i], pattern.body, nested)
            and _matches(events[i:], pattern, nested)
            for i in range(1, len(events) + 1)
        )
    raise TypeError(f"not a sample pattern: {pattern!r}")
