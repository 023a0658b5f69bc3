"""Incremental pattern vetting: reversed lazy DFAs cached on the spine.

The NFA matcher (:mod:`repro.patterns.nfa`) decides ``κ ⊨ π`` by
re-simulating the automaton over the whole spine, so runtime enforcement
— which vets a value every time it crosses a channel — pays ``Θ(|κ|)``
per hop and ``Θ(n²)`` over an ``n``-hop relay even though each hop adds
exactly *one* event to a hash-consed spine.  This module makes the
matcher incremental in the only update the semantics ever performs,
``κ → cons(e, κ)``:

1. **Reversal.**  The Thompson NFA of a pattern is reversed
   (:meth:`repro.patterns.nfa.NFA.reverse`): the reverse accepts the
   spine read tail→head (oldest event first).  Under that reading,
   prepending an event *appends* a letter to the run, so the automaton
   state after ``κ`` determines the state after ``cons(e, κ)`` by one
   transition — no replay.

2. **Lazy determinization.**  The reversed NFA is turned into a DFA by
   subset construction *on demand* (:class:`LazyDFA`): a DFA state is an
   epsilon-closed ``frozenset`` of NFA states, interned to a small
   integer, and the transition out of ``(dfa_state, event)`` is built on
   first use and memoized.  Events are interned
   (:mod:`repro.core.provenance`), so the memo key is the event object
   itself — two structurally equal events are the same key, hashing is a
   cached attribute read, and a transition is evaluated once per
   *distinct* event signature rather than once per occurrence.

3. **Run caching on the shared spine.**  The state reached after a spine
   node is cached per ``(pattern, interned node)``
   (:meth:`PolicyEngine.state`).  Hash-consing makes the key O(1) and
   makes the cache *structural*: every value whose provenance shares a
   suffix shares the cached run, so vetting ``cons(e, κ)`` after ``κ``
   has been vetted — the relay hot path — is one memoized transition,
   O(1) amortized.

4. **Policy banks.**  All patterns registered on a channel's receive
   branches are fused into a :class:`PolicyBank` that advances one state
   *vector* per spine event in a single tail→head pass and caches the
   vector per node, replacing the per-pattern loop in
   ``Middleware.vet``: once any branch has vetted a payload, every other
   branch's verdict on it is a cache hit.

Soundness
---------

For a fixed pattern ``π`` with forward NFA ``N`` (start ``s``, accept
``f``), ``κ = e₁…eₙ ⊨ π`` iff ``N`` accepts ``e₁…eₙ`` iff the reversed
automaton ``Nᴿ`` accepts ``eₙ…e₁`` iff the subset-construction DFA of
``Nᴿ`` — whose lazily built fragment agrees with the full DFA on every
state actually reached — ends in a subset containing ``s`` after
consuming ``eₙ…e₁``.  The cached run is sound because the reached DFA
state is a pure function of the consumed event sequence, and interning
guarantees that two spine nodes compare equal only when they *are* the
same node, hence carry the same sequence; nested channel tests are pure
sub-decisions ``κ' ⊨ π'`` of strictly smaller nesting depth, decided by
the same engine, so memoizing a transition per interned event is sound
for the same reason.  The differential property tests
(``tests/test_dfa_matcher.py``) pin all three matchers — declarative
rules, NFA, lazy DFA — to identical verdicts, plus the incrementality
law ``matches(cons(e, κ)) ≡ matches-from-scratch``.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional

from repro.core.patterns import Pattern
from repro.core.provenance import Event, Provenance
from repro.patterns.ast import SamplePattern
from repro.patterns.nfa import NFA, compile_pattern, edge_accepts

__all__ = ["LazyDFA", "PolicyBank", "PolicyEngine", "default_engine"]


class LazyDFA:
    """Subset-construction DFA over a (reversed) NFA, built on demand.

    States are epsilon-closed frozensets of NFA states interned to dense
    integer ids; ``transitions`` maps ``(state id, interned event)`` to
    the successor id.  The automaton direction is the caller's business —
    :class:`PolicyEngine` always hands in ``compile_pattern(π).reverse()``
    so runs extend under event *prepending*.
    """

    __slots__ = ("nfa", "start", "transitions", "_subsets", "_ids", "_accepting")

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa
        self.transitions: dict[tuple[int, Event], int] = {}
        self._subsets: list[frozenset[int]] = []
        self._ids: dict[frozenset[int], int] = {}
        self._accepting: list[bool] = []
        self.start = self._intern(
            nfa.epsilon_closure(frozenset((nfa.start,)))
        )

    def _intern(self, subset: frozenset[int]) -> int:
        state = self._ids.get(subset)
        if state is None:
            state = len(self._subsets)
            self._ids[subset] = state
            self._subsets.append(subset)
            self._accepting.append(self.nfa.accept in subset)
        return state

    @property
    def state_count(self) -> int:
        """DFA states materialized so far (≤ 2^NFA states, lazily far fewer)."""

        return len(self._subsets)

    def subset(self, state: int) -> frozenset[int]:
        """The NFA states a DFA state stands for — for tests."""

        return self._subsets[state]

    def accepting(self, state: int) -> bool:
        return self._accepting[state]

    def step(self, state: int, event: Event, nested_matches) -> int:
        """One transition; built by subset construction on first use."""

        key = (state, event)
        target = self.transitions.get(key)
        if target is None:
            moved: set[int] = set()
            edges = self.nfa.edges
            for nfa_state in self._subsets[state]:
                for test, nfa_target in edges[nfa_state]:
                    if test is None or nfa_target in moved:
                        continue
                    if edge_accepts(test, event, nested_matches):
                        moved.add(nfa_target)
            target = self._intern(self.nfa.epsilon_closure(frozenset(moved)))
            self.transitions[key] = target
        return target


def _advance_run(engine, runs, provenance, start, step, width):
    """Extend a cached run (single state or vector) to ``provenance``.

    The one copy of the spine walk both :meth:`PolicyEngine.state` and
    :meth:`PolicyBank.states` share: walk tail-ward (iteratively —
    spines are thousands of events deep) to the nearest cached ancestor,
    then apply ``step`` once per uncached node, caching each so the
    whole suffix chain is primed for the next extension.  ``width`` is
    the automata advanced per event (the honest work unit).  Past
    ``engine.cache_limit`` the run cache is cleared wholesale and
    reseeded — counters are never reset here; they are cumulative work
    measures the middleware reads as deltas.
    """

    node = provenance
    pending = []
    while True:
        value = runs.get(node)
        if value is not None:
            break
        if node.is_empty:
            value = start
            runs[node] = value
            break
        pending.append(node)
        node = node.tail
    if not pending:
        engine.run_cache_hits += 1
        return value
    engine.run_cache_misses += 1
    if len(runs) >= engine.cache_limit:
        runs.clear()
        runs[node] = value
    for spine_node in reversed(pending):
        value = step(value, spine_node.head)
        engine.transitions_taken += width
        runs[spine_node] = value
    return value


class PolicyBank:
    """The fused automata of one channel's receive patterns.

    One tail→head spine pass advances the whole state vector — one slot
    per *distinct* sample pattern — and the vector is cached per interned
    spine node, so vetting a payload against any member pattern prices in
    every other member's verdict on the same provenance.  Non-sample
    patterns (``MatchAll``, ``MatchNone``, foreign languages) keep their
    own ``matches`` and simply bypass the vector.
    """

    __slots__ = (
        "patterns",
        "_engine",
        "_dfas",
        "_index",
        "_runs",
        "_start",
        "__weakref__",
    )

    def __init__(self, engine: "PolicyEngine", patterns: Iterable[Pattern]) -> None:
        deduped: dict[SamplePattern, None] = {}
        for pattern in patterns:
            if isinstance(pattern, SamplePattern):
                deduped.setdefault(pattern, None)
        self.patterns: tuple[SamplePattern, ...] = tuple(deduped)
        self._engine = engine
        self._dfas = tuple(engine.dfa(pattern) for pattern in self.patterns)
        self._index = {pattern: i for i, pattern in enumerate(self.patterns)}
        self._start = tuple(dfa.start for dfa in self._dfas)
        self._runs: dict[Provenance, tuple[int, ...]] = {}

    def states(self, provenance: Provenance) -> tuple[int, ...]:
        """The state vector after ``provenance`` (single shared pass)."""

        engine = self._engine
        dfas = self._dfas
        nested = engine.matches

        def step(vector: tuple[int, ...], event: Event) -> tuple[int, ...]:
            return tuple(
                dfa.step(state, event, nested)
                for dfa, state in zip(dfas, vector)
            )

        return _advance_run(
            engine, self._runs, provenance, self._start, step, len(dfas)
        )

    def admits(self, provenance: Provenance, pattern: Pattern) -> bool:
        """Decide ``κ ⊨ π`` for one member (or non-member fallback)."""

        index = self._index.get(pattern)
        if index is None:
            if isinstance(pattern, SamplePattern):
                return self._engine.matches(provenance, pattern)
            return pattern.matches(provenance)
        return self._dfas[index].accepting(self.states(provenance)[index])

    def verdicts(self, provenance: Provenance) -> tuple[bool, ...]:
        """All member verdicts on one provenance — for tests and audits."""

        vector = self.states(provenance)
        return tuple(
            dfa.accepting(state) for dfa, state in zip(self._dfas, vector)
        )

    def cache_size(self) -> int:
        return len(self._runs)


class PolicyEngine:
    """The incremental matcher: reversed lazy DFAs + spine-keyed runs.

    Counters (cumulative, reset by :meth:`clear`):

    * ``transitions_taken`` — DFA steps actually applied; the honest work
      measure the E-gate compares against ``NFAMatcher.events_stepped``
      (one unit ≙ one spine event consumed by one automaton);
    * ``run_cache_hits`` / ``run_cache_misses`` — queries answered
      entirely from a cached spine run vs. queries that extended one.

    ``cache_limit`` bounds every run cache (per pattern and per bank);
    past it a cache is cleared wholesale and rebuilt from the spine —
    same policy as :class:`repro.patterns.nfa.NFAMatcher`.

    Banks are memoized weakly: a bank points back at its engine, and a
    strong memo would close a reference cycle.  A bank lives as long as
    its holder (a channel's rendezvous manager) and is shared meanwhile.
    """

    def __init__(self, cache_limit: int = 1 << 16) -> None:
        self.cache_limit = cache_limit
        self._dfas: dict[SamplePattern, LazyDFA] = {}
        self._runs: dict[SamplePattern, dict[Provenance, int]] = {}
        self._banks: weakref.WeakValueDictionary[
            tuple[Pattern, ...], PolicyBank
        ] = weakref.WeakValueDictionary()
        self.transitions_taken = 0
        self.run_cache_hits = 0
        self.run_cache_misses = 0

    def dfa(self, pattern: SamplePattern) -> LazyDFA:
        """The (memoized) reversed lazy DFA of one pattern."""

        dfa = self._dfas.get(pattern)
        if dfa is None:
            if len(self._dfas) >= self.cache_limit:
                # Run caches hold state ids of the evicted automata, so
                # they go too; existing banks stay valid (they own their
                # DFA references and runs).  Counters are cumulative and
                # deliberately survive eviction — middleware reads deltas.
                self._dfas.clear()
                self._runs.clear()
                self._banks.clear()
            dfa = LazyDFA(compile_pattern(pattern).reverse())
            self._dfas[pattern] = dfa
        return dfa

    def state(self, provenance: Provenance, pattern: SamplePattern) -> int:
        """The DFA state after ``provenance``, extending a cached run.

        See :func:`_advance_run` for the shared walk/extend/evict loop.
        """

        dfa = self.dfa(pattern)
        runs = self._runs.get(pattern)
        if runs is None:
            runs = self._runs[pattern] = {}
        nested = self.matches

        def step(state: int, event: Event) -> int:
            return dfa.step(state, event, nested)

        return _advance_run(self, runs, provenance, dfa.start, step, 1)

    def matches(self, provenance: Provenance, pattern: SamplePattern) -> bool:
        """Decide ``κ ⊨ π`` incrementally."""

        return self.dfa(pattern).accepting(self.state(provenance, pattern))

    def bank(self, patterns: Iterable[Pattern]) -> PolicyBank:
        """The (memoized) fused bank for a pattern set."""

        key = tuple(patterns)
        bank = self._banks.get(key)
        if bank is None:
            if len(self._banks) >= self.cache_limit:
                self._banks.clear()
            bank = PolicyBank(self, key)
            self._banks[key] = bank
        return bank

    def discard_bank(self, patterns: Iterable[Pattern]) -> None:
        """Drop a superseded bank (e.g. a channel's set grew) so its run
        cache stops pinning spine nodes; compiled DFAs stay shared."""

        self._banks.pop(tuple(patterns), None)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for benches and metrics."""

        return {
            "transitions_taken": self.transitions_taken,
            "run_cache_hits": self.run_cache_hits,
            "run_cache_misses": self.run_cache_misses,
            "patterns_compiled": len(self._dfas),
            "cached_runs": sum(len(runs) for runs in self._runs.values())
            + sum(bank.cache_size() for bank in self._banks.values()),
        }

    def clear(self) -> None:
        self._dfas.clear()
        self._runs.clear()
        self._banks.clear()
        self.transitions_taken = 0
        self.run_cache_hits = 0
        self.run_cache_misses = 0


_DEFAULT: Optional[PolicyEngine] = None


def default_engine() -> PolicyEngine:
    """A process-wide engine for ad-hoc queries (audit, tooling)."""

    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PolicyEngine()
    return _DEFAULT
