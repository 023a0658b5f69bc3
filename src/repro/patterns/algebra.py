"""Decision procedures over Table 3 patterns: the pattern *algebra*.

The policy engine (:mod:`repro.patterns.dfa`) decides ``κ ⊨ π`` for
one concrete provenance; static tooling needs
decisions about *languages*: is a pattern satisfiable at all, does one
policy branch subsume another, can two branches ever compete for the
same value?  This module answers those questions exactly:

* :meth:`PatternAlgebra.is_empty` — ``⟦π⟧ = ∅``;
* :meth:`PatternAlgebra.is_universal` — ``⟦π⟧`` contains every
  provenance over the principal universe;
* :meth:`PatternAlgebra.includes` — ``⟦π'⟧ ⊆ ⟦π⟧``;
* :meth:`PatternAlgebra.disjoint` — ``⟦π⟧ ∩ ⟦π'⟧ = ∅``;
* :meth:`PatternAlgebra.equivalent` — mutual inclusion;
* the ``*_witness`` variants return a concrete provenance proving the
  negative answer (a member of the separating language), which the
  differential tests replay through the real matcher.

Everything reduces to one question — *is ⋂⟦pos⟧ ∖ ⋃⟦neg⟧ nonempty?* —
decided by an on-the-fly product of subset-construction runs over the
compiled Thompson NFAs (:func:`repro.patterns.nfa.compile_pattern`).
The alphabet of events is infinite (principals are unbounded and a
letter embeds a whole channel provenance), so the product steps over
**atoms**: equivalence classes of events on which every edge test of
every automaton involved is constant.  Atoms are enumerated exactly:

* *direction* — two cases, ``!`` and ``?``;
* *principal* — group expressions expose :meth:`Group.mentioned`, and
  every unmentioned principal behaves alike under every group test, so
  the mentioned principals plus one fresh name realize every reachable
  membership vector (with a declared closed universe, only the declared
  principals are considered);
* *channel provenance* — a sign assignment over the distinct nested
  channel patterns is realizable iff the corresponding positive/negative
  intersection is nonempty — the same question one nesting level down,
  decided recursively (patterns are finite trees, so the recursion
  terminates).

Each atom carries a representative concrete event, so a BFS path through
the product is immediately a witness provenance.  Soundness and
completeness are inherited from the classical subset/product
construction: the product accepts some word over the atom alphabet iff
the patterns' languages separate, and every atom is realizable by
construction.  Decisions are exact — no three-valued hedging — which is
what lets the policy linter (:mod:`repro.analysis.lint`) report
subsumption and overlap as hard findings.

Worst-case cost is exponential in automaton size (it is a universality
problem), so every decision runs under a ``max_product_states`` budget
and raises :class:`AlgebraBudgetError` past it; Table 3 policies are
tiny and sit far below the default budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterable, Optional

from repro.core.errors import AnalysisError
from repro.core.names import Principal
from repro.core.patterns import MatchAll, MatchNone, Pattern
from repro.core.provenance import Event, InputEvent, OutputEvent, Provenance
from repro.patterns.ast import AnyPattern, EventPattern, SamplePattern
from repro.patterns.nfa import NFA, WILDCARD, compile_pattern

__all__ = [
    "AlgebraBudgetError",
    "PatternAlgebra",
    "default_algebra",
]


class AlgebraBudgetError(AnalysisError):
    """A decision exceeded the product-state budget."""


@dataclass(frozen=True, slots=True)
class _Atom:
    """One equivalence class of events, with a concrete representative.

    ``truth`` is the set of edge tests (``EventPattern`` letters) that
    hold on every event of the class; wildcard edges hold on every
    class.  ``event`` realizes the class.
    """

    truth: frozenset[EventPattern]
    event: Event


_EMPTY_LANGUAGE = object()
"""Sentinel for ``MatchNone``-like patterns in :meth:`_normalize`."""


class PatternAlgebra:
    """Exact language decisions over :class:`SamplePattern`.

    ``principals`` declares the universe the decisions quantify over:

    * ``None`` (default) — the *open* universe of all principals; the
      atoms then range over the principals mentioned in the patterns
      plus one fresh one (all unmentioned principals are
      indistinguishable to every group test, so one representative is
      exact);
    * an iterable — a *closed* universe, e.g. the principal pool of a
      closed system: universality and emptiness are then relative to
      events by exactly those principals.

    Instances cache compiled NFAs and decision results; they are cheap
    to create, so analyses that want isolation (a per-run cache) just
    build their own.
    """

    def __init__(
        self,
        principals: Optional[Iterable[Principal]] = None,
        max_product_states: int = 4096,
    ) -> None:
        self.universe: Optional[frozenset[Principal]] = (
            None if principals is None else frozenset(principals)
        )
        if self.universe is not None and not self.universe:
            raise ValueError("a closed principal universe must be nonempty")
        self.max_product_states = max_product_states
        self._compiled: dict[SamplePattern, NFA] = {}
        self._nonempty_memo: dict[
            tuple[frozenset, frozenset], Optional[Provenance]
        ] = {}

    # -- public decisions -------------------------------------------------

    def is_empty(self, pattern: Pattern) -> bool:
        """``⟦π⟧ = ∅`` — no provenance satisfies the pattern."""

        return self.nonempty_witness((pattern,), ()) is None

    def is_universal(self, pattern: Pattern) -> bool:
        """``⟦π⟧`` contains every provenance over the universe."""

        return self.non_universal_witness(pattern) is None

    def non_universal_witness(self, pattern: Pattern) -> Optional[Provenance]:
        """A provenance outside ``⟦π⟧``, or ``None`` if universal."""

        return self.nonempty_witness((), (pattern,))

    def includes(self, general: Pattern, specific: Pattern) -> bool:
        """``⟦specific⟧ ⊆ ⟦general⟧``."""

        return self.inclusion_witness(general, specific) is None

    def inclusion_witness(
        self, general: Pattern, specific: Pattern
    ) -> Optional[Provenance]:
        """A provenance in ``⟦specific⟧ ∖ ⟦general⟧``, or ``None``."""

        return self.nonempty_witness((specific,), (general,))

    def disjoint(self, left: Pattern, right: Pattern) -> bool:
        """``⟦π⟧ ∩ ⟦π'⟧ = ∅``."""

        return self.overlap_witness(left, right) is None

    def overlap_witness(
        self, left: Pattern, right: Pattern
    ) -> Optional[Provenance]:
        """A provenance in both languages, or ``None`` if disjoint."""

        return self.nonempty_witness((left, right), ())

    def equivalent(self, left: Pattern, right: Pattern) -> bool:
        """``⟦π⟧ = ⟦π'⟧``."""

        return self.includes(left, right) and self.includes(right, left)

    # -- the one core decision -------------------------------------------

    def nonempty_witness(
        self,
        positive: Iterable[Pattern],
        negative: Iterable[Pattern],
    ) -> Optional[Provenance]:
        """A provenance in ``⋂⟦positive⟧ ∖ ⋃⟦negative⟧``, or ``None``.

        Accepts the core :class:`MatchAll`/:class:`MatchNone` patterns
        alongside sample patterns (``MatchAll`` behaves as ``any``; a
        ``MatchNone`` on the positive side makes the intersection empty
        and on the negative side is dropped).
        """

        pos: list[SamplePattern] = []
        for pattern in positive:
            norm = self._normalize(pattern)
            if norm is _EMPTY_LANGUAGE:
                return None
            if not isinstance(norm, AnyPattern):
                pos.append(norm)
        neg: list[SamplePattern] = []
        for pattern in negative:
            norm = self._normalize(pattern)
            if norm is _EMPTY_LANGUAGE:
                continue
            if isinstance(norm, AnyPattern):
                return None  # nothing escapes ``any``
            neg.append(norm)
        return self._nonempty(frozenset(pos), frozenset(neg))

    def _normalize(self, pattern: Pattern):
        if isinstance(pattern, SamplePattern):
            return pattern
        if isinstance(pattern, MatchAll):
            return AnyPattern()
        if isinstance(pattern, MatchNone):
            return _EMPTY_LANGUAGE
        raise AnalysisError(
            f"cannot decide language questions for pattern {pattern!r}"
        )

    def _nfa(self, pattern: SamplePattern) -> NFA:
        nfa = self._compiled.get(pattern)
        if nfa is None:
            nfa = compile_pattern(pattern)
            self._compiled[pattern] = nfa
        return nfa

    def _nonempty(
        self,
        pos: frozenset[SamplePattern],
        neg: frozenset[SamplePattern],
    ) -> Optional[Provenance]:
        key = (pos, neg)
        if key in self._nonempty_memo:
            return self._nonempty_memo[key]
        witness = self._product_search(tuple(pos), tuple(neg))
        self._nonempty_memo[key] = witness
        return witness

    def _product_search(
        self,
        pos: tuple[SamplePattern, ...],
        neg: tuple[SamplePattern, ...],
    ) -> Optional[Provenance]:
        """BFS the product of subset runs; return the shortest witness."""

        nfas = [self._nfa(p) for p in pos + neg]
        n_pos = len(pos)

        def accepts(state: tuple[frozenset[int], ...]) -> bool:
            for index, subset in enumerate(state):
                hit = nfas[index].accept in subset
                if index < n_pos:
                    if not hit:
                        return False
                elif hit:
                    return False
            return True

        start = tuple(
            nfa.epsilon_closure(frozenset((nfa.start,))) for nfa in nfas
        )
        if accepts(start):
            return Provenance.of()
        tests: set[EventPattern] = set()
        for nfa in nfas:
            for edges in nfa.edges:
                for test, _ in edges:
                    if test is not None and test != WILDCARD:
                        tests.add(test)
        atoms = self._atoms(frozenset(tests))
        # parent links: state -> (previous state, consumed event)
        parents: dict[tuple, tuple[Optional[tuple], Optional[Event]]] = {
            start: (None, None)
        }
        frontier: deque[tuple] = deque((start,))
        while frontier:
            state = frontier.popleft()
            for atom in atoms:
                successor = []
                dead = False
                for index, subset in enumerate(state):
                    nfa = nfas[index]
                    moved: set[int] = set()
                    for nfa_state in subset:
                        for test, target in nfa.edges[nfa_state]:
                            if test is None or target in moved:
                                continue
                            if test == WILDCARD or test in atom.truth:
                                moved.add(target)
                    closed = nfa.epsilon_closure(frozenset(moved))
                    if index < n_pos and not closed:
                        dead = True  # a positive automaton can never recover
                        break
                    successor.append(closed)
                if dead:
                    continue
                next_state = tuple(successor)
                if next_state in parents:
                    continue
                parents[next_state] = (state, atom.event)
                if len(parents) > self.max_product_states:
                    raise AlgebraBudgetError(
                        f"pattern algebra decision exceeded "
                        f"{self.max_product_states} product states"
                    )
                if accepts(next_state):
                    return self._reconstruct(parents, next_state)
                frontier.append(next_state)
        return None

    @staticmethod
    def _reconstruct(parents, state) -> Provenance:
        events: list[Event] = []
        while True:
            state, event = parents[state]
            if event is None:
                break
            events.append(event)
        # the BFS consumed the provenance in match order (most recent
        # event first — compile_pattern's reading); undo the back-walk
        events.reverse()
        return Provenance.of(*events)

    # -- atom enumeration -------------------------------------------------

    def _atoms(self, tests: frozenset[EventPattern]) -> list[_Atom]:
        """Realizable truth classes over ``tests``, with representatives.

        Two events behave identically for the product iff they satisfy
        the same subset of ``tests`` (wildcard edges hold everywhere),
        so one representative per realizable subset is a complete
        alphabet.
        """

        atoms: dict[frozenset[EventPattern], _Atom] = {}
        mentioned: set[Principal] = set()
        for test in tests:
            mentioned |= test.group.mentioned()
        for direction in ("!", "?"):
            directed = [t for t in tests if t.direction == direction]
            if self.universe is not None:
                candidates = sorted(self.universe, key=lambda p: p.name)
            else:
                candidates = sorted(mentioned, key=lambda p: p.name)
                candidates.append(_fresh_principal(mentioned))
            seen_memberships: set[tuple[bool, ...]] = set()
            for principal in candidates:
                membership = tuple(
                    t.group.contains(principal) for t in directed
                )
                if membership in seen_memberships:
                    continue
                seen_memberships.add(membership)
                live = [
                    t for t, member in zip(directed, membership) if member
                ]
                channel_patterns: dict[SamplePattern, None] = {}
                for test in live:
                    channel_patterns.setdefault(test.channel_pattern)
                ordered = tuple(channel_patterns)
                for signs in _cartesian((True, False), repeat=len(ordered)):
                    chan_pos = frozenset(
                        c for c, sign in zip(ordered, signs) if sign
                    )
                    chan_neg = frozenset(
                        c for c, sign in zip(ordered, signs) if not sign
                    )
                    if not chan_pos and not chan_neg:
                        chan_witness: Optional[Provenance] = Provenance.of()
                    else:
                        chan_witness = self._nonempty(chan_pos, chan_neg)
                    if chan_witness is None:
                        continue  # this sign assignment is unrealizable
                    truth = frozenset(
                        t for t in live if t.channel_pattern in chan_pos
                    )
                    if truth in atoms:
                        continue
                    event_cls = OutputEvent if direction == "!" else InputEvent
                    atoms[truth] = _Atom(
                        truth, event_cls(principal, chan_witness)
                    )
        return list(atoms.values())


def _fresh_principal(mentioned: set[Principal]) -> Principal:
    """A principal no group expression distinguishes from any other
    unmentioned one."""

    taken = {p.name for p in mentioned}
    name = "fresh"
    while name in taken:
        name += "'"
    return Principal(name)


_DEFAULT: Optional[PatternAlgebra] = None


def default_algebra() -> PatternAlgebra:
    """A process-wide open-universe algebra for ad-hoc queries."""

    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PatternAlgebra()
    return _DEFAULT
