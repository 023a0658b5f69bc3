"""Tests for the pattern algebra: exact language decisions + witnesses.

Two layers of evidence:

* unit cases with known answers (emptiness, universality, inclusion,
  disjointness, nesting, the relay guard);
* differential properties — every *negative* decision must come with a
  witness the real NFA matcher confirms, and every *positive* decision
  must survive brute-force enumeration of all provenances up to a bound
  over a closed two-principal event alphabet.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import pr
from repro.core.names import Principal
from repro.core.patterns import MatchAll, MatchNone
from repro.core.provenance import InputEvent, OutputEvent, Provenance
from repro.patterns.algebra import PatternAlgebra, default_algebra
from repro.patterns.ast import (
    Alternation,
    AnyPattern,
    Empty,
    EventPattern,
    GroupAll,
    GroupDifference,
    GroupSingle,
    Repetition,
    Sequence,
)
from repro.patterns.dfa import PolicyEngine
from repro.patterns.parse import parse_pattern as P

A, B = pr("a"), pr("b")
MATCHER = PolicyEngine()


class TestDecisions:
    def setup_method(self):
        self.alg = PatternAlgebra()

    def test_emptiness(self):
        assert self.alg.is_empty(MatchNone())
        assert not self.alg.is_empty(MatchAll())
        assert not self.alg.is_empty(P("a!any"))
        assert not self.alg.is_empty(P("eps"))
        assert not self.alg.is_empty(P("a!(b!any)"))

    def test_universality(self):
        assert self.alg.is_universal(MatchAll())
        assert self.alg.is_universal(P("any"))
        assert self.alg.is_universal(P("any;any"))  # any absorbs ε splits
        assert self.alg.is_universal(P("any|a!any"))
        assert not self.alg.is_universal(P("a!any"))
        assert not self.alg.is_universal(P("eps"))
        assert not self.alg.is_universal(MatchNone())

    def test_inclusion(self):
        assert self.alg.includes(P("any;a!any"), P("a!any"))
        assert not self.alg.includes(P("a!any"), P("any;a!any"))
        assert self.alg.includes(P("a!any"), P("a!(b!any)"))
        assert not self.alg.includes(P("a!(b!any)"), P("a!any"))
        assert self.alg.includes(P("~!any"), P("a!any"))
        assert self.alg.includes(MatchAll(), P("a!any;any"))
        assert self.alg.includes(P("a!any"), MatchNone())

    def test_disjointness(self):
        assert self.alg.disjoint(P("a!any"), P("b!any"))
        assert not self.alg.disjoint(P("a!any"), P("(a+b)!any"))
        assert self.alg.disjoint(P("a!any"), P("(~-a)!any"))
        assert self.alg.disjoint(P("a!any"), P("a?any"))
        assert self.alg.disjoint(P("a!any"), MatchNone())
        assert not self.alg.disjoint(P("eps"), P("(a!any)*"))  # both take ε

    def test_equivalence(self):
        assert self.alg.equivalent(P("(a!any)*"), P("eps|a!any;(a!any)*"))
        assert not self.alg.equivalent(P("(a!any)*"), P("a!any;(a!any)*"))

    def test_relay_guard_sanity(self):
        guard = P("~!any;(~?any;~!any)*")
        assert not self.alg.is_empty(guard)
        assert not self.alg.is_universal(guard)

    def test_witnesses_replay_through_matcher(self):
        witness = self.alg.inclusion_witness(P("a!any"), P("any;a!any"))
        assert MATCHER.matches(witness, P("any;a!any"))
        assert not MATCHER.matches(witness, P("a!any"))
        witness = self.alg.overlap_witness(P("a!any"), P("(a+b)!any"))
        assert MATCHER.matches(witness, P("a!any"))
        assert MATCHER.matches(witness, P("(a+b)!any"))
        witness = self.alg.non_universal_witness(P("a!any"))
        assert not MATCHER.matches(witness, P("a!any"))

    def test_closed_universe(self):
        closed = PatternAlgebra(principals=[A])
        assert closed.is_empty(P("b!any"))
        assert closed.is_universal(P("(a!any|a?any)*"))
        # the open universe disagrees on both
        assert not self.alg.is_empty(P("b!any"))
        assert not self.alg.is_universal(P("(a!any|a?any)*"))

    def test_default_algebra_is_shared(self):
        assert default_algebra() is default_algebra()


# ---------------------------------------------------------------------------
# brute-force differential over a closed two-principal alphabet
# ---------------------------------------------------------------------------

_UNIVERSE = (A, B)
_EVENTS = tuple(
    cls(principal, Provenance.of())
    for cls in (OutputEvent, InputEvent)
    for principal in _UNIVERSE
)
_ALL_PROVENANCES = tuple(
    Provenance.of(*combo)
    for length in range(4)
    for combo in product(_EVENTS, repeat=length)
)
"""Every provenance of flat events (empty channel histories) up to
length 3 — 85 of them; flat patterns cannot distinguish deeper ones."""


def _flat_patterns():
    """Flat Table 3 patterns: groups over {a, b, ~, ~−a}, `any` channels."""

    groups = st.sampled_from(
        [
            GroupSingle(A),
            GroupSingle(B),
            GroupAll(),
            GroupDifference(GroupAll(), GroupSingle(A)),
        ]
    )
    letters = st.builds(
        EventPattern,
        st.sampled_from(["!", "?"]),
        groups,
        st.just(AnyPattern()),
    )
    base = st.one_of(letters, st.just(Empty()))
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.builds(Sequence, children, children),
            st.builds(Alternation, children, children),
            st.builds(Repetition, children),
        ),
        max_leaves=5,
    )


def _language(pattern) -> frozenset:
    return frozenset(
        w for w in _ALL_PROVENANCES if MATCHER.matches(w, pattern)
    )


@settings(max_examples=120, deadline=None)
@given(_flat_patterns(), _flat_patterns())
def test_inclusion_agrees_with_enumeration(general, specific):
    algebra = PatternAlgebra(principals=_UNIVERSE)
    witness = algebra.inclusion_witness(general, specific)
    if witness is None:
        # claimed ⟦specific⟧ ⊆ ⟦general⟧: enumeration cannot contradict
        assert _language(specific) <= _language(general)
    else:
        # the separating witness must be real, checked by the matcher
        assert MATCHER.matches(witness, specific)
        assert not MATCHER.matches(witness, general)


@settings(max_examples=120, deadline=None)
@given(_flat_patterns(), _flat_patterns())
def test_disjointness_agrees_with_enumeration(left, right):
    algebra = PatternAlgebra(principals=_UNIVERSE)
    witness = algebra.overlap_witness(left, right)
    if witness is None:
        assert not (_language(left) & _language(right))
    else:
        assert MATCHER.matches(witness, left)
        assert MATCHER.matches(witness, right)


@settings(max_examples=120, deadline=None)
@given(_flat_patterns())
def test_emptiness_agrees_with_enumeration(pattern):
    algebra = PatternAlgebra(principals=_UNIVERSE)
    if algebra.is_empty(pattern):
        assert not _language(pattern)
    # nonempty: the shortest member need not fit the enumeration bound,
    # but the witness the core search yields must satisfy the pattern
    else:
        witness = algebra.nonempty_witness((pattern,), ())
        assert MATCHER.matches(witness, pattern)
