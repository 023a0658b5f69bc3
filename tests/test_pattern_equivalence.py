"""Differential property: the NFA matcher agrees with the rule transcription.

The naive matcher *is* Table 3 (one function case per inference rule); the
compiled matcher is the fast implementation.  Agreement over random
(pattern, provenance) pairs is the evidence that compilation is faithful —
the pattern-language analogue of translation validation.
"""

from hypothesis import given, settings

from tests.conftest import patterns, provenances
from tests.matcher_oracle import NFAMatcher, naive_matches

MATCHER = NFAMatcher()


@settings(max_examples=300, deadline=None)
@given(provenances(max_length=5, max_depth=2), patterns(depth=3))
def test_nfa_agrees_with_naive(provenance, pattern):
    assert MATCHER.matches(provenance, pattern) == naive_matches(
        provenance, pattern
    )


@settings(max_examples=100, deadline=None)
@given(provenances(max_length=3, max_depth=1), patterns(depth=4))
def test_nfa_agrees_on_deep_patterns(provenance, pattern):
    assert MATCHER.matches(provenance, pattern) == naive_matches(
        provenance, pattern
    )


@settings(max_examples=100, deadline=None)
@given(provenances(max_length=8, max_depth=0), patterns(depth=2))
def test_nfa_agrees_on_long_flat_provenances(provenance, pattern):
    assert MATCHER.matches(provenance, pattern) == naive_matches(
        provenance, pattern
    )
