"""E3 (Table 3): pattern matching — reference rules vs NFA vs lazy DFA.

The declarative rules of Table 3 (the naive matcher) try every split of
the provenance for ``π;π'`` and ``π*``; the NFA matcher simulates a
Thompson NFA.  Both are the reference matchers of
``tests/matcher_oracle.py``; the lazy-DFA policy engine is what
``src/`` decides with.  Expected shape: comparable on tiny inputs; the naive
matcher degrades super-linearly on split-heavy patterns while the NFA
stays linear in provenance length — the crossover arrives within a few
dozen events.

The lazy-DFA rows additionally record the **cold vs warm** split of the
incremental engine so the perf-trajectory JSON captures hit rates, not
just wall time: a cold match pays one transition per spine event; a
warm re-match of the same (or an extended) provenance is a run-cache
hit and consumes no transitions at all.
"""

import pytest

from repro.core.builder import pr
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.patterns.ast import (
    AnyPattern,
    EventPattern,
    GroupAll,
    GroupSingle,
    Repetition,
    Sequence,
)
from repro.patterns.dfa import PolicyEngine
from repro.patterns.parse import parse_pattern

from conftest import load_oracle, record_row

_ORACLE = load_oracle("matcher_oracle")
NFAMatcher = _ORACLE.NFAMatcher
naive_matches = _ORACLE.naive_matches

A, B = pr("a"), pr("b")


def chain_provenance(length: int) -> Provenance:
    events = []
    for index in range(length):
        cls = OutputEvent if index % 2 == 0 else InputEvent
        events.append(cls(A if index % 4 < 2 else B, EMPTY))
    return Provenance(tuple(events))


PATTERNS = {
    "literal": parse_pattern("a!any;any"),
    "alternation": parse_pattern("(a!any|b!any|a?any|b?any)*"),
    "star-of-hops": Repetition(
        Sequence(
            EventPattern("!", GroupAll(), AnyPattern()),
            EventPattern("?", GroupAll(), AnyPattern()),
        )
    ),
    "nested-channel": parse_pattern("a!(b!any);any | any"),
}

LENGTHS = [4, 16, 48]


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", list(PATTERNS))
def test_nfa_matcher(benchmark, name, length):
    provenance = chain_provenance(length)
    pattern = PATTERNS[name]
    matcher = NFAMatcher()

    def matched():
        matcher.clear()  # measure cold matching, not cache hits
        return matcher.matches(provenance, pattern)

    result = benchmark(matched)
    record_row(
        "E3-patterns",
        f"nfa   {name:14s} len={length:3d}: match={result}",
    )


@pytest.mark.parametrize("length", [4, 16])  # naive explodes beyond this
@pytest.mark.parametrize("name", list(PATTERNS))
def test_naive_matcher(benchmark, name, length):
    provenance = chain_provenance(length)
    pattern = PATTERNS[name]
    result = benchmark(naive_matches, provenance, pattern)
    record_row(
        "E3-patterns",
        f"naive {name:14s} len={length:3d}: match={result}",
    )


@pytest.mark.parametrize("length", [15, 25])  # odd → no match, all splits tried
@pytest.mark.parametrize("matcher_name", ["naive", "nfa"])
def test_failing_star_match(benchmark, matcher_name, length):
    """The split-search worst case: a star of two-event chunks over an
    odd-length history — the match fails only after every decomposition
    has been refuted.  This is where the declarative rules blow up and
    the NFA stays linear."""

    provenance = chain_provenance(length)
    pattern = PATTERNS["star-of-hops"]
    if matcher_name == "naive":
        result = benchmark(naive_matches, provenance, pattern)
    else:
        matcher = NFAMatcher()

        def matched():
            matcher.clear()
            return matcher.matches(provenance, pattern)

        result = benchmark(matched)
    assert result is False
    record_row(
        "E3-patterns",
        f"{matcher_name:5s} failing-star len={length:3d}: match={result}",
    )


def test_warm_cache_amortization(benchmark):
    """Repeated vetting of the same provenance (the engine's real access
    pattern: every enumeration re-vets in-flight messages)."""

    provenance = chain_provenance(32)
    pattern = PATTERNS["star-of-hops"]
    matcher = NFAMatcher()
    matcher.matches(provenance, pattern)  # warm
    benchmark(matcher.matches, provenance, pattern)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", list(PATTERNS))
def test_lazy_dfa_cold_vs_warm(benchmark, name, length):
    """One row per (pattern, length) with the cold/warm hit-rate split.

    Cold: a fresh engine decides the full spine (one transition per
    event plus nested tests).  Warm: the relay access pattern — re-decide
    every growing prefix ``cons*(e, κ)`` oldest-first, which the run
    cache answers with one transition per *new* event.  The recorded
    hit rate is warm hits over warm queries (1.0 means every re-vet of
    an already-seen spine was O(1) with zero transitions).
    """

    provenance = chain_provenance(length)
    pattern = PATTERNS[name]

    cold_engine = PolicyEngine()
    cold_result = cold_engine.matches(provenance, pattern)
    cold = cold_engine.stats()

    warm_engine = PolicyEngine()
    growing = list(provenance.suffixes())[::-1]  # ε first, full spine last
    for prefix in growing:
        warm_engine.matches(prefix, pattern)
    warm_before = warm_engine.stats()
    for prefix in growing:  # second sweep: pure cache hits
        result = warm_engine.matches(prefix, pattern)
    warm = warm_engine.stats()
    assert result == cold_result
    assert warm["transitions_taken"] == warm_before["transitions_taken"]

    warm_queries = warm["run_cache_hits"] + warm["run_cache_misses"]
    hit_rate = warm["run_cache_hits"] / warm_queries if warm_queries else 1.0
    record_row(
        "E3-patterns",
        f"dfa   {name:14s} len={length:3d}: match={cold_result} "
        f"cold_transitions={cold['transitions_taken']:4d} "
        f"warm_transitions=+0 hit_rate={hit_rate:.2f}",
    )

    matcher = PolicyEngine()

    def matched():
        matcher.clear()  # measure cold matching, like the NFA rows
        return matcher.matches(provenance, pattern)

    benchmark(matched)
