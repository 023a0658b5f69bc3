"""The incremental lazy-DFA policy engine (repro.patterns.dfa).

Three layers of evidence:

* **construction** — the reversed automaton and its lazy subset
  construction behave as the textbook says on hand-built cases;
* **differential properties** — ``naive ≡ NFA ≡ lazy DFA`` over random
  (pattern, provenance) pairs, including nested channel-provenance
  tests, plus the bank agreeing with individual matchers (the naive and
  NFA readings are the oracles of ``tests/matcher_oracle.py``);
* **incrementality law** — deciding ``cons(e, κ)`` on a warm engine is
  one transition and equals deciding it from scratch.
"""

import pytest
from hypothesis import given, settings

from repro.core.builder import pr
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.core.patterns import MatchAll, MatchNone
from repro.patterns.ast import AnyPattern, Empty, GroupSingle, sent_by, seq
from repro.patterns.dfa import LazyDFA, PolicyEngine
from repro.patterns.nfa import compile_pattern
from repro.patterns.parse import parse_pattern
from tests.conftest import patterns, provenances
from tests.matcher_oracle import NFAMatcher, naive_matches

A, B, C = pr("a"), pr("b"), pr("c")

NFA_MATCHER = NFAMatcher()
ENGINE = PolicyEngine()


def chain(*specs) -> Provenance:
    """('a','!') specs, most recent first, empty channel provenances."""

    events = []
    for name, direction in specs:
        cls = OutputEvent if direction == "!" else InputEvent
        events.append(cls(pr(name), EMPTY))
    return Provenance(tuple(events))


class TestReversedConstruction:
    def test_reverse_flips_edges_and_endpoints(self):
        nfa = compile_pattern(parse_pattern("a!any;b?any"))
        reversed_nfa = nfa.reverse()
        assert reversed_nfa.start == nfa.accept
        assert reversed_nfa.accept == nfa.start
        forward = {
            (source, id(test), target)
            for source, edges in enumerate(nfa.edges)
            for test, target in edges
        }
        backward = {
            (target, id(test), source)
            for source, edges in enumerate(reversed_nfa.edges)
            for test, target in edges
        }
        assert forward == backward

    def test_lazy_dfa_builds_states_on_demand(self):
        pattern = parse_pattern("a!any;b?any")
        dfa = LazyDFA(compile_pattern(pattern).reverse(), 1 << 16)
        assert dfa.state_count == 1  # just the start subset
        engine = PolicyEngine()
        # a 2-event match forces exactly the states the run visits
        assert engine.matches(chain(("a", "!"), ("b", "?")), pattern)
        assert engine.dfa(pattern).state_count >= 2

    def test_start_state_accepts_iff_empty_matches(self):
        for text, expected in (("eps", True), ("any", True), ("a!any", False)):
            pattern = parse_pattern(text)
            dfa = LazyDFA(compile_pattern(pattern).reverse(), 1 << 16)
            assert dfa.accepting(dfa.start) is expected, text

    def test_dead_state_stays_dead(self):
        pattern = parse_pattern("a!any")
        engine = PolicyEngine()
        two = chain(("a", "!"), ("a", "!"))
        three = two.cons(OutputEvent(A, EMPTY))
        assert not engine.matches(two, pattern)
        assert not engine.matches(three, pattern)


class TestAgainstReferences:
    def test_paper_examples(self):
        # c?ε; s!ε; s?ε; a!ε — the auditing provenance of §2.3.2
        provenance = chain(("c", "?"), ("s", "!"), ("s", "?"), ("a", "!"))
        for text, expected in (
            ("any;a!any", True),
            ("c?any;any", True),
            ("b?any;any", False),
            ("c?any;s!any;s?any;a!any", True),
            ("(~!any|~?any)*", True),
            ("(s+c)!any;any", False),
        ):
            pattern = parse_pattern(text)
            assert ENGINE.matches(provenance, pattern) is expected, text
            assert naive_matches(provenance, pattern) is expected, text

    def test_nested_channel_provenance(self):
        inner = Provenance.of(OutputEvent(B, EMPTY))
        provenance = Provenance.of(OutputEvent(A, inner))
        assert ENGINE.matches(provenance, parse_pattern("a!(b!any)"))
        assert not ENGINE.matches(provenance, parse_pattern("a!(c!any)"))
        assert not ENGINE.matches(provenance, parse_pattern("a!eps"))
        assert ENGINE.matches(provenance, parse_pattern("a!(b!eps)"))

    @settings(max_examples=300, deadline=None)
    @given(provenances(max_length=5, max_depth=2), patterns(depth=3))
    def test_three_way_differential(self, provenance, pattern):
        expected = naive_matches(provenance, pattern)
        assert NFA_MATCHER.matches(provenance, pattern) == expected
        assert ENGINE.matches(provenance, pattern) == expected

    @settings(max_examples=100, deadline=None)
    @given(provenances(max_length=3, max_depth=2), patterns(depth=4))
    def test_differential_deep_nesting(self, provenance, pattern):
        assert ENGINE.matches(provenance, pattern) == naive_matches(
            provenance, pattern
        )

    @settings(max_examples=100, deadline=None)
    @given(provenances(max_length=8, max_depth=0), patterns(depth=2))
    def test_differential_long_flat(self, provenance, pattern):
        assert ENGINE.matches(provenance, pattern) == naive_matches(
            provenance, pattern
        )


class TestIncrementality:
    @settings(max_examples=150, deadline=None)
    @given(provenances(max_length=5, max_depth=1), patterns(depth=3))
    def test_cons_extension_law(self, provenance, pattern):
        """Matching ``cons(e, κ)`` on a warm engine ≡ matching from scratch."""

        warm = PolicyEngine()
        warm.matches(provenance, pattern)
        for event in (
            OutputEvent(A, EMPTY),
            InputEvent(B, provenance),
        ):
            extended = provenance.cons(event)
            fresh = PolicyEngine()
            assert warm.matches(extended, pattern) == fresh.matches(
                extended, pattern
            )
            assert fresh.matches(extended, pattern) == naive_matches(
                extended, pattern
            )

    def test_extension_costs_one_transition(self):
        pattern = parse_pattern("(~!any|~?any)*")
        engine = PolicyEngine()
        provenance = chain(*((f"p{i}", "!") for i in range(40)))
        engine.matches(provenance, pattern)
        before = engine.transitions_taken
        engine.matches(provenance.cons(OutputEvent(A, EMPTY)), pattern)
        assert engine.transitions_taken == before + 1

    def test_shared_suffix_shares_runs(self):
        """Two values whose provenances share a suffix share the cached run."""

        pattern = parse_pattern("any")
        engine = PolicyEngine()
        shared = chain(*((f"p{i}", "?") for i in range(20)))
        engine.matches(shared.cons(OutputEvent(A, EMPTY)), pattern)
        before = engine.transitions_taken
        engine.matches(shared.cons(OutputEvent(B, EMPTY)), pattern)
        assert engine.transitions_taken == before + 1

    def test_dfa_eviction_preserves_counters_and_verdicts(self):
        """Overflowing the compiled-DFA cache must not reset the work
        counters (the middleware reads them as deltas) nor change
        verdicts decided through stale-but-self-consistent banks."""

        engine = PolicyEngine(cache_limit=2)
        provenance = chain(("b", "?"), ("a", "!"))
        texts = ["a!any;any", "(~!any|~?any)*", "b?any;any", "eps", "any"]
        bank = engine.bank(tuple(parse_pattern(t) for t in texts[:2]))
        expected_bank = bank.verdicts(provenance)
        before = engine.transitions_taken
        assert before > 0
        for text in texts:  # forces repeated evictions
            pattern = parse_pattern(text)
            assert engine.matches(provenance, pattern) == naive_matches(
                provenance, pattern
            ), text
        assert engine.transitions_taken >= before  # never reset
        assert bank.verdicts(provenance) == expected_bank

    def test_run_cache_cleared_past_limit(self):
        engine = PolicyEngine(cache_limit=8)
        pattern = parse_pattern("~!any;any")
        provenance = chain(*((f"p{i}", "!") for i in range(40)))
        assert engine.matches(provenance, pattern) == naive_matches(
            provenance, pattern
        )
        assert engine.stats()["cached_runs"] <= 2 * 8 + 40  # bounded, not pinned

    def test_transition_table_bounded_by_cache_limit(self):
        """Every distinct event adds a transition; past ``cache_limit``
        the table is cleared wholesale and verdicts are unchanged."""

        engine = PolicyEngine(cache_limit=8)
        pattern = parse_pattern("(a!any|~?any);any")
        oracle = NFAMatcher()
        for index in range(100):
            event = (OutputEvent if index % 2 else InputEvent)(
                pr(f"q{index}"), EMPTY
            )
            provenance = Provenance.of(event)
            assert engine.matches(provenance, pattern) == oracle.matches(
                provenance, pattern
            )
            assert len(engine.dfa(pattern).transitions) <= 8


class TestPolicyBank:
    PATTERNS = (
        parse_pattern("a!any;any"),
        parse_pattern("(~!any|~?any)*"),
        parse_pattern("eps"),
        MatchAll(),
        MatchNone(),
    )

    @settings(max_examples=150, deadline=None)
    @given(provenances(max_length=5, max_depth=1))
    def test_bank_agrees_with_individual_matchers(self, provenance):
        engine = PolicyEngine()
        bank = engine.bank(self.PATTERNS)
        for pattern in self.PATTERNS:
            assert engine.admits(provenance, pattern, bank) == (
                pattern.matches(provenance)
            ), str(pattern)

    def test_verdict_vector_in_one_pass(self):
        engine = PolicyEngine()
        sample = tuple(p for p in self.PATTERNS if not isinstance(
            p, (MatchAll, MatchNone)
        ))
        bank = engine.bank(sample)
        provenance = chain(("b", "?"), ("a", "!"))
        verdicts = bank.verdicts(provenance)
        assert verdicts == tuple(
            naive_matches(provenance, p) for p in bank.patterns
        )
        # the second member's verdict came from the same pass: asking for
        # it takes no further transitions
        before = engine.transitions_taken
        assert engine.admits(provenance, sample[1], bank) == verdicts[1]
        assert engine.transitions_taken == before

    def test_bank_deduplicates_and_skips_foreign_patterns(self):
        engine = PolicyEngine()
        bank = engine.bank(
            (MatchAll(), self.PATTERNS[0], self.PATTERNS[0], MatchNone())
        )
        assert bank.patterns == (self.PATTERNS[0],)
        assert engine.admits(EMPTY, MatchAll(), bank)
        assert not engine.admits(EMPTY, MatchNone(), bank)

    def test_discard_bank_releases_memo(self):
        engine = PolicyEngine()
        key = (parse_pattern("a!any;any"),)
        bank = engine.bank(key)
        assert engine.bank(key) is bank
        engine.discard_bank(key)
        assert engine.bank(key) is not bank

    def test_non_member_sample_pattern_falls_back(self):
        engine = PolicyEngine()
        bank = engine.bank((self.PATTERNS[0],))
        stray = parse_pattern("b?any;any")
        provenance = chain(("b", "?"), ("a", "!"))
        assert engine.admits(provenance, stray, bank) == naive_matches(
            provenance, stray
        )
        assert engine.admits(provenance, stray) == naive_matches(
            provenance, stray
        )
