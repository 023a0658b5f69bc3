"""Tests for the sample pattern language: groups, rules, both oracles.

Every inference rule of Table 3 gets dedicated cases, run through *both*
reference matchers of ``tests/matcher_oracle.py`` — the naive rule
transcription and NFA simulation (parametrized) — plus
pattern-language-level behaviours (paper's example patterns).  The
policy engine is pinned to both in ``test_dfa_matcher.py``.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.builder import pr
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.patterns import ast
from repro.patterns.ast import (
    Alternation,
    AnyPattern,
    Empty,
    EventPattern,
    Group,
    GroupAll,
    GroupDifference,
    GroupSingle,
    GroupUnion,
    Repetition,
    SamplePattern,
    Sequence,
    alt,
    received_by,
    sent_by,
    seq,
)
from repro.patterns.dfa import default_engine
from repro.patterns.parse import parse_pattern
from tests.matcher_oracle import NFAMatcher, naive_matches

A, B, C, D = pr("a"), pr("b"), pr("c"), pr("d")


def snd(principal, inner=EMPTY):
    return OutputEvent(principal, inner)


def rcv(principal, inner=EMPTY):
    return InputEvent(principal, inner)


MATCHERS = [
    pytest.param(naive_matches, id="naive"),
    pytest.param(lambda k, p: NFAMatcher().matches(k, p), id="nfa"),
]


class TestGroups:
    def test_singleton(self):
        g = GroupSingle(A)
        assert g.contains(A) and not g.contains(B)

    def test_all(self):
        assert GroupAll().contains(A)

    def test_union(self):
        g = GroupUnion(GroupSingle(A), GroupSingle(B))
        assert g.contains(A) and g.contains(B) and not g.contains(C)

    def test_difference_gives_cofinite_groups(self):
        g = GroupDifference(GroupAll(), GroupSingle(A))
        assert not g.contains(A) and g.contains(B)

    def test_mentioned_collects_names(self):
        g = GroupDifference(GroupUnion(GroupSingle(A), GroupAll()), GroupSingle(B))
        assert g.mentioned() == {A, B}


@pytest.mark.parametrize("matches", MATCHERS)
class TestRules:
    def test_s_empty(self, matches):
        assert matches(EMPTY, Empty())
        assert not matches(Provenance.of(snd(A)), Empty())

    def test_s_any(self, matches):
        assert matches(EMPTY, AnyPattern())
        assert matches(Provenance.of(snd(A), rcv(B)), AnyPattern())

    def test_s_send_polarity_and_group(self, matches):
        p = sent_by(A, Empty())
        assert matches(Provenance.of(snd(A)), p)
        assert not matches(Provenance.of(rcv(A)), p)
        assert not matches(Provenance.of(snd(B)), p)

    def test_s_send_checks_channel_provenance_recursively(self, matches):
        p = EventPattern("!", GroupSingle(A), sent_by(B, AnyPattern()))
        good = Provenance.of(snd(A, Provenance.of(snd(B))))
        bad = Provenance.of(snd(A, Provenance.of(snd(C))))
        assert matches(good, p)
        assert not matches(bad, p)

    def test_s_recv(self, matches):
        p = received_by(A, AnyPattern())
        assert matches(Provenance.of(rcv(A)), p)
        assert not matches(Provenance.of(snd(A)), p)

    def test_event_pattern_matches_exactly_one_event(self, matches):
        p = sent_by(A, AnyPattern())
        assert not matches(EMPTY, p)
        assert not matches(Provenance.of(snd(A), snd(A)), p)

    def test_s_cat_splits(self, matches):
        p = Sequence(sent_by(A), received_by(B))
        assert matches(Provenance.of(snd(A), rcv(B)), p)
        assert not matches(Provenance.of(rcv(B), snd(A)), p)

    def test_s_cat_allows_empty_side(self, matches):
        p = Sequence(Empty(), sent_by(A))
        assert matches(Provenance.of(snd(A)), p)

    def test_s_alt(self, matches):
        p = Alternation(sent_by(A), sent_by(B))
        assert matches(Provenance.of(snd(A)), p)
        assert matches(Provenance.of(snd(B)), p)
        assert not matches(Provenance.of(snd(C)), p)

    def test_s_rep_zero_or_more(self, matches):
        p = Repetition(sent_by(GroupAll()))
        assert matches(EMPTY, p)
        assert matches(Provenance.of(snd(A)), p)
        assert matches(Provenance.of(snd(A), snd(B), snd(C)), p)
        assert not matches(Provenance.of(rcv(A)), p)

    def test_s_rep_of_multi_event_chunks(self, matches):
        hop = Sequence(received_by(GroupAll()), sent_by(GroupAll()))
        p = Repetition(hop)
        two_hops = Provenance.of(rcv(A), snd(A), rcv(B), snd(B))
        assert matches(two_hops, p)
        assert not matches(Provenance.of(rcv(A), snd(A), rcv(B)), p)


@pytest.mark.parametrize("matches", MATCHERS)
class TestPaperPatterns:
    def test_direct_sender(self, matches):
        # c!Any; Any — received data most recently sent by c
        p = parse_pattern("c!any;any")
        assert matches(Provenance.of(snd(C), snd(A), rcv(B)), p)
        assert not matches(Provenance.of(snd(A), snd(C)), p)

    def test_originated_at(self, matches):
        # Any; d!Any — the oldest event is a send by d
        p = parse_pattern("any;d!any")
        assert matches(Provenance.of(snd(A), rcv(B), snd(D)), p)
        assert not matches(Provenance.of(snd(D), snd(A)), p)

    def test_contestant_routing(self, matches):
        # (c1+c3)!Any; Any routes entries from c1 or c3
        p = parse_pattern("(c1+c3)!any;any")
        c1, c3 = pr("c1"), pr("c3")
        assert matches(Provenance.of(snd(c1)), p)
        assert matches(Provenance.of(snd(c3)), p)
        assert not matches(Provenance.of(snd(B)), p)

    def test_everyone_but(self, matches):
        p = parse_pattern("(~-o)?any")
        o = pr("o")
        assert matches(Provenance.of(rcv(A)), p)
        assert not matches(Provenance.of(rcv(o)), p)


class TestNFAInternals:
    def test_caches_grow_and_clear(self):
        matcher = NFAMatcher(cache_limit=16)
        for principal in (A, B, C):
            matcher.matches(Provenance.of(snd(principal)), sent_by(principal))
        compiled, decided = matcher.cache_sizes()
        # three event patterns plus the shared nested AnyPattern
        assert compiled == 4 and decided >= 3
        matcher.clear()
        assert matcher.cache_sizes() == (0, 0)

    def test_default_pattern_matches_delegates_to_nfa(self):
        # SamplePattern.matches asks the process-wide policy engine; the
        # NFA oracle must agree with it
        def queries():
            engine = default_engine()
            return engine.run_cache_hits + engine.run_cache_misses

        p = sent_by(A)
        before = queries()
        assert p.matches(Provenance.of(snd(A)))
        assert not p.matches(Provenance.of(snd(B)))
        assert queries() >= before + 2
        for k in (Provenance.of(snd(A)), Provenance.of(snd(B))):
            assert p.matches(k) == NFAMatcher().matches(k, p)

    def test_pathological_star_nesting_is_fast(self):
        # (any*)* over a long sequence: exponential for naive splits on
        # sequences, linear for the NFA.
        p = Repetition(Repetition(sent_by(GroupAll())))
        k = Provenance.of(*[snd(A)] * 64)
        assert NFAMatcher().matches(k, p)


class TestConstructors:
    def test_seq_right_nests(self):
        p = seq(sent_by(A), sent_by(B), sent_by(C))
        assert isinstance(p, Sequence)
        assert isinstance(p.right, Sequence)

    def test_seq_of_nothing_is_empty(self):
        assert seq() == Empty()

    def test_alt_requires_at_least_one(self):
        with pytest.raises(ValueError):
            alt()

    def test_event_pattern_validates_direction(self):
        with pytest.raises(ValueError):
            EventPattern("x", GroupSingle(A), AnyPattern())

    def test_mentioned_principals_recurse(self):
        p = Sequence(sent_by(A, received_by(B)), sent_by(C))
        assert p.mentioned_principals() == {A, B, C}


class TestNFACacheEviction:
    """The bounded caches: wholesale clear at ``cache_limit``, no stale hits."""

    def _distinct_patterns(self, count):
        return [sent_by(pr(f"q{i}")) for i in range(count)]

    def test_compiled_cache_never_exceeds_limit(self):
        matcher = NFAMatcher(cache_limit=4)
        for pattern in self._distinct_patterns(20):
            matcher.compiled(pattern)
            compiled, _ = matcher.cache_sizes()
            assert compiled <= 4

    def test_decided_cache_never_exceeds_limit(self):
        matcher = NFAMatcher(cache_limit=4)
        for index, pattern in enumerate(self._distinct_patterns(20)):
            matcher.matches(Provenance.of(snd(pr(f"q{index}"))), pattern)
            _, decided = matcher.cache_sizes()
            assert decided <= 4

    def test_eviction_clears_wholesale(self):
        matcher = NFAMatcher(cache_limit=3)
        patterns = self._distinct_patterns(3)
        for pattern in patterns:
            matcher.compiled(pattern)
        assert matcher.cache_sizes()[0] == 3
        # the next distinct pattern trips the limit: clear, then insert one
        matcher.compiled(sent_by(pr("fresh")))
        assert matcher.cache_sizes()[0] == 1

    def test_results_correct_across_evictions(self):
        matcher = NFAMatcher(cache_limit=2)
        provenance = Provenance.of(snd(A))
        yes, no = sent_by(A), sent_by(B)
        for _ in range(10):
            assert matcher.matches(provenance, yes)
            assert not matcher.matches(provenance, no)
            # churn the caches with distinct patterns
            for pattern in self._distinct_patterns(5):
                matcher.matches(provenance, pattern)

    def test_repeated_queries_hit_the_cache(self):
        matcher = NFAMatcher(cache_limit=1 << 10)
        pattern = sent_by(A)
        provenance = Provenance.of(snd(A))
        matcher.matches(provenance, pattern)
        sizes = matcher.cache_sizes()
        for _ in range(5):
            matcher.matches(provenance, pattern)
        assert matcher.cache_sizes() == sizes


def one_of_each_node() -> list:
    """A pattern built from every group and pattern class of the AST."""

    group = GroupDifference(GroupUnion(GroupSingle(A), GroupAll()), GroupSingle(B))
    pattern = Sequence(
        Alternation(EventPattern("!", group, Empty()), AnyPattern()),
        Repetition(EventPattern("?", GroupSingle(C), AnyPattern())),
    )
    nodes, stack = [], [pattern]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack += [
            value for value in (getattr(node, f.name) for f in dataclasses.fields(node))
            if isinstance(value, (Group, SamplePattern))
        ]
    return nodes


class TestHashedOnce:
    """Patterns hash once, at construction, by the dataclass formula."""

    def test_every_class_hashes_by_the_dataclass_formula(self):
        nodes = one_of_each_node()
        classes = {
            cls for cls in vars(ast).values()
            if isinstance(cls, type) and issubclass(cls, (Group, SamplePattern))
            and dataclasses.is_dataclass(cls)
        }
        assert {type(node) for node in nodes} == classes
        for node in nodes:
            fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
            assert hash(node) == hash(fields)
            assert node._hash == hash(node)  # held since construction
            assert node == type(node)(*fields)

    def test_pickles_rehash_under_another_hash_seed(self):
        nodes = one_of_each_node()
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        script = (
            "import dataclasses, pickle, sys\n"
            "nodes = pickle.load(sys.stdin.buffer)\n"
            "for node in nodes:\n"
            "    fields = tuple(getattr(node, f.name)"
            " for f in dataclasses.fields(node))\n"
            "    assert hash(node) == hash(fields), node\n"
            "    assert hash(node) == hash(type(node)(*fields)), node\n"
            "sys.stdout.buffer.write(pickle.dumps("
            "(hash('seed probe'), [hash(n) for n in nodes], nodes)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(nodes),
            capture_output=True, env=env, timeout=60, check=True,
        )
        probe, there, back = pickle.loads(done.stdout)
        assert probe != hash("seed probe")  # the seeds really differ
        assert there != [hash(node) for node in nodes]
        assert back == nodes
        assert [hash(node) for node in back] == [hash(node) for node in nodes]
