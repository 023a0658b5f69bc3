"""Tests for auditing and blame analysis."""

from repro.analysis.audit import (
    RoutePolicy,
    blame,
    custody_chain,
    involved_principals,
    transfers,
)
from repro.core.builder import pr
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.lang import parse_provenance

A, S, B, C = pr("a"), pr("s"), pr("b"), pr("c")

FAULTY = parse_provenance("{c?{}; s!{}; s?{}; a!{}}")  # the paper's example


class TestCustody:
    def test_chain_is_oldest_first(self):
        steps = [str(step) for step in custody_chain(FAULTY)]
        assert steps == ["a sent", "s received", "s sent", "c received"]

    def test_transfers_pair_send_with_receive(self):
        assert transfers(FAULTY) == [(A, S), (S, C)]

    def test_in_flight_send_yields_no_hop(self):
        in_flight = parse_provenance("{s!{}; s?{}; a!{}}")
        assert transfers(in_flight) == [(A, S)]

    def test_involved_includes_channel_handlers(self):
        nested = Provenance.of(
            OutputEvent(A, Provenance.of(InputEvent(B, EMPTY)))
        )
        assert involved_principals(nested) == {A, B}

    def test_empty_provenance_has_no_custody(self):
        assert custody_chain(EMPTY) == []
        assert transfers(EMPTY) == []


class TestBlame:
    INTENDED = RoutePolicy((A, S, B))

    def test_paper_scenario_blames_the_bad_hop(self):
        report = blame(FAULTY, self.INTENDED)
        assert report.deviated
        assert report.deviation_index == 1
        assert report.suspects == {S, C}
        assert report.involved == {A, S, C}

    def test_correct_route_produces_clean_report(self):
        good = parse_provenance("{b?{}; s!{}; s?{}; a!{}}")
        report = blame(good, self.INTENDED)
        assert not report.deviated
        assert report.suspects == frozenset()

    def test_stalled_route_suspects_last_holder(self):
        stalled = parse_provenance("{s?{}; a!{}}")  # never left s
        report = blame(stalled, self.INTENDED)
        assert report.deviated
        assert report.suspects == {S}

    def test_overlong_route_flags_extra_hop(self):
        extra = parse_provenance(
            "{c?{}; b!{}; b?{}; s!{}; s?{}; a!{}}"
        )  # a→s→b→c, one hop too many
        report = blame(extra, self.INTENDED)
        assert report.deviated
        assert report.suspects == {B, C}

    def test_wrong_first_hop(self):
        hijacked = parse_provenance("{s?{}; b!{}}")  # b, not a, originated
        report = blame(hijacked, self.INTENDED)
        assert report.deviated
        assert report.deviation_index == 0


class TestTraceQueries:
    """Pattern queries over a trace via the incremental lazy DFA."""

    def test_matching_suffixes_are_the_compliant_moments(self):
        from repro.analysis.audit import matching_suffixes
        from repro.patterns.parse import parse_pattern

        # suffixes of FAULTY, oldest-first growth: ε, a!, s?a!, s!s?a!, c?…
        relayed = parse_pattern("~!any;(~?any;~!any)*")
        compliant = matching_suffixes(FAULTY, relayed)
        assert [len(suffix) for suffix in compliant] == [3, 1]
        assert str(compliant[1]) == "a!{}"

    def test_matching_suffixes_foreign_pattern_falls_back(self):
        from repro.analysis.audit import matching_suffixes
        from repro.core.patterns import MatchAll

        assert len(matching_suffixes(FAULTY, MatchAll())) == len(FAULTY) + 1

    def test_first_compliant_suffix_locates_deviation(self):
        from repro.analysis.audit import first_compliant_suffix
        from repro.patterns.parse import parse_pattern

        # policy: the value must have gone straight from a to b
        policy = parse_pattern("b?any;a!any")
        suffix = first_compliant_suffix(FAULTY, policy)
        assert suffix is None  # it never did
        reached_s = first_compliant_suffix(
            FAULTY, parse_pattern("s?any;a!any")
        )
        assert reached_s is not None and len(reached_s) == 2

    def test_suffix_sweep_is_one_spine_pass(self):
        from repro.analysis.audit import matching_suffixes
        from repro.patterns.dfa import PolicyEngine
        from repro.patterns.parse import parse_pattern

        engine = PolicyEngine()
        pattern = parse_pattern("(~!any|~?any)*")
        events = tuple(
            OutputEvent(pr(f"q{i}"), EMPTY) for i in range(30)
        )
        provenance = Provenance(events)
        matching_suffixes(provenance, pattern, engine)
        # one transition per spine event, not per (suffix, event) pair
        assert engine.transitions_taken == len(events)


class TestLazySweep:
    """``iter_matching_suffixes``: million-event audits without the list.

    The regression the eager sweep invites: materializing every
    matching suffix of a very deep spine builds a list as long as the
    history.  The lazy variant yields interned nodes one at a time —
    O(1) generator state, no recursion — so an auditor can stop after
    the first few hits at any depth.
    """

    DEPTH = 100_000

    def deep(self):
        people = [pr(f"p{i}") for i in range(4)]
        spine = EMPTY
        for i in range(self.DEPTH):
            spine = spine.cons(OutputEvent(people[i % 4]))
        return spine

    def test_lazy_sweep_at_depth_100k(self):
        from itertools import islice

        from repro.analysis.audit import iter_matching_suffixes
        from repro.patterns.parse import parse_pattern

        spine = self.deep()
        pattern = parse_pattern("(~!any|~?any)*")
        lazy = iter_matching_suffixes(spine, pattern)
        # a generator, not a list — nothing materialized yet
        assert iter(lazy) is lazy
        first = list(islice(lazy, 3))
        assert first[0] is spine
        assert first[1] is spine.tail
        assert all(len(s) == self.DEPTH - i for i, s in enumerate(first))

    def test_lazy_sweep_completes_without_recursion(self):
        import sys

        from repro.analysis.audit import iter_matching_suffixes
        from repro.patterns.parse import parse_pattern

        spine = self.deep()
        assert self.DEPTH > 10 * sys.getrecursionlimit()
        count = sum(
            1
            for _ in iter_matching_suffixes(
                spine, parse_pattern("(~!any|~?any)*")
            )
        )
        assert count == self.DEPTH + 1  # every suffix (incl. ε) matches

    def test_lazy_agrees_with_eager(self):
        from repro.analysis.audit import (
            iter_matching_suffixes,
            matching_suffixes,
        )
        from repro.patterns.dfa import PolicyEngine
        from repro.patterns.parse import parse_pattern

        people = [pr(f"p{i}") for i in range(3)]
        spine = EMPTY
        for i in range(50):
            spine = spine.cons(OutputEvent(people[i % 3]))
            spine = spine.cons(InputEvent(people[(i + 1) % 3]))
        pattern = parse_pattern("~?any;(~!any|~?any)*")
        assert list(iter_matching_suffixes(spine, pattern)) == (
            matching_suffixes(spine, pattern, PolicyEngine())
        )

    def test_eager_default_engine_rides_the_query_index_cache(self):
        import gc
        import weakref

        from repro.analysis.audit import matching_suffixes
        from repro.patterns.dfa import default_engine
        from repro.patterns.parse import parse_pattern
        from repro.query import ProvenanceIndex

        spine = self.deep()
        pattern = parse_pattern("(~!any|~?any)*")
        swept = matching_suffixes(spine, pattern)
        assert swept == list(
            ProvenanceIndex().matching_suffixes(spine, pattern)
        )
        # the eager sweep keeps no process-global cache: once the
        # engine's run cache is cleared, the audited spine is freed
        probe = weakref.ref(spine)
        del spine, swept
        default_engine().clear()
        gc.collect()
        assert probe() is None
