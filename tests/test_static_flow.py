"""Tests for the static provenance-flow analysis (§5)."""

from repro.analysis.static_flow import (
    SiteVerdict,
    UNKNOWN_PROV,
    Verdict,
    abstract_provenance,
    analyse_flow,
    match3,
)
from hypothesis import given, settings

from repro.core.builder import pr
from repro.core.patterns import MatchAll, MatchNone
from repro.lang import parse_provenance, parse_system
from repro.patterns.dfa import PolicyEngine
from repro.patterns.parse import parse_pattern
from tests.conftest import patterns, provenances

A = pr("a")


class TestAbstraction:
    def test_short_provenance_is_exact(self):
        k = parse_provenance("{a!{}; b?{}}")
        abstracted = abstract_provenance(k, k=4, nesting=2)
        assert not abstracted.truncated
        assert len(abstracted.events) == 2

    def test_long_spine_truncates(self):
        k = parse_provenance("{a!{}; a!{}; a!{}; a!{}; a!{}}")
        abstracted = abstract_provenance(k, k=3, nesting=2)
        assert abstracted.truncated
        assert len(abstracted.events) == 3

    def test_nesting_bound_truncates_channels(self):
        k = parse_provenance("{a!{b?{c!{}}}}")
        abstracted = abstract_provenance(k, k=4, nesting=1)
        assert abstracted.events[0].channel.events[0].channel.truncated


class TestMatch3:
    def test_exact_yes_and_no(self):
        k = abstract_provenance(parse_provenance("{a!{}}"), 4, 2)
        assert match3(k, parse_pattern("a!any")) is Verdict.YES
        assert match3(k, parse_pattern("b!any")) is Verdict.NO

    def test_truncated_history_degrades_to_maybe(self):
        truncated = abstract_provenance(
            parse_provenance("{a!{}; a!{}; a!{}}"), k=1, nesting=2
        )
        # "originated at a" cannot be decided when the tail is unknown
        assert match3(truncated, parse_pattern("any;a!any")) is Verdict.MAYBE

    def test_truncated_history_can_still_be_no(self):
        truncated = abstract_provenance(
            parse_provenance("{b?{}; a!{}}"), k=1, nesting=2
        )
        # pattern requires the *most recent* event to be a send by a;
        # we know it is b? — no extension can fix that
        assert match3(truncated, parse_pattern("a!any")) is Verdict.NO

    def test_unknown_prov_is_maybe_for_nontrivial_patterns(self):
        assert match3(UNKNOWN_PROV, parse_pattern("a!any;any")) is Verdict.MAYBE

    def test_any_is_always_yes(self):
        assert match3(UNKNOWN_PROV, parse_pattern("any")) is Verdict.YES

    def test_core_match_all_none(self):
        assert match3(UNKNOWN_PROV, MatchAll()) is Verdict.YES
        assert match3(UNKNOWN_PROV, MatchNone()) is Verdict.NO


class TestFlowVerdicts:
    def test_authentication_example_verdicts(self):
        system = parse_system(
            """
            a[m(c!any;any as x).0] || b[m(any;d!any as y).0]
            || c[m<v1>] || e[m<v2>]
            """,
            principals={"d"},
        )
        report = analyse_flow(system)
        assert report.complete
        verdicts = {
            str(site.key): site.verdict for site in report.sites.values()
        }
        # a's check is load-bearing (v2 would fail it), b's branch is dead
        assert verdicts["a@m#0(c!any;any)"] is SiteVerdict.NEEDED
        assert verdicts["b@m#0(any;d!any)"] is SiteVerdict.DEAD

    def test_redundant_check_detected(self):
        # only c sends on m, so "sent by c" always holds: dynamic check
        # can be compiled away
        system = parse_system("a[m(c!any;any as x).0] || c[m<v1>] || c[m<v2>]")
        report = analyse_flow(system)
        assert len(report.redundant) == 1

    def test_dead_branch_when_nothing_arrives(self):
        system = parse_system("a[m(any as x).0]")
        report = analyse_flow(system)
        assert len(report.dead) == 1

    def test_relay_flow_tracks_provenance_growth(self):
        system = parse_system(
            "a[m<v>] || s[m(x).n1<x>] || c[n1(s!any;any as x).0]"
        )
        report = analyse_flow(system)
        site = next(iter(report.sites.values()))
        by_name = {str(s.key): s for s in report.sites.values()}
        assert by_name["c@n1#0(s!any;any)"].verdict is SiteVerdict.REDUNDANT

    def test_variable_subject_flows_conservatively(self):
        # b receives a channel and listens on it: the analysis must route
        # flows through the dynamic subject
        system = parse_system(
            "a[m<k>] || a[k<v>] || b[m(x).x(any as y).0]"
        )
        report = analyse_flow(system)
        # the inner input site must have seen at least one arrival
        inner = [
            site for site in report.sites.values() if site.key.branch_index == 0
            and site.arrivals > 0
        ]
        assert inner

    def test_match_forks_on_unknown_operands(self):
        system = parse_system(
            "a[m<v>] || b[m(x).if x = v then good<x> else bad<x>] || c[good(any as z).0]"
        )
        report = analyse_flow(system)
        good_sites = [
            s for s in report.sites.values() if s.key.channel == "good"
        ]
        assert good_sites and good_sites[0].arrivals > 0

    def test_config_budget_reports_incomplete(self):
        system = parse_system("a[*(m<v>)] || b[*(m(x).m<x>)]")
        report = analyse_flow(system, max_configs=2)
        assert not report.complete

    def test_summary_shape(self):
        system = parse_system("a[m<v>] || b[m(any as x).0]")
        summary = analyse_flow(system).summary()
        assert set(summary) == {"sites", "redundant", "dead", "needed", "configs"}


class TestSoundnessAgainstDynamics:
    """REDUNDANT/DEAD verdicts must agree with exhaustive exploration."""

    def test_redundant_site_never_rejects_dynamically(self):
        from repro.core import explore

        source = "a[m(c!any;any as x).0] || c[m<v1>] || c[m<v2>]"
        system = parse_system(source)
        report = analyse_flow(system)
        assert len(report.redundant) == 1
        # dynamically: every reachable state where a message sits on m,
        # the receive is enabled (the pattern never blocks)
        lts = explore(system)
        from repro.core.semantics import ReceiveLabel

        receives = [
            t for t in lts.transitions if isinstance(t.label, ReceiveLabel)
        ]
        assert len(receives) >= 2

    def test_dead_branch_never_fires_dynamically(self):
        from repro.core import explore
        from repro.core.semantics import ReceiveLabel

        source = "a[m(b!any as x).0] || c[m<v1>]"
        system = parse_system(source, principals={"b"})
        report = analyse_flow(system)
        assert len(report.dead) == 1
        lts = explore(system)
        assert not any(
            isinstance(t.label, ReceiveLabel) for t in lts.transitions
        )


class TestRebinding:
    def test_innermost_binding_wins(self):
        # b receives c into x, then rebinds x to d: the output goes to d.
        # The old left-to-right resolve read the *outer* binding and sent
        # the abstract message to c instead.
        source = (
            "a[m<c>] || a[n<d>] || b[m(x).n(x).x<v>]"
            " || e[c(any as z).0] || e[d(any as z).0]"
        )
        report = analyse_flow(parse_system(source))
        verdicts = {
            s.key.channel: s.verdict
            for s in report.sites.values()
            if s.key.principal.name == "e"
        }
        assert verdicts["d"] is SiteVerdict.REDUNDANT
        assert verdicts["c"] is SiteVerdict.DEAD


class TestWidening:
    def test_widening_forces_convergence(self):
        # an unbounded ping-pong grows provenance forever; with a large k
        # the store would chase ever-longer spines, widening caps it
        source = "a[*(m<v>)] || b[*(m(x).m<x>)]"
        report = analyse_flow(
            parse_system(source), k=64, widen_threshold=4
        )
        assert report.complete
        assert report.widened_channels == {"m"}

    def test_no_widening_below_threshold(self):
        source = "a[m<v>] || b[m(any as x).0]"
        report = analyse_flow(parse_system(source), widen_threshold=256)
        assert report.widened_channels == set()


class TestCompiledCache:
    def test_module_cache_is_bounded(self, monkeypatch):
        from repro.analysis import static_flow as sf
        from repro.core.provenance import Provenance

        monkeypatch.setattr(sf, "_CACHE_LIMIT", 4)
        monkeypatch.setattr(sf, "_compiled_cache", {})
        empty = abstract_provenance(Provenance.of(), 4, 2)
        for i in range(20):
            match3(empty, parse_pattern(f"(x{i}!any)*"))
        assert len(sf._compiled_cache) <= 4

    def test_per_analysis_cache_is_isolated(self):
        from repro.analysis import static_flow as sf

        system = parse_system("a[m<v>] || b[m(a!any;any as x).0]")
        before = dict(sf._compiled_cache)
        analysis = sf.FlowAnalysis(system)
        analysis.run()
        assert analysis._nfa_cache  # the guard compiled somewhere
        assert sf._compiled_cache == before  # ...but not globally


class TestReportSurface:
    def test_principal_summary_shape(self):
        source = (
            "c[m<v>] || a[m(c!any;any as x).0]"
            " || d[n<w>] || e[n(c!any;any as y).0]"
        )
        system = parse_system(source)
        summary = analyse_flow(system).principal_summary()
        assert summary["a"] == {"redundant": 1, "dead": 0, "needed": 0}
        assert summary["e"] == {"redundant": 0, "dead": 1, "needed": 0}

    def test_certificate_shape(self):
        system = parse_system("c[m<v>] || a[m(c!any;any as x).0]")
        report = analyse_flow(system)
        certificate = report.certificate()
        assert certificate.complete
        assert certificate.elidable_channels == frozenset({"m"})
        payload = certificate.to_json()
        assert payload["complete"] is True
        assert payload["elidable_channels"] == ["m"]
        assert payload["k"] == report.k

    def test_incomplete_certificate_is_inert(self):
        system = parse_system("c[m<v>] || a[m(c!any;any as x).0]")
        report = analyse_flow(system, max_configs=1)
        assert not report.complete
        certificate = report.certificate()
        assert certificate.elidable_channels == frozenset()
        assert (
            certificate.branch_action("a", "m", 0, "c!any;any") == "vet"
        )


class TestMatch3AgainstDynamicMatcher:
    """On untruncated abstractions match3 is *exact*: it must agree with
    the runtime NFA matcher and never answer MAYBE."""

    @given(provenances(max_length=4, max_depth=2), patterns(depth=3))
    @settings(max_examples=150, deadline=None)
    def test_untruncated_match3_is_exact(self, prov, pattern):
        abstracted = abstract_provenance(prov, k=64, nesting=64)
        assert not abstracted.truncated
        verdict = match3(abstracted, pattern)
        expected = PolicyEngine().matches(prov, pattern)
        assert verdict is (Verdict.YES if expected else Verdict.NO)
