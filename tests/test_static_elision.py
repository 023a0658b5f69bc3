"""Tests for certified check elision: StaticCertificate → Middleware.

The contract: a certificate may only remove *work*, never change
*behavior*.  Every test here is a differential against an uncertified
run of the same seed.
"""

from repro.analysis.static_flow import SiteVerdict, analyse_flow
from repro.core.builder import ch
from repro.core.values import annotate
from repro.lang import parse_system
from repro.runtime import DistributedRuntime
from repro.workloads import vetted_relay_chain


def _run(system, certificate=None, seed=3):
    runtime = DistributedRuntime(seed=seed, certificate=certificate)
    runtime.deploy(system)
    runtime.run()
    return runtime


def _trace(runtime):
    return list(runtime.metrics.delivered)


class TestElision:
    def test_certified_relay_is_bit_identical_and_cheaper(self):
        hops = 12
        workload = vetted_relay_chain(hops)
        report = analyse_flow(workload.system, k=2 * hops + 2)
        assert report.complete
        certificate = report.certificate()

        plain = _run(vetted_relay_chain(hops).system)
        certified = _run(vetted_relay_chain(hops).system, certificate)

        assert _trace(plain) == _trace(certified)
        assert certified.metrics.pattern_checks == 0
        assert certified.metrics.vet_transitions == 0
        assert certified.metrics.vets_elided == plain.metrics.pattern_checks
        assert plain.metrics.vets_elided == 0

    def test_needed_channel_is_not_elided(self):
        # two senders, only one passes the guard: the check is load-bearing
        source = (
            "a[*(m(c!any;any as x).out<x>)] || c[m<v1>] || e[m<v2>]"
            " || f[out(any as y).0]"
        )
        system = parse_system(source)
        report = analyse_flow(system)
        site = next(
            s for s in report.sites.values() if s.key.channel == "m"
        )
        assert site.verdict is SiteVerdict.NEEDED
        certificate = report.certificate()
        assert "m" not in certificate.elidable_channels

        plain = _run(parse_system(source))
        certified = _run(parse_system(source), certificate)
        assert _trace(plain) == _trace(certified)
        # the guarded channel still pays its checks; nothing was elided
        # there (out is trivially redundant and may elide)
        assert certified.metrics.pattern_rejections == (
            plain.metrics.pattern_rejections
        )
        assert certified.metrics.pattern_rejections > 0

    def test_dead_branch_is_pruned(self):
        # branch 1 requires a send by b, but only c sends: DEAD
        source = (
            "c[m<v>]"
            " || a[m(c!any;any as x).0 + m(b!any;any as y).0]"
        )
        system = parse_system(source, principals={"b"})
        report = analyse_flow(system)
        verdicts = {s.key.branch_index: s.verdict for s in report.sites.values()}
        assert verdicts[0] is SiteVerdict.REDUNDANT
        assert verdicts[1] is SiteVerdict.DEAD
        certificate = report.certificate()
        assert certificate.branch_action("a", "m", 0, "c!any;any") == "elide"
        assert certificate.branch_action("a", "m", 1, "b!any;any") == "prune"

        plain = _run(parse_system(source, principals={"b"}))
        certified = _run(parse_system(source, principals={"b"}), certificate)
        assert _trace(plain) == _trace(certified)
        assert certified.metrics.branches_pruned == 1
        assert certified.metrics.pattern_checks == 0

    def test_unknown_site_falls_back_to_vetting(self):
        certificate = analyse_flow(
            parse_system("c[m<v>] || a[m(c!any;any as x).0]")
        ).certificate()
        # a different system: its sites miss the certificate lookup
        other = parse_system("d[n<w>] || e[n(d!any;any as x).0]")
        certified = _run(other, certificate)
        plain = _run(parse_system("d[n<w>] || e[n(d!any;any as x).0]"))
        assert _trace(plain) == _trace(certified)
        assert certified.metrics.vets_elided == 0
        assert certified.metrics.pattern_checks > 0

    def test_incomplete_report_certifies_nothing(self):
        workload = vetted_relay_chain(6)
        report = analyse_flow(workload.system, k=14, max_configs=2)
        assert not report.complete
        certificate = report.certificate()
        assert certificate.branch_action("p1", "t1", 0, "any") == "vet"
        certified = _run(vetted_relay_chain(6).system, certificate)
        assert certified.metrics.vets_elided == 0

    def test_accepted_injection_revokes_the_certificate(self):
        hops = 6
        workload = vetted_relay_chain(hops)
        certificate = analyse_flow(
            workload.system, k=2 * hops + 2
        ).certificate()
        runtime = DistributedRuntime(
            seed=3, certificate=certificate, enforce_integrity=False
        )
        runtime.deploy(workload.system)
        middleware = runtime.middleware
        assert middleware.certificate is not None
        # an unanalyzed message enters: verdicts no longer cover arrivals
        accepted = middleware.inject_raw(
            ch("t1"), (annotate(ch("forged")),)
        )
        assert accepted
        assert middleware.certificate is None
        runtime.run()
        # deliveries after revocation are vetted, not elided
        assert runtime.metrics.pattern_checks > 0

    def test_blocked_injection_keeps_the_certificate(self):
        hops = 4
        workload = vetted_relay_chain(hops)
        certificate = analyse_flow(
            workload.system, k=2 * hops + 2
        ).certificate()
        runtime = DistributedRuntime(seed=3, certificate=certificate)
        runtime.deploy(workload.system)
        middleware = runtime.middleware
        assert not middleware.inject_raw(
            ch("t1"), (annotate(ch("forged")),)
        )
        assert middleware.certificate is not None
