"""E20: certified check elision — static certificate vs full dynamic vetting.

The paper's §5 sketch — "a static analysis that would alleviate the need
for dynamic provenance tracking" — closed-loop: the flow analysis
(:mod:`repro.analysis.static_flow`) proves every input site on the
guarded relay chain REDUNDANT, mints a
:class:`~repro.analysis.static_flow.StaticCertificate`, and the
middleware then admits deliveries on certified channels without touching
the policy bank at all.  PR 4 made each vet O(1) amortized; the
certificate makes it O(0).

The gate (``test_static_elision_gate`` / ``--smoke``) runs
:func:`repro.workloads.scaling.vetted_relay_chain` with and without the
certificate and asserts:

* the delivered traces are **bit-identical** (same times, principals,
  channels, stamped values, branch indices) — elision is
  behavior-preserving, not approximately so;
* the certified run does ≥ 5× less vetting work, where work is
  ``pattern_checks + vet_transitions`` (κ⊨π decisions plus the automaton
  steps behind them); on this workload the certified run does zero, so
  the measured ratio is bounded only by the workload size;
* every skipped check is accounted: ``vets_elided`` on the certified
  run equals ``pattern_checks`` on the uncertified one.

The snapshot records ``smoke``, the measured ``hops`` and ``gate_hops``
separately: ``--smoke`` measures at ``SMOKE_HOPS`` while the pytest gate
and a plain run measure at ``GATE_HOPS``, and the committed
``BENCH_E20-static-elision.json`` comes from a gate-size run.

Soundness of the analysis parameters: the chain's provenance grows two
events per hop, so ``k = 2·hops + 2`` keeps abstractions exact and every
site provably REDUNDANT.  A smaller ``k`` degrades verdicts to NEEDED —
the certificate then elides nothing and the differential still holds,
which is the failure mode we want: imprecision costs speed, never
correctness.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_static_elision.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_static_elision.py --smoke   # CI gate
"""

import time

import pytest

from repro.analysis.static_flow import analyse_flow
from repro.runtime import DistributedRuntime
from repro.workloads import vetted_relay_chain

from conftest import record_row, write_snapshot

HOPS = [32, 128, 512]

GATE_HOPS = 512
SMOKE_HOPS = 256
GATE_MIN_WORK_RATIO = 5.0


def _certificate(hops: int):
    """Analyse the chain with a spine bound that keeps it exact."""

    workload = vetted_relay_chain(hops)
    report = analyse_flow(workload.system, k=2 * hops + 2)
    assert report.complete, "analysis tripped max_configs"
    return report.certificate()


def _run(hops: int, certificate):
    workload = vetted_relay_chain(hops)
    runtime = DistributedRuntime(seed=11, certificate=certificate)
    runtime.deploy(workload.system)
    start = time.perf_counter()
    runtime.run()
    seconds = time.perf_counter() - start
    assert runtime.metrics.deliveries == workload.expected_deliveries
    assert runtime.metrics.pattern_rejections == 0
    return runtime, seconds


def _delivery_trace(runtime):
    return [
        (record.time, record.principal, record.channel, record.values,
         record.branch_index)
        for record in runtime.metrics.delivered
    ]


def _vet_work(runtime) -> int:
    return runtime.metrics.pattern_checks + runtime.metrics.vet_transitions


def run_elision_gate(hops: int = GATE_HOPS, repeats: int = 3):
    """A/B certified vs uncertified; assert identical, return the numbers.

    Returns ``(work_ratio, plain_work, certified_work, elided,
    analysis_seconds, plain_seconds, certified_seconds)``.
    """

    start = time.perf_counter()
    certificate = _certificate(hops)
    analysis_seconds = time.perf_counter() - start

    plain_seconds = certified_seconds = float("inf")
    plain_runtime = certified_runtime = None
    for _ in range(repeats):
        runtime, seconds = _run(hops, None)
        if seconds < plain_seconds:
            plain_seconds, plain_runtime = seconds, runtime
        runtime, seconds = _run(hops, certificate)
        if seconds < certified_seconds:
            certified_seconds, certified_runtime = seconds, runtime

    assert _delivery_trace(plain_runtime) == _delivery_trace(
        certified_runtime
    ), "certificate elision changed the delivered trace"
    plain_work = _vet_work(plain_runtime)
    certified_work = _vet_work(certified_runtime)
    elided = certified_runtime.metrics.vets_elided
    assert elided == plain_runtime.metrics.pattern_checks, (
        "every skipped check must be accounted in vets_elided"
    )
    return (
        plain_work / max(1, certified_work),
        plain_work,
        certified_work,
        elided,
        analysis_seconds,
        plain_seconds,
        certified_seconds,
    )


@pytest.mark.parametrize("hops", HOPS)
@pytest.mark.parametrize("certified", [False, True])
def test_certified_relay(benchmark, certified, hops):
    certificate = _certificate(hops) if certified else None

    def run():
        return _run(hops, certificate)[0]

    runtime = benchmark(run)
    record_row(
        "E20-static-elision",
        f"{'cert' if certified else 'plain':5s} hops={hops:3d}: "
        f"checks={runtime.metrics.pattern_checks:5d} "
        f"transitions={runtime.metrics.vet_transitions:7d} "
        f"elided={runtime.metrics.vets_elided:5d}",
    )


def test_static_elision_gate():
    """Certificate ≥ 5× less vetting work at hops=512, trace bit-identical."""

    ratio, plain_work, cert_work, elided, analysis_s, plain_s, cert_s = (
        run_elision_gate(repeats=2)
    )
    record_row(
        "E20-static-elision",
        f"GATE hops={GATE_HOPS}: plain={plain_work} work units "
        f"({plain_s * 1000:.1f}ms) certified={cert_work} "
        f"({cert_s * 1000:.1f}ms, analysis {analysis_s * 1000:.1f}ms) → "
        f"{ratio:.1f}x, {elided} checks elided "
        f"(gates ≥ {GATE_MIN_WORK_RATIO:.0f}x), trace bit-identical",
    )
    assert ratio >= GATE_MIN_WORK_RATIO, (
        f"certified run did {cert_work} work units vs {plain_work} — only "
        f"{ratio:.1f}x (gate: {GATE_MIN_WORK_RATIO}x)"
    )


def test_incomplete_certificate_elides_nothing():
    """An analysis that tripped its budget must authorize no elision."""

    workload = vetted_relay_chain(8)
    report = analyse_flow(workload.system, k=18, max_configs=3)
    assert not report.complete
    certificate = report.certificate()
    runtime, _ = _run(8, certificate)
    assert runtime.metrics.vets_elided == 0
    assert runtime.metrics.pattern_checks > 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run (hops={SMOKE_HOPS}, 2 timed repeats); the "
        "differential and the work-ratio gate still apply in full",
    )
    parser.add_argument("--hops", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    arguments = parser.parse_args(argv)

    hops = arguments.hops
    if hops is None:
        hops = SMOKE_HOPS if arguments.smoke else GATE_HOPS
    repeats = arguments.repeats
    if repeats is None:
        repeats = 2 if arguments.smoke else 3

    ratio, plain_work, cert_work, elided, analysis_s, plain_s, cert_s = (
        run_elision_gate(hops, repeats)
    )
    print(
        f"E20 static elision gate: hops={hops} "
        f"plain={plain_work} work units ({plain_s * 1000:.1f}ms) "
        f"certified={cert_work} ({cert_s * 1000:.1f}ms, "
        f"analysis {analysis_s * 1000:.1f}ms) "
        f"ratio={ratio:.1f}x elided={elided}"
    )
    if ratio < GATE_MIN_WORK_RATIO:
        print(f"FAIL: work ratio below the {GATE_MIN_WORK_RATIO}x gate")
        return 1
    print("trace bit-identical under certificate elision")
    write_snapshot(
        "E20-static-elision",
        {
            "smoke": arguments.smoke,
            "hops": hops,
            "gate_hops": GATE_HOPS,
            "plain_work_units": plain_work,
            "certified_work_units": cert_work,
            "work_ratio": round(ratio, 1),
            "vets_elided": elided,
            "analysis_ms": round(analysis_s * 1000, 1),
            "plain_ms": round(plain_s * 1000, 1),
            "certified_ms": round(cert_s * 1000, 1),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
