"""E14 (§5 static analysis): can the dynamic checks be compiled away?

Runs the k-bounded flow analysis over the paper's example systems and
relay pipelines, reporting verdict counts and analysis time, and compares
against the cost of the dynamic vetting it could eliminate.  Expected
shape: analysis time is a small constant per site on these systems; on
single-writer channels the verdicts are REDUNDANT (check removable),
with NEEDED appearing exactly where several writers race one reader.
"""

import pytest

from repro.analysis.static_flow import analyse_flow
from repro.lang import parse_system, pretty_system
from repro.workloads import relay_chain

from conftest import record_row

SYSTEMS = {
    "authentication": (
        "a[m(c!any;any as x).0] || b[m(any;d!any as y).0]"
        " || c[m<v1>] || e[m<v2>]"
    ),
    "single-writer": "a[m(c!any;any as x).0] || c[m<v1>] || c[m<v2>]",
    "market": "a[n<v1>] || b[n<v2>] || c[n(a!any as x).0] || d[n(b!any as y).0]",
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_analyse_example(benchmark, name):
    system = parse_system(SYSTEMS[name], principals={"d"})
    report = benchmark(analyse_flow, system)
    summary = report.summary()
    record_row(
        "E14-static",
        f"{name:16s}: sites={summary['sites']} "
        f"redundant={summary['redundant']} dead={summary['dead']} "
        f"needed={summary['needed']} configs={summary['configs']}",
    )


@pytest.mark.parametrize("hops", [2, 8, 16])
def test_analyse_relay_chain(benchmark, hops):
    source = pretty_system(relay_chain(hops).system)
    system = parse_system(source)
    report = benchmark(analyse_flow, system)
    assert report.complete
    record_row(
        "E14-static",
        f"chain hops={hops:3d}: sites={len(report.sites)} "
        f"redundant={len(report.redundant)} needed={len(report.needed)}",
    )


def test_dynamic_vetting_cost_for_comparison(benchmark):
    """The per-delivery dynamic check the analysis would remove."""

    from repro.core.engine import run
    from repro.patterns.dfa import PolicyEngine
    from repro.patterns.parse import parse_pattern

    workload = relay_chain(8)
    trace = run(workload.system)
    from repro.core.process import annotated_values
    from repro.core.system import located_components

    value = max(
        (
            v
            for c in located_components(trace.final)
            for v in annotated_values(c.process)
        ),
        key=lambda v: len(v.provenance),
    )
    pattern = parse_pattern("s8!any;any")
    engine = PolicyEngine()
    benchmark(engine.matches, value.provenance, pattern)
