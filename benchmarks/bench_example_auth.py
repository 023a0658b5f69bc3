"""E6 (§2.3.2 authentication): vetted receive under growing history.

The authentication patterns ("direct sender" vs "originator") are
evaluated against values whose provenance grew over n intermediaries.
Expected shape: the direct-sender pattern ``c!any;any`` is O(1)-ish in
history length (it inspects the head); the originator pattern
``any;d!any`` must walk to the oldest event, so it scales with history —
yet both stay far below a millisecond, supporting the paper's claim that
vetting is practical.
"""

import pytest

from repro.core.builder import pr
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.patterns.dfa import PolicyEngine
from repro.patterns.parse import parse_pattern

from conftest import record_row

C, D, R = pr("c"), pr("d"), pr("r")

DIRECT = parse_pattern("c!any;any")
ORIGIN = parse_pattern("any;d!any")


def relayed_history(intermediaries: int, direct_ok: bool) -> Provenance:
    """d mints a value, r relays it n times, finally c (or r) sends it."""

    events = [OutputEvent(D, EMPTY)]
    for _ in range(intermediaries):
        events = [OutputEvent(R, EMPTY), InputEvent(R, EMPTY)] + events
    events = [OutputEvent(C if direct_ok else R, EMPTY)] + events
    return Provenance(tuple(events))


HOPS = [1, 8, 32, 128]


@pytest.mark.parametrize("hops", HOPS)
@pytest.mark.parametrize("pattern_name", ["direct", "origin"])
def test_vetting_cost(benchmark, pattern_name, hops):
    pattern = DIRECT if pattern_name == "direct" else ORIGIN
    provenance = relayed_history(hops, direct_ok=True)
    engine = PolicyEngine()

    def vet():
        engine.clear()  # cold: measure the spine walk, not a cache hit
        return engine.matches(provenance, pattern)

    result = benchmark(vet)
    assert result is True
    record_row(
        "E6-authentication",
        f"{pattern_name:6s} hops={hops:4d}: admitted={result}",
    )


def test_both_receivers_route_correctly(benchmark):
    """Full-system check: the paper's two receivers each take their value."""

    from repro.core import ProgressStrategy, run
    from repro.lang import parse_system, pretty_system

    def full_run():
        system = parse_system(
            """
            a[m(c!any;any as x).got_direct<x>]
            || b[m(any;d!any as y).got_origin<y>]
            || c[m<vc>] || d[push<vd>] || r[push(z).m<z>] || e[m<ve>]
            """
        )
        return run(system, strategy=ProgressStrategy(), max_steps=100)

    trace = benchmark(full_run)
    final = pretty_system(trace.final)
    assert "got_direct<<vc" in final and "got_origin<<vd" in final
