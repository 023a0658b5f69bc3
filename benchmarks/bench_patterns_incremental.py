"""E18: incremental pattern vetting — lazy-DFA policy bank vs NFA re-simulation.

Table 3 satisfaction ``κ ⊨ π`` is the runtime enforcement primitive:
every delivery vets the payload's accumulated provenance.  The NFA
matcher replays the whole spine per vet, so an ``n``-hop guarded relay
pays Θ(n²) matcher work over a run; the reversed lazy DFA
(:mod:`repro.patterns.dfa`) caches its reached state per interned spine
node and pays two transitions per hop — Θ(n) total.

The gate (``test_incremental_vetting_gate`` / ``--smoke``) runs
:func:`repro.workloads.scaling.vetted_relay_chain` at ``hops=512`` on the
runtime and again with the test-only NFA oracle
(``tests/vetting_oracle.py``) standing in for the policy engine,
asserts the runs *identical* (same
deliveries, same stamped values, same per-component check/rejection
counters) and requires the bank to do ≥ 10× less total vetting work
(automaton transitions: DFA steps taken vs NFA spine events consumed —
one unit ≙ one event consumed by one automaton).  Wall time is reported,
with a looser floor for noisy CI runners.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_patterns_incremental.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_patterns_incremental.py --smoke   # CI gate
"""

import time
from contextlib import nullcontext

import pytest

from repro.runtime import DistributedRuntime
from repro.workloads import vetted_relay_chain

from conftest import load_oracle, record_row, write_snapshot

VETTING = {"bank": nullcontext, "nfa": load_oracle("vetting_oracle").nfa_vetting}
"""The runtime's policy bank, and the NFA oracle installed in its place."""

HOPS = [32, 128, 512]

GATE_HOPS = 512
GATE_MIN_WORK_RATIO = 10.0
SMOKE_MIN_WALL_SPEEDUP = 3.0
"""CI wall-clock floor.  The transition ratio (deterministic, ~256x
measured vs the 10x gate) is what CI gates strictly; whole-run wall
clock also carries the simulator and engine overhead both paths share,
so its floor is looser but still fails on a real regression."""


def _run(hops: int, vetting: str):
    """Deploy the guarded chain, run it, return (runtime, run_seconds)."""

    workload = vetted_relay_chain(hops)
    with VETTING[vetting]():
        runtime = DistributedRuntime(seed=11)
    runtime.deploy(workload.system)
    start = time.perf_counter()
    runtime.run()
    seconds = time.perf_counter() - start
    assert runtime.metrics.deliveries == workload.expected_deliveries
    assert runtime.metrics.pattern_rejections == 0
    return runtime, seconds


def _delivery_trace(runtime):
    return list(runtime.metrics.delivered)


def run_incremental_gate(hops: int = GATE_HOPS, repeats: int = 3):
    """A/B one guarded relay run; assert identical verdicts, return work.

    Returns ``(work_ratio, wall_speedup, bank_transitions,
    nfa_transitions, bank_seconds, nfa_seconds)`` where *transitions*
    is ``metrics.vet_transitions`` — DFA steps taken on the bank path,
    spine events consumed by subset simulation on the NFA path.
    """

    bank_seconds = nfa_seconds = float("inf")
    bank_runtime = nfa_runtime = None
    for _ in range(repeats):
        runtime, seconds = _run(hops, "bank")
        if seconds < bank_seconds:
            bank_seconds, bank_runtime = seconds, runtime
        runtime, seconds = _run(hops, "nfa")
        if seconds < nfa_seconds:
            nfa_seconds, nfa_runtime = seconds, runtime

    assert _delivery_trace(bank_runtime) == _delivery_trace(nfa_runtime), (
        "bank and NFA vetting delivered different runs"
    )
    bank_summary = bank_runtime.metrics.summary()
    nfa_summary = nfa_runtime.metrics.summary()
    for key in ("pattern_checks", "pattern_rejections", "messages_sent"):
        assert bank_summary[key] == nfa_summary[key], key

    bank_transitions = bank_runtime.metrics.vet_transitions
    nfa_transitions = nfa_runtime.metrics.vet_transitions
    return (
        nfa_transitions / bank_transitions,
        nfa_seconds / bank_seconds,
        bank_transitions,
        nfa_transitions,
        bank_seconds,
        nfa_seconds,
    )


@pytest.mark.parametrize("hops", HOPS)
@pytest.mark.parametrize("vetting", ["bank", "nfa"])
def test_vetted_relay(benchmark, vetting, hops):
    if vetting == "nfa" and hops > 128:
        pytest.skip("quadratic reference path; sized runs cover it")

    def run():
        return _run(hops, vetting)[0]

    runtime = benchmark(run)
    record_row(
        "E18-incremental-vetting",
        f"{vetting:4s} hops={hops:3d}: "
        f"transitions={runtime.metrics.vet_transitions:7d} "
        f"checks={runtime.metrics.pattern_checks:4d} "
        f"cache_hits={runtime.metrics.vet_cache_hits:4d}",
    )


def run_lazy_bytes_row(hops: int = GATE_HOPS, repeats: int = 3):
    """Measure the encode the lazy byte accounting saves on the relay.

    Deferred sizers mean a run that never reads a byte metric performs
    zero payload encodes; settling the metric at the end performs all of
    them — i.e. the old eager send path's serialization cost, which on
    this workload is Θ(n²) bytes (hop ``i`` ships a ``2i−1``-event
    spine).  Returns ``(run_seconds, settle_seconds, bytes_total)``.
    """

    run_seconds = settle_seconds = float("inf")
    bytes_total = 0
    for _ in range(repeats):
        workload = vetted_relay_chain(hops)
        runtime = DistributedRuntime(seed=11)
        runtime.deploy(workload.system)
        start = time.perf_counter()
        runtime.run()
        run_seconds = min(run_seconds, time.perf_counter() - start)
        assert runtime.metrics.pending_byte_accounting == hops + 1
        start = time.perf_counter()
        bytes_total = runtime.metrics.bytes_total  # forces every encode
        settle_seconds = min(settle_seconds, time.perf_counter() - start)
    return run_seconds, settle_seconds, bytes_total


def test_lazy_byte_accounting_saves_the_encode():
    run_seconds, settle_seconds, bytes_total = run_lazy_bytes_row(
        hops=256, repeats=2
    )
    record_row(
        "E18-incremental-vetting",
        f"lazy bytes hops=256: run={run_seconds * 1000:.1f}ms without any "
        f"encode; settling on demand adds {settle_seconds * 1000:.1f}ms "
        f"({bytes_total} bytes) — the cost the send path no longer pays",
    )
    assert bytes_total > 0


def test_incremental_vetting_gate():
    """Bank vetting ≥ 10× less automaton work at hops=512, runs identical."""

    work_ratio, wall_speedup, bank_t, nfa_t, bank_s, nfa_s = (
        run_incremental_gate(repeats=2)
    )
    record_row(
        "E18-incremental-vetting",
        f"GATE hops={GATE_HOPS}: bank={bank_t} transitions "
        f"({bank_s * 1000:.1f}ms) nfa={nfa_t} ({nfa_s * 1000:.1f}ms) → "
        f"{work_ratio:.1f}x work, {wall_speedup:.1f}x wall "
        f"(gates ≥ {GATE_MIN_WORK_RATIO:.0f}x work), runs identical",
    )
    assert work_ratio >= GATE_MIN_WORK_RATIO, (
        f"bank did {bank_t} transitions vs {nfa_t} NFA events — only "
        f"{work_ratio:.1f}x (gate: {GATE_MIN_WORK_RATIO}x)"
    )
    assert wall_speedup >= 1.0, (
        f"bank path slower on wall clock ({wall_speedup:.2f}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (2 timed repeats); the differential and the "
        "work-ratio gate still apply in full",
    )
    parser.add_argument("--hops", type=int, default=GATE_HOPS)
    parser.add_argument("--repeats", type=int, default=None)
    arguments = parser.parse_args(argv)

    repeats = arguments.repeats
    if repeats is None:
        repeats = 2 if arguments.smoke else 3
    work_ratio, wall_speedup, bank_t, nfa_t, bank_s, nfa_s = (
        run_incremental_gate(arguments.hops, repeats)
    )
    print(
        f"E18 incremental vetting gate: hops={arguments.hops} "
        f"bank={bank_t} transitions ({bank_s * 1000:.1f}ms) "
        f"nfa={nfa_t} ({nfa_s * 1000:.1f}ms) "
        f"work_ratio={work_ratio:.1f}x wall={wall_speedup:.1f}x"
    )
    if arguments.hops >= GATE_HOPS:
        if work_ratio < GATE_MIN_WORK_RATIO:
            print(f"FAIL: work ratio below the {GATE_MIN_WORK_RATIO}x gate")
            return 1
        wall_floor = SMOKE_MIN_WALL_SPEEDUP if arguments.smoke else 1.0
        if wall_speedup < wall_floor:
            print(f"FAIL: wall-clock speedup below the {wall_floor}x floor")
            return 1
    print("runs identical under the bank and the NFA oracle")
    write_snapshot(
        "E18-incremental-vetting",
        {
            "hops": arguments.hops,
            "bank_transitions": bank_t,
            "nfa_transitions": nfa_t,
            "bank_ms": round(bank_s * 1000, 1),
            "nfa_ms": round(nfa_s * 1000, 1),
            "work_ratio": round(work_ratio, 1),
            "wall_speedup": round(wall_speedup, 1),
        },
    )
    run_s, settle_s, total = run_lazy_bytes_row(arguments.hops, repeats)
    print(
        f"lazy byte accounting: run={run_s * 1000:.1f}ms with zero encodes; "
        f"settling all {total} bytes on demand costs {settle_s * 1000:.1f}ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
