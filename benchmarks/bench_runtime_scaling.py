"""E19: substrate scaling — two-tier run-queue scheduler vs the seed heap oracle.

The §5 overhead story only matters if the substrate carrying the
middleware can be driven at scale.  PRs 1–4 made the engine, provenance
store, monitor and vetting incremental; this bench gates the *simulated
substrate* itself: the seed scheduler paid one O(log n) binary-heap
operation per event and one scheduler event per process-tree node, so a
wide deployment paid ~10 heap operations per delivered message.  The
two-tier scheduler (:class:`repro.runtime.Simulator`) drains zero-delay
events from a FIFO run queue in O(1) and the batched node interpreter
walks process trees as an explicit worklist inside one event.  The seed
substrate survives only as a test-only oracle
(``tests/substrate_oracle.py``), installed for the reference runs.

Workload: :func:`repro.workloads.scaling.wide_fanout` — thousands of
principals across regions, free intra-region links (run-queue load),
per-link cross-region :class:`LatencyModel`s (heap load), burst traffic
under ``Match`` guard chains (interpreter load).

Gate (``test_runtime_scaling_gate`` / ``--smoke``):

* **throughput** — the run-queue substrate must complete the identical
  wide-fanout run at ≥ 5× the seed substrate's delivered-message rate
  (equivalently: process the workload's logical events — spawned
  threads + deliveries, identical across modes — at ≥ 5×/sec);
* **differential** — for the same seed, ``metrics.delivered`` must be
  *identical* under both schedulers: same order, same times, same
  stamped values, same branch indices — plus equal summaries and equal
  per-node thread accounting.  Determinism is a hard contract: the run
  queue merges with the heap in exact ``(time, sequence)`` order, so
  the A/B is bit-for-bit, not statistical.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime_scaling.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_runtime_scaling.py --smoke   # CI gate
"""

import gc
import time
from contextlib import nullcontext

import pytest

from repro.runtime import DistributedRuntime, RuntimeMetrics
from repro.workloads import wide_fanout

from conftest import load_oracle, record_row, write_snapshot

SUBSTRATES = {
    "runq": nullcontext,
    "heap": load_oracle("substrate_oracle").seed_substrate,
}
"""The runtime's substrate, and the seed-substrate oracle."""

SIZES = [(4, 50), (8, 150), (16, 400)]
"""(regions, sources per region) for the timing sweep."""

GATE_REGIONS = 24
GATE_SOURCES = 500
GATE_BURST = 8
GATE_GUARD_DEPTH = 16
GATE_MIN_SPEEDUP = 5.0
DIFF_REGIONS = 6
DIFF_SOURCES = 40
"""The differential replays a smaller instance with full retention so
the delivered traces can be compared record by record."""


def _build(scheduler, regions, sources, burst=GATE_BURST,
           guard_depth=GATE_GUARD_DEPTH, **kwargs):
    workload = wide_fanout(regions, sources, burst, guard_depth=guard_depth)
    with SUBSTRATES[scheduler]():
        runtime = DistributedRuntime(
            seed=23, topology=workload.topology, **kwargs
        )
        runtime.deploy(workload.system)
    return workload, runtime


def _timed_run(scheduler, regions, sources):
    """One throughput run: bounded metrics, GC parked, full drain."""

    workload, runtime = _build(
        scheduler, regions, sources,
        detailed_metrics=False, metrics_retention=256,
    )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        events = runtime.run(max_events=100_000_000)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    assert runtime.metrics.deliveries == workload.expected_deliveries
    assert runtime.network.messages_in_flight == 0
    assert runtime.simulator.pending == 0
    return workload, runtime, events, seconds


def _delivery_trace(runtime):
    return list(runtime.metrics.delivered)


def run_differential(regions=DIFF_REGIONS, sources=DIFF_SOURCES):
    """Assert heap and run-queue runs of the same seed are identical."""

    runtimes = {}
    for scheduler in ("heap", "runq"):
        workload, runtime = _build(scheduler, regions, sources)
        runtime.run(max_events=100_000_000)
        assert runtime.metrics.deliveries == workload.expected_deliveries
        runtimes[scheduler] = runtime
    heap_runtime, runq_runtime = runtimes["heap"], runtimes["runq"]
    assert _delivery_trace(heap_runtime) == _delivery_trace(runq_runtime), (
        "heap and run-queue schedulers delivered different runs"
    )
    assert heap_runtime.metrics.summary() == runq_runtime.metrics.summary()
    assert heap_runtime.threads_spawned() == runq_runtime.threads_spawned()
    assert heap_runtime.blocked_threads() == runq_runtime.blocked_threads()
    assert heap_runtime.network.messages_in_flight == 0
    assert runq_runtime.network.messages_in_flight == 0
    return heap_runtime.metrics.deliveries


def run_scaling_gate(regions=GATE_REGIONS, sources=GATE_SOURCES,
                     runq_repeats=2):
    """A/B the substrate; returns the measured numbers.

    Returns ``(speedup, messages, heap_seconds, runq_seconds,
    heap_events, runq_events, combined)`` where ``combined`` is the
    :meth:`RuntimeMetrics.merge` of every timed run's summary — the
    total logical work the A/B actually exercised (the same composition
    the sharded runtime uses for its per-shard summaries).
    """

    workload, heap_runtime, heap_events, heap_seconds = _timed_run(
        "heap", regions, sources
    )
    summaries = [heap_runtime.metrics.summary()]
    runq_seconds = float("inf")
    runq_events = 0
    for _ in range(runq_repeats):
        _, runq_runtime, events, seconds = _timed_run(
            "runq", regions, sources
        )
        if seconds < runq_seconds:
            runq_seconds, runq_events = seconds, events
        summaries.append(runq_runtime.metrics.summary())
        # both substrates agree on every logical counter
        assert (
            runq_runtime.metrics.summary() == heap_runtime.metrics.summary()
        )
        assert (
            runq_runtime.threads_spawned() == heap_runtime.threads_spawned()
        )
    messages = heap_runtime.metrics.deliveries
    return (
        heap_seconds / runq_seconds,
        messages,
        heap_seconds,
        runq_seconds,
        heap_events,
        runq_events,
        RuntimeMetrics.merge(*summaries),
    )


@pytest.mark.parametrize("scheduler", ["runq", "heap"])
@pytest.mark.parametrize("regions,sources", SIZES)
def test_wide_fanout(benchmark, scheduler, regions, sources):
    if scheduler == "heap" and (regions, sources) == SIZES[-1]:
        pytest.skip("seed path at full width is covered by the gate run")

    def run():
        return _timed_run(scheduler, regions, sources)

    workload, runtime, events, seconds = benchmark(run)
    record_row(
        "E19-runtime-scaling",
        f"{scheduler:4s} regions={regions:3d} sources={sources:4d}: "
        f"principals={workload.principal_count:6d} "
        f"messages={runtime.metrics.deliveries:7d} "
        f"events={events:8d} "
        f"rate={runtime.metrics.deliveries / seconds:9,.0f} msg/s",
    )


def test_delivered_trace_differential():
    deliveries = run_differential()
    record_row(
        "E19-runtime-scaling",
        f"DIFFERENTIAL regions={DIFF_REGIONS} sources={DIFF_SOURCES}: "
        f"{deliveries} deliveries identical (order, times, values) "
        f"under heap and runq schedulers",
    )


def test_runtime_scaling_gate():
    """Run-queue substrate ≥ 5× the seed heap on wide fan-out."""

    speedup, messages, heap_s, runq_s, heap_ev, runq_ev, combined = (
        run_scaling_gate()
    )
    record_row(
        "E19-runtime-scaling",
        f"COMBINED (RuntimeMetrics.merge of all timed runs): "
        f"{combined['messages_sent']} sends, "
        f"{combined['deliveries']} deliveries",
    )
    record_row(
        "E19-runtime-scaling",
        f"GATE regions={GATE_REGIONS} sources={GATE_SOURCES} "
        f"burst={GATE_BURST} guards={GATE_GUARD_DEPTH}: "
        f"heap={heap_s * 1000:.0f}ms/{heap_ev} events "
        f"runq={runq_s * 1000:.0f}ms/{runq_ev} events → "
        f"{speedup:.1f}x msg/s over {messages} messages "
        f"(gates ≥ {GATE_MIN_SPEEDUP:.0f}x)",
    )
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"run-queue substrate only {speedup:.2f}x the seed heap "
        f"(gate: {GATE_MIN_SPEEDUP}x) — heap {heap_s:.2f}s vs "
        f"runq {runq_s:.2f}s for {messages} messages"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run; the differential and the 5x gate apply in full",
    )
    parser.add_argument("--regions", type=int, default=None)
    parser.add_argument("--sources", type=int, default=None)
    arguments = parser.parse_args(argv)

    regions = arguments.regions
    if regions is None:
        regions = 16 if arguments.smoke else GATE_REGIONS
    sources = arguments.sources
    if sources is None:
        sources = 400 if arguments.smoke else GATE_SOURCES

    deliveries = run_differential()
    print(
        f"E19 differential: {deliveries} deliveries identical under both "
        f"schedulers (same seed, same order, same times, same values)"
    )
    speedup, messages, heap_s, runq_s, heap_ev, runq_ev, combined = (
        run_scaling_gate(regions, sources)
    )
    print(
        f"E19 combined A/B work (RuntimeMetrics.merge of all timed "
        f"runs): {combined['messages_sent']} sends, "
        f"{combined['deliveries']} deliveries"
    )
    print(
        f"E19 substrate gate: regions={regions} sources={sources} "
        f"burst={GATE_BURST} guards={GATE_GUARD_DEPTH} → "
        f"heap {heap_s * 1000:.0f}ms ({heap_ev} events, "
        f"{messages / heap_s:,.0f} msg/s) vs "
        f"runq {runq_s * 1000:.0f}ms ({runq_ev} events, "
        f"{messages / runq_s:,.0f} msg/s) = {speedup:.1f}x"
    )
    if regions * sources < 16 * 400:
        print("(below gate scale: ratio reported, not enforced)")
        return 0
    if speedup < GATE_MIN_SPEEDUP:
        print(f"FAIL: below the {GATE_MIN_SPEEDUP}x substrate gate")
        return 1
    print(f"two-tier scheduler clears the {GATE_MIN_SPEEDUP:.0f}x gate")
    write_snapshot(
        "E19-substrate-scaling",
        {
            "regions": regions,
            "sources": sources,
            "messages": messages,
            "heap_ms": round(heap_s * 1000, 1),
            "runq_ms": round(runq_s * 1000, 1),
            "speedup": round(speedup, 1),
            "differential_deliveries": deliveries,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
