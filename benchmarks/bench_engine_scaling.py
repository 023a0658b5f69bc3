"""E16: engine scaling — steps/sec vs component count, both enumeration paths.

The incremental engine (:mod:`repro.core.incremental`) claims O(affected)
step maintenance where the from-scratch enumerator pays O(system) per
step.  This bench measures full-run throughput over the width-scaling
workloads (``fan_out``, ``fan_in_fan_out``) and the depth-scaling relay
chain, A/B-ing ``Engine.run`` against the from-scratch run loop kept as
a test-only oracle (``tests/engine_oracle.py``).

Expected shape: from-scratch throughput collapses quadratically (or
cubically on fan-in shapes, where the redex count itself grows with the
width) while the incremental path degrades gently; at the largest size
the incremental engine must be ≥ 3× faster (asserted — this is the
acceptance criterion of the incremental-engine change, enforced so the
benchmark cannot silently rot).

Runs standalone too (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.core.engine import Engine, RunStatus
from repro.workloads import fan_in_fan_out, fan_out, relay_chain

from conftest import load_oracle, record_row

engine_oracle = load_oracle("engine_oracle")


SCENARIOS = {
    "fan-out": lambda n: fan_out(n),
    "fan-in-fan-out": lambda n: fan_in_fan_out(n).system,
    "relay-chain": lambda n: relay_chain(n).system,
}

SIZES = [8, 16, 32, 64]
LARGEST = SIZES[-1]
SPEEDUP_FLOOR = 3.0


def run_full(system, incremental: bool) -> int:
    trace = engine_oracle.run_path(
        Engine(), system, incremental, max_steps=100_000
    )
    assert trace.status is RunStatus.QUIESCENT
    return len(trace)


def _best_of(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("path", ["incremental", "from-scratch"])
def test_engine_scaling(benchmark, scenario, size, path):
    system = SCENARIOS[scenario](size)
    steps = benchmark(run_full, system, path == "incremental")
    record_row(
        "E16-engine-scaling",
        f"{scenario:15s} n={size:3d} {path:12s}: {steps} reductions",
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_incremental_speedup_at_scale(scenario):
    """Acceptance: ≥ 3× over from-scratch at the largest workload size."""

    system = SCENARIOS[scenario](LARGEST)
    incremental = _best_of(lambda: run_full(system, True))
    from_scratch = _best_of(lambda: run_full(system, False))
    ratio = from_scratch / incremental
    record_row(
        "E16-engine-scaling",
        f"{scenario:15s} n={LARGEST:3d} speedup: {ratio:.1f}x "
        f"({from_scratch * 1e3:.1f}ms -> {incremental * 1e3:.1f}ms)",
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"{scenario} at n={LARGEST}: incremental only {ratio:.2f}x faster"
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_paths_agree(scenario):
    """Differential guard: identical traces on the benchmark workloads."""

    system = SCENARIOS[scenario](12)
    fast = Engine().run(system)
    slow = engine_oracle.from_scratch_run(Engine(), system)
    assert fast.labels == slow.labels
    assert fast.final == slow.final
    assert fast.status is slow.status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one repeat — keeps CI honest without burning minutes",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None, help="component counts"
    )
    arguments = parser.parse_args(argv)
    sizes = arguments.sizes or ([4, 8] if arguments.smoke else SIZES)
    repeats = 1 if arguments.smoke else 3

    print(f"{'scenario':16s} {'n':>4s} {'steps':>6s} "
          f"{'incremental':>12s} {'from-scratch':>13s} {'speedup':>8s}")
    worst_at_largest = float("inf")
    for name, build in sorted(SCENARIOS.items()):
        for size in sizes:
            system = build(size)
            steps = run_full(system, True)
            fast = _best_of(lambda: run_full(system, True), repeats)
            slow = _best_of(lambda: run_full(system, False), repeats)
            ratio = slow / fast
            print(
                f"{name:16s} {size:4d} {steps:6d} "
                f"{steps / fast:9.0f}/s {steps / slow:10.0f}/s {ratio:7.1f}x"
            )
            if size == max(sizes):
                worst_at_largest = min(worst_at_largest, ratio)
    if not arguments.smoke and worst_at_largest < SPEEDUP_FLOOR:
        print(
            f"FAIL: worst speedup at n={max(sizes)} is "
            f"{worst_at_largest:.2f}x < {SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        return 1
    print(f"worst speedup at n={max(sizes)}: {worst_at_largest:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
