"""E23: durable provenance — crash recovery priced and gated.

The durability layer under the runtime (:mod:`repro.storage`): an
append-only, CRC-framed journal the middleware streams every delivery
and attestation into, atomic-rename checkpoints that seal a journal
generation, and deterministic-replay recovery.  This bench gates the
claims that make the layer worth its disk:

* **capture overhead** — journaling every delivery of a 512-hop relay
  gauntlet costs at most **1.5×** the in-memory wall-clock (best of
  three; the sizer-thunk deferred encoding and batched flushes at
  work).
* **bit-identical recovery** — what the store persisted is exactly what
  a fresh process replays: the single-runtime journal+checkpoint record
  verifies as a bit-identical prefix of a clean re-execution, and a
  sharded run whose every shard is SIGKILLed mid-window
  (``kill=1.0``) recovers — the conductor re-sends each replacement
  every window it issued — to the *same merged delivered trace* as the
  uninterrupted same-seed run.
* **torn-tail detection** — a fuzzer truncating journal tails
  mid-record and flipping bits must be caught **100%** of the time:
  every surviving record decodes intact (CRC + length framing), the
  damage is confined to the tail, and repair leaves a clean prefix.
* **flat checkpoints** — a checkpoint seals a journal generation and
  copies none of it, so the bytes ``write_checkpoint`` writes at
  ``GATE_HOPS`` and at twice that must be **equal**.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_durability.py --smoke   # CI gate
"""

import random
import tempfile
import time

import pytest

from repro.runtime import DistributedRuntime, FaultPlan, ShardedRuntime
from repro.storage import (
    DurableStore,
    load_state,
    read_segment,
    verify_replay,
)
from repro.workloads import relay_gauntlet, wide_fanout

from bench_shard_scaling import multiprocessing_skip_reason
from conftest import record_row, write_snapshot

GATE_HOPS = 512
SMOKE_HOPS = 16
LANES = 2
MAX_CAPTURE_RATIO = 1.5
"""Hard ceiling on durable vs in-memory wall-clock at gate size.

The capture gate always runs at ``GATE_HOPS`` (even under ``--smoke``
— a 512-hop gauntlet is ~100ms): at toy sizes the journal's fixed
costs (file opens, first flush) dominate the denominator and the ratio
measures startup, not capture."""

FUZZ_CASES = 64
"""Torn-tail fuzzer sample size (mid-record truncations + bit flips)."""

SHARD_KWARGS = dict(n_regions=4, sources_per_region=4, burst=2, guard_depth=1)
"""wide_fanout shape for the sharded kill differential (36 deliveries)."""


def _timed_gauntlet(hops, lanes, durable=None):
    """(wall seconds, runtime) for one relay-gauntlet run."""

    workload = relay_gauntlet(hops=hops, lanes=lanes)
    runtime = DistributedRuntime(
        seed=31,
        durable=durable,
        durable_wipe=durable is not None,
        detailed_metrics=False,
        metrics_retention=64,
    )
    runtime.deploy(workload.system)
    start = time.perf_counter()
    runtime.run()
    elapsed = time.perf_counter() - start
    summary = runtime.metrics.summary()
    assert summary["deliveries"] == workload.expected_deliveries
    return elapsed, runtime


def run_capture_gate(hops=GATE_HOPS, lanes=LANES, repeats=3):
    """Journaling ≤ MAX_CAPTURE_RATIO × in-memory at gate size.

    Best-of-N with the arms *interleaved* and a GC between runs: the
    intern table and collector pressure grow monotonically within a
    process, so running all of one arm first hands the other arm a
    systematically slower interpreter and the ratio measures run order,
    not capture cost.
    """

    import gc

    memory_best = float("inf")
    durable_best = float("inf")
    with tempfile.TemporaryDirectory() as root:
        for _ in range(repeats):
            gc.collect()
            memory_best = min(memory_best, _timed_gauntlet(hops, lanes)[0])
            gc.collect()
            elapsed, runtime = _timed_gauntlet(hops, lanes, durable=root)
            runtime.close()
            durable_best = min(durable_best, elapsed)
    ratio = durable_best / memory_best
    assert ratio <= MAX_CAPTURE_RATIO, (
        f"durable capture cost {ratio:.2f}× in-memory at {hops} hops "
        f"(gate: ≤ {MAX_CAPTURE_RATIO}×)"
    )
    return memory_best, durable_best, ratio


def run_seal_gate(hops=GATE_HOPS, lanes=LANES):
    """Seal bytes at ``hops`` and ``2 × hops``: equal, or the gate fails."""

    sizes = []
    for size in (hops, 2 * hops):
        with tempfile.TemporaryDirectory() as root:
            _, runtime = _timed_gauntlet(size, lanes, durable=root)
            sizes.append(runtime.checkpoint().stat().st_size)
            runtime.close()
    assert sizes[0] == sizes[1], (
        f"checkpoint bytes grew with the record: {sizes[0]} B at {hops} "
        f"hops, {sizes[1]} B at {2 * hops}"
    )
    return sizes


def run_recovery_gate(hops, lanes):
    """Persisted record replays bit-identically in a fresh engine."""

    workload = relay_gauntlet(hops=hops, lanes=lanes)
    with tempfile.TemporaryDirectory() as root:
        runtime = DistributedRuntime(seed=37, durable=root)
        runtime.deploy(workload.system)
        runtime.run()
        runtime.checkpoint()
        runtime.close()
        store = DurableStore(root)
        state = load_state(store)
        assert len(state.entries) == workload.expected_deliveries
        report = verify_replay(store, state)
        assert report.ok, f"recovery diverged: {report.detail}"
        return report.persisted


def run_kill_recovery_gate():
    """Every shard SIGKILLed once; merged trace identical to no-fault.

    ``kill=1.0`` fires deterministically at window 0 of every shard;
    the conductor respawns each and re-sends it every window it issued,
    and the run completes.
    The merged delivered trace must equal the uninterrupted same-seed
    run's bit for bit — the PR's headline differential.
    """

    workload = wide_fanout(**SHARD_KWARGS)
    baseline = ShardedRuntime(
        shards=2, shard_mode="process", seed=7, plan=workload.shard_plan(2)
    )
    baseline.deploy_builder(wide_fanout, **SHARD_KWARGS)
    baseline.run()
    reference = baseline.delivered_trace()
    assert reference, "baseline produced no deliveries"
    with tempfile.TemporaryDirectory() as root:
        injected = ShardedRuntime(
            shards=2,
            shard_mode="process",
            seed=7,
            plan=workload.shard_plan(2),
            durable_dir=root,
            checkpoint_every=2,
            fault_plan=FaultPlan.parse("kill=1.0"),
        )
        injected.deploy_builder(wide_fanout, **SHARD_KWARGS)
        injected.run()
        recovered = injected.delivered_trace()
    assert recovered == reference, (
        f"kill-injected run diverged: {len(recovered)} vs "
        f"{len(reference)} deliveries"
    )
    return len(reference)


def run_torn_detection_gate(cases=FUZZ_CASES):
    """100% of tail damage detected; repair leaves a clean prefix."""

    workload = relay_gauntlet(hops=SMOKE_HOPS, lanes=LANES)
    rng = random.Random(0xD0D0)
    detected = 0
    with tempfile.TemporaryDirectory() as root:
        runtime = DistributedRuntime(seed=41, durable=root)
        runtime.deploy(workload.system)
        runtime.run()
        runtime.close()
        store = DurableStore(root)
        generation = store.journal_generations()[-1]
        pristine = store.journal_path(generation).read_bytes()
        clean = read_segment(store.journal_path(generation))
        assert not clean.torn and clean.records
        spans = _record_starts(pristine, len(clean.records))
        target = store.root / "fuzzed.seg"
        for case in range(cases):
            data = bytearray(pristine)
            start = spans[rng.randrange(len(spans))]
            end = spans.index(start) + 1
            end = spans[end] if end < len(spans) else len(pristine)
            if case % 2 == 0:
                # truncate strictly mid-record: torn tail
                cut = start + 1 + rng.randrange(max(1, end - start - 1))
                data = data[:cut]
            else:
                # flip one bit inside the record: CRC mismatch
                position = start + rng.randrange(end - start)
                data[position] ^= 1 << rng.randrange(8)
            target.write_bytes(bytes(data))
            view = read_segment(target)
            # detection = the damaged region never decodes as valid
            # records: the view is flagged torn (damage truncated the
            # scan) and every surviving record matches the pristine
            # prefix bit for bit
            prefix_ok = view.records == clean.records[: len(view.records)]
            if view.torn and prefix_ok and len(view.records) < len(clean.records):
                detected += 1
        target.unlink()
    rate = detected / cases
    assert rate == 1.0, (
        f"torn-tail fuzzer: {detected}/{cases} detected (gate: 100%)"
    )
    return detected, cases


def _record_starts(data, count):
    """Byte offsets where each of the first ``count`` records begins."""

    from repro.runtime.wire import decode_varint

    starts = []
    offset = 0
    for _ in range(count):
        starts.append(offset)
        length, offset = decode_varint(data, offset)
        offset += length + 4  # payload + crc32
    return starts


def test_capture_overhead_gate():
    memory_best, durable_best, ratio = run_capture_gate()
    record_row(
        "E23-durability",
        f"CAPTURE durable {durable_best * 1e3:.1f}ms vs in-memory "
        f"{memory_best * 1e3:.1f}ms = {ratio:.2f}x at {GATE_HOPS} hops "
        f"(gate <= {MAX_CAPTURE_RATIO}x)",
    )


def test_seal_size_gate():
    small, large = run_seal_gate()
    record_row(
        "E23-durability",
        f"SEAL {small} B at {GATE_HOPS} hops, {large} B at "
        f"{2 * GATE_HOPS} hops (gate: equal)",
    )


def test_recovery_bit_identity_gate():
    persisted = run_recovery_gate(SMOKE_HOPS, LANES)
    record_row(
        "E23-durability",
        f"RECOVERY {persisted} persisted deliveries replay bit-identical",
    )


def test_kill_recovery_differential():
    reason = multiprocessing_skip_reason()
    if reason:
        pytest.skip(reason)
    deliveries = run_kill_recovery_gate()
    record_row(
        "E23-durability",
        f"KILL kill=1.0 at shards=2: {deliveries} deliveries identical "
        f"to no-fault run after the conductor re-sent the windows",
    )


def test_torn_detection_gate():
    detected, cases = run_torn_detection_gate()
    record_row(
        "E23-durability",
        f"TORN {detected}/{cases} tail truncations/bit-flips detected",
    )


@pytest.mark.parametrize("durable", [False, True])
def test_gauntlet_capture_throughput(benchmark, durable):
    """Price of durability: the gauntlet with and without the journal."""

    workload = relay_gauntlet(hops=64, lanes=LANES)

    def run():
        if durable:
            with tempfile.TemporaryDirectory() as root:
                runtime = DistributedRuntime(
                    seed=43,
                    durable=root,
                    detailed_metrics=False,
                    metrics_retention=64,
                )
                runtime.deploy(workload.system)
                runtime.run()
                runtime.close()
                return runtime
        runtime = DistributedRuntime(
            seed=43, detailed_metrics=False, metrics_retention=64
        )
        runtime.deploy(workload.system)
        runtime.run()
        return runtime

    runtime = benchmark(run)
    summary = runtime.metrics.summary()
    assert summary["deliveries"] == workload.expected_deliveries
    record_row(
        "E23-durability",
        f"journal={'on ' if durable else 'off'}: "
        f"deliveries={summary['deliveries']}",
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run of every gate"
    )
    parser.add_argument("--hops", type=int, default=None)
    arguments = parser.parse_args(argv)

    hops = arguments.hops
    if hops is None:
        hops = SMOKE_HOPS if arguments.smoke else GATE_HOPS

    memory_best, durable_best, ratio = run_capture_gate()
    print(
        f"E23 capture: durable {durable_best * 1e3:.1f}ms vs in-memory "
        f"{memory_best * 1e3:.1f}ms = {ratio:.2f}x at {GATE_HOPS} hops "
        f"(gate <= {MAX_CAPTURE_RATIO}x)"
    )
    seal_bytes = run_seal_gate()
    print(
        f"E23 seal: {seal_bytes[0]} B at {GATE_HOPS} hops, "
        f"{seal_bytes[1]} B at {2 * GATE_HOPS} hops (gate: equal)"
    )
    persisted = run_recovery_gate(hops, LANES)
    print(f"E23 recovery: {persisted} deliveries replay bit-identical")
    reason = multiprocessing_skip_reason()
    kill_deliveries = None
    if reason is None:
        kill_deliveries = run_kill_recovery_gate()
        print(
            f"E23 kill: {kill_deliveries} deliveries identical to "
            f"no-fault run after SIGKILL of every shard"
        )
    detected, cases = run_torn_detection_gate()
    print(f"E23 torn: {detected}/{cases} tail damage detected")
    write_snapshot(
        "E23-durability",
        {
            "capture_hops": GATE_HOPS,
            "recovery_hops": hops,
            "capture_ratio": round(ratio, 3),
            "capture_memory_ms": round(memory_best * 1e3, 2),
            "capture_durable_ms": round(durable_best * 1e3, 2),
            "recovery_persisted": persisted,
            "seal_bytes_at_capture_hops": seal_bytes[0],
            "seal_bytes_at_2x_capture_hops": seal_bytes[1],
            "kill_differential_deliveries": kill_deliveries,
            "kill_differential_skipped": reason,
            "torn_detected": detected,
            "torn_cases": cases,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
