"""E24: the provenance query layer — indexed analytics priced and gated.

PR 10 grew :mod:`repro.query`: a :class:`~repro.query.ProvenanceIndex`
built once per log generation over the delivered trace, answering
where/why queries (derivation slices, taint, cone-of-influence, minimal
witness suffixes) as lookups instead of re-sweeps.  This bench gates the
four claims that make an *index* the right shape:

* **O(new events) build** — absorbing each generation of a relay-style
  trace costs work proportional to that generation's new spine events,
  not to the history: hash-consing stops the indexing walk at the first
  already-indexed node, so the per-generation ``generation_work``
  counter stays **flat** as history grows (deterministic — a counter,
  not a clock).
* **warm queries ≥ 10×** — a repeated suffix sweep over a ≥ 100k-event
  spine answers from the index's forever-cache at least **10×** faster
  than re-deciding the sweep with a fresh DFA engine each time (the
  uncached baseline), median-of-N wall-clock.
* **bit-identical differential** — attaching the index as a sink on a
  live runtime's middleware never perturbs the run: the delivered
  trace with the index on equals the trace with it off, bit for bit.
* **O(new deliveries) clocks** — with one cone and one happens-before
  query after each commit, the vector clocks behind them extend by the
  new generation only: the per-generation ``clock_work`` counter stays
  flat (≤ ``MAX_WORK_RATIO``×), and every answer equals the graph walk
  in ``tests/query_oracle.py``.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_query_layer.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_query_layer.py --smoke   # CI gate
"""

import time

from repro.core.names import Channel, Principal
from repro.core.provenance import EMPTY, InputEvent, OutputEvent
from repro.core.values import AnnotatedValue
from repro.patterns.dfa import PolicyEngine
from repro.query import ProvenanceIndex
from repro.runtime import DistributedRuntime
from repro.workloads.scaling import relay_guard, vetted_relay_chain

from conftest import load_oracle, record_row, write_snapshot

GATE_GENERATIONS = 20
GATE_BATCH = 2_000
SMOKE_GENERATIONS = 10
SMOKE_BATCH = 300
MAX_WORK_RATIO = 2.0
"""Hard ceiling on max/min per-generation indexing work.

Perfectly flat would be 1.0; the first generation also interns the
(bounded) distinct-event set, so a little headroom — but any O(history)
regression blows through 2× within a handful of generations."""

SWEEP_EVENTS = 100_000
"""Spine length for the warm-query gate (the ISSUE's ≥ 100k floor)."""

MIN_WARM_SPEEDUP = 10.0
WARM_REPS = 50
DIFFERENTIAL_HOPS = 48
PRINCIPALS = 4
"""Bounded principal set — per-node principal-set memoization makes an
unbounded cast quadratic in spine depth, which is not the shape any
runtime produces (casts are fixed; histories grow)."""


def relay_generations(generations, batch, principals=PRINCIPALS):
    """Per-generation delivery batches extending one shared spine.

    The adversarial-for-naive-indexing shape: by generation *g* the
    spine is ``2·g·batch`` events deep, so an O(history) indexer does
    quadratic total work while the hash-consing walk stays linear.
    """

    people = [Principal(f"p{i}") for i in range(principals)]
    channels = [Channel(f"t{i}") for i in range(principals)]
    spine = EMPTY
    step = 0
    for _ in range(generations):
        deliveries = []
        for _ in range(batch):
            sender = people[step % principals]
            receiver = people[(step + 1) % principals]
            spine = spine.cons(OutputEvent(sender))
            spine = spine.cons(InputEvent(receiver))
            deliveries.append(
                (
                    float(step),
                    receiver,
                    channels[step % principals],
                    (AnnotatedValue(Channel("v"), spine),),
                    0,
                )
            )
            step += 1
        yield deliveries


def run_build_gate(generations, batch):
    """Per-generation indexing work flat as history grows 2·batch/gen."""

    index = ProvenanceIndex()
    for deliveries in relay_generations(generations, batch):
        index.extend_trace(deliveries)
    work = index.generation_work
    assert len(work) == generations
    ratio = max(work) / min(work)
    assert ratio <= MAX_WORK_RATIO, (
        f"indexing work grew {ratio:.2f}× across {generations} "
        f"generations (gate: ≤ {MAX_WORK_RATIO}×) — build is no longer "
        f"O(new events): per-generation work {list(work)}"
    )
    # sanity: the derivation chain threaded through every generation
    assert index.edge_counts()["derives"] == index.delivered - 1
    return list(work), ratio


def run_clock_gate(generations, batch):
    """Per-generation clock work flat; cone and happens-before answers
    equal the oracle's after every commit."""

    oracle = load_oracle("query_oracle")
    index = ProvenanceIndex()
    work = []
    for deliveries in relay_generations(generations, batch):
        index.extend_trace(deliveries)
        before = index.clock_work
        latest, probe = index.delivered - 1, index.delivered // 2
        cone = index.cone_of_influence(latest)
        assert cone == oracle.cone_of_influence(index, latest), latest
        assert index.happens_before(probe, latest) == oracle.happens_before(
            index, probe, latest
        ), (probe, latest)
        work.append(index.clock_work - before)
    ratio = max(work) / min(work)
    assert ratio <= MAX_WORK_RATIO, (
        f"clock work grew {ratio:.2f}× across {generations} generations "
        f"(gate: ≤ {MAX_WORK_RATIO}×) — clocks are no longer extended "
        f"for new deliveries only: per-generation work {work}"
    )
    return work, ratio


def deep_sweep_spine(events=SWEEP_EVENTS, principals=PRINCIPALS):
    people = [Principal(f"p{i}") for i in range(principals)]
    spine = EMPTY
    for i in range(events // 2):
        spine = spine.cons(OutputEvent(people[i % principals]))
        spine = spine.cons(InputEvent(people[(i + 1) % principals]))
    return spine


def run_warm_query_gate(events=SWEEP_EVENTS, reps=WARM_REPS):
    """Warm repeated sweeps ≥ MIN_WARM_SPEEDUP× the uncached baseline.

    Cold arm: each repetition re-decides every suffix with a *fresh*
    DFA engine — what repeated ad-hoc audits cost without the index.
    Warm arm: the index's forever-cached ``matching_suffixes`` (the
    first call pays the one sweep; repeats are a dict hit).  Cold is
    timed once (it is the slow arm by construction); warm is amortized
    over ``reps``.
    """

    spine = deep_sweep_spine(events)
    pattern = relay_guard()

    start = time.perf_counter()
    admits = PolicyEngine().admits
    cold_matches = sum(1 for s in spine.suffixes() if admits(s, pattern))
    cold_seconds = time.perf_counter() - start

    index = ProvenanceIndex()
    first = index.matching_suffixes(spine, pattern)  # pays the one sweep
    start = time.perf_counter()
    for _ in range(reps):
        warm = index.matching_suffixes(spine, pattern)
    warm_seconds = (time.perf_counter() - start) / reps
    assert warm is first and len(first) == cold_matches
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep only {speedup:.1f}× the uncached baseline at "
        f"{events} events (gate: ≥ {MIN_WARM_SPEEDUP}×)"
    )
    return cold_seconds, warm_seconds, speedup, len(spine)


def run_differential_gate(hops=DIFFERENTIAL_HOPS, seed=17):
    """Delivered trace bit-identical with the index sink on and off."""

    def trace(attach):
        runtime = DistributedRuntime(seed=seed)
        index = runtime.attach_query_index() if attach else None
        runtime.deploy(vetted_relay_chain(hops).system)
        runtime.run()
        delivered = [
            (r.time, r.principal, r.channel, r.values, r.branch_index)
            for r in runtime.metrics.delivered
        ]
        return delivered, index

    baseline, _ = trace(False)
    observed, index = trace(True)
    assert baseline == observed, (
        f"query-index sink perturbed the run: "
        f"{len(observed)} vs {len(baseline)} deliveries"
    )
    index.commit()
    assert index.delivered == len(baseline)
    assert [d.trace_tuple() for d in index.deliveries()] == baseline
    return len(baseline)


def test_build_is_o_new_events_gate():
    work, ratio = run_build_gate(SMOKE_GENERATIONS, SMOKE_BATCH)
    record_row(
        "E24-query-layer",
        f"BUILD work/generation {min(work)}..{max(work)} = {ratio:.2f}x "
        f"over {len(work)} generations (gate <= {MAX_WORK_RATIO}x)",
    )


def test_clock_gate():
    work, ratio = run_clock_gate(SMOKE_GENERATIONS, SMOKE_BATCH)
    record_row(
        "E24-query-layer",
        f"CLOCK work/generation {min(work)}..{max(work)} = {ratio:.2f}x "
        f"over {len(work)} generations, answers = oracle "
        f"(gate <= {MAX_WORK_RATIO}x)",
    )


def test_warm_queries_gate():
    cold, warm, speedup, events = run_warm_query_gate()
    record_row(
        "E24-query-layer",
        f"WARM {cold * 1e3:.1f}ms cold vs {warm * 1e6:.1f}us warm = "
        f"{speedup:.0f}x at {events} events (gate >= {MIN_WARM_SPEEDUP}x)",
    )


def test_observer_differential_gate():
    deliveries = run_differential_gate()
    record_row(
        "E24-query-layer",
        f"DIFF {deliveries} deliveries bit-identical with observer on/off",
    )


def test_index_build_throughput(benchmark):
    """Wall-clock price of absorbing one gate-sized generation stream."""

    batches = list(relay_generations(SMOKE_GENERATIONS, SMOKE_BATCH))

    def run():
        index = ProvenanceIndex()
        for deliveries in batches:
            index.extend_trace(deliveries)
        return index

    index = benchmark(run)
    assert index.delivered == SMOKE_GENERATIONS * SMOKE_BATCH


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run of every gate"
    )
    arguments = parser.parse_args(argv)

    generations = SMOKE_GENERATIONS if arguments.smoke else GATE_GENERATIONS
    batch = SMOKE_BATCH if arguments.smoke else GATE_BATCH

    work, ratio = run_build_gate(generations, batch)
    print(
        f"E24 build: work/generation {min(work)}..{max(work)} = "
        f"{ratio:.2f}x over {generations} generations x {batch} "
        f"deliveries (gate <= {MAX_WORK_RATIO}x)"
    )
    clock_work, clock_ratio = run_clock_gate(generations, batch)
    print(
        f"E24 clocks: work/generation {min(clock_work)}..{max(clock_work)} "
        f"= {clock_ratio:.2f}x over {generations} generations, every "
        f"cone and happens-before answer = oracle "
        f"(gate <= {MAX_WORK_RATIO}x)"
    )
    cold, warm, speedup, events = run_warm_query_gate()
    print(
        f"E24 warm: {cold * 1e3:.1f}ms cold vs {warm * 1e6:.1f}us warm = "
        f"{speedup:.0f}x at {events} events (gate >= {MIN_WARM_SPEEDUP}x)"
    )
    deliveries = run_differential_gate()
    print(
        f"E24 differential: {deliveries} deliveries bit-identical with "
        f"observer on/off"
    )
    write_snapshot(
        "E24-query-layer",
        {
            "generations": generations,
            "batch": batch,
            "build_work_min": min(work),
            "build_work_max": max(work),
            "build_work_ratio": round(ratio, 3),
            "clock_work_min": min(clock_work),
            "clock_work_max": max(clock_work),
            "clock_work_ratio": round(clock_ratio, 3),
            "clock_queries_checked": 2 * generations,
            "warm_cold_ms": round(cold * 1e3, 3),
            "warm_hit_us": round(warm * 1e6, 3),
            "warm_speedup": round(speedup, 1),
            "warm_events": events,
            "differential_deliveries": deliveries,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
