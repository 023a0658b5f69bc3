"""E17: hash-consed provenance — structural sharing vs the legacy trees.

The provenance values themselves are the hottest remaining data structure
(PR 2): Table 1's ``κ`` is recursive, and the historical tuple-of-trees
representation copied the spine on every ``cons``, re-walked the whole
tree on every ``total_events``/``principals``/``hash``, and serialized
nested trees with zero sharing.  The hash-consed DAG representation
(:mod:`repro.core.provenance`) makes ``cons``/``tail``/equality O(1),
memoizes the structural observations at intern time, and memoizes the
principal set on the node it is first asked of.

Three measurements:

* **deep-relay lifecycle A/B** — replay exactly the per-hop provenance
  work of a ``relay_chain(n)`` run (R-Send stamp, R-Recv stamp, a
  matcher cache's key hash/equality, the metrics queries, the final
  audit) against the interned representation and against a faithful
  in-file port of the legacy tuple representation.  The legacy cost is
  Θ(n²); interned is Θ(n).  **Gate: ≥ 5× at the largest size** (the
  acceptance criterion of the hash-consing change, asserted so the
  benchmark cannot silently rot).
* **end-to-end engine runs** — full reductions of the deep
  ``relay_chain`` and the nesting-heavy ``channel_relay_chain``,
  reporting throughput and the tree-vs-DAG sharing ratio of the final
  system's provenance.
* **wire bytes, v1 vs v2** — the E13 byte-count curve on
  ``channel_relay_chain``, whose semantic trees grow Θ(n²) while the
  DAG stays Θ(n): v1 (tree format, the encoder kept as the test oracle
  ``tests/wire_oracle.py``) bytes go superlinear, v2 (the
  back-reference format of :class:`~repro.runtime.wire.Codec`) bytes
  track the DAG.  **Gate: the v1/v2 ratio
  at the largest size must exceed twice the ratio at the smallest** —
  i.e. v2 really does grow asymptotically slower.

Runs standalone too (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_provenance_sharing.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_provenance_sharing.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.core.engine import Engine, RunStatus
from repro.core.names import Principal
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, dag_event_count
from repro.core.system import system_annotated_values
from repro.runtime.wire import Codec
from repro.workloads import channel_relay_chain, relay_chain

from conftest import load_oracle, record_row, record_sharing, write_snapshot

encode_payload_v1 = load_oracle("wire_oracle").encode_payload


EXPERIMENT = "E17-provenance-sharing"

LIFECYCLE_SIZES = [256, 512, 1024, 2048]
LIFECYCLE_LARGEST = LIFECYCLE_SIZES[-1]
SPEEDUP_FLOOR = 5.0

WIRE_SIZES = [4, 8, 16, 32, 64]
WIRE_RATIO_GROWTH_FLOOR = 2.0

ENGINE_SIZES = [16, 32, 64]


# ---------------------------------------------------------------------------
# The legacy representation: a faithful port of the seed's tuple-of-trees
# Provenance, kept here (not in src/) purely as the A/B baseline.
# ---------------------------------------------------------------------------


class _LegacyEvent:
    __slots__ = ("symbol", "principal", "channel_provenance")

    def __init__(self, symbol, principal, channel_provenance):
        self.symbol = symbol
        self.principal = principal
        self.channel_provenance = channel_provenance

    def __eq__(self, other):
        return (
            self.symbol == other.symbol
            and self.principal == other.principal
            and self.channel_provenance == other.channel_provenance
        )

    def __hash__(self):
        return hash((self.symbol, self.principal, self.channel_provenance))

    def principals(self):
        return self.channel_provenance.principals() | {self.principal}

    def total_events(self):
        return 1 + self.channel_provenance.total_events()


class _LegacyProvenance:
    __slots__ = ("events",)

    def __init__(self, events=()):
        self.events = events

    def cons(self, event):
        return _LegacyProvenance((event,) + self.events)

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        return self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def principals(self):
        result = frozenset()
        for event in self.events:
            result |= event.principals()
        return result

    def total_events(self):
        return sum(event.total_events() for event in self.events)


_LEGACY_EMPTY = _LegacyProvenance()


def _legacy_out(principal, channel_provenance):
    return _LegacyEvent("!", principal, channel_provenance)


def _legacy_in(principal, channel_provenance):
    return _LegacyEvent("?", principal, channel_provenance)


_INTERNED_API = (EMPTY, OutputEvent, InputEvent)
_LEGACY_API = (_LEGACY_EMPTY, _legacy_out, _legacy_in)

_RELAYS = tuple(Principal(f"s{i}") for i in range(8))


def provenance_lifecycle(n_hops: int, api) -> int:
    """The provenance work of one value crossing ``n_hops`` relays.

    Per hop, exactly what the engine + runtime do: the R-Send stamp, the
    R-Recv stamp, one matcher-cache consultation (hash + equality on the
    whole value), and the per-delivery metrics queries (spine length,
    total event count).  After the run, the auditing query
    (``principals``).  Returns the final spine length as a checksum.
    """

    empty, make_out, make_in = api
    provenance = empty
    matcher_cache: dict = {}
    for hop in range(n_hops):
        relay = _RELAYS[hop % len(_RELAYS)]
        provenance = provenance.cons(make_out(relay, empty))
        provenance = provenance.cons(make_in(relay, empty))
        if matcher_cache.get(provenance) is None:
            matcher_cache[provenance] = True
        _ = len(provenance)
        _ = provenance.total_events()
    _ = provenance.principals()
    return len(provenance)


def _best_of(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------------------
# Collection helpers
# ---------------------------------------------------------------------------


def _system_provenance_sizes(system) -> tuple[int, int]:
    """(semantic tree events, distinct DAG events) over a whole system."""

    values = tuple(system_annotated_values(system))
    tree = sum(value.provenance.total_events() for value in values)
    dag = dag_event_count(value.provenance for value in values)
    return tree, dag


def _run_engine(system) -> "Engine.Trace":
    trace = Engine().run(system, max_steps=1_000_000)
    assert trace.status is RunStatus.QUIESCENT
    return trace


def _wire_curve(sizes) -> list[tuple[int, int, int, int, int]]:
    """(n, tree, dag, v1 bytes, v2 bytes) per channel-relay size."""

    rows = []
    for size in sizes:
        workload = channel_relay_chain(size)
        trace = _run_engine(workload.system)
        values = tuple(system_annotated_values(trace.final))
        tree, dag = _system_provenance_sizes(trace.final)
        v1 = len(encode_payload_v1(values))
        body, _ = Codec().encode_payload(values)
        v2 = len(body)
        decoded, _, _ = Codec().decode_payload(body)
        assert decoded == values, "v2 round-trip diverged"
        rows.append((size, tree, dag, v1, v2))
    return rows


def _codec_stream_ab(size) -> tuple[int, int, int]:
    """(messages, reset bytes, resumed bytes) over one value stream.

    Sends each of a finished channel-relay run's values as its own
    message: through a fresh codec per message (every payload re-ships
    its full provenance — the pre-codec baseline) and through one codec
    across the stream (each payload back-references everything the link
    has already carried, as the sharded runtime's per-link codecs do).
    Round-trips through one decoding codec to keep the A/B honest.
    """

    workload = channel_relay_chain(size)
    trace = _run_engine(workload.system)
    values = tuple(system_annotated_values(trace.final))
    resumed = Codec()
    decoder = Codec()
    reset_bytes = 0
    resumed_bytes = 0
    for value in values:
        reset_bytes += len(Codec().encode_payload((value,))[0])
        data, _ = resumed.encode_payload((value,))
        resumed_bytes += len(data)
        decoded, _, _ = decoder.decode_payload(data)
        assert decoded == (value,), "resumed codec round-trip diverged"
    return len(values), reset_bytes, resumed_bytes


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", LIFECYCLE_SIZES)
@pytest.mark.parametrize("representation", ["interned", "legacy"])
def test_lifecycle(benchmark, representation, size):
    api = _INTERNED_API if representation == "interned" else _LEGACY_API
    spine = benchmark(provenance_lifecycle, size, api)
    record_row(
        EXPERIMENT,
        f"lifecycle n={size:5d} {representation:9s}: spine={spine}",
    )


def test_lifecycle_speedup_at_scale():
    """Acceptance: ≥ 5× over the legacy trees at the largest deep chain."""

    interned = _best_of(
        lambda: provenance_lifecycle(LIFECYCLE_LARGEST, _INTERNED_API)
    )
    legacy = _best_of(
        lambda: provenance_lifecycle(LIFECYCLE_LARGEST, _LEGACY_API)
    )
    ratio = legacy / interned
    record_row(
        EXPERIMENT,
        f"lifecycle n={LIFECYCLE_LARGEST} speedup: {ratio:.1f}x "
        f"({legacy * 1e3:.1f}ms -> {interned * 1e3:.1f}ms)",
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"deep relay at n={LIFECYCLE_LARGEST}: interned only {ratio:.2f}x "
        f"faster than legacy trees"
    )


@pytest.mark.parametrize("size", ENGINE_SIZES)
@pytest.mark.parametrize("scenario", ["relay-chain", "channel-relay-chain"])
def test_end_to_end(benchmark, scenario, size):
    build = relay_chain if scenario == "relay-chain" else channel_relay_chain
    system = build(size).system
    trace = benchmark(_run_engine, system)
    tree, dag = _system_provenance_sizes(trace.final)
    record_sharing(EXPERIMENT, f"{scenario:19s} n={size:3d}", tree, dag)


def test_wire_v2_tracks_dag_size():
    """v1 bytes grow superlinearly on nested histories; v2 stays linear."""

    rows = _wire_curve(WIRE_SIZES)
    for size, tree, dag, v1, v2 in rows:
        record_row(
            EXPERIMENT,
            f"wire n={size:3d}: tree={tree:6d} dag={dag:5d} "
            f"v1={v1:7d}B v2={v2:6d}B (v1/v2 {v1 / v2:.2f}x)",
        )
    first_ratio = rows[0][3] / rows[0][4]
    last_ratio = rows[-1][3] / rows[-1][4]
    assert last_ratio >= WIRE_RATIO_GROWTH_FLOOR * first_ratio, (
        f"v1/v2 byte ratio grew only {first_ratio:.2f}x -> {last_ratio:.2f}x "
        f"across sizes {WIRE_SIZES[0]}..{WIRE_SIZES[-1]}: v2 is not "
        f"tracking DAG size"
    )


def test_codec_resumption_shrinks_stream():
    """A resumed link codec beats per-message encoding on a stream."""

    size = WIRE_SIZES[-1]
    messages, reset_bytes, resumed_bytes = _codec_stream_ab(size)
    record_row(
        EXPERIMENT,
        f"codec n={size:3d}: {messages} messages, "
        f"reset={reset_bytes}B resumed={resumed_bytes}B "
        f"({reset_bytes / resumed_bytes:.2f}x)",
    )
    assert resumed_bytes < reset_bytes, (
        f"resumed codec shipped {resumed_bytes}B vs {reset_bytes}B with "
        f"per-message tables — back-references are not resuming"
    )


# ---------------------------------------------------------------------------
# standalone
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one repeat — keeps CI honest without burning minutes",
    )
    arguments = parser.parse_args(argv)
    lifecycle_sizes = [64, 128] if arguments.smoke else LIFECYCLE_SIZES
    wire_sizes = [4, 8, 16] if arguments.smoke else WIRE_SIZES
    repeats = 1 if arguments.smoke else 3

    print(f"{'deep-relay lifecycle':24s} {'interned':>10s} {'legacy':>10s} {'speedup':>8s}")
    worst = float("inf")
    for size in lifecycle_sizes:
        interned = _best_of(
            lambda: provenance_lifecycle(size, _INTERNED_API), repeats
        )
        legacy = _best_of(
            lambda: provenance_lifecycle(size, _LEGACY_API), repeats
        )
        ratio = legacy / interned
        print(
            f"  n={size:<20d} {interned * 1e3:8.1f}ms {legacy * 1e3:8.1f}ms "
            f"{ratio:7.1f}x"
        )
        if size == max(lifecycle_sizes):
            worst = ratio

    print(f"\n{'wire bytes (channel relay)':28s} {'tree':>7s} {'dag':>6s} "
          f"{'v1':>8s} {'v2':>8s} {'v1/v2':>6s}")
    rows = _wire_curve(wire_sizes)
    for size, tree, dag, v1, v2 in rows:
        print(
            f"  n={size:<25d} {tree:7d} {dag:6d} {v1:7d}B {v2:7d}B "
            f"{v1 / v2:5.2f}x"
        )
    first_ratio = rows[0][3] / rows[0][4]
    last_ratio = rows[-1][3] / rows[-1][4]

    codec_n = max(wire_sizes)
    messages, reset_bytes, resumed_bytes = _codec_stream_ab(codec_n)
    codec_ratio = reset_bytes / resumed_bytes
    print(
        f"\ncodec A/B (n={codec_n}, {messages} messages): "
        f"reset-per-message={reset_bytes}B resumed={resumed_bytes}B "
        f"= {codec_ratio:.2f}x"
    )

    failed = False
    if not arguments.smoke and worst < SPEEDUP_FLOOR:
        print(
            f"FAIL: lifecycle speedup at n={max(lifecycle_sizes)} is "
            f"{worst:.2f}x < {SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        failed = True
    if last_ratio < WIRE_RATIO_GROWTH_FLOOR * first_ratio:
        print(
            f"FAIL: v1/v2 byte ratio grew only {first_ratio:.2f}x -> "
            f"{last_ratio:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if resumed_bytes >= reset_bytes:
        print(
            f"FAIL: resumed codec shipped {resumed_bytes}B, not less than "
            f"the {reset_bytes}B of per-message tables",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"\nlifecycle speedup at n={max(lifecycle_sizes)}: {worst:.1f}x; "
        f"v1/v2 byte ratio {first_ratio:.2f}x -> {last_ratio:.2f}x"
    )
    write_snapshot(
        "E17-provenance-sharing",
        {
            "lifecycle_sizes": lifecycle_sizes,
            "wire_sizes": wire_sizes,
            "codec_n": codec_n,
            "lifecycle_n": max(lifecycle_sizes),
            "lifecycle_speedup": round(worst, 1),
            "wire_ratio_first": round(first_ratio, 2),
            "wire_ratio_last": round(last_ratio, 2),
            "codec_stream_ratio": round(codec_ratio, 2),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
