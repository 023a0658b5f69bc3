"""Large fan-in/fan-out scaling scenarios.

The shapes the incremental engine was built for: systems whose redex
count grows with the component count, so any per-step cost that scans the
whole system turns quadratic (or worse) over a run.

* :func:`fan_in_fan_out` — ``n`` sources all publish on one shared *hub*
  channel (the fan-in: every (source, relay) pair is an enabled redex
  mid-run), ``m`` relays each forward one value to a private sink channel
  (the fan-out: all forwards are independent).  A full run takes
  ``n + 3·min(n, m)`` reductions (``n`` hub sends, then one hub receive,
  one forward and one sink receive per served relay), while a
  from-scratch enumerator pays O(n·m) *per step* just to list the hub
  redexes — this is the benchmark workload of
  ``benchmarks/bench_engine_scaling.py``.

* :func:`channel_relay_chain` — a *channel* is relayed hop to hop, and
  every hop publishes an observation **on** it.  Because Table 1's ``κ``
  is recursive (an event embeds the whole provenance of the channel used),
  observation ``i``'s tree holds the carrier's entire ``2i``-event history
  nested inside one event: summed over a run, the semantic trees grow
  quadratically while the hash-consed DAG (all those histories are
  suffixes of one spine) stays linear.  This is the stress shape of
  ``benchmarks/bench_provenance_sharing.py`` — maximal divergence between
  tree size and DAG size, hence between the v1 and v2 wire formats.

* :func:`vetted_relay_chain` — a value is relayed hop to hop and **every
  hop vets it** with a Table 3 pattern before accepting.  At hop ``i``
  the payload's spine is ``2i−1`` events, so per-message re-simulation
  pays Θ(n²) matcher work over a run while the incremental lazy-DFA bank
  (``repro.patterns.dfa``) pays two memoized transitions per hop — the
  serving-path shape gated by
  ``benchmarks/bench_patterns_incremental.py``.

* :func:`wide_fanout` — thousands of principals spread over regions,
  each region a burst of intra-region traffic on per-source channels
  (zero-latency links: pure run-queue load) plus one cross-region
  beacon to a central collector (timed links sampled from per-link
  :class:`~repro.runtime.network.LatencyModel`s).  Per-event middleware
  work is O(1) by construction — no shared rendezvous channel, no
  patterns — so the run measures the *substrate*: scheduler and
  interpreter overhead dominate, which is exactly what
  ``benchmarks/bench_runtime_scaling.py`` A/Bs between the two-tier
  run-queue scheduler and the seed's single heap.

The delivered values carry the full provenance story: a sink's value ends
with ``sink?ε; relay!ε; relay?ε; source!ε`` — two hops of two events, so
the scenario also exercises provenance growth under width (cf. the relay
chain, which grows provenance under depth, and the channel relay chain,
which grows it under *nesting*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.builder import (
    ch,
    inp,
    located,
    match,
    out,
    par,
    pr,
    sys_par,
    var,
)
from repro.core.names import Channel, Principal
from repro.core.patterns import Pattern
from repro.core.system import System, system_annotated_values
from repro.patterns.ast import (
    AnyPattern,
    EventPattern,
    GroupAll,
    Repetition,
    SamplePattern,
    Sequence,
)
from repro.runtime.network import ZERO_LATENCY, LatencyModel, Topology
from repro.runtime.shards import ShardPlan
from repro.workloads.topologies import freeze

__all__ = [
    "FanInFanOutWorkload",
    "fan_in_fan_out",
    "sinks_served",
    "ChannelRelayWorkload",
    "channel_relay_chain",
    "VettedRelayWorkload",
    "relay_guard",
    "vetted_relay_chain",
    "WideFanoutWorkload",
    "wide_fanout",
]


@dataclass(frozen=True, slots=True)
class FanInFanOutWorkload:
    """A fan-in/fan-out system and the names needed to assert about it."""

    system: System
    sources: tuple[Principal, ...]
    relays: tuple[Principal, ...]
    sinks: tuple[Principal, ...]
    hub: Channel
    sink_channels: tuple[Channel, ...]
    payloads: tuple[Channel, ...]

    @property
    def expected_steps(self) -> int:
        """Reductions of a full run: sends + hub receives + forwards + sink receives."""

        delivered = min(len(self.sources), len(self.relays))
        return len(self.sources) + 3 * delivered


def fan_in_fan_out(
    n_sources: int,
    n_relays: int | None = None,
    relay_pattern: Pattern | None = None,
) -> FanInFanOutWorkload:
    """``Πᵢ aᵢ[hub⟨vᵢ⟩] ‖ Πⱼ rⱼ[hub(π as x).outⱼ⟨x⟩] ‖ Πⱼ cⱼ[outⱼ(x).freeze(x)]``.

    ``n_relays`` defaults to ``n_sources`` (every value gets delivered).
    With ``relay_pattern`` the relays vet the hub values by provenance —
    the market scenario at scale.
    """

    if n_sources < 1:
        raise ValueError("need at least one source")
    if n_relays is None:
        n_relays = n_sources
    if n_relays < 0:
        raise ValueError("n_relays must be non-negative")
    hub = ch("hub")
    sources = tuple(pr(f"src{i + 1}") for i in range(n_sources))
    payloads = tuple(ch(f"v{i + 1}") for i in range(n_sources))
    relays = tuple(pr(f"rel{j + 1}") for j in range(n_relays))
    sinks = tuple(pr(f"snk{j + 1}") for j in range(n_relays))
    sink_channels = tuple(ch(f"out{j + 1}") for j in range(n_relays))
    x = var("x")

    components = [
        located(source, out(hub, payload))
        for source, payload in zip(sources, payloads)
    ]
    binding = (relay_pattern, x) if relay_pattern is not None else x
    for relay, sink_channel in zip(relays, sink_channels):
        components.append(
            located(relay, inp(hub, binding, body=out(sink_channel, x)))
        )
    for sink, sink_channel in zip(sinks, sink_channels):
        components.append(
            located(sink, inp(sink_channel, x, body=freeze(x)))
        )
    return FanInFanOutWorkload(
        sys_par(*components),
        sources,
        relays,
        sinks,
        hub,
        sink_channels,
        payloads,
    )


@dataclass(frozen=True, slots=True)
class ChannelRelayWorkload:
    """A channel-relay chain and the names needed to assert about it."""

    system: System
    producer: Principal
    relays: tuple[Principal, ...]
    consumer: Principal
    carrier: Channel
    hop_channels: tuple[Channel, ...]
    observations: tuple[Channel, ...]

    @property
    def hops(self) -> int:
        return len(self.relays)


def channel_relay_chain(n_hops: int) -> ChannelRelayWorkload:
    """``a[t1⟨c⟩] ‖ Πᵢ pᵢ[tᵢ(x).(x⟨vᵢ⟩ | tᵢ₊₁⟨x⟩)] ‖ z[tₙ₊₁(x).freeze(x)]``.

    The carrier channel ``c`` hops ``a → p₁ → … → pₙ → z``; each relay
    publishes a fresh observation ``vᵢ`` *on the carrier* before
    forwarding it.  At relay ``i`` the carrier's provenance is a
    ``2i-1``-event spine, and the observation's output event embeds all
    of it — so the system's total provenance *tree* size is Θ(n²) while
    its shared DAG is Θ(n) (every embedded history is a suffix of the
    carrier's single spine).  The observations are never consumed: they
    stay as in-flight messages, inspectable via
    :func:`repro.core.system.system_annotated_values`.
    """

    if n_hops < 0:
        raise ValueError("n_hops must be non-negative")
    producer = pr("a")
    consumer = pr("z")
    relays = tuple(pr(f"p{i + 1}") for i in range(n_hops))
    hop_channels = tuple(ch(f"t{i + 1}") for i in range(n_hops + 1))
    observations = tuple(ch(f"v{i + 1}") for i in range(n_hops))
    carrier = ch("c")
    x = var("x")

    components = [located(producer, out(hop_channels[0], carrier))]
    for index, relay in enumerate(relays):
        components.append(
            located(
                relay,
                inp(
                    hop_channels[index],
                    x,
                    body=par(
                        out(x, observations[index]),
                        out(hop_channels[index + 1], x),
                    ),
                ),
            )
        )
    components.append(
        located(consumer, inp(hop_channels[-1], x, body=freeze(x)))
    )
    return ChannelRelayWorkload(
        sys_par(*components),
        producer,
        relays,
        consumer,
        carrier,
        hop_channels,
        observations,
    )


@dataclass(frozen=True, slots=True)
class VettedRelayWorkload:
    """A pattern-guarded relay chain and the names to assert about it."""

    system: System
    producer: Principal
    relays: tuple[Principal, ...]
    consumer: Principal
    hop_channels: tuple[Channel, ...]
    payload: Channel
    guard: Pattern

    @property
    def hops(self) -> int:
        return len(self.relays)

    @property
    def expected_deliveries(self) -> int:
        """Every relay plus the consumer accepts exactly once."""

        return len(self.relays) + 1


def relay_guard() -> SamplePattern:
    """``∼!any;(∼?any;∼!any)*`` — a well-formed relay history.

    At vetting time a relayed value's spine (most recent first) is
    always ``!, ?, !, ?, …, !``: the pending send, then alternating
    receive/send pairs back to the producer's original output.  The
    guard accepts exactly that shape from *any* principals — satisfied
    at every hop of an honest chain, refused e.g. for a value that was
    injected without a send or double-received.
    """

    anyone_sends = EventPattern("!", GroupAll(), AnyPattern())
    anyone_receives = EventPattern("?", GroupAll(), AnyPattern())
    return Sequence(
        anyone_sends, Repetition(Sequence(anyone_receives, anyone_sends))
    )


def vetted_relay_chain(
    n_hops: int, guard: Pattern | None = None
) -> VettedRelayWorkload:
    """``a[t₁⟨v⟩] ‖ Πᵢ pᵢ[tᵢ(π as x).tᵢ₊₁⟨x⟩] ‖ z[tₙ₊₁(π as x).freeze(x)]``.

    The payload ``v`` hops ``a → p₁ → … → pₙ → z`` and every input —
    each relay's and the consumer's — vets the accumulated provenance
    against ``guard`` (default :func:`relay_guard`).  Hop ``i`` vets a
    ``2i−1``-event spine that extends hop ``i−1``'s by exactly two
    events, making this the canonical stress for incremental vetting:
    total spine events vetted grow Θ(n²), events *added* grow Θ(n).
    """

    if n_hops < 0:
        raise ValueError("n_hops must be non-negative")
    if guard is None:
        guard = relay_guard()
    producer = pr("a")
    consumer = pr("z")
    relays = tuple(pr(f"p{i + 1}") for i in range(n_hops))
    hop_channels = tuple(ch(f"t{i + 1}") for i in range(n_hops + 1))
    payload = ch("v")
    x = var("x")

    components = [located(producer, out(hop_channels[0], payload))]
    for index, relay in enumerate(relays):
        components.append(
            located(
                relay,
                inp(
                    hop_channels[index],
                    (guard, x),
                    body=out(hop_channels[index + 1], x),
                ),
            )
        )
    components.append(
        located(consumer, inp(hop_channels[-1], (guard, x), body=freeze(x)))
    )
    return VettedRelayWorkload(
        sys_par(*components),
        producer,
        relays,
        consumer,
        hop_channels,
        payload,
        guard,
    )


@dataclass(frozen=True, slots=True)
class WideFanoutWorkload:
    """A multi-region fan-out and the names/topology to run it with."""

    system: System
    regions: int
    sources_per_region: int
    burst: int
    guard_depth: int
    sources: tuple[Principal, ...]
    sinks: tuple[Principal, ...]
    reporters: tuple[Principal, ...]
    collector: Principal
    work_channels: tuple[Channel, ...]
    board: Channel
    topology: Topology

    @property
    def principal_count(self) -> int:
        return len(self.sources) + len(self.sinks) + len(self.reporters) + 1

    @property
    def expected_messages(self) -> int:
        """Local bursts plus one beacon per region."""

        return self.regions * self.sources_per_region * self.burst + self.regions

    @property
    def expected_deliveries(self) -> int:
        """Every message finds a dedicated receiver exactly once."""

        return self.expected_messages

    def shard_plan(self, n_shards: int) -> ShardPlan:
        """Round-robin the regions over ``n_shards``; core on shard 0.

        Regions are communication-closed except for their beacon, so
        placing each region's sources, sink, reporter and work channels
        on one shard makes every burst delivery shard-local; only the
        per-region beacon crosses to the collector (with the board, on
        shard 0).  Every receiver is co-located with its channel's
        home, which is what process mode requires, and the declared
        ``lookahead`` is the cross-region latency floor — region 0's
        ``cross_base``, the cheapest link any beacon can take — so the
        conservative barrier is sound by construction.
        """

        if n_shards < 1:
            raise ValueError("need at least one shard")
        principals = {self.collector.name: 0}
        channels = {self.board.name: 0}
        for region, (sink, reporter) in enumerate(
            zip(self.sinks, self.reporters)
        ):
            principals[sink.name] = region % n_shards
            principals[reporter.name] = region % n_shards
        for index, source in enumerate(self.sources):
            principals[source.name] = (
                index // self.sources_per_region
            ) % n_shards
        for index, work in enumerate(self.work_channels):
            channels[work.name] = (
                index // self.sources_per_region
            ) % n_shards
        lookahead = self.topology(self.reporters[0], self.board).base
        return ShardPlan(principals, channels, lookahead)


def wide_fanout(
    n_regions: int,
    sources_per_region: int,
    burst: int = 4,
    guard_depth: int = 2,
    cross_base: float = 5.0,
    cross_jitter: float = 1.0,
    region_spacing: float = 1.0,
) -> WideFanoutWorkload:
    """Thousands of principals; free intra-region links, timed cross-region.

    Region ``r`` hosts ``sources_per_region`` sources, each bursting
    ``burst`` copies of its value on a private channel to the region's
    sink (one input thread per copy — no shared rendezvous point, so the
    middleware does O(1) work per delivery), plus one *reporter* that
    publishes the region's beacon on the central ``board`` channel homed
    in a senderless core region — guarded by a ``Match`` so the
    interpreter exercises conditional continuations too.  Link latency comes from a per-link
    model: intra-region hops are :data:`~repro.runtime.network.ZERO_LATENCY`
    (run-queue load; they draw nothing from the generator), while region
    ``r``'s beacon pays ``cross_base + r·region_spacing + U(0,
    cross_jitter)`` — every region a different
    :class:`~repro.runtime.network.LatencyModel`, as a real multi-region
    mesh would have.

    Every burst output sits under ``guard_depth`` nested ``Match``
    guards (think feature flags / sanity checks between communications):
    local control flow the calculus executes as reduction steps.  Each
    guard is one process-tree node — one heap event on the seed
    scheduler, one O(1) worklist pop on the batched interpreter — so the
    knob dials how much of the run is *substrate* (interpretation and
    scheduling) versus middleware rendezvous.

    Receivers are deployed before senders, so registrations land before
    any message arrives under either interpreter — which is what makes
    the delivered trace of the same seed bit-identical between the
    runtime and the seed-substrate test oracle (single heap, one event
    per tree node).
    """

    if n_regions < 1:
        raise ValueError("need at least one region")
    if sources_per_region < 1:
        raise ValueError("need at least one source per region")
    if burst < 1:
        raise ValueError("burst must be positive")
    if guard_depth < 0:
        raise ValueError("guard_depth must be non-negative")

    x = var("x")
    board = ch("board")
    collector = pr("collector")
    # the board lives in a dedicated "core" region hosting no senders,
    # so every region's beacon — region 0's included — pays a timed
    # cross-region link and no beacon ever races the zero-latency tier
    core_region = n_regions
    principal_region: dict[Principal, int] = {collector: core_region}
    channel_region: dict[Channel, int] = {board: core_region}
    cross_links = tuple(
        LatencyModel(cross_base + r * region_spacing, cross_jitter)
        for r in range(n_regions)
    )

    sources: list[Principal] = []
    sinks: list[Principal] = []
    reporters: list[Principal] = []
    work_channels: list[Channel] = []
    sink_components = []
    sender_components = []
    for r in range(n_regions):
        sink = pr(f"snk_r{r}")
        reporter = pr(f"rep_r{r}")
        beacon = ch(f"beacon_r{r}")
        sinks.append(sink)
        reporters.append(reporter)
        principal_region[sink] = r
        principal_region[reporter] = r
        sink_threads = []
        for i in range(sources_per_region):
            source = pr(f"src_r{r}_{i}")
            work = ch(f"w_r{r}_{i}")
            value = ch(f"v_r{r}_{i}")
            sources.append(source)
            work_channels.append(work)
            principal_region[source] = r
            channel_region[work] = r
            sink_threads.extend(inp(work, x) for _ in range(burst))
            thread = out(work, value)
            for _ in range(guard_depth):
                thread = match(value, value, then_branch=thread)
            sender_components.append(
                located(source, par(*(thread for _ in range(burst))))
            )
        sink_components.append(located(sink, par(*sink_threads)))
        sender_components.append(
            located(
                reporter,
                match(beacon, beacon, then_branch=out(board, beacon)),
            )
        )
    collector_component = located(
        collector, par(*(inp(board, x) for _ in range(n_regions)))
    )

    def topology(
        sender: Optional[Principal], channel: Optional[Channel]
    ) -> LatencyModel:
        source_region = principal_region.get(sender, 0)
        target_region = channel_region.get(channel, 0)
        if source_region == target_region:
            return ZERO_LATENCY
        return cross_links[source_region]

    return WideFanoutWorkload(
        sys_par(*sink_components, collector_component, *sender_components),
        n_regions,
        sources_per_region,
        burst,
        guard_depth,
        tuple(sources),
        tuple(sinks),
        tuple(reporters),
        collector,
        tuple(work_channels),
        board,
        topology,
    )


def sinks_served(workload: FanInFanOutWorkload, system: System) -> int:
    """How many distinct source payloads are held at sinks in ``system``.

    Counts values whose plain part is one of the workload's payloads and
    whose provenance records an input by a sink — the frozen, delivered
    values (in-flight copies have no sink input event yet).
    """

    sink_set = set(workload.sinks)
    payload_set = set(workload.payloads)
    served: set[Channel] = set()
    for value in system_annotated_values(system):
        if value.value not in payload_set:
            continue
        provenance = value.provenance
        if provenance and provenance.head.principal in sink_set:
            served.add(value.value)
    return len(served)
