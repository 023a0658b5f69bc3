"""Sharded multi-core runtime: partitioned simulators, one merged trace.

The paper's middleware is distributed by construction — each principal's
middleware stamps and vets independently, and the only shared state is
the channel rendezvous — so partitioning *principals* across shards is
semantics-preserving.  :class:`ShardedRuntime` does exactly that: a
deterministic :class:`Partitioner` assigns every principal (and every
channel's rendezvous manager, its *home*) to one of N shards, each shard
a full :class:`~repro.runtime.runtime.DistributedRuntime` stack —
simulator, network, middleware, nodes, metrics — and cross-shard sends
travel as real wire bytes.

Two execution modes, one trace contract:

* ``shard_mode="inline"`` — all shards in this process, driven by a
  *conductor* that always runs the globally least ``(time, sequence)``
  event.  Shards share one :class:`~repro.runtime.simulator.SequenceSource`
  (and one name supply), so the global event order — and therefore the
  delivered trace — is **bit-identical to the single-shard run for any
  system and any partition**, racy rendezvous included.  This is the
  reference mode the property tests exercise against
  ``workloads/random_systems``.

* ``shard_mode="process"`` — one OS process per shard
  (``multiprocessing``), synchronized by a conservative window barrier:
  every cross-shard link declares a ``lookahead`` (a lower bound on its
  latency), shards run ``lookahead/2``-wide windows in parallel, and
  envelopes collected at each barrier are injected — decoded in
  per-link FIFO order, scheduled by Lamport-tie-broken arrival time —
  before the window that could observe them.  A message sent at ``t``
  arrives at ``t + 2W`` or later, and every event a window runs is at
  most ``W`` past the barrier that opened it, so no arrival can ever be
  late.  For race-free workloads (the gated fan-out shapes) the merged
  delivered trace is bit-identical to ``shards=1``; fresh names drawn
  at runtime (restrictions) are shard-local in this mode and may be
  α-renamed relative to the single-shard run.

Cross-shard sends are serialized with the v2 wire format through
per-directed-link :class:`~repro.runtime.wire.Codec` pairs whose
back-reference tables *resume* across messages — a value's provenance
ships only the suffix its link has not already carried, and the table
ids are stable for the link's lifetime, so spines re-intern consistently
on the receiving shard.  Latency jitter comes from
:class:`~repro.runtime.network.KeyedLatencySampler` (a stable digest of
seed, sender, channel and per-link ordinal), never from a per-shard
generator stream — the draw a message gets is independent of the
partition, which is what makes the ``shards=N`` vs ``shards=1``
differential exact.

Every result accessor reads one per-shard *report* (:func:`_shard_report`:
metrics summary, delivered records, load figures, clock), whichever the
mode.  Inline mode builds the reports from its live shards on each
read; a process worker builds its report once, at ``finish``, and ships
it home with the delivered records encoded as journal delivery entries
(:func:`repro.storage.journal.encode_delivery_entry`) through one fresh
streaming codec, which the conductor decodes with
:func:`~repro.storage.journal.decode_entry` through one fresh codec per
shard.  Every spine node ships and re-interns once — the reply is
O(interned DAG nodes), where pickled spines were O(total spine length).

``delivered_trace()`` merges the per-shard
:class:`~repro.runtime.metrics.DeliveryRecord` lists with
:func:`merge_delivered` into one canonical global trace ordered by
``(time, channel, per-channel ordinal)`` — each channel is homed on
exactly one shard, so per-channel order is total; ``repro query`` merges
a sharded store's journals with the same function.
``metrics_summary()`` composes the per-shard
:meth:`~repro.runtime.metrics.RuntimeMetrics.summary` dicts with
:meth:`~repro.runtime.metrics.RuntimeMetrics.merge`.
``benchmarks/bench_shard_scaling.py`` (E21) gates the differential and
the process-mode throughput ratio.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time as time_module
import traceback
import weakref
import zlib
from dataclasses import dataclass, field
from math import floor
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

from repro.core.congruence import all_system_names, normalize
from repro.core.errors import (
    ShardLostError,
    SimulationError,
    StorageError,
    WireFormatError,
)
from repro.core.heap import freeze_for_process, settled_heap
from repro.core.names import Channel, NameSupply, Principal
from repro.core.semantics import SemanticsMode
from repro.core.system import System
from repro.runtime.metrics import DeliveryRecord, RuntimeMetrics
from repro.runtime.network import (
    FaultInjector,
    FaultPlan,
    KeyedLatencySampler,
    LatencyModel,
    Topology,
)
from repro.runtime.runtime import DistributedRuntime, place_components
from repro.runtime.simulator import SequenceSource
from repro.runtime.wire import Codec, encode_plain, encode_varint

__all__ = [
    "Partitioner",
    "ShardPlan",
    "ShardRouter",
    "ShardedRuntime",
    "WireEnvelope",
    "merge_delivered",
]

START_METHOD = "fork"
"""How process-mode workers start where the platform offers it;
elsewhere its default start method."""

RECOVERY_RETRIES = 2
"""How many times a dead shard is respawned (with linear backoff)
before the run degrades to a typed :class:`ShardLostError`."""

RETRY_BACKOFF = 0.05
"""Seconds of backoff per respawn attempt already made."""


def _stable_shard(name: str, n_shards: int) -> int:
    """``crc32(name) % n`` — stable across processes and Python runs.

    The builtin ``hash`` is randomized per process, which would home
    channels differently in every worker; CRC32 is fast, stable, and
    spreads principal names well enough for round-robin-ish balance.
    """

    return zlib.crc32(name.encode("utf-8")) % n_shards


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """An explicit placement: overrides plus the links' latency floor.

    Workloads that know their communication structure (see
    ``WideFanoutWorkload.shard_plan``) publish one of these so regions
    stay co-located and the conservative barrier gets a truthful
    ``lookahead`` (a lower bound on every cross-shard link's latency).
    """

    principals: dict[str, int] = field(default_factory=dict)
    channels: dict[str, int] = field(default_factory=dict)
    lookahead: Optional[float] = None


class Partitioner:
    """Deterministic principal→shard and channel→home assignment."""

    def __init__(
        self,
        n_shards: int,
        principal_overrides: Optional[dict[str, int]] = None,
        channel_overrides: Optional[dict[str, int]] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self.principal_overrides = dict(principal_overrides or {})
        self.channel_overrides = dict(channel_overrides or {})
        for name, shard in (
            *self.principal_overrides.items(),
            *self.channel_overrides.items(),
        ):
            if not 0 <= shard < n_shards:
                raise ValueError(
                    f"override {name!r} -> shard {shard} out of range "
                    f"for {n_shards} shards"
                )

    def shard_of(self, principal: Principal) -> int:
        """The shard hosting ``principal``'s node and middleware."""

        override = self.principal_overrides.get(principal.name)
        if override is not None:
            return override
        return _stable_shard(principal.name, self.n_shards)

    def home_of(self, channel: Channel) -> int:
        """The shard hosting ``channel``'s rendezvous manager."""

        override = self.channel_overrides.get(channel.name)
        if override is not None:
            return override
        return _stable_shard(channel.name, self.n_shards)


@dataclass(frozen=True, slots=True)
class WireEnvelope:
    """One cross-shard message as it travels between simulators.

    ``data`` is a digest-sealed *frame* (:meth:`Codec.encode_frame`) in
    v2 back-reference bytes *relative to the link codec's history* —
    decoding requires every earlier envelope of the same ``(source,
    target)`` link first (``seq`` orders them, and the receiver enforces
    it: a repeated ``seq`` is a wire replay, a gap is truncation, and
    either retires the link).  ``tags`` carries the attestation tag of
    each spine node the frame ships for the first time, positionally
    aligned with the decoder's construction order, so the receiving
    shard can re-verify the whole history on ingest.  ``lamport`` is the
    sending shard's logical clock, used to tie-break equal arrival
    instants causally at injection.
    """

    source: int
    target: int
    seq: int
    channel: str
    data: bytes
    send_time: float
    arrival_time: float
    lamport: int
    tags: tuple = ()


class ShardRouter:
    """One shard's door to the rest of the mesh.

    Installed as ``middleware.router``; the middleware asks
    :meth:`is_local` on every send and receive.  Remote sends are
    encoded through the link's :class:`Codec` and either handed
    to the inline hub (same process: decoded and scheduled on the home
    shard immediately) or parked in the outbox for the next barrier
    (process mode).  Remote *receives* only work inline — a delivery
    callback cannot cross an OS process boundary — so process mode
    requires receivers to be co-located with their channel's home.

    The router reaches its runtime and hub through weak references: both
    own it (through the shard's middleware), and strong back-pointers
    would make a discarded mesh cyclic garbage.
    """

    def __init__(
        self,
        index: int,
        partitioner: Partitioner,
        runtime: DistributedRuntime,
        hub: Optional["ShardedRuntime"] = None,
        lookahead: Optional[float] = None,
    ) -> None:
        self.index = index
        self.partitioner = partitioner
        self._runtime = weakref.ref(runtime)
        self._hub = None if hub is None else weakref.ref(hub)
        self.lookahead = lookahead
        self.lamport = 0
        self.cross_shard_sent = 0
        self.cross_shard_received = 0
        self._link_seq: dict[int, int] = {}
        self._expected_seq: dict[int, int] = {}
        self._poisoned: set[int] = set()
        self._encoders: dict[int, Codec] = {}
        self._decoders: dict[int, Codec] = {}
        self._outbox: list[WireEnvelope] = []

    @property
    def runtime(self) -> DistributedRuntime:
        return self._runtime()

    @property
    def hub(self) -> Optional["ShardedRuntime"]:
        return None if self._hub is None else self._hub()

    def is_local(self, channel: Channel) -> bool:
        return self.partitioner.home_of(channel) == self.index

    def remote_manager(self, channel: Channel):
        """The home shard's manager — inline mode only."""

        if self.hub is None:
            raise SimulationError(
                f"shard {self.index} cannot receive on {channel.name!r}: "
                f"the channel is homed on shard "
                f"{self.partitioner.home_of(channel)} and delivery "
                f"callbacks cannot cross process boundaries — co-locate "
                f"the receiver with the channel (see ShardPlan) or use "
                f"shard_mode='inline'"
            )
        home = self.partitioner.home_of(channel)
        return self.hub.shard(home).middleware.manager(channel)

    def send_remote(
        self,
        principal: Principal,
        channel: Channel,
        payload: tuple,
    ) -> None:
        """Serialize, stamp, and ship one cross-shard send.

        Fault injection happens here, not in the transport: *drop* is
        decided **before** the frame is encoded — a dropped message must
        never advance the link codec's shared history, or every later
        frame would desync — and *corrupt* flips one frame byte after
        encoding, which the receiver's digest check is guaranteed to
        catch (the link is then poisoned, the realistic fate of a
        corrupted resumed stream).
        """

        runtime = self.runtime
        network = runtime.network
        metrics = runtime.metrics
        model = network.latency_for(principal, channel)
        delay = network.sample_latency(model, principal, channel)
        if self.hub is None and (
            self.lookahead is None or delay < self.lookahead
        ):
            raise SimulationError(
                f"cross-shard send {principal.name}->{channel.name} has "
                f"latency {delay} below the declared lookahead "
                f"{self.lookahead}: the conservative barrier would be "
                f"unsound — declare a truthful lookahead (<= every "
                f"cross-shard link's minimum latency)"
            )
        decision = network.fault_for(principal, channel)
        if decision.drop:
            metrics.record_send()
            metrics.faults_dropped += 1
            return
        home = self.partitioner.home_of(channel)
        codec = self._encoders.get(home)
        if codec is None:
            codec = self._encoders[home] = Codec()
        data, new_nodes = codec.encode_frame(payload)
        middleware = runtime.middleware
        tags: tuple = ()
        if middleware.crypto:
            store = middleware.attestations
            tags = tuple(store.tag(node) for node in new_nodes)
        if decision.corrupt:
            metrics.faults_corrupted += 1
            flip = bytearray(data)
            flip[len(flip) // 2] ^= 0x01
            data = bytes(flip)
        if decision.extra_delay:
            metrics.faults_reordered += 1
            delay += decision.extra_delay
        if metrics.detailed:
            # honest accounting: these are the bytes that actually
            # crossed the link, back-references included — resumed
            # tables make repeat provenance nearly free; the frame
            # seal (length prefix + digest) counts as metadata
            plain_bytes = len(encode_varint(len(payload))) + sum(
                len(encode_plain(value.value)) for value in payload
            )
            provenance_bytes = max(len(data) - plain_bytes, 0)
            metrics.record_send(lambda: (plain_bytes, provenance_bytes))
        else:
            metrics.record_send()
        self.lamport += 1
        seq = self._link_seq.get(home, 0)
        self._link_seq[home] = seq + 1
        send_time = runtime.simulator.now
        envelope = WireEnvelope(
            source=self.index,
            target=home,
            seq=seq,
            channel=channel.name,
            data=data,
            send_time=send_time,
            arrival_time=send_time + delay,
            lamport=self.lamport,
            tags=tags,
        )
        self.cross_shard_sent += 1
        copies = 2 if decision.duplicate else 1
        if decision.duplicate:
            metrics.faults_duplicated += 1
        for _ in range(copies):
            if self.hub is not None:
                self.hub.shard(home).middleware.router.ingest([envelope])
            else:
                self._outbox.append(envelope)

    def drain_outbox(self) -> list[WireEnvelope]:
        outgoing, self._outbox = self._outbox, []
        return outgoing

    def _poison_link(self, source: int, reason: str) -> None:
        """Retire a link whose stream can no longer be trusted.

        A failed frame (bad digest, bad chain, seq gap) may have already
        polluted the resumed codec tables, so everything after it on the
        same link is undecodable anyway — the honest response is to stop
        listening.  Honest links never trip this: drops are decided
        before encoding, so even a lossy fault plan keeps seq dense.
        """

        if source not in self._poisoned:
            self._poisoned.add(source)
            middleware = self.runtime.middleware
            middleware.note("tamper", "wire")
            middleware.note("poison", f"{source}->{self.index}: {reason}")

    def ingest(self, envelopes: list[WireEnvelope]) -> None:
        """Decode, verify, and schedule a batch of arrivals.

        Two passes: decoding follows per-link ``seq`` order (the codec
        tables are a shared history — frames only make sense in encode
        order), while scheduling follows ``(arrival, lamport, link,
        seq)`` so simultaneous arrivals from different links enqueue in
        a deterministic, causally consistent order.

        This is the trust boundary of the mesh: each frame's digest seal
        is checked (corruption → link poisoned), repeated ``seq``\\ s are
        blocked as wire replays, attestation tags are recorded for the
        frame's new spine nodes, and — when crypto is on — every
        payload's whole history is re-verified (O(new hops) via the
        verdict cache) before it may rendezvous.
        """

        middleware = self.runtime.middleware
        metrics = self.runtime.metrics
        decoded: list[tuple[WireEnvelope, tuple]] = []
        for envelope in sorted(envelopes, key=lambda e: (e.source, e.seq)):
            source = envelope.source
            if source in self._poisoned:
                metrics.quarantined_drops += 1
                continue
            expected = self._expected_seq.get(source, 0)
            if envelope.seq < expected:
                # an exact repeat of history the link already carried:
                # decoding it again would desync the stream — block it
                metrics.replays_blocked += 1
                middleware.note("tamper", "replay")
                continue
            if envelope.seq > expected:
                self._poison_link(source, "sequence gap")
                continue
            codec = self._decoders.get(source)
            if codec is None:
                codec = self._decoders[source] = Codec()
            try:
                payload, _, new_nodes = codec.decode_frame(envelope.data)
            except WireFormatError:
                self._poison_link(source, "frame rejected")
                continue
            self._expected_seq[source] = expected + 1
            if middleware.crypto:
                tags = envelope.tags
                if len(tags) != len(new_nodes):
                    self._poison_link(source, "attestation mismatch")
                    continue
                store = middleware.attestations
                for node, tag in zip(new_nodes, tags):
                    if tag is not None:
                        store.record(node, tag)
                if not middleware.payload_verifies(payload):
                    self._poison_link(source, "chain verification failed")
                    continue
            if self.lamport <= envelope.lamport:
                self.lamport = envelope.lamport + 1
            decoded.append((envelope, payload))
        decoded.sort(
            key=lambda pair: (
                pair[0].arrival_time,
                pair[0].lamport,
                pair[0].source,
                pair[0].seq,
            )
        )
        network = self.runtime.network
        for envelope, payload in decoded:
            manager = middleware.manager(Channel(envelope.channel))
            network.deliver_at(
                lambda m=manager, p=payload, t=envelope.send_time: m.post(p, t),
                envelope.arrival_time,
            )
            self.cross_shard_received += 1


def merge_delivered(
    per_shard: Iterable[Iterable[DeliveryRecord]],
) -> list[DeliveryRecord]:
    """Per-shard delivery lists merged into one canonical trace.

    Sort key: ``(time, channel name, per-channel ordinal)``.  Each
    channel is homed on exactly one shard, so its deliveries carry a
    total order (the ordinal); merging by time with the channel name and
    ordinal as tie-breaks yields one sequence that is independent of how
    principals were partitioned.
    """

    keyed = []
    for records in per_shard:
        ordinals: dict[Channel, int] = {}
        for record in records:
            ordinal = ordinals.get(record.channel, 0)
            ordinals[record.channel] = ordinal + 1
            keyed.append((record.time, record.channel.name, ordinal, record))
    keyed.sort(key=lambda entry: entry[:3])
    return [record for *_, record in keyed]


def _shard_runtime(index: int, mesh, hub=None, **extra) -> DistributedRuntime:
    """Shard ``index``'s runtime stack, router installed, manifest written.

    ``mesh`` is the :class:`ShardedRuntime` or a worker's
    :class:`_ShardSpec`; both carry the same ``runtime_kwargs`` recipe.
    ``extra`` holds what only one mode passes (topology, shared
    sequence source, durable store).
    """

    runtime = DistributedRuntime(
        seed=mesh.seed,
        latency_sampler=KeyedLatencySampler(mesh.seed),
        **mesh.runtime_kwargs,
        **extra,
    )
    if runtime.durable is not None and runtime.durable.read_manifest() is None:
        runtime.durable.write_manifest(
            {
                "shard": index,
                "shards": mesh.n_shards,
                "seed": mesh.seed,
                "window": mesh.window,
                "lookahead": mesh.lookahead,
                "checkpoint_every": mesh.checkpoint_every,
            }
        )
    runtime.middleware.router = ShardRouter(
        index, mesh.partitioner, runtime, hub=hub, lookahead=mesh.lookahead
    )
    return runtime


def _shard_report(
    runtime: DistributedRuntime, barrier_stall: float = 0.0
) -> dict[str, Any]:
    """One shard's results: what every :class:`ShardedRuntime` result
    accessor reads, in either mode.

    The summary is taken first, so nothing later (a worker encoding its
    ``delivered`` records for the trip home) shows up in it.  ``stats``
    is the :meth:`~ShardedRuntime.shard_stats` row.
    """

    metrics = runtime.metrics
    router = runtime.middleware.router
    return {
        "summary": metrics.summary(),
        "delivered": list(metrics.delivered),
        "stats": {
            "events": runtime.simulator.events_processed,
            "deliveries": metrics.deliveries,
            "messages_sent": metrics.messages_sent,
            "cross_shard_sent": router.cross_shard_sent,
            "cross_shard_received": router.cross_shard_received,
            "barrier_stall_seconds": barrier_stall,
            "blocked_threads": runtime.blocked_threads(),
        },
        "messages_in_flight": runtime.network.messages_in_flight,
        "now": runtime.simulator.now,
    }


# ---------------------------------------------------------------------------
# Process mode: picklable spec + worker loop
# ---------------------------------------------------------------------------


@dataclass
class _ShardSpec:
    """Everything a worker needs to rebuild its shard, all picklable.

    Systems and builder references both pickle; topology closures do
    not, which is why builder-based deployment re-runs the (pure)
    builder worker-side instead of shipping the workload object.
    """

    index: int
    n_shards: int
    seed: int
    window: float
    lookahead: float
    partitioner: Partitioner
    runtime_kwargs: dict[str, Any]
    """The :class:`ShardedRuntime`'s per-shard runtime recipe, as is."""
    system: Optional[System]
    builder: Optional[Callable[..., Any]]
    builder_kwargs: dict[str, Any]
    durable_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    recover: bool = False
    """Set on a replacement worker: wipe and rebuild the delivery
    record by replaying the window WAL, and never draw process faults
    (at most one injected kill per shard per run)."""


def _workload(builder, builder_kwargs):
    """``(system, topology)`` of what ``builder`` returns: a workload
    object (``.system``, optional ``.topology``) or a bare ``System``."""

    workload = builder(**builder_kwargs)
    return getattr(workload, "system", workload), getattr(
        workload, "topology", None
    )


def _build_worker_shard(spec: _ShardSpec):
    """(runtime, normal form) for one worker."""

    system, topology = spec.system, None
    if spec.builder is not None:
        system, topology = _workload(spec.builder, spec.builder_kwargs)
    durable = None
    if spec.durable_dir:
        from repro.storage.segments import DurableStore

        durable = DurableStore(spec.durable_dir)
        if spec.recover:
            # the killed incarnation's record (flushed or torn) is
            # discarded wholesale; replaying the window WAL rebuilds it
            durable.reset_record()
        else:
            # fresh deployment: a reused directory must not leak a
            # previous run's WAL or record into a later recovery
            durable.wipe()
    runtime = _shard_runtime(
        spec.index, spec, topology=topology, durable=durable
    )
    names = all_system_names(system)
    runtime.middleware.supply.reserve(names)
    nf = normalize(system, NameSupply(names))
    return runtime, nf


def _encode_delivered(records) -> list[bytes]:
    """A worker's delivered record as journal delivery entries.

    All entries go through one fresh streaming :class:`Codec`, so every
    spine node of the record ships once and later occurrences are
    back-references: the result costs O(interned DAG nodes), not
    O(total spine length) as pickled spines do.  No attestation tags
    ride along (the conductor only merges and indexes the record), and
    the latency field is zero — :class:`DeliveryRecord` has none.
    """

    from repro.storage.journal import encode_delivery_entry

    codec = Codec()
    return [
        encode_delivery_entry(
            codec, time, principal, channel, branch, 0.0, values, None
        )[0]
        for time, principal, channel, values, branch in records
    ]


def _decode_delivered(index: int, entries: list[bytes]) -> list[DeliveryRecord]:
    """Rebuild shard ``index``'s delivered record from its entries.

    The inverse of :func:`_encode_delivered`, through one fresh codec per
    shard; decoding re-interns each DAG node once.  A malformed entry
    raises :class:`SimulationError` naming the shard.
    """

    from repro.storage.journal import decode_entry

    codec = Codec()
    records = []
    try:
        for payload in entries:
            record = decode_entry(payload, codec)
            if type(record) is not DeliveryRecord:
                raise StorageError("not a delivery entry")
            records.append(record)
    except StorageError as error:
        raise SimulationError(
            f"shard {index} returned an undecodable delivered record "
            f"(entry {len(records)}): {error}"
        ) from error
    return records


def _shard_worker(conn, spec: _ShardSpec) -> None:
    """One OS process: build, deploy, then serve barrier windows.

    Durable shards journal every window write-ahead (boundary, budget,
    ingested envelopes) before executing it, and checkpoint the
    delivery record every ``checkpoint_every`` windows.  When the fault
    plan carries ``kill``/``torn`` process faults, the worker draws
    deterministically per window and SIGKILLs *itself* mid-window (torn
    first truncates the WAL tail mid-record) — the conductor then
    respawns it with ``recover=True``, and this function replays the
    WAL from ``t = 0`` to rebuild the exact pre-crash state before
    rejoining the barrier.

    On ``finish`` the worker replies with its :func:`_shard_report`.
    The delivered records travel home as journal delivery entries
    encoded through one fresh streaming codec (:func:`_encode_delivered`),
    never as pickled spines: the reply grows with the interned DAG, not
    with the sum of spine lengths.
    """

    try:
        runtime, nf = _build_worker_shard(spec)
        router = runtime.middleware.router
        partitioner = spec.partitioner
        # walk the whole normal form, deploying only this shard's slice
        mine = spec.index
        place_components(
            nf,
            lambda p: runtime if partitioner.shard_of(p) == mine else None,
            lambda c: runtime if partitioner.home_of(c) == mine else None,
        )
        # the worker lives for one run: its deployed heap stays frozen
        # until exit (a forked worker inherits the conductor's
        # settled_heap depth, so that scope would be a no-op here)
        freeze_for_process()
        simulator = runtime.simulator

        def next_time() -> Optional[float]:
            key = simulator.next_event_key()
            return None if key is None else key[0]

        windows = None
        windows_done = 0
        process_faults = None
        plan = spec.runtime_kwargs["fault_plan"]
        if plan is not None and plan.has_process_faults and not spec.recover:
            process_faults = FaultInjector(plan, spec.seed)

        def maybe_checkpoint() -> None:
            if (
                spec.checkpoint_every
                and runtime.durability is not None
                and windows_done % spec.checkpoint_every == 0
            ):
                runtime.checkpoint()

        if runtime.durable is not None:
            from repro.storage.journal import (
                WindowJournal,
                read_window_journal,
            )

            replay_count = 0
            replayed_reply = None
            if spec.recover:
                entries, _ = read_window_journal(
                    runtime.durable.windows_path()
                )
                for entry in entries:
                    if entry.envelopes:
                        router.ingest(list(entry.envelopes))
                    events = simulator.run(
                        until=entry.boundary, max_events=entry.budget
                    )
                    replayed_reply = (
                        "done",
                        events,
                        next_time(),
                        router.drain_outbox(),
                    )
                    replay_count += 1
                    windows_done += 1
                    maybe_checkpoint()
                runtime.durability.flush()
            # WindowJournal repairs any torn tail before appending
            windows = WindowJournal(runtime.durable.windows_path())
            if spec.recover:
                conn.send(("recovered", replay_count, replayed_reply))
            else:
                conn.send(("ready", next_time()))
        else:
            conn.send(("ready", next_time()))
        barrier_stall = 0.0
        while True:
            wait_start = perf_counter()
            message = conn.recv()
            barrier_stall += perf_counter() - wait_start
            kind = message[0]
            if kind == "window":
                _, until, envelopes, budget = message
                fault = None
                if process_faults is not None:
                    fault = process_faults.process_fault(
                        spec.index, windows_done
                    )
                    if fault == "torn" and windows is None:
                        # nothing to tear without a WAL; a plain kill
                        # still exercises the ShardLostError path
                        fault = "kill"
                if windows is not None:
                    windows.record(until, budget, envelopes)
                if fault == "torn":
                    from repro.storage.segments import torn_truncate

                    windows.close()
                    torn_truncate(runtime.durable.windows_path())
                    os.kill(os.getpid(), signal.SIGKILL)
                if envelopes:
                    router.ingest(envelopes)
                if fault == "kill":
                    # crash lands mid-window: run roughly half of it,
                    # then die without flushing anything
                    midpoint = simulator.now + (until - simulator.now) / 2
                    if midpoint > simulator.now:
                        simulator.run(until=midpoint, max_events=budget)
                    os.kill(os.getpid(), signal.SIGKILL)
                events = simulator.run(until=until, max_events=budget)
                windows_done += 1
                if runtime.durability is not None:
                    runtime.durability.flush()
                    maybe_checkpoint()
                conn.send(
                    ("done", events, next_time(), router.drain_outbox())
                )
            elif kind == "finish":
                runtime.close()
                if windows is not None:
                    windows.close()
                report = _shard_report(runtime, barrier_stall)
                report["delivered"] = _encode_delivered(report["delivered"])
                conn.send(("result", report))
                conn.close()
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown barrier command {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


def _spawn(context, spec: _ShardSpec):
    """Start one worker for ``spec``; returns ``(connection, process)``."""

    parent_conn, child_conn = context.Pipe()
    worker = context.Process(
        target=_shard_worker, args=(child_conn, spec), daemon=True
    )
    worker.start()
    child_conn.close()
    return parent_conn, worker


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


class ShardedRuntime:
    """N partitioned runtimes presenting one deterministic run.

    Usage, inline (general: any system, any partition)::

        runtime = ShardedRuntime(shards=4, seed=7)
        runtime.deploy(system)
        runtime.run()
        trace = runtime.delivered_trace()

    Usage, process mode (real parallelism; receivers co-located with
    their channels' homes, cross-shard links slower than ``lookahead``)::

        plan = workload.shard_plan(4)
        runtime = ShardedRuntime(shards=4, shard_mode="process",
                                 plan=plan, metrics_retention=0)
        runtime.deploy_builder(wide_fanout, n_regions=8, ...)
        runtime.run()

    ``shards=1`` is the degenerate mesh — no cross-shard traffic, run
    directly on the single simulator — and is the baseline every
    differential compares against (it uses the same keyed latency
    sampler, so its draws match the partitioned runs draw for draw).
    """

    def __init__(
        self,
        shards: int,
        shard_mode: str = "inline",
        seed: int = 0,
        plan: Optional[ShardPlan] = None,
        lookahead: Optional[float] = None,
        latency: LatencyModel = LatencyModel(),
        mode: SemanticsMode = SemanticsMode.TRACKED,
        enforce_integrity: bool = True,
        replication_budget: int = 4,
        detailed_metrics: bool = True,
        metrics_retention: Optional[int] = None,
        crypto: bool = True,
        verify_deliveries: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        durable_dir=None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if shard_mode not in ("inline", "process"):
            raise ValueError(f"unknown shard_mode {shard_mode!r}")
        if plan is None:
            plan = ShardPlan()
        if lookahead is None:
            lookahead = plan.lookahead
        if lookahead is None:
            lookahead = latency.base
        if shard_mode == "process" and shards > 1 and lookahead <= 0:
            raise ValueError(
                "process mode needs a positive lookahead (a lower bound "
                "on every cross-shard link's latency) for the "
                "conservative barrier to make progress"
            )
        self.n_shards = shards
        self.shard_mode = shard_mode
        self.seed = seed
        self.lookahead = lookahead
        self.window = lookahead / 2 if lookahead > 0 else 0.0
        self.partitioner = Partitioner(shards, plan.principals, plan.channels)
        self.runtime_kwargs = dict(
            latency=latency,
            mode=mode,
            enforce_integrity=enforce_integrity,
            replication_budget=replication_budget,
            detailed_metrics=detailed_metrics,
            metrics_retention=metrics_retention,
            crypto=crypto,
            verify_deliveries=verify_deliveries,
            fault_plan=fault_plan,
        )
        """Every shard's :class:`DistributedRuntime` options, the same
        in both modes (process workers receive it in their spec)."""
        self.durable_dir = None if durable_dir is None else str(durable_dir)
        self.checkpoint_every = checkpoint_every
        self._shards: list[DistributedRuntime] = []
        self._system: Optional[System] = None
        self._builder: Optional[Callable[..., Any]] = None
        self._builder_kwargs: dict[str, Any] = {}
        self._topology: Optional[Topology] = None
        self._deployed = False
        self._finished = False
        self._worker_reports: Optional[list[dict[str, Any]]] = None
        self._events_processed = 0
        self._barrier_rounds = 0

    # -- deployment --------------------------------------------------------

    def shard(self, index: int) -> DistributedRuntime:
        """The (inline) runtime stack of one shard."""

        return self._shards[index]

    def deploy(
        self, system: System, topology: Optional[Topology] = None
    ) -> None:
        """Partition ``system`` across the shards.

        In process mode the (picklable) system is shipped to every
        worker, which deploys its own slice; ``topology`` closures
        cannot cross process boundaries — use :meth:`deploy_builder`
        for per-link latency in process mode.
        """

        if topology is not None and self.shard_mode == "process":
            raise SimulationError(
                "topology callables cannot cross process boundaries; "
                "use deploy_builder(...) so workers rebuild it locally"
            )
        self._deploy(system, topology)

    def deploy_builder(self, builder: Callable[..., Any], **kwargs) -> None:
        """Deploy the workload ``builder(**kwargs)`` describes.

        ``builder`` must be an importable top-level callable returning
        either a workload object (``.system`` plus optional
        ``.topology``) or a bare ``System`` — the reference, not the
        result, is pickled, so process-mode workers re-run it locally
        and closures in its topology never cross a process boundary.
        """

        self._deploy(None, None, builder, kwargs)

    def _deploy(self, system, topology, builder=None, builder_kwargs=None):
        if self._deployed:
            raise SimulationError("already deployed")
        self._deployed = True
        self._system, self._topology = system, topology
        self._builder, self._builder_kwargs = builder, builder_kwargs or {}
        self._write_root_manifest()
        if self.shard_mode == "inline":
            if builder is not None:
                # inline shards share this process: run the builder here
                self._system, self._topology = _workload(
                    builder, self._builder_kwargs
                )
            self._build_inline()

    def _shard_store_dir(self, index: int) -> str:
        return os.path.join(self.durable_dir, f"shard-{index}")

    def _write_root_manifest(self) -> None:
        if self.durable_dir is None:
            return
        from repro.storage.segments import DurableStore

        store = DurableStore(self.durable_dir)
        # a fresh deploy owns the directory: overwrite whatever an
        # earlier run left so `repro recover` reads *this* run's shape
        store.write_manifest(
            {
                "sharded": True,
                "shards": self.n_shards,
                "shard_mode": self.shard_mode,
                "seed": self.seed,
                "lookahead": self.lookahead,
                "checkpoint_every": self.checkpoint_every,
            }
        )

    def _build_inline(self) -> None:
        sequence = SequenceSource()
        names = all_system_names(self._system)
        supply = NameSupply(names)
        for index in range(self.n_shards):
            durable_kwargs = {}
            if self.durable_dir is not None:
                durable_kwargs["durable"] = self._shard_store_dir(index)
                durable_kwargs["durable_wipe"] = True
            runtime = _shard_runtime(
                index,
                self,
                hub=self,
                topology=self._topology,
                sequence_source=sequence,
                **durable_kwargs,
            )
            # lockstep execution makes one shared supply safe and keeps
            # runtime-fresh names (restrictions) identical to shards=1
            runtime.middleware.supply = supply
            self._shards.append(runtime)
        nf = normalize(self._system, NameSupply(names))
        partitioner = self.partitioner
        place_components(
            nf,
            lambda p: self._shards[partitioner.shard_of(p)],
            lambda c: self._shards[partitioner.home_of(c)],
        )

    # -- execution ---------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> int:
        """Advance the whole mesh; returns events processed (all shards).

        Like ``DistributedRuntime.run``, the run keeps the heap alive at
        its start out of the collector's full passes
        (:func:`~repro.core.heap.settled_heap`).
        """

        if not self._deployed:
            raise SimulationError("deploy a system before running")
        with settled_heap():
            if self.shard_mode == "inline":
                processed = self._run_inline(until, max_events)
                # the inline conductor drives the simulators directly, so
                # the per-shard journals flush here, not in runtime.run()
                for shard in self._shards:
                    if shard.durability is not None:
                        shard.durability.flush()
            else:
                processed = self._run_process(until, max_events)
        self._events_processed += processed
        return processed

    def _run_inline(self, until: Optional[float], max_events: int) -> int:
        if self.n_shards == 1:
            return self._shards[0].simulator.run(
                until=until, max_events=max_events
            )
        simulators = [shard.simulator for shard in self._shards]
        processed = 0
        while processed < max_events:
            best = None
            best_key = None
            for simulator in simulators:
                key = simulator.next_event_key()
                if key is not None and (best_key is None or key < best_key):
                    best_key, best = key, simulator
            if best is None:
                break
            instant = best_key[0]
            if until is not None and instant > until:
                break
            for simulator in simulators:
                simulator.sync_clock(instant)
            best.run(max_events=1)
            processed += 1
        if until is not None:
            upcoming = [
                key[0]
                for key in (s.next_event_key() for s in simulators)
                if key is not None
            ]
            horizon = until
            if upcoming and min(upcoming) < horizon:
                horizon = min(upcoming)
            for simulator in simulators:
                simulator.sync_clock(horizon)
        return processed

    def _make_specs(self) -> list[_ShardSpec]:
        # ship the raw (picklable) system; normalization is a pure
        # function of it, so every worker derives the identical normal
        # form — including renamed-apart restriction binders
        return [
            _ShardSpec(
                index=index,
                n_shards=self.n_shards,
                seed=self.seed,
                window=self.window,
                lookahead=self.lookahead,
                partitioner=self.partitioner,
                runtime_kwargs=self.runtime_kwargs,
                system=self._system,
                builder=self._builder,
                builder_kwargs=self._builder_kwargs,
                durable_dir=(
                    self._shard_store_dir(index)
                    if self.durable_dir is not None
                    else None
                ),
                checkpoint_every=self.checkpoint_every,
            )
            for index in range(self.n_shards)
        ]

    def _run_process(self, until: Optional[float], max_events: int) -> int:
        if self._finished:
            raise SimulationError(
                "a process-mode mesh runs once; build a new ShardedRuntime"
            )
        self._finished = True
        import multiprocessing

        try:
            context = multiprocessing.get_context(START_METHOD)
        except ValueError:  # not offered here: the platform's default
            context = multiprocessing.get_context()
        connections = []
        workers = []
        specs = self._make_specs()
        try:
            for spec in specs:
                conn, worker = _spawn(context, spec)
                connections.append(conn)
                workers.append(worker)
            next_times = [
                self._expect(conn, "ready")[1] for conn in connections
            ]
            pending: dict[int, list[WireEnvelope]] = {
                index: [] for index in range(self.n_shards)
            }
            window = self.window
            processed = 0
            while processed < max_events:
                candidates = [t for t in next_times if t is not None]
                candidates.extend(
                    envelope.arrival_time
                    for batch in pending.values()
                    for envelope in batch
                )
                if not candidates:
                    break
                t_min = min(candidates)
                if until is not None and t_min > until:
                    break
                # skip idle windows: jump straight to the window
                # containing the earliest pending instant — safe
                # because every event in that window is >= t_min,
                # so every send it performs arrives > boundary + W
                boundary = window * (floor(t_min / window) + 1)
                if until is not None and boundary > until:
                    boundary = until
                budget = max_events - processed
                commands = []
                failed: list[int] = []
                for index, conn in enumerate(connections):
                    command = ("window", boundary, pending[index], budget)
                    commands.append(command)
                    try:
                        conn.send(command)
                    except OSError:
                        failed.append(index)
                pending = {index: [] for index in range(self.n_shards)}
                self._barrier_rounds += 1
                replies: dict[int, tuple] = {}
                for index, conn in enumerate(connections):
                    if index in failed:
                        continue
                    try:
                        replies[index] = self._expect(conn, "done")
                    except (EOFError, OSError):
                        # the worker died mid-window (e.g. an injected
                        # SIGKILL); its peers have already answered or
                        # will — they stall at this barrier round while
                        # the dead shard is recovered below
                        failed.append(index)
                for index in failed:
                    replies[index] = self._recover_shard(
                        index,
                        specs[index],
                        context,
                        connections,
                        workers,
                        commands[index],
                    )
                for index in range(self.n_shards):
                    _, events, next_time, outgoing = replies[index]
                    processed += events
                    next_times[index] = next_time
                    for envelope in outgoing:
                        pending[envelope.target].append(envelope)
            reports = []
            for conn in connections:
                conn.send(("finish",))
            for index, conn in enumerate(connections):
                report = self._expect(conn, "result")[1]
                report["delivered"] = _decode_delivered(
                    index, report["delivered"]
                )
                reports.append(report)
            self._worker_reports = reports
            for worker in workers:
                worker.join(timeout=30)
            return processed
        finally:
            for conn in connections:
                try:
                    conn.close()
                except Exception:
                    pass
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=5)

    def _recover_shard(
        self, index, spec, context, connections, workers, command
    ):
        """Respawn a dead shard from its durable journal; returns its
        ``done`` reply for the outstanding barrier round.

        The replacement worker replays its window WAL from ``t = 0``
        (deterministic re-execution — see :func:`_shard_worker`) and
        reports how many windows it replayed:

        * all issued windows → the last replayed reply *is* the one the
          dead worker never sent; use it directly.
        * one short → the window never reached the WAL (killed before
          journaling, or the tail was torn); re-issue the saved command.
        * anything else → the journal is inconsistent; degrade.

        Bounded retries with linear backoff; exhaustion (or a run with
        no ``durable_dir``) raises :class:`ShardLostError`.
        """

        if not spec.durable_dir:
            raise ShardLostError(
                f"shard {index} died at barrier round "
                f"{self._barrier_rounds} with no durable journal to "
                f"replay — pass durable_dir= to enable recovery"
            )
        issued = self._barrier_rounds
        last_error: Optional[BaseException] = None
        for attempt in range(RECOVERY_RETRIES + 1):
            if attempt:
                time_module.sleep(RETRY_BACKOFF * attempt)
            try:
                try:
                    connections[index].close()
                except Exception:
                    pass
                worker = workers[index]
                if worker.is_alive():
                    worker.terminate()
                worker.join(timeout=5)
                parent_conn, workers[index] = _spawn(
                    context, dataclasses.replace(spec, recover=True)
                )
                connections[index] = parent_conn
                _, replayed, last_reply = self._expect(
                    parent_conn, "recovered"
                )
                if replayed == issued and last_reply is not None:
                    return last_reply
                if replayed == issued - 1:
                    parent_conn.send(command)
                    return self._expect(parent_conn, "done")
                raise ShardLostError(
                    f"shard {index}: window WAL replayed {replayed} "
                    f"windows but {issued} were issued — journal "
                    f"inconsistent"
                )
            except ShardLostError:
                raise
            except (EOFError, OSError, SimulationError) as error:
                last_error = error
        raise ShardLostError(
            f"shard {index} could not be recovered after "
            f"{RECOVERY_RETRIES + 1} attempts: {last_error}"
        )

    @staticmethod
    def _expect(conn, kind: str):
        reply = conn.recv()
        if reply[0] == "error":
            raise SimulationError(f"shard worker failed:\n{reply[1]}")
        if reply[0] != kind:
            raise SimulationError(
                f"barrier protocol violation: expected {kind!r}, "
                f"got {reply[0]!r}"
            )
        return reply

    # -- results -----------------------------------------------------------

    def _reports(self, strict: bool = True) -> list[dict[str, Any]]:
        """One :func:`_shard_report` per shard: built from the live
        inline shards, or the process workers' ``finish`` replies.

        Before a process-mode run there are none: ``strict`` readers
        raise, the others read an empty mesh.
        """

        if self.shard_mode == "inline":
            return [_shard_report(shard) for shard in self._shards]
        if self._worker_reports is None and strict:
            raise SimulationError("run() the mesh before reading results")
        return self._worker_reports or []

    @property
    def now(self) -> float:
        return max(
            (report["now"] for report in self._reports(strict=False)),
            default=0.0,
        )

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def barrier_rounds(self) -> int:
        """Conservative windows executed (process mode; 0 inline)."""

        return self._barrier_rounds

    def delivered_trace(self) -> list[DeliveryRecord]:
        """The merged global trace, canonically ordered
        (:func:`merge_delivered`: time, channel name, per-channel
        ordinal) — independent of the partitioning, and the artifact
        the E21 differential compares bit for bit."""

        return merge_delivered(
            report["delivered"] for report in self._reports()
        )

    def shard_summaries(self) -> list[dict[str, Any]]:
        return [report["summary"] for report in self._reports()]

    def metrics_summary(self) -> dict[str, Any]:
        """All shards' summaries composed via :meth:`RuntimeMetrics.merge`."""

        return RuntimeMetrics.merge(*self.shard_summaries())

    def build_query_index(self, index=None):
        """A provenance query index over the merged global trace.

        Per-shard delivery streams are merged in canonical trace order
        (:meth:`delivered_trace` — time, channel name, per-channel
        ordinal) before indexing, so the index is identical for any
        partitioning and matches an unsharded run's — the cross-shard
        spines re-intern to the same DAG nodes the v2 wire decoded.
        One call absorbs the whole trace as one log generation; pass an
        existing index to extend it with a later run's trace.
        """

        from repro.query import ProvenanceIndex

        if index is None:
            index = ProvenanceIndex()
        index.extend_trace(self.delivered_trace())
        return index

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard load figures — imbalance without a profiler."""

        return [
            {"shard": index, **report["stats"]}
            for index, report in enumerate(self._reports())
        ]

    def blocked_threads(self) -> int:
        return sum(
            report["stats"]["blocked_threads"]
            for report in self._reports(strict=False)
        )

    def messages_in_flight(self) -> int:
        return sum(
            report["messages_in_flight"]
            for report in self._reports(strict=False)
        )

    def close(self) -> None:
        """Close every inline shard's journal (after the last
        :meth:`run`; a second call does nothing); process workers close
        theirs at ``finish``."""

        for shard in self._shards:
            shard.close()
