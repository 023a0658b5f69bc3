"""The trusted provenance-tracking middleware.

The paper's two-tier design (footnote 1) assigns provenance tracking to a
trusted layer beneath application code: applications just send and
receive; the middleware stamps output events at send time, vets patterns
and stamps input events at delivery time.  Principals get *read-only*
access to provenance and cannot forge it — the integrity property that
the application-level encoding of §1 (``b[n⟨a, v₂⟩]``) lacks.

Architecture:

* one :class:`ChannelManager` per channel name — the rendezvous point
  holding undelivered messages and waiting receivers (an implementation
  of the calculus' message terms ``n⟨⟨w⟩⟩``);
* :class:`Middleware` — the API nodes call: ``send`` stamps the output
  event and routes to the manager with network latency (byte accounting
  for experiment E13 is deferred to :class:`RuntimeMetrics` sizer
  thunks, so the encode is only paid when the metric is read);
  ``receive`` registers branch patterns and a continuation, and the
  manager fires the first branch whose patterns admit an available
  message, stamping the input event before handing the values over.

Pattern vetting is incremental by default (``vetting="bank"``): every
sample pattern registered on a channel's receive branches is fused into
one :class:`repro.patterns.dfa.PolicyBank`, whose reversed lazy DFAs
cache their reached state per interned spine node — so vetting a value
that gained one event since its last hop costs one memoized transition
instead of a whole-history NFA re-simulation.  ``vetting="nfa"`` keeps
the per-message subset simulation as the A/B reference
(``benchmarks/bench_patterns_incremental.py`` gates the differential
and the work ratio).
* ``inject_raw`` — the unchecked path an adversary would use; with
  integrity enforcement on (the default) unsigned injections are dropped,
  modelling the digital-signature scheme the paper appeals to.

Integrity (PR 8): the signature scheme is no longer a boolean.  The
middleware owns a :class:`~repro.core.integrity.KeyRing` and attests
every spine node it stamps (HMAC of the node's Merkle digest under the
head principal's key, recorded in a weak
:class:`~repro.core.integrity.AttestationStore`), so any history can be
re-verified later in O(new hops) via the cached
:class:`~repro.core.integrity.SpineVerifier`.  Ingress through
``inject_raw`` is classified — unauthenticated knock, replayed genuine
history, or forged/tampered chain — and detected tampering degrades
gracefully: the presenting principal is quarantined (its subsequent
sends/injections drop silently), any static certificate is revoked so
full vetting resumes, and every decision lands in
:class:`RuntimeMetrics`.  ``verify_deliveries=True`` additionally
re-verifies each payload at its rendezvous before it can match a
receiver — the paranoid mode the E22 bench uses to price verification.
Link-level faults (:class:`~repro.runtime.network.FaultPlan`) are
consulted on the send path: drops/duplicates/reorders manifest in
scheduling, and a *corrupt* fault garbles the stamped spine — which is
exactly what the verifier then catches.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.integrity import AttestationStore, KeyRing, SpineVerifier
from repro.core.names import Channel, NameSupply, Principal
from repro.core.patterns import MatchAll, Pattern
from repro.core.provenance import InputEvent, OutputEvent, Provenance
from repro.core.semantics import SemanticsMode
from repro.core.values import AnnotatedValue
from repro.patterns.ast import SamplePattern
from repro.patterns.dfa import PolicyBank, PolicyEngine
from repro.patterns.nfa import NFAMatcher
from repro.runtime.metrics import DeliveryRecord, RuntimeMetrics
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import (
    WIRE_V1,
    WIRE_V2,
    encode_plain,
    encode_payload,
    encode_payload_v2,
    encode_varint,
)

__all__ = ["ReceiveBranch", "PendingReceive", "ChannelManager", "Middleware"]


def _garbled(
    payload: tuple[AnnotatedValue, ...],
) -> tuple[AnnotatedValue, ...]:
    """A *corrupt* link fault's effect on an in-memory payload.

    Flips each component's most recent event between ``!`` and ``?`` —
    the smallest history mutation a bit flip could cause.  The garbled
    node is a fresh cons the middleware never attested, so paranoid
    delivery verification detects it; without verification it flows
    through silently, exactly like real corruption past a checksumless
    transport.  ε-provenance components (erased mode) pass unchanged.
    """

    garbled = []
    for value in payload:
        provenance = value.provenance
        if provenance.is_empty:
            garbled.append(value)
            continue
        head = provenance.head
        flipped = InputEvent if isinstance(head, OutputEvent) else OutputEvent
        event = flipped(head.principal, head.channel_provenance)
        garbled.append(value.with_provenance(provenance.tail.cons(event)))
    return tuple(garbled)


@dataclass(frozen=True, slots=True)
class ReceiveBranch:
    """One summand of a pattern-restricted input, runtime form."""

    patterns: tuple[Pattern, ...]
    callback: Callable[[int, tuple[AnnotatedValue, ...]], None] = field(hash=False)
    trivial: bool = field(init=False, default=False, compare=False)
    """True when every pattern is ``MatchAll`` — the plain-pi common
    case, decided once at registration so the delivery loop can admit
    without a vetting call (the counters it would have bumped by zero
    stay untouched; ``pattern_checks`` is bumped directly)."""

    def __post_init__(self) -> None:
        trivial = True
        for pattern in self.patterns:
            if type(pattern) is not MatchAll:
                trivial = False
                break
        object.__setattr__(self, "trivial", trivial)

    @property
    def arity(self) -> int:
        return len(self.patterns)


@dataclass(slots=True)
class PendingReceive:
    """A registered receiver: principal, channel view, branches."""

    principal: Principal
    channel_provenance: Provenance
    branches: tuple[ReceiveBranch, ...]
    posted_at: float
    consumed: bool = False
    actions: Optional[tuple[str, ...]] = None
    """Per-branch certificate actions (``"elide"``/``"prune"``/``"vet"``),
    or ``None`` when no certificate applies to this receiver.  Honored
    only while the middleware still holds its certificate, so revocation
    is immediate even for waiters registered before it."""


@dataclass(slots=True)
class _StoredMessage:
    payload: tuple[AnnotatedValue, ...]
    posted_at: float


class ChannelManager:
    """Rendezvous state for a single channel.

    The manager reaches its middleware through a weak reference: the
    middleware owns its managers, and a strong back-pointer would make
    every discarded runtime cyclic garbage that only a full collector
    pass could free.
    """

    def __init__(self, channel: Channel, middleware: "Middleware") -> None:
        self.channel = channel
        self._middleware = weakref.ref(middleware)
        self._messages: deque[_StoredMessage] = deque()
        self._waiters: list[PendingReceive] = []
        self._consumed_count = 0
        self._scan_start = 0
        self._patterns: dict[Pattern, None] = {}
        self._has_sample = False
        self._bank: Optional[PolicyBank] = None
        self._bank_patterns: tuple[Pattern, ...] = ()

    def policy_bank(self) -> PolicyBank:
        """The fused bank over every pattern ever registered here.

        Rebuilt only when a registration introduces a pattern the
        channel has not seen — the common case of a stable protocol
        rebuilds once.  A rebuild starts the wider state vector's run
        cache cold (its first vet replays the spine through *memoized*
        transitions — the compiled DFAs and their transition tables are
        shared by the engine, so the replay is table lookups, not subset
        construction), and the superseded bank is discarded so it stops
        pinning spine nodes.
        """

        if self._bank is None:
            policy = self._middleware().policy
            if self._bank_patterns:
                policy.discard_bank(self._bank_patterns)
            self._bank_patterns = tuple(self._patterns)
            self._bank = policy.bank(self._bank_patterns)
        return self._bank

    @property
    def queued_messages(self) -> int:
        return len(self._messages)

    @property
    def waiting_receivers(self) -> int:
        return sum(1 for waiter in self._waiters if not waiter.consumed)

    def post(self, payload: tuple[AnnotatedValue, ...], posted_at: float) -> None:
        middleware = self._middleware()
        if middleware.verify_deliveries and not middleware.payload_verifies(
            payload
        ):
            # paranoid mode: a history that fails verification never
            # reaches a receiver.  No quarantine — at the rendezvous the
            # presenter is unknown (link corruption looks the same as a
            # garbling sender), so the message is just discarded.
            middleware.record_tamper("chain")
            return
        self._messages.append(_StoredMessage(payload, posted_at))
        self._match(middleware)

    def register(self, pending: PendingReceive) -> None:
        middleware = self._middleware()
        for branch in pending.branches:
            if branch.trivial:
                continue  # MatchAll registers nothing worth banking
            for pattern in branch.patterns:
                if pattern not in self._patterns:
                    self._patterns[pattern] = None
                    self._bank = None
                    if middleware.is_sample_pattern(pattern):
                        self._has_sample = True
        self._waiters.append(pending)
        self._match(middleware)

    def _match(self, middleware: "Middleware") -> None:
        """Deliver every (message, waiter, branch) triple that fits.

        A single pass in registration order suffices: delivery callbacks
        never re-enter the manager (nodes *schedule* continuations on the
        simulator rather than running them inline), and consuming a
        message can only disable, never enable, an earlier waiter — so
        nothing a later delivery does can unblock a waiter the pass
        already skipped.  The old implementation restarted the scan from
        the first waiter after every delivery, O(waiters²) on fan-in
        channels; this one is O(waiters) per post, with the consumed
        prefix skipped and the waiter list compacted lazily.
        """

        if not self._messages:
            return  # a registration with nothing queued cannot fire
        waiters = self._waiters
        start = self._scan_start
        while start < len(waiters) and waiters[start].consumed:
            start += 1
        self._scan_start = start
        for index in range(start, len(waiters)):
            if not self._messages:
                break
            waiter = waiters[index]
            if waiter.consumed:
                continue
            if self._try_deliver(waiter, middleware):
                self._consumed_count += 1
        if self._consumed_count * 2 > len(waiters):
            self._waiters = [w for w in waiters if not w.consumed]
            self._consumed_count = 0
            self._scan_start = 0

    def _try_deliver(
        self, waiter: PendingReceive, middleware: "Middleware"
    ) -> bool:
        actions = (
            waiter.actions if middleware.certificate is not None else None
        )
        bank = (
            self.policy_bank()
            if middleware.vetting == "bank" and self._has_sample
            else None
        )
        erased = middleware.mode is SemanticsMode.ERASED
        for message_index, stored in enumerate(self._messages):
            for branch_index, branch in enumerate(waiter.branches):
                action = (
                    actions[branch_index] if actions is not None else "vet"
                )
                if action == "prune":
                    continue  # certified DEAD: can never admit anything
                if branch.arity != len(stored.payload):
                    continue
                if branch.trivial:
                    # every pattern is MatchAll: admitted by definition,
                    # and the automaton counters it would leave at zero
                    # are left at zero — only the checks are counted
                    if not erased:
                        middleware.metrics.pattern_checks += branch.arity
                elif action == "elide":
                    # certified REDUNDANT on a fully-redundant channel:
                    # the vet could only ever say yes, so skip it
                    if not erased:
                        middleware.metrics.vets_elided += branch.arity
                elif not middleware.vet(branch.patterns, stored.payload, bank):
                    continue
                del self._messages[message_index]
                waiter.consumed = True
                values = middleware.stamp_input(
                    waiter.principal, waiter.channel_provenance, stored.payload
                )
                metrics = middleware.metrics
                now = middleware.simulator.now
                if metrics.keep_delivered:
                    record = DeliveryRecord(
                        now, waiter.principal, self.channel, values, branch_index
                    )
                    metrics.record_delivery(record, now - stored.posted_at)
                else:
                    metrics.record_delivery_streaming(
                        values, now - stored.posted_at
                    )
                journal = middleware.journal
                if journal is not None:
                    journal.record_delivery(
                        now,
                        waiter.principal,
                        self.channel,
                        values,
                        branch_index,
                        now - stored.posted_at,
                    )
                observers = middleware.delivery_observers
                if observers:
                    # pure consumers (query indexing): they see exactly
                    # what the journal sees and touch no runtime state,
                    # so the delivered trace is bit-identical with or
                    # without them (gated by E24)
                    for observe in observers:
                        observe(
                            now,
                            waiter.principal,
                            self.channel,
                            values,
                            branch_index,
                        )
                branch.callback(branch_index, values)
                return True
        return False


class Middleware:
    """The trusted layer every node talks to."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        metrics: Optional[RuntimeMetrics] = None,
        mode: SemanticsMode = SemanticsMode.TRACKED,
        enforce_integrity: bool = True,
        wire_version: int = WIRE_V2,
        vetting: str = "bank",
        certificate: Optional[object] = None,
        keyring: Optional[KeyRing] = None,
        crypto: bool = True,
        verify_deliveries: bool = False,
        attestations: Optional[AttestationStore] = None,
    ) -> None:
        if wire_version not in (WIRE_V1, WIRE_V2):
            raise ValueError(f"unknown wire version {wire_version}")
        if vetting not in ("bank", "nfa"):
            raise ValueError(f"unknown vetting mode {vetting!r}")
        self.simulator = simulator
        self.network = network
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.mode = mode
        self.enforce_integrity = enforce_integrity
        self.wire_version = wire_version
        self.vetting = vetting
        self.certificate = certificate
        self.crypto = crypto and mode is not SemanticsMode.ERASED
        """Attest stamped spine nodes (HMAC over Merkle digests).  Off
        for erased runs — there is no provenance to protect — and for
        the integrity-off arm of the E22 differential."""
        self.verify_deliveries = verify_deliveries and self.crypto
        """Re-verify every payload at its rendezvous (paranoid mode)."""
        self.keyring = keyring if keyring is not None else KeyRing()
        self.attestations = (
            attestations if attestations is not None else AttestationStore()
        )
        """Tag store — callers may pass a spill-backed store (see
        :class:`~repro.core.integrity.AttestationStore`) to bound its
        in-RAM footprint on durable runs."""
        self.verifier = SpineVerifier(self.keyring, self.attestations)
        self.journal = None
        """A :class:`~repro.storage.journal.DurabilitySink` (or ``None``):
        when set, every delivery and every trust transition (quarantine,
        revocation, tamper detection) is streamed into the durable
        write-ahead journal."""
        self.delivery_observers: list = []
        """Callbacks ``(time, principal, channel, values, branch_index)``
        invoked on every delivery, after metrics and journal recording —
        the hook a :class:`~repro.query.ProvenanceIndex` streams from
        (see ``DistributedRuntime.attach_query_index``).  Observers must
        not mutate runtime state."""
        self.quarantined: set[Principal] = set()
        """A :class:`~repro.analysis.static_flow.StaticCertificate` (any
        object with ``branch_action``) authorizing check elision, or
        ``None``.  Revoked (set to ``None``) the moment an unanalyzed
        message enters the system, since its verdicts only cover the
        analyzed closed system."""
        self.policy = PolicyEngine()
        self.nfa_matcher = NFAMatcher()
        self.supply = NameSupply()
        self.router = None
        """A shard router (``repro.runtime.shards.ShardRouter``) when
        this middleware is one shard of a :class:`ShardedRuntime`, else
        ``None``.  With a router installed, sends to channels homed on
        another shard leave through it (v2 wire, per-link codecs) and
        receives resolve their rendezvous manager through it; the
        ``None`` path is byte-for-byte the unsharded fast path."""
        self._managers: dict[Channel, ChannelManager] = {}
        self._sample_types: dict[type, bool] = {}

    def is_sample_pattern(self, pattern: Pattern) -> bool:
        """``isinstance(pattern, SamplePattern)`` with a per-class cache.

        Pattern classes go through ``ABCMeta.__instancecheck__``, which
        is measurable at one call per vetted component; the class of a
        pattern decides the answer, so it is cached by class.
        """

        cls = pattern.__class__
        flag = self._sample_types.get(cls)
        if flag is None:
            flag = isinstance(pattern, SamplePattern)
            self._sample_types[cls] = flag
        return flag

    def manager(self, channel: Channel) -> ChannelManager:
        existing = self._managers.get(channel)
        if existing is None:
            existing = ChannelManager(channel, self)
            self._managers[channel] = existing
        return existing

    # -- provenance operations (the trusted tier) -------------------------

    def stamp_output(
        self,
        principal: Principal,
        channel_provenance: Provenance,
        payload: tuple[AnnotatedValue, ...],
    ) -> tuple[AnnotatedValue, ...]:
        """R-Send's provenance update: prepend ``a!κm`` to every component."""

        if self.mode is SemanticsMode.ERASED:
            return payload
        event = OutputEvent(principal, channel_provenance)
        if len(payload) == 1:
            stamped = (payload[0].record(event),)
        else:
            stamped = tuple(value.record(event) for value in payload)
        if self.crypto:
            attest = self.verifier.attest_chain
            for value in stamped:
                attest(value.provenance)
        return stamped

    def stamp_input(
        self,
        principal: Principal,
        channel_provenance: Provenance,
        payload: tuple[AnnotatedValue, ...],
    ) -> tuple[AnnotatedValue, ...]:
        """R-Recv's provenance update: prepend ``a?κm``."""

        if self.mode is SemanticsMode.ERASED:
            return payload
        event = InputEvent(principal, channel_provenance)
        if len(payload) == 1:
            stamped = (payload[0].record(event),)
        else:
            stamped = tuple(value.record(event) for value in payload)
        if self.crypto:
            attest = self.verifier.attest_chain
            for value in stamped:
                attest(value.provenance)
        return stamped

    # -- integrity (the cryptographic tier) --------------------------------

    def adopt(self, payload: tuple[AnnotatedValue, ...]) -> None:
        """Attest histories the middleware itself constructed.

        Deploy-time message literals (and any provenance the system text
        annotates onto values) never pass through a stamp, yet they are
        the trusted layer's own doing — adopting them records tags down
        their chains so later verification treats them as genuine.
        """

        if not self.crypto:
            return
        attest = self.verifier.attest_chain
        for value in payload:
            attest(value.provenance)

    def payload_verifies(self, payload: tuple[AnnotatedValue, ...]) -> bool:
        """Verify every component's history; fold cost into metrics."""

        verifier = self.verifier
        checked = verifier.nodes_checked
        hits = verifier.cache_hits
        ok = True
        for value in payload:
            if not verifier.verify(value.provenance):
                ok = False
                break
        self.metrics.record_verify(
            verifier.nodes_checked - checked, verifier.cache_hits - hits
        )
        return ok

    def ingress_auth_data(
        self, channel: Channel, payload: tuple[AnnotatedValue, ...]
    ) -> bytes:
        """Canonical bytes a principal signs to authorize an injection."""

        parts = [channel.name.encode("utf-8")]
        for value in payload:
            parts.append(value.provenance.digest)
        return b"|".join(parts)

    def _punish(self, offender: Optional[Principal]) -> None:
        """Graceful degradation after detected tampering.

        Quarantines the *presenting* principal (never the principal a
        forged history claims for itself) and revokes any static
        certificate — its verdicts assumed only analyzed traffic, so
        full vetting resumes for everything still in flight.
        """

        if offender is not None and offender not in self.quarantined:
            self.quarantined.add(offender)
            self.metrics.principals_quarantined += 1
            if self.journal is not None:
                self.journal.note("quarantine", offender.name)
        if self.certificate is not None:
            self.certificate = None
            self.metrics.certificates_revoked += 1
            if self.journal is not None:
                self.journal.note("revoke", "certificate")

    def record_tamper(self, kind: str) -> None:
        """Count a tamper detection and journal it when durable."""

        self.metrics.record_tamper(kind)
        if self.journal is not None:
            self.journal.note("tamper", kind)

    def vet(
        self,
        patterns: tuple[Pattern, ...],
        payload: tuple[AnnotatedValue, ...],
        bank: Optional[PolicyBank] = None,
    ) -> bool:
        """Pattern vetting ``κv ⊨ π`` per component (skipped when erased).

        Components are vetted left to right, each counted in
        ``metrics.pattern_checks``; the first refusal is attributed to
        its pattern (``metrics.rejections_by_pattern``) and stops the
        scan.  ``bank`` — normally the channel's fused
        :class:`PolicyBank` — lets every sample-pattern decision ride
        the shared incremental state vector; without one, sample
        patterns still go through the middleware's own engine.
        """

        if self.mode is SemanticsMode.ERASED:
            return True
        metrics = self.metrics
        engine = self.policy
        nfa = self.nfa_matcher
        transitions_before = engine.transitions_taken + nfa.events_stepped
        hits_before = engine.run_cache_hits + nfa.decided_hits
        admitted = True
        for pattern, value in zip(patterns, payload):
            metrics.pattern_checks += 1
            if not self._admits(pattern, value.provenance, bank):
                metrics.record_rejection(pattern)
                admitted = False
                break
        metrics.vet_transitions += (
            engine.transitions_taken + nfa.events_stepped - transitions_before
        )
        metrics.vet_cache_hits += (
            engine.run_cache_hits + nfa.decided_hits - hits_before
        )
        return admitted

    def _admits(
        self,
        pattern: Pattern,
        provenance: Provenance,
        bank: Optional[PolicyBank],
    ) -> bool:
        if self.is_sample_pattern(pattern):
            if self.vetting == "nfa":
                return self.nfa_matcher.matches(provenance, pattern)
            if bank is not None:
                return bank.admits(provenance, pattern)
            return self.policy.matches(provenance, pattern)
        return pattern.matches(provenance)

    def vetting_stats(self) -> dict[str, int]:
        """Work counters of the active vetting path (for benches)."""

        stats = self.policy.stats()
        stats["nfa_events_stepped"] = self.nfa_matcher.events_stepped
        return stats

    # -- node-facing API ---------------------------------------------------

    def send(
        self,
        principal: Principal,
        channel: AnnotatedValue,
        payload: tuple[AnnotatedValue, ...],
    ) -> None:
        """Asynchronous output: stamp, ship; byte accounting deferred.

        Latency never depends on size, so serialization exists only to
        price the message for E13 — the sizer thunk runs when (and only
        when) someone reads a byte metric.  Honest accounting still:
        provenance bytes are whatever the chosen codec ships beyond the
        plain parts (under v2 shared subtrees are shipped once, so the
        metadata tax reflects the DAG size).
        """

        if not isinstance(channel.value, Channel):
            raise TypeError(f"cannot send on non-channel {channel.value!r}")
        if principal in self.quarantined:
            self.metrics.quarantined_drops += 1
            return
        stamped = self.stamp_output(principal, channel.provenance, payload)
        router = self.router
        if router is not None and not router.is_local(channel.value):
            router.send_remote(principal, channel.value, stamped)
            return
        metrics = self.metrics
        if metrics.detailed:
            encode = (
                encode_payload
                if self.wire_version == WIRE_V1
                else encode_payload_v2
            )

            def sizes() -> tuple[int, int]:
                total_bytes = len(encode(stamped))
                plain_bytes = len(encode_varint(len(stamped))) + sum(
                    len(encode_plain(value.value)) for value in stamped
                )
                return plain_bytes, total_bytes - plain_bytes

            metrics.record_send(sizes)
        else:
            metrics.record_send()
        decision = self.network.fault_for(principal, channel.value)
        if decision.drop:
            metrics.faults_dropped += 1
            return
        if decision.corrupt:
            metrics.faults_corrupted += 1
            stamped = _garbled(stamped)
        if decision.extra_delay:
            metrics.faults_reordered += 1
        destination = self.manager(channel.value)
        posted_at = self.simulator.now
        self.network.deliver(
            lambda: destination.post(stamped, posted_at),
            sender=principal,
            channel=channel.value,
            extra_delay=decision.extra_delay,
        )
        if decision.duplicate:
            metrics.faults_duplicated += 1
            self.network.deliver(
                lambda: destination.post(stamped, posted_at),
                sender=principal,
                channel=channel.value,
            )

    def receive(
        self,
        principal: Principal,
        channel: AnnotatedValue,
        branches: tuple[ReceiveBranch, ...],
    ) -> PendingReceive:
        """Pattern-restricted input: register and wait."""

        if not isinstance(channel.value, Channel):
            raise TypeError(f"cannot receive on non-channel {channel.value!r}")
        actions = None
        if self.certificate is not None:
            actions = self._branch_actions(principal, channel.value, branches)
        pending = PendingReceive(
            principal,
            channel.provenance,
            branches,
            self.simulator.now,
            actions=actions,
        )
        router = self.router
        if router is not None and not router.is_local(channel.value):
            # inline mode resolves the home shard's manager (same
            # process); process mode raises — a callback cannot cross
            # an OS process boundary, so receivers must be co-located
            # with their channel's home shard
            router.remote_manager(channel.value).register(pending)
        else:
            self.manager(channel.value).register(pending)
        return pending

    def _branch_actions(
        self,
        principal: Principal,
        channel: Channel,
        branches: tuple[ReceiveBranch, ...],
    ) -> Optional[tuple[str, ...]]:
        """Certificate actions for a receiver, ``None`` when all-vet.

        Site identity mirrors the analysis'
        :class:`~repro.analysis.static_flow.SiteKey` rendering; sites the
        analysis never saw (restricted channels run under fresh names)
        miss the lookup and fall back to vetting.
        """

        certificate = self.certificate
        actions = []
        interesting = False
        for index, branch in enumerate(branches):
            patterns = ", ".join(str(p) for p in branch.patterns)
            action = certificate.branch_action(
                principal.name, channel.name, index, patterns
            )
            if action != "vet":
                interesting = True
                if action == "prune":
                    self.metrics.branches_pruned += 1
            actions.append(action)
        return tuple(actions) if interesting else None

    def inject_raw(
        self,
        channel: Channel,
        payload: tuple[AnnotatedValue, ...],
        signed: bool = False,
        sender: Optional[Principal] = None,
        auth: Optional[tuple[Principal, bytes]] = None,
    ) -> bool:
        """The adversary's door: post a message without the send path.

        With integrity enforcement (default) an injection lands only
        through an authorized door — ``signed=True`` (the operator's
        debugging bypass) or a valid ``auth`` pair ``(principal, tag)``
        where ``tag`` HMACs :meth:`ingress_auth_data` under that
        principal's key.  Everything else is blocked and *classified*:

        * all-ε provenance → an unauthenticated knock (counted in
          ``forgeries_blocked`` only — not tampering, so any static
          certificate survives);
        * chain-valid history → a **replay** of genuine provenance
          through the wrong door (``replays_blocked``);
        * chain-invalid history → a **forgery** (``tamper_detected``).

        Replays and forgeries are detected tampering: the presenting
        ``sender`` is quarantined and the certificate revoked.  An
        authorized door is still chain-verified — a colluder or garbling
        principal signing its injection gets caught there and punished.
        Disabling enforcement models the convention-based encoding of the
        paper's introduction, where nothing stops ``b`` from claiming
        ``a`` sent the value.
        """

        metrics = self.metrics
        if sender is not None and sender in self.quarantined:
            metrics.quarantined_drops += 1
            return False
        if self.enforce_integrity:
            authorized = signed
            presenter = sender
            if not authorized and auth is not None:
                claimed, tag = auth
                presenter = claimed if sender is None else sender
                if claimed in self.quarantined:
                    metrics.quarantined_drops += 1
                    return False
                authorized = self.keyring.verify_payload(
                    claimed, self.ingress_auth_data(channel, payload), tag
                )
            if not authorized:
                metrics.forgeries_blocked += 1
                if self.crypto and any(
                    not value.provenance.is_empty for value in payload
                ):
                    if self.payload_verifies(payload):
                        metrics.replays_blocked += 1
                        self.record_tamper("replay")
                    else:
                        self.record_tamper("forge")
                    self._punish(presenter)
                return False
            if self.crypto and not self.payload_verifies(payload):
                self.record_tamper("chain")
                self._punish(presenter)
                return False
        self.metrics.forgeries_accepted += 1
        # the injected message was never part of the analyzed system, so
        # any static certificate no longer covers what can arrive —
        # revoke before the post so this delivery is already fully vetted
        self.certificate = None
        self.manager(channel).post(payload, self.simulator.now)
        return True
