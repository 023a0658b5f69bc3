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
  message, stamping the input event before handing the values over;
* one ordered sink list (``Middleware.sinks``): the metrics, then the
  durable journal and query indexes a runtime appends.  Each delivery
  (one :class:`~repro.runtime.metrics.DeliveryRecord`, built once) goes
  to every sink in order, and so does every trust transition
  (:meth:`Middleware.note`) — the metrics are the only place that
  counts them, and the journal persists them for recovery;
* ``inject_raw`` — the unchecked path an adversary would use; with
  integrity enforcement on (the default) unsigned injections are dropped,
  modelling the digital-signature scheme the paper appeals to.

Pattern vetting is incremental: every sample pattern registered on a
channel's receive branches is fused into one
:class:`repro.patterns.dfa.PolicyBank`, whose reversed lazy DFAs cache
their reached state per interned spine node — so vetting a value that
gained one event since its last hop costs one memoized transition
instead of a whole-history NFA re-simulation
(``benchmarks/bench_patterns_incremental.py`` gates the work ratio
against a test-only NFA oracle).

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
full vetting resumes, and every decision goes down the sink list as a
note.  ``verify_deliveries=True`` additionally re-verifies each payload
at its rendezvous before it can match a receiver — the paranoid mode
the E22 bench uses to price verification.
Link-level faults (:class:`~repro.runtime.network.FaultPlan`) are
decided once per send, in :meth:`Middleware.send`, for local and
cross-shard sends alike: drops/duplicates/reorders manifest in
scheduling, and a local *corrupt* fault garbles the stamped spine —
which is exactly what the verifier then catches.
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
from repro.patterns.dfa import PolicyBank, PolicyEngine
from repro.runtime.metrics import DeliveryRecord, RuntimeMetrics
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import Codec, plain_size

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
    pass could free.  The middleware makes that reference once and
    shares it with every manager it creates.

    A run leaves most managers idle — nothing queued, no live waiter —
    and every one stays in ``Middleware._managers`` (it holds the last
    strong reference to its channel's :class:`PolicyBank` and so to the
    bank's warm run cache).  An idle manager is therefore kept lean: its
    state lives in slots; its registered patterns are one tuple, which
    the bank built from them shares; its waiter list is empty; and its
    message queue exists only while something is queued — the first
    :meth:`post` allocates it and the delivery that drains it drops it
    back to ``None``.  It stays a ``deque`` while it lives, so front
    removal on a fan-in channel is O(1).
    """

    __slots__ = (
        "channel",
        "_middleware",
        "_messages",
        "_waiters",
        "_consumed_count",
        "_scan_start",
        "_patterns",
        "_bank",
        "_bank_patterns",
    )

    def __init__(
        self,
        channel: Channel,
        middleware: "weakref.ReferenceType[Middleware]",
    ) -> None:
        self.channel = channel
        self._middleware = middleware
        self._messages: Optional[deque[_StoredMessage]] = None
        self._waiters: list[PendingReceive] = []
        self._consumed_count = 0
        self._scan_start = 0
        self._patterns: tuple[Pattern, ...] = ()
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
            self._bank_patterns = self._patterns
            self._bank = policy.bank(self._patterns)
        return self._bank

    @property
    def queued_messages(self) -> int:
        messages = self._messages
        return 0 if messages is None else len(messages)

    def post(self, payload: tuple[AnnotatedValue, ...], posted_at: float) -> None:
        middleware = self._middleware()
        if middleware.verify_deliveries and not middleware.payload_verifies(
            payload
        ):
            # paranoid mode: a history that fails verification never
            # reaches a receiver.  No quarantine — at the rendezvous the
            # presenter is unknown (link corruption looks the same as a
            # garbling sender), so the message is just discarded.
            middleware.note("tamper", "chain")
            return
        messages = self._messages
        if messages is None:
            messages = self._messages = deque()
        messages.append(_StoredMessage(payload, posted_at))
        self._match(middleware)

    def register(self, pending: PendingReceive) -> None:
        middleware = self._middleware()
        for branch in pending.branches:
            if branch.trivial:
                continue  # MatchAll registers nothing worth banking
            for pattern in branch.patterns:
                if pattern not in self._patterns:
                    self._patterns += (pattern,)
                    self._bank = None
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
        bank = self.policy_bank() if self._patterns else None
        erased = middleware.mode is SemanticsMode.ERASED
        messages = self._messages
        for message_index, stored in enumerate(messages):
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
                del messages[message_index]
                if not messages:
                    self._messages = None
                waiter.consumed = True
                values = middleware.stamp_input(
                    waiter.principal, waiter.channel_provenance, stored.payload
                )
                now = middleware.simulator.now
                latency = now - stored.posted_at
                record = DeliveryRecord(
                    now, waiter.principal, self.channel, values, branch_index
                )
                for sink in middleware.sinks:
                    sink.record_delivery(record, latency)
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
        certificate: Optional[object] = None,
        keyring: Optional[KeyRing] = None,
        crypto: bool = True,
        verify_deliveries: bool = False,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.mode = mode
        self.enforce_integrity = enforce_integrity
        self.certificate = certificate
        """A :class:`~repro.analysis.static_flow.StaticCertificate` (any
        object with ``branch_action``) authorizing check elision, or
        ``None``.  Revoked (set to ``None``) the moment an unanalyzed
        message enters the system, since its verdicts only cover the
        analyzed closed system."""
        self.crypto = crypto and mode is not SemanticsMode.ERASED
        """Attest stamped spine nodes (HMAC over Merkle digests).  Off
        for erased runs — there is no provenance to protect — and for
        the integrity-off arm of the E22 differential."""
        self.verify_deliveries = verify_deliveries and self.crypto
        """Re-verify every payload at its rendezvous (paranoid mode)."""
        self.keyring = keyring if keyring is not None else KeyRing()
        self.attestations = AttestationStore()
        """Tags of every node this middleware stamped or adopted, held
        as long as the node lives; a durable runtime's journal keeps
        the delivered ones (see
        :class:`~repro.core.integrity.AttestationStore`)."""
        self.verifier = SpineVerifier(self.keyring, self.attestations)
        self.sinks: list = [self.metrics]
        """The delivery pipeline, in order: metrics first, then the
        durable journal and query indexes their runtime appends.  Every
        sink takes ``record_delivery(record, latency)`` for each
        delivery — one :class:`~repro.runtime.metrics.DeliveryRecord`,
        built once and shared by every sink — and ``note(kind,
        detail)`` for each trust transition (:meth:`note`).  Sinks after
        the metrics are pure consumers: they touch no runtime state, so
        the delivered trace is bit-identical with or without them."""
        self.quarantined: set[Principal] = set()
        self.policy = PolicyEngine()
        self.supply = NameSupply()
        self.router = None
        """A shard router (``repro.runtime.shards.ShardRouter``) when
        this middleware is one shard of a :class:`ShardedRuntime`, else
        ``None``.  With a router installed, sends to channels homed on
        another shard leave through it (v2 wire, per-link codecs) and
        receives resolve their rendezvous manager through it; the
        ``None`` path is byte-for-byte the unsharded fast path."""
        self._managers: dict[Channel, ChannelManager] = {}
        self._weak_self = weakref.ref(self)
        """The one back-reference every manager of this middleware shares."""

    def manager(self, channel: Channel) -> ChannelManager:
        existing = self._managers.get(channel)
        if existing is None:
            existing = ChannelManager(channel, self._weak_self)
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
            self.note("quarantine", offender.name)
        if self.certificate is not None:
            self.certificate = None
            self.note("revoke", "certificate")

    def note(self, kind: str, detail: str) -> None:
        """Hand one trust transition to every sink, in order.

        The kinds: ``tamper`` (detail: the attack/fault kind),
        ``quarantine`` (a principal), ``poison`` (a retired cross-shard
        link) and ``revoke`` (the certificate).  The metrics turn them
        into counters; the journal persists them for recovery.
        """

        for sink in self.sinks:
            sink.note(kind, detail)

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
        scan.  Each component is decided by
        :meth:`PolicyEngine.admits`; ``bank`` — normally the channel's
        fused :class:`PolicyBank` — lets every sample-pattern decision
        ride the shared incremental state vector.
        """

        if self.mode is SemanticsMode.ERASED:
            return True
        metrics = self.metrics
        engine = self.policy
        transitions_before = engine.transitions_taken
        hits_before = engine.run_cache_hits
        admitted = True
        for pattern, value in zip(patterns, payload):
            metrics.pattern_checks += 1
            if not engine.admits(value.provenance, pattern, bank):
                metrics.record_rejection(pattern)
                admitted = False
                break
        metrics.vet_transitions += engine.transitions_taken - transitions_before
        metrics.vet_cache_hits += engine.run_cache_hits - hits_before
        return admitted

    def vetting_stats(self) -> dict[str, int]:
        """Work counters of the policy engine (for benches)."""

        return self.policy.stats()

    # -- node-facing API ---------------------------------------------------

    def send(
        self,
        principal: Principal,
        channel: AnnotatedValue,
        payload: tuple[AnnotatedValue, ...],
    ) -> None:
        """Asynchronous output: the one place a send is decided.

        Local and cross-shard sends take one path, in this order: stamp;
        one fault decision; a drop is counted and ends the send (no
        latency draw, nothing encoded); one keyed latency draw, plus
        ``reorder_delay`` when reordered; then the hand-off — to the
        channel's rendezvous, or to ``router.send_remote`` when another
        shard homes the channel.  Corrupt and duplicate are applied per
        transport: here a corrupt send garbles the spine and a duplicate
        posts twice at one arrival instant; the router flips a frame
        byte and ships a second envelope.

        Latency never depends on size, so serialization exists only to
        price the message for E13 — the sizer thunk runs when (and only
        when) someone reads a byte metric.  Honest accounting still:
        provenance bytes are whatever a fresh wire codec ships beyond
        the plain parts (shared subtrees are shipped once, so the
        metadata tax reflects the DAG size).
        """

        target = channel.value
        if not isinstance(target, Channel):
            raise TypeError(f"cannot send on non-channel {target!r}")
        metrics = self.metrics
        if principal in self.quarantined:
            metrics.quarantined_drops += 1
            return
        stamped = self.stamp_output(principal, channel.provenance, payload)
        network = self.network
        decision = network.fault_for(principal, target)
        if decision.drop:
            metrics.record_send()
            metrics.faults_dropped += 1
            return
        delay = network.delay(principal, target)
        if decision.extra_delay:
            metrics.faults_reordered += 1
            delay += decision.extra_delay
        if decision.corrupt:
            metrics.faults_corrupted += 1
        copies = 1
        if decision.duplicate:
            metrics.faults_duplicated += 1
            copies = 2
        router = self.router
        if router is not None and not router.is_local(target):
            router.send_remote(
                principal, target, stamped, delay, decision.corrupt, copies
            )
            return
        if metrics.detailed:

            def sizes() -> tuple[int, int]:
                body, _ = Codec().encode_payload(stamped)
                plain_bytes = plain_size(stamped)
                return plain_bytes, len(body) - plain_bytes

            metrics.record_send(sizes)
        else:
            metrics.record_send()
        posted = _garbled(stamped) if decision.corrupt else stamped
        destination = self.manager(target)
        posted_at = self.simulator.now
        for _ in range(copies):
            network.deliver(lambda: destination.post(posted, posted_at), delay)

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
                        self.note("tamper", "replay")
                    else:
                        self.note("tamper", "forge")
                    self._punish(presenter)
                return False
            if self.crypto and not self.payload_verifies(payload):
                self.note("tamper", "chain")
                self._punish(presenter)
                return False
        self.metrics.forgeries_accepted += 1
        # the injected message was never part of the analyzed system, so
        # any static certificate no longer covers what can arrive —
        # revoke before the post so this delivery is already fully vetted
        self.certificate = None
        self.manager(channel).post(payload, self.simulator.now)
        return True
