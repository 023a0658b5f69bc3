"""Metrics collected by the simulated runtime.

The §5 discussion of the paper motivates measuring the run-time overhead
of dynamic provenance tracking; these counters are the measurement
surface for experiments E13 (metadata overhead), the runtime half of
E2's ablation, and the incremental-vetting A/B (E18).

Byte accounting is **lazy**: serializing a payload exists only to price
it (network latency never depends on size), so :meth:`record_send`
takes a *sizer* thunk and defers the encode until a byte metric is
read — or until ``PENDING_SIZER_BOUND`` sends have accumulated, at
which point the batch settles so the pending list (each thunk pins its
payload) stays bounded on arbitrarily long runs.  A run of up to the
bound that never looks at ``bytes_*`` never encodes;
``RuntimeMetrics(detailed=False)`` drops the thunks entirely (bytes
report 0) when byte metrics are not wanted at all.

Delivery counters are **streamed**: every aggregate :meth:`summary`
reports — maxima, sums, counts — is maintained incrementally at record
time.  The ``delivered`` records are the one retained series, the run's
delivered trace.  ``retain=N`` (opt-in; the default ``None`` keeps
everything) caps it at its last ``N`` records, so a week-long soak
holds O(N) memory while ``summary()`` stays byte-identical to an
unbounded run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, MutableSequence, NamedTuple, Optional

from repro.core.names import Channel, Principal
from repro.core.values import AnnotatedValue

__all__ = ["DeliveryRecord", "RuntimeMetrics"]

PayloadSizer = Callable[[], tuple[int, int]]
"""Deferred encode: returns ``(payload_bytes, provenance_bytes)``."""


class DeliveryRecord(NamedTuple):
    """One successful delivery, as observed by the middleware.

    The one shape of a delivery, built once at the rendezvous and
    handed to every sink: the metrics retain it, the query index
    absorbs it, the journal encodes it and decodes back to it.  Its
    fields are in trace order, so ``list(runtime.metrics.delivered)``
    *is* the delivered trace — what ``ShardedRuntime.delivered_trace()``
    merges, ``RecoveredState.delivered_trace()`` reads back from a
    journal, and ``ProvenanceIndex.deliveries()`` returns.
    """

    time: float
    principal: Principal
    channel: Channel
    values: tuple[AnnotatedValue, ...]
    branch_index: int


@dataclass(slots=True)
class RuntimeMetrics:
    """Counters and the delivered trace accumulated over a simulation run."""

    detailed: bool = True
    """False drops byte accounting entirely instead of deferring it."""

    retain: Optional[int] = None
    """Cap :attr:`delivered` at its last ``retain`` records.

    ``None`` (default) keeps every record.  Aggregates are streamed
    either way, so :meth:`summary` is unaffected by the cap."""

    messages_sent: int = 0
    deliveries: int = 0
    pattern_checks: int = 0
    """Payload *components* vetted (one ``κ ⊨ π`` decision each)."""

    pattern_rejections: int = 0
    """Components whose pattern refused them (vetting stops at the first)."""

    rejections_by_pattern: dict[str, int] = field(default_factory=dict)
    """Rejection counts keyed by the rejecting pattern's rendering."""

    vet_transitions: int = 0
    """Automaton work done by ``Middleware.vet``: the policy engine's
    ``transitions_taken`` (one unit ≙ one spine event consumed by one
    automaton)."""

    vet_cache_hits: int = 0
    """Vet queries answered entirely from a cached spine run."""

    vets_elided: int = 0
    """Payload components admitted *without* a ``κ ⊨ π`` decision because
    a :class:`~repro.analysis.static_flow.StaticCertificate` proved the
    site REDUNDANT."""

    branches_pruned: int = 0
    """Receive branches registered but never scanned because the
    certificate proved them DEAD."""

    forgeries_blocked: int = 0
    forgeries_accepted: int = 0

    replays_blocked: int = 0
    """Chain-valid histories presented through an unauthorized door —
    replays of genuine provenance — rejected at ingress."""

    tamper_detected: int = 0
    """Histories whose integrity chain failed verification (forged
    origin, truncation, splice, collusion implicating an honest
    principal, wire corruption)."""

    tamper_by_kind: dict[str, int] = field(default_factory=dict)
    """Detections keyed by attack/fault kind (``forge``, ``truncate``,
    ``splice``, ``collude``, ``replay``, ``garble``, ``wire``)."""

    attack_attempts: dict[str, int] = field(default_factory=dict)
    """Injection attempts keyed by adversary name — denominators for the
    detection rate E22 gates."""

    principals_quarantined: int = 0
    """Principals cut off after a detected tampering attempt."""

    quarantined_drops: int = 0
    """Sends/injections silently dropped because the sender (or link)
    was already quarantined."""

    certificates_revoked: int = 0
    """Static certificates invalidated by detected tampering (vetting
    resumes for the affected runtime)."""

    verify_calls: int = 0
    """Spine verifications performed at ingress/delivery."""

    verify_nodes_checked: int = 0
    """Attestation tags actually checked — grows O(new hops), not
    O(spine length), thanks to verdict caching."""

    verify_cache_hits: int = 0
    """Spine nodes answered from the verifier's verdict cache."""

    faults_dropped: int = 0
    faults_duplicated: int = 0
    faults_reordered: int = 0
    faults_corrupted: int = 0
    """Link-level fault injections actually applied (per fault kind)."""

    delivered: MutableSequence[DeliveryRecord] = field(default_factory=list)
    _bytes_total: int = 0
    _bytes_payload: int = 0
    _bytes_provenance: int = 0
    _pending_sizers: list[PayloadSizer] = field(default_factory=list)
    _max_provenance_spine: int = 0
    _sum_provenance_events: int = 0
    _count_provenance_events: int = 0

    def __post_init__(self) -> None:
        if self.retain is not None:
            if self.retain < 0:
                raise ValueError(f"retain must be non-negative: {self.retain}")
            self.delivered = deque(maxlen=self.retain)

    PENDING_SIZER_BOUND = 4096
    """Deferred sends are settled in batches past this bound, so the
    pending list (each thunk pins its stamped payload) stays O(1) on
    arbitrarily long runs while short runs that never read a byte
    metric still pay zero encodes."""

    def record_send(self, sizer: Optional[PayloadSizer] = None) -> None:
        """Count a send; defer its byte accounting to ``sizer``.

        The thunk runs at most once — on the first read of any byte
        metric after this send, or when the pending batch fills — and
        never if ``detailed`` is off.  Callers on a ``detailed=False``
        hot path may pass no sizer at all and skip even building the
        closure; every other per-send counter still updates here.
        """

        self.messages_sent += 1
        if self.detailed and sizer is not None:
            self._pending_sizers.append(sizer)
            if len(self._pending_sizers) >= self.PENDING_SIZER_BOUND:
                self._settle_bytes()

    def record_attack(self, adversary: str) -> None:
        """Count one injection attempt by the named adversary."""

        self.attack_attempts[adversary] = (
            self.attack_attempts.get(adversary, 0) + 1
        )

    def note(self, kind: str, detail: str) -> None:
        """Count one trust transition (see ``Middleware.note``) — the
        only writer of the trust counters.  A poisoned link (``poison``)
        counts as a quarantine."""

        if kind == "tamper":
            self.tamper_detected += 1
            by_kind = self.tamper_by_kind
            by_kind[detail] = by_kind.get(detail, 0) + 1
        elif kind == "quarantine" or kind == "poison":
            self.principals_quarantined += 1
        elif kind == "revoke":
            self.certificates_revoked += 1

    def record_verify(self, nodes_checked: int, cache_hits: int) -> None:
        """Fold one verification's cost deltas into the counters."""

        self.verify_calls += 1
        self.verify_nodes_checked += nodes_checked
        self.verify_cache_hits += cache_hits

    def record_rejection(self, pattern: Any) -> None:
        """Attribute a vetting rejection to the pattern that refused."""

        self.pattern_rejections += 1
        key = str(pattern)
        self.rejections_by_pattern[key] = (
            self.rejections_by_pattern.get(key, 0) + 1
        )

    def _settle_bytes(self) -> None:
        if not self._pending_sizers:
            return
        pending, self._pending_sizers = self._pending_sizers, []
        for sizer in pending:
            payload_bytes, provenance_bytes = sizer()
            self._bytes_total += payload_bytes + provenance_bytes
            self._bytes_payload += payload_bytes
            self._bytes_provenance += provenance_bytes

    @property
    def bytes_total(self) -> int:
        self._settle_bytes()
        return self._bytes_total

    @property
    def bytes_payload(self) -> int:
        self._settle_bytes()
        return self._bytes_payload

    @property
    def bytes_provenance(self) -> int:
        self._settle_bytes()
        return self._bytes_provenance

    @property
    def pending_byte_accounting(self) -> int:
        """Sends whose encode is still deferred — for tests and benches."""

        return len(self._pending_sizers)

    def record_delivery(self, record: DeliveryRecord, latency: float) -> None:
        """Count one delivery — the metrics sink's delivery call.

        The record is retained unless ``retain=0`` (throughput benches,
        soak runs), which updates the aggregates alone."""

        if self.retain != 0:
            self.delivered.append(record)
        self.record_delivery_streaming(record.values)

    def record_delivery_streaming(
        self, values: tuple[AnnotatedValue, ...]
    ) -> None:
        """The aggregate half of :meth:`record_delivery`: every counter
        :meth:`summary` reads, so a ``retain=0`` run reports
        identically to a retained one."""

        self.deliveries += 1
        for value in values:
            spine = len(value.provenance)
            if spine > self._max_provenance_spine:
                self._max_provenance_spine = spine
            self._sum_provenance_events += value.provenance.total_events()
            self._count_provenance_events += 1

    @property
    def provenance_overhead_ratio(self) -> float:
        """Provenance bytes as a fraction of all bytes shipped."""

        if not self.bytes_total:
            return 0.0
        return self.bytes_provenance / self.bytes_total

    def summary(self) -> dict[str, Any]:
        """A flat dict for reports and benchmark rows.

        Aggregates come from the streaming counters, so the summary of a
        capped (``retain=N``) run is identical to an unbounded one.
        ``provenance_values``/``provenance_events_total`` carry the raw
        integer aggregates behind ``mean_provenance_events`` so
        :meth:`merge` can recombine summaries exactly (integer sums,
        one final division) instead of approximating a mean of means.
        """

        return {
            "messages_sent": self.messages_sent,
            "deliveries": self.deliveries,
            "bytes_total": self.bytes_total,
            "bytes_payload": self.bytes_payload,
            "bytes_provenance": self.bytes_provenance,
            "provenance_overhead_ratio": round(self.provenance_overhead_ratio, 4),
            "pattern_checks": self.pattern_checks,
            "pattern_rejections": self.pattern_rejections,
            "rejections_by_pattern": dict(self.rejections_by_pattern),
            "vet_transitions": self.vet_transitions,
            "vet_cache_hits": self.vet_cache_hits,
            "vets_elided": self.vets_elided,
            "branches_pruned": self.branches_pruned,
            "forgeries_blocked": self.forgeries_blocked,
            "forgeries_accepted": self.forgeries_accepted,
            "replays_blocked": self.replays_blocked,
            "tamper_detected": self.tamper_detected,
            "tamper_by_kind": dict(self.tamper_by_kind),
            "attack_attempts": dict(self.attack_attempts),
            "principals_quarantined": self.principals_quarantined,
            "quarantined_drops": self.quarantined_drops,
            "certificates_revoked": self.certificates_revoked,
            "verify_calls": self.verify_calls,
            "verify_nodes_checked": self.verify_nodes_checked,
            "verify_cache_hits": self.verify_cache_hits,
            "faults_dropped": self.faults_dropped,
            "faults_duplicated": self.faults_duplicated,
            "faults_reordered": self.faults_reordered,
            "faults_corrupted": self.faults_corrupted,
            "max_provenance_spine": self._max_provenance_spine,
            "provenance_values": self._count_provenance_events,
            "provenance_events_total": self._sum_provenance_events,
            "mean_provenance_events": (
                self._sum_provenance_events / self._count_provenance_events
                if self._count_provenance_events
                else 0.0
            ),
        }

    _MERGE_MAX_KEYS = ("max_provenance_spine",)
    _DERIVED_KEYS = ("provenance_overhead_ratio", "mean_provenance_events")

    @classmethod
    def merge(cls, *summaries: dict[str, Any]) -> dict[str, Any]:
        """Combine :meth:`summary` dicts from several runtimes into one.

        Counters sum, maxima max, the rejection attributions merge
        per-pattern, and the derived fields (overhead ratio, mean
        events per value) are recomputed from the merged raw aggregates
        — so ``merge(s)`` of a single summary is that summary, and
        merging per-shard summaries of a sharded run reports exactly
        what one runtime doing all the work would have reported (modulo
        bytes, which honestly differ when cross-shard links resume
        their codec tables).  ``merge()`` of nothing is the summary of
        an idle runtime.
        """

        # an idle runtime's summary names every key, zeroed; dict-valued
        # keys (rejection, tamper and attack tables) merge per entry
        merged = cls().summary()
        for summary in summaries:
            # tolerate partial dicts (absent counter == idle counter) so
            # summaries from snapshots predating a counter still merge
            for key, total in merged.items():
                value = summary.get(key)
                if value is None or key in cls._DERIVED_KEYS:
                    continue
                if isinstance(total, dict):
                    for name, count in value.items():
                        total[name] = total.get(name, 0) + count
                elif key in cls._MERGE_MAX_KEYS:
                    merged[key] = max(total, value)
                else:
                    merged[key] = total + value
        merged["provenance_overhead_ratio"] = (
            round(merged["bytes_provenance"] / merged["bytes_total"], 4)
            if merged["bytes_total"]
            else 0.0
        )
        merged["mean_provenance_events"] = (
            merged["provenance_events_total"] / merged["provenance_values"]
            if merged["provenance_values"]
            else 0.0
        )
        return merged
