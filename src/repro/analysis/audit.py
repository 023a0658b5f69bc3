"""Auditing and blame: who touched this value? (§2.3.2, "Auditing").

The paper's auditing scenario: a value meant for ``b`` ends up at ``c``;
``c`` reads the provenance ``c?ε; s!ε; s?ε; a!ε`` off the faulty delivery
and learns that ``a``, ``s`` and ``c`` itself were the principals involved
in making the error.  This module turns that reading into tooling:

* :func:`involved_principals` — the investigation set;
* :func:`custody_chain` — the spine's events oldest-first, i.e. the
  chronological chain of custody;
* :func:`transfers` — the chain folded into (sender → receiver) hops;
* :func:`blame` — diff the actual route against a :class:`RoutePolicy`
  and point at the principals around the first deviation;
* :func:`matching_suffixes` / :func:`iter_matching_suffixes` /
  :func:`first_compliant_suffix` — pattern queries over a trace ("since
  when does this history satisfy π?"), riding the incremental lazy-DFA
  engine: every suffix of the spine *is* an interned node, so querying
  all of them costs one spine pass, and a provenance already vetted by
  the runtime answers from cache.

The eager sweep :func:`matching_suffixes` is the lazy
:func:`iter_matching_suffixes` collected into a list; the lazy variant
serves million-event spines — it materializes nothing and bounds
memory at the DFA engine's cache cap regardless of spine depth.  No
process-global cache keeps an audited spine alive; a caller that
repeats sweeps over the same spines can ask a
:class:`~repro.query.ProvenanceIndex`, whose per-``(node, pattern)``
memo makes a repeat a dict hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.names import Principal
from repro.core.patterns import Pattern
from repro.core.provenance import InputEvent, OutputEvent, Provenance
from repro.patterns.dfa import PolicyEngine, default_engine

__all__ = [
    "CustodyStep",
    "involved_principals",
    "custody_chain",
    "transfers",
    "RoutePolicy",
    "AuditReport",
    "blame",
    "iter_matching_suffixes",
    "matching_suffixes",
    "first_compliant_suffix",
]


@dataclass(frozen=True, slots=True)
class CustodyStep:
    """One event of the custody chain, oldest-first."""

    principal: Principal
    kind: str
    """``"sent"`` or ``"received"``."""

    def __str__(self) -> str:
        return f"{self.principal} {self.kind}"


def involved_principals(provenance: Provenance) -> frozenset[Principal]:
    """Every principal implicated by the provenance (nested included).

    The set is computed on the first request and memoized on the
    interned provenance node, so asking again is O(1) and an audit along
    a growing spine walks only the events added since its last answer.
    """

    return provenance.principals()


def custody_chain(provenance: Provenance) -> list[CustodyStep]:
    """Spine events in chronological (oldest-first) order.

    Only the spine: events inside channel provenances concern the channels
    used, not the value's own custody.  Walks the shared cons-list spine
    once, without materializing a tuple.
    """

    steps = []
    for event in provenance:
        if isinstance(event, OutputEvent):
            steps.append(CustodyStep(event.principal, "sent"))
        elif isinstance(event, InputEvent):
            steps.append(CustodyStep(event.principal, "received"))
    steps.reverse()
    return steps


def transfers(provenance: Provenance) -> list[tuple[Principal, Principal]]:
    """The custody chain folded into (sender, receiver) hops.

    A hop is an output event followed (chronologically) by an input event;
    a trailing unmatched send is a message still in flight and yields no
    hop.
    """

    hops = []
    chain = custody_chain(provenance)
    index = 0
    while index < len(chain) - 1:
        first, second = chain[index], chain[index + 1]
        if first.kind == "sent" and second.kind == "received":
            hops.append((first.principal, second.principal))
            index += 2
        else:
            index += 1
    return hops


def iter_matching_suffixes(
    provenance: Provenance,
    pattern: Pattern,
    engine: PolicyEngine | None = None,
):
    """Lazily yield the suffixes ``κᵢ`` with ``κᵢ ⊨ π``, longest first.

    Nothing is materialized: each yielded suffix is the interned spine
    node itself, the generator holds O(1) state, and the DFA engine's
    bounded state cache is the only memory that grows — so sweeping a
    million-event spine (or stopping after the first few hits) never
    builds a million-element list.  Regression-tested at depth ≥ 100k.
    """

    admits = (engine or default_engine()).admits
    return (
        suffix for suffix in provenance.suffixes() if admits(suffix, pattern)
    )


def matching_suffixes(
    provenance: Provenance,
    pattern: Pattern,
    engine: PolicyEngine | None = None,
) -> list[Provenance]:
    """All suffixes ``κᵢ`` of the spine with ``κᵢ ⊨ π``, longest first.

    The auditor's "since when" query: each suffix is the value's history
    as of some earlier moment, so the matching suffixes are exactly the
    moments at which the policy held.  Suffixes are the interned spine
    nodes themselves (zero allocation) and the whole sweep costs one
    incremental-DFA pass.  For a lazy, memory-bounded variant use
    :func:`iter_matching_suffixes`.
    """

    return list(iter_matching_suffixes(provenance, pattern, engine))


def first_compliant_suffix(
    provenance: Provenance,
    pattern: Pattern,
    engine: PolicyEngine | None = None,
) -> Optional[Provenance]:
    """The *longest* suffix satisfying ``π`` — ``None`` if none does.

    When the full history fails a policy the value was expected to meet,
    this locates the deviation: every event more recent than the
    returned suffix happened after compliance was lost (the paper's
    auditing reading: the heads between full history and compliant
    suffix are the suspects).
    """

    admits = (engine or default_engine()).admits
    for suffix in provenance.suffixes():
        if admits(suffix, pattern):
            return suffix
    return None


@dataclass(frozen=True, slots=True)
class RoutePolicy:
    """The intended route of a value: principals in custody order.

    For the paper's scenario the intended route of ``v`` is
    ``(a, s, b)`` — produced at ``a``, relayed by ``s``, consumed by ``b``.
    """

    route: tuple[Principal, ...]

    def expected_hops(self) -> list[tuple[Principal, Principal]]:
        return list(zip(self.route, self.route[1:]))


@dataclass(frozen=True, slots=True)
class AuditReport:
    """The result of diffing actual custody against the intended route."""

    actual_hops: tuple[tuple[Principal, Principal], ...]
    expected_hops: tuple[tuple[Principal, Principal], ...]
    deviation_index: Optional[int]
    suspects: frozenset[Principal]
    involved: frozenset[Principal]

    @property
    def deviated(self) -> bool:
        return self.deviation_index is not None

    def __str__(self) -> str:
        if not self.deviated:
            return "route followed as intended"
        names = ", ".join(sorted(p.name for p in self.suspects))
        return (
            f"deviation at hop {self.deviation_index}: suspects {{{names}}}"
        )


def blame(provenance: Provenance, policy: RoutePolicy) -> AuditReport:
    """Find the first hop where custody deviated from the intended route.

    The suspects of a deviating hop are its sender (who mis-routed) and
    its actual receiver (who holds data not meant for them); when the
    actual route is a strict *prefix* of the intended one, the last
    correct holder is suspected of sitting on the value.
    """

    actual = transfers(provenance)
    expected = policy.expected_hops()
    for index, (actual_hop, expected_hop) in enumerate(zip(actual, expected)):
        if actual_hop != expected_hop:
            return AuditReport(
                tuple(actual),
                tuple(expected),
                index,
                frozenset((actual_hop[0], actual_hop[1])),
                involved_principals(provenance),
            )
    if len(actual) < len(expected):
        stalled = expected[len(actual)][0]
        return AuditReport(
            tuple(actual),
            tuple(expected),
            len(actual),
            frozenset((stalled,)),
            involved_principals(provenance),
        )
    if len(actual) > len(expected):
        extra = actual[len(expected)]
        return AuditReport(
            tuple(actual),
            tuple(expected),
            len(expected),
            frozenset(extra),
            involved_principals(provenance),
        )
    return AuditReport(
        tuple(actual),
        tuple(expected),
        None,
        frozenset(),
        involved_principals(provenance),
    )
