"""The generation-indexed provenance analytics index.

Capture (PRs 1–9) made provenance cheap to *carry*; this module makes it
cheap to *consult*.  A :class:`ProvenanceIndex` absorbs the delivered
trace — live, through the middleware's delivery-observer hook, or after
the fact from a merged shard trace or a durable store — and derives two
graphs over it:

* **happens-before**: delivery *i* → *j* when *j* is the next delivery
  to the same receiving principal (program order), the next delivery on
  the same channel (channel order), or a delivery whose value's spine
  extends a spine delivered at *i* (derivation);
* **dataflow**: the derivation edges alone — the paper's ``κ_j = …; κ_i``
  relation cashed out as an ordinal graph.

Indexing is **once per log generation, not per query**: each
:meth:`~ProvenanceIndex.commit` absorbs the pending batch and bumps the
generation; queries between commits are pure lookups.  The absorb cost
is O(new events), not O(history): hash-consing means a delivered spine
shares its entire tail with previously indexed deliveries, so the
per-node walk (:meth:`~ProvenanceIndex._node_info_of`) stops at the
first already-indexed node and computes sender/receiver sets and the
derivation anchor only for genuinely new nodes.  The
:attr:`~ProvenanceIndex.events_indexed` counter exposes that work
explicitly — ``benchmarks/bench_query_layer.py`` (E24) gates it flat
per batch as history grows.

Query results memoize at two lifetimes:

* per-spine-node sweeps (:meth:`matching_suffixes`,
  :meth:`minimal_witness`) are cached **forever** — a node's suffix
  history is immutable, so the answer can never change;
* trace-global answers (:meth:`derived_from_sends`, :meth:`taint`,
  :meth:`cone_of_influence`) are cached until the next commit extends
  the delivery set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.heap import settled_heap
from repro.core.names import Channel, Principal
from repro.core.patterns import Pattern
from repro.core.provenance import EMPTY, Event, OutputEvent, Provenance
from repro.patterns.ast import SamplePattern
from repro.patterns.dfa import PolicyEngine

__all__ = [
    "HBEdge",
    "IndexedDelivery",
    "ProvenanceIndex",
    "default_index",
    "suffix_decider",
]

PROGRAM = "program"
CHANNEL = "channel"
DERIVES = "derives"

EDGE_KINDS = (PROGRAM, CHANNEL, DERIVES)

_EMPTY_SET: frozenset = frozenset()


def suffix_decider(pattern: Pattern, engine: PolicyEngine):
    """One ``suffix ↦ bool`` decision procedure for a whole sweep.

    Sample patterns ride the incremental lazy-DFA engine — deciding the
    longest suffix caches the automaton state at every spine node, so
    the rest of the sweep is cache hits.  Foreign patterns fall back to
    their own ``matches``.
    """

    if isinstance(pattern, SamplePattern):
        return lambda suffix: engine.matches(suffix, pattern)
    return pattern.matches


class _NodeInfo:
    """Per-interned-spine-node facts, computed once when first indexed.

    ``latest_root`` is the ordinal of the most recent delivery whose
    value's *root* spine lies at or below this node at the time the node
    was indexed — the anchor the derivation edges hang off.
    """

    __slots__ = ("senders", "receivers", "latest_root")

    def __init__(
        self,
        senders: frozenset,
        receivers: frozenset,
        latest_root: Optional[int],
    ) -> None:
        self.senders = senders
        self.receivers = receivers
        self.latest_root = latest_root


class HBEdge(tuple):
    """A happens-before edge ``(kind, source ordinal)`` — plain tuple."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return self[0]

    @property
    def source(self) -> int:
        return self[1]


class IndexedDelivery:
    """One absorbed delivery with its derived facts."""

    __slots__ = (
        "ordinal",
        "time",
        "principal",
        "channel",
        "branch_index",
        "values",
        "roots",
        "senders",
        "receivers",
    )

    def __init__(
        self,
        ordinal: int,
        time: float,
        principal: Principal,
        channel: Channel,
        branch_index: int,
        values: tuple,
        roots: Tuple[Provenance, ...],
        senders: frozenset,
        receivers: frozenset,
    ) -> None:
        self.ordinal = ordinal
        self.time = time
        self.principal = principal
        self.channel = channel
        self.branch_index = branch_index
        self.values = values
        self.roots = roots
        self.senders = senders
        self.receivers = receivers

    def trace_tuple(self) -> tuple:
        """The merged-trace comparison shape used across the repo."""

        return (
            self.time,
            self.principal,
            self.channel,
            self.values,
            self.branch_index,
        )

    def __repr__(self) -> str:
        return (
            f"IndexedDelivery(#{self.ordinal} t={self.time} "
            f"{self.principal}@{self.channel})"
        )


class ProvenanceIndex:
    """Happens-before + dataflow graphs over the delivered trace.

    Feed it deliveries through :meth:`observe_delivery` (the middleware
    observer signature), :meth:`extend_trace` (a merged trace or a
    decoded durable record), then ask where/why questions.  See the
    module docstring for the cost model.
    """

    def __init__(self, engine: Optional[PolicyEngine] = None) -> None:
        self.generation = 0
        """Committed log generations absorbed so far."""
        self.events_indexed = 0
        """Spine nodes + events walked while indexing — the O(new
        events) work counter E24 gates."""
        self._deliveries: List[IndexedDelivery] = []
        self._pending: List[tuple] = []
        self._node_info: dict = {}
        self._event_info: dict = {}
        self._root_of: dict = {}
        self._last_by_principal: dict = {}
        self._last_by_channel: dict = {}
        self._received_by: dict = {}
        self._on_channel: dict = {}
        self._hb_preds: List[Tuple[HBEdge, ...]] = []
        self._hb_succs: List[List[int]] = []
        self._generation_marks: List[int] = []
        self._generation_work: List[int] = []
        self._engine = engine if engine is not None else PolicyEngine()
        self._sweep_cache: dict = {}
        self._global_cache: dict = {}
        empty = _NodeInfo(_EMPTY_SET, _EMPTY_SET, None)
        self._node_info[EMPTY] = empty

    # -- feeding ---------------------------------------------------------

    def observe_delivery(
        self,
        time: float,
        principal: Principal,
        channel: Channel,
        values: tuple,
        branch_index: int,
    ) -> None:
        """Middleware observer hook: O(1) append; indexed at commit."""

        self._pending.append((time, principal, channel, values, branch_index))

    @property
    def pending(self) -> int:
        """Deliveries observed but not yet absorbed into a generation."""

        return len(self._pending)

    def commit(self) -> int:
        """Absorb the pending batch as one log generation.

        Returns the number of deliveries absorbed (0 when idle, in which
        case the generation counter does not move).  Trace-global query
        caches are invalidated; per-node sweep caches stay — a spine
        node's suffix history is immutable.  The absorb runs inside
        :func:`~repro.core.heap.settled_heap`: the index and record it
        extends are acyclic, so the collector's full passes skip them.
        """

        batch = self._pending
        if not batch:
            return 0
        self._pending = []
        before = self.events_indexed
        with settled_heap():
            for entry in batch:
                self._absorb(*entry)
        self.generation += 1
        self._generation_marks.append(len(self._deliveries))
        self._generation_work.append(self.events_indexed - before)
        self._global_cache.clear()
        return len(batch)

    def extend_trace(self, trace: Iterable[tuple]) -> int:
        """Absorb ``(time, principal, channel, values, branch)`` tuples.

        One call is one generation — the shape produced by
        ``ShardedRuntime.delivered_trace()``,
        ``RecoveredState.delivered_trace()`` and the metrics'
        ``delivered`` records (via their field order).
        """

        for entry in trace:
            time, principal, channel, values, branch = entry
            self._pending.append((time, principal, channel, values, branch))
        return self.commit()

    def extend_entries(self, entries: Iterable) -> int:
        """Absorb decoded :class:`~repro.storage.journal.DeliveryEntry`."""

        for entry in entries:
            self._pending.append(
                (
                    entry.time,
                    entry.principal,
                    entry.channel,
                    entry.values,
                    entry.branch_index,
                )
            )
        return self.commit()

    # -- indexing (the O(new events) core) -------------------------------

    def _node_info_of(self, node: Provenance) -> _NodeInfo:
        """Facts for ``node``, walking only nodes never indexed before.

        Iterative post-order over the spine *and* nested channel
        provenances; stops at any node already in the table, which by
        hash-consing covers every previously indexed suffix — repeated
        deliveries over a shared history index in O(1).
        """

        cache = self._node_info
        info = cache.get(node)
        if info is not None:
            return info
        events = self._event_info
        work = [node]
        while work:
            top = work[-1]
            if top in cache:
                work.pop()
                continue
            head = top.head
            head_info = events.get(head)
            if head_info is None:
                nested = cache.get(head.channel_provenance)
                if nested is None:
                    work.append(head.channel_provenance)
                    continue
                if type(head) is OutputEvent:
                    senders = nested.senders
                    if head.principal not in senders:
                        senders = senders | {head.principal}
                    head_info = (senders, nested.receivers)
                else:
                    receivers = nested.receivers
                    if head.principal not in receivers:
                        receivers = receivers | {head.principal}
                    head_info = (nested.senders, receivers)
                events[head] = head_info
                self.events_indexed += 1
            tail = top.tail
            tail_info = cache.get(tail)
            if tail_info is None:
                work.append(tail)
                continue
            senders = tail_info.senders
            if not head_info[0] <= senders:
                senders = senders | head_info[0]
            receivers = tail_info.receivers
            if not head_info[1] <= receivers:
                receivers = receivers | head_info[1]
            cache[top] = _NodeInfo(senders, receivers, tail_info.latest_root)
            self.events_indexed += 1
            work.pop()
        return cache[node]

    def _absorb(
        self,
        time: float,
        principal: Principal,
        channel: Channel,
        values: tuple,
        branch_index: int,
    ) -> None:
        ordinal = len(self._deliveries)
        roots = tuple(value.provenance for value in values)
        edges: List[HBEdge] = []
        last = self._last_by_principal.get(principal)
        if last is not None:
            edges.append(HBEdge((PROGRAM, last)))
        self._last_by_principal[principal] = ordinal
        last = self._last_by_channel.get(channel)
        if last is not None and (not edges or edges[0][1] != last):
            edges.append(HBEdge((CHANNEL, last)))
        self._last_by_channel[channel] = ordinal
        senders: frozenset = _EMPTY_SET
        receivers: frozenset = _EMPTY_SET
        derived: set = set()
        for root in roots:
            info = self._node_info_of(root)
            if not senders >= info.senders:
                senders = senders | info.senders if senders else info.senders
            if not receivers >= info.receivers:
                receivers = (
                    receivers | info.receivers if receivers else info.receivers
                )
            if len(root):
                previous = info.latest_root
                if previous is not None and previous != ordinal:
                    derived.add(previous)
                info.latest_root = ordinal
                self._root_of.setdefault(root, ordinal)
        for source in sorted(derived):
            edges.append(HBEdge((DERIVES, source)))
        self._deliveries.append(
            IndexedDelivery(
                ordinal,
                time,
                principal,
                channel,
                branch_index,
                values,
                roots,
                senders,
                receivers,
            )
        )
        self._received_by.setdefault(principal, []).append(ordinal)
        self._on_channel.setdefault(channel, []).append(ordinal)
        self._hb_preds.append(tuple(edges))
        self._hb_succs.append([])
        succs = self._hb_succs
        for edge in edges:
            successors = succs[edge[1]]
            if not successors or successors[-1] != ordinal:
                successors.append(ordinal)

    # -- introspection ---------------------------------------------------

    @property
    def delivered(self) -> int:
        return len(self._deliveries)

    @property
    def generation_marks(self) -> Tuple[int, ...]:
        """Delivered count at each committed generation boundary."""

        return tuple(self._generation_marks)

    @property
    def generation_work(self) -> Tuple[int, ...]:
        """``events_indexed`` delta spent absorbing each generation."""

        return tuple(self._generation_work)

    def delivery(self, ordinal: int) -> IndexedDelivery:
        return self._deliveries[ordinal]

    def deliveries(self) -> Sequence[IndexedDelivery]:
        return tuple(self._deliveries)

    def predecessors(self, ordinal: int) -> Tuple[HBEdge, ...]:
        """The labelled happens-before edges into ``ordinal``."""

        return self._hb_preds[ordinal]

    def successors(self, ordinal: int) -> Tuple[int, ...]:
        return tuple(self._hb_succs[ordinal])

    def edge_counts(self) -> dict:
        counts = {kind: 0 for kind in EDGE_KINDS}
        for edges in self._hb_preds:
            for kind, _ in edges:
                counts[kind] += 1
        return counts

    def received_by(self, principal: Principal) -> Tuple[int, ...]:
        """Posting list: ordinals delivered *to* ``principal``."""

        return tuple(self._received_by.get(principal, ()))

    def on_channel(self, channel: Channel) -> Tuple[int, ...]:
        """Posting list: ordinals delivered on ``channel``."""

        return tuple(self._on_channel.get(channel, ()))

    def known_principals(self) -> frozenset:
        return frozenset(self._received_by)

    def known_channels(self) -> frozenset:
        return frozenset(self._on_channel)

    def summary(self) -> dict:
        edges = self.edge_counts()
        return {
            "delivered": self.delivered,
            "pending": self.pending,
            "generation": self.generation,
            "events_indexed": self.events_indexed,
            "spine_nodes": len(self._node_info) - 1,
            "hb_edges": sum(edges.values()),
            "edge_counts": edges,
            "principals": sorted(p.name for p in self._received_by),
            "channels": sorted(c.name for c in self._on_channel),
        }

    # -- where/why queries -----------------------------------------------

    def _settled(self) -> None:
        if self._pending:
            self.commit()

    def derived_from_sends(self, principal: Principal) -> Tuple[int, ...]:
        """All deliveries whose value history contains a send by
        ``principal`` — the paper's "who touched it" read, as a *where*
        query.  O(deliveries) scan over memoized per-root sender sets;
        cached until the next commit.
        """

        self._settled()
        key = ("derived_from_sends", principal)
        cached = self._global_cache.get(key)
        if cached is None:
            cached = tuple(
                record.ordinal
                for record in self._deliveries
                if principal in record.senders
            )
            self._global_cache[key] = cached
        return cached

    def taint(
        self, principal: Principal, kinds: Tuple[str, ...] = (DERIVES, CHANNEL)
    ) -> Tuple[int, ...]:
        """Forward reachability from every delivery ``principal`` sent
        into — everything the principal's output may have influenced,
        following the given edge kinds (default: dataflow + channel
        order).
        """

        self._settled()
        key = ("taint", principal, kinds)
        cached = self._global_cache.get(key)
        if cached is not None:
            return cached
        seeds = [
            record.ordinal
            for record in self._deliveries
            if principal in record.senders or record.principal == principal
        ]
        reached = self._forward_closure(seeds, kinds)
        cached = tuple(sorted(reached))
        self._global_cache[key] = cached
        return cached

    def cone_of_influence(
        self,
        ordinal: int,
        kinds: Tuple[str, ...] = EDGE_KINDS,
    ) -> Tuple[int, ...]:
        """Backward slice: every delivery that happens-before ``ordinal``
        along the given edge kinds (the *why* of a delivery)."""

        self._settled()
        key = ("cone", ordinal, kinds)
        cached = self._global_cache.get(key)
        if cached is not None:
            return cached
        wanted = frozenset(kinds)
        seen = {ordinal}
        frontier = [ordinal]
        while frontier:
            current = frontier.pop()
            for kind, source in self._hb_preds[current]:
                if kind in wanted and source not in seen:
                    seen.add(source)
                    frontier.append(source)
        seen.discard(ordinal)
        cached = tuple(sorted(seen))
        self._global_cache[key] = cached
        return cached

    def _forward_closure(
        self, seeds: Iterable[int], kinds: Tuple[str, ...]
    ) -> set:
        wanted = frozenset(kinds)
        seen = set(seeds)
        frontier = list(seen)
        preds = self._hb_preds
        succs = self._hb_succs
        while frontier:
            current = frontier.pop()
            for successor in succs[current]:
                if successor in seen:
                    continue
                for kind, source in preds[successor]:
                    if source == current and kind in wanted:
                        seen.add(successor)
                        frontier.append(successor)
                        break
        return seen

    def happens_before(self, earlier: int, later: int) -> bool:
        """Is there a happens-before path ``earlier → … → later``?"""

        self._settled()
        if earlier == later:
            return False
        seen = {later}
        frontier = [later]
        while frontier:
            current = frontier.pop()
            for _, source in self._hb_preds[current]:
                if source == earlier:
                    return True
                if source not in seen:
                    seen.add(source)
                    frontier.append(source)
        return False

    # -- suffix sweeps (forever-cached) ----------------------------------

    def matching_suffixes(
        self, provenance: Provenance, pattern: Pattern
    ) -> Tuple[Provenance, ...]:
        """All suffixes of the spine satisfying ``pattern``, longest
        first — one incremental-DFA pass, memoized forever per
        ``(node, pattern)``: a spine node's suffix history is immutable,
        so warm repeats are a dict hit (the E24 ≥10× gate).
        """

        key = (provenance, pattern)
        cached = self._sweep_cache.get(key)
        if cached is None:
            decide = suffix_decider(pattern, self._engine)
            cached = tuple(
                suffix for suffix in provenance.suffixes() if decide(suffix)
            )
            self._sweep_cache[key] = cached
        return cached

    def minimal_witness(
        self, provenance: Provenance, pattern: Pattern
    ) -> Optional[Provenance]:
        """The *shortest* suffix satisfying ``pattern`` (``None`` if no
        suffix does): the minimal witness that the history can satisfy
        the policy.  One pass, longest-first, keeping the last match.
        """

        key = (provenance, pattern, "witness")
        if key in self._sweep_cache:
            return self._sweep_cache[key]
        decide = suffix_decider(pattern, self._engine)
        witness: Optional[Provenance] = None
        for suffix in provenance.suffixes():
            if decide(suffix):
                witness = suffix
        self._sweep_cache[key] = witness
        return witness

    def first_compliant_suffix(
        self, provenance: Provenance, pattern: Pattern
    ) -> Optional[Provenance]:
        """The *longest* compliant suffix (audit's "since when")."""

        matches = self.matching_suffixes(provenance, pattern)
        return matches[0] if matches else None

    def iter_value_witnesses(
        self, ordinal: int, pattern: Pattern
    ) -> Iterator[Tuple[Provenance, Optional[Provenance]]]:
        """``(root, minimal witness)`` per value of delivery ``ordinal``."""

        self._settled()
        for root in self._deliveries[ordinal].roots:
            yield root, self.minimal_witness(root, pattern)


_DEFAULT: Optional[ProvenanceIndex] = None


def default_index() -> ProvenanceIndex:
    """The process-global index ad-hoc sweeps (``analysis.audit``) ride.

    Shares nothing with any runtime-attached index; it exists so repeat
    audits over the same interned spines answer from the sweep cache.
    """

    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ProvenanceIndex()
    return _DEFAULT
