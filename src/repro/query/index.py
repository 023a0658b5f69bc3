"""The generation-indexed provenance analytics index.

Capture (PRs 1–9) made provenance cheap to *carry*; this module makes it
cheap to *consult*.  A :class:`ProvenanceIndex` absorbs the delivered
trace — live, as the last sink on the middleware's delivery pipeline,
or after the fact from a merged shard trace or a durable store — and
derives two graphs over it:

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
first already-indexed node and computes sender sets and the derivation
anchor only for genuinely new nodes.  The index holds each delivery as
the :class:`~repro.runtime.metrics.DeliveryRecord` it was fed (the very
object a live runtime's metrics retain), plus what its queries read:
the sender set, the happens-before edges and the posting lists.  The
:attr:`~ProvenanceIndex.events_indexed` counter exposes that work
explicitly — ``benchmarks/bench_query_layer.py`` (E24) gates it flat
per batch as history grows.

Query costs, with ``n`` deliveries and ``P`` receiving principals:

* **cone of influence** (all three edge kinds) is O(|answer|), up to a
  log factor: the delivery's vector clock says how long a prefix of
  each principal's posting list the cone holds, so a sparse cone sorts
  those prefixes together and a dense one lists every older delivery
  but the few past the prefixes.  Any other ``kinds`` value walks the
  happens-before graph backwards;
* **happens-before** is O(1): one clock entry against one position;
* the **vector clocks** behind both are built lazily, on the first such
  query after a commit, for the new deliveries only — O(new deliveries
  × P) — and are never invalidated, since a delivery's predecessors are
  immutable.  They take about 4 B × P per delivery
  (:attr:`~ProvenanceIndex.clock_work` counts the entries written);
* a **minimal witness** costs O(new spine nodes): one memo per pattern
  holds the answer of every spine node already asked about, and a spine
  shares its tail with every earlier delivery on its lane;
* **matching suffixes** are one DFA pass per ``(node, pattern)``,
  cached forever — a node's suffix history is immutable;
* :meth:`~ProvenanceIndex.derived_from_sends` and
  :meth:`~ProvenanceIndex.taint` are O(deliveries) scans, cached until
  the next commit extends the delivery set.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, zip_longest
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.heap import settled_heap
from repro.core.names import Channel, Principal
from repro.core.patterns import Pattern
from repro.core.provenance import EMPTY, OutputEvent, Provenance
from repro.patterns.dfa import PolicyEngine
from repro.runtime.metrics import DeliveryRecord

__all__ = [
    "HBEdge",
    "ProvenanceIndex",
]

PROGRAM = "program"
CHANNEL = "channel"
DERIVES = "derives"

EDGE_KINDS = (PROGRAM, CHANNEL, DERIVES)
_ALL_KINDS = frozenset(EDGE_KINDS)

_EMPTY_SET: frozenset = frozenset()
_UNSEEN = object()


class _NodeInfo:
    """Per-interned-spine-node facts, computed once when first indexed.

    ``latest_root`` is the ordinal of the most recent delivery whose
    value's *root* spine lies at or below this node at the time the node
    was indexed — the anchor the derivation edges hang off.
    """

    __slots__ = ("senders", "latest_root")

    def __init__(self, senders: frozenset, latest_root: Optional[int]) -> None:
        self.senders = senders
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


class ProvenanceIndex:
    """Happens-before + dataflow graphs over the delivered trace.

    Feed it deliveries as a middleware sink, through
    :meth:`observe_delivery`, or with :meth:`extend_trace` (a merged
    trace or a decoded durable record), then ask where/why questions.
    See the module docstring for the cost model.
    """

    def __init__(self, engine: Optional[PolicyEngine] = None) -> None:
        self.generation = 0
        """Committed log generations absorbed so far."""
        self.events_indexed = 0
        """Spine nodes + events walked while indexing — the O(new
        events) work counter E24 gates."""
        self._deliveries: List[DeliveryRecord] = []
        self._senders: List[frozenset] = []
        """Per ordinal: every principal that sent along the delivered
        values' histories."""
        self._pending: List[DeliveryRecord] = []
        self._node_info: dict = {}
        self._event_senders: dict = {}
        self._last_by_principal: dict = {}
        self._last_by_channel: dict = {}
        self._received_by: dict = {}
        self._on_channel: dict = {}
        self._hb_preds: List[Tuple[HBEdge, ...]] = []
        self._hb_succs: List[List[int]] = []
        self._generation_marks: List[int] = []
        self._generation_work: List[int] = []
        self.clock_work = 0
        """Clock entries written while extending the vector clocks —
        the O(new deliveries × principals) counter E24 gates."""
        self._clocks: List[array] = []
        self._slots: dict = {}
        self._slot_postings: List[List[int]] = []
        self._ordinals: List[int] = []
        self._engine = engine if engine is not None else PolicyEngine()
        self._sweep_cache: dict = {}
        self._witness_memo: dict = {}
        self._global_cache: dict = {}
        self._node_info[EMPTY] = _NodeInfo(_EMPTY_SET, None)

    # -- feeding ---------------------------------------------------------

    def observe_delivery(self, record: DeliveryRecord) -> None:
        """O(1) append; indexed at commit."""

        self._pending.append(record)

    def record_delivery(self, record: DeliveryRecord, latency: float) -> None:
        """The sink delivery call: :meth:`observe_delivery`."""

        self.observe_delivery(record)

    def note(self, kind: str, detail: str) -> None:
        """The sink note call: trust notes carry no provenance."""

    @property
    def pending(self) -> int:
        """Deliveries observed but not yet absorbed into a generation."""

        return len(self._pending)

    def commit(self) -> int:
        """Absorb the pending batch as one log generation.

        Returns the number of deliveries absorbed (0 when idle, in which
        case the generation counter does not move).  Trace-global query
        caches are invalidated; per-node sweeps, witnesses and vector
        clocks stay — a spine node's suffix history and a delivery's
        predecessors are immutable.  The absorb runs inside
        :func:`~repro.core.heap.settled_heap`: the index and record it
        extends are acyclic, so the collector's full passes skip them.
        """

        batch = self._pending
        if not batch:
            return 0
        self._pending = []
        before = self.events_indexed
        with settled_heap():
            for record in batch:
                self._absorb(record)
        self.generation += 1
        self._generation_marks.append(len(self._deliveries))
        self._generation_work.append(self.events_indexed - before)
        self._global_cache.clear()
        return len(batch)

    def extend_trace(self, trace: Iterable[tuple]) -> int:
        """Absorb a trace as one generation.

        Items are :class:`~repro.runtime.metrics.DeliveryRecord`\\ s —
        ``ShardedRuntime.delivered_trace()``, a decoded durable record
        (``RecoveredState.entries``) or the metrics' ``delivered`` —
        or plain ``(time, principal, channel, values, branch)`` tuples,
        which are stored as records.
        """

        self._pending.extend(
            entry if type(entry) is DeliveryRecord else DeliveryRecord(*entry)
            for entry in trace
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
        events = self._event_senders
        work = [node]
        while work:
            top = work[-1]
            if top in cache:
                work.pop()
                continue
            head = top.head
            head_senders = events.get(head)
            if head_senders is None:
                nested = cache.get(head.channel_provenance)
                if nested is None:
                    work.append(head.channel_provenance)
                    continue
                head_senders = nested.senders
                if (
                    type(head) is OutputEvent
                    and head.principal not in head_senders
                ):
                    head_senders = head_senders | {head.principal}
                events[head] = head_senders
                self.events_indexed += 1
            tail = top.tail
            tail_info = cache.get(tail)
            if tail_info is None:
                work.append(tail)
                continue
            senders = tail_info.senders
            if not head_senders <= senders:
                senders = senders | head_senders
            cache[top] = _NodeInfo(senders, tail_info.latest_root)
            self.events_indexed += 1
            work.pop()
        return cache[node]

    def _absorb(self, record: DeliveryRecord) -> None:
        ordinal = len(self._deliveries)
        principal = record.principal
        channel = record.channel
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
        derived: set = set()
        for value in record.values:
            root = value.provenance
            info = self._node_info_of(root)
            if not senders >= info.senders:
                senders = senders | info.senders if senders else info.senders
            if len(root):
                previous = info.latest_root
                if previous is not None and previous != ordinal:
                    derived.add(previous)
                info.latest_root = ordinal
        for source in sorted(derived):
            edges.append(HBEdge((DERIVES, source)))
        self._deliveries.append(record)
        self._senders.append(senders)
        # one int object per ordinal, shared by every posting list and
        # answer that holds it
        self._ordinals.append(ordinal)
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

    def delivery(self, ordinal: int) -> DeliveryRecord:
        """The record of delivery ``ordinal`` (its trace position)."""

        self._check(ordinal)
        return self._deliveries[ordinal]

    def deliveries(self) -> Sequence[DeliveryRecord]:
        return tuple(self._deliveries)

    def predecessors(self, ordinal: int) -> Tuple[HBEdge, ...]:
        """The labelled happens-before edges into ``ordinal``."""

        self._check(ordinal)
        return self._hb_preds[ordinal]

    def successors(self, ordinal: int) -> Tuple[int, ...]:
        self._check(ordinal)
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
                compress(
                    self._ordinals,
                    [principal in senders for senders in self._senders],
                )
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
        seeds = compress(
            self._ordinals,
            [
                principal in senders or record.principal == principal
                for record, senders in zip(self._deliveries, self._senders)
            ],
        )
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
        along the given edge kinds (the *why* of a delivery).

        With all three kinds, in any order, the answer is read off the
        delivery's vector clock; any other ``kinds`` walks the graph.
        """

        self._check(ordinal)
        wanted = frozenset(kinds)
        if wanted == _ALL_KINDS:
            clock = self._clock(ordinal)
            postings = self._slot_postings
            if 2 * (sum(clock) - 1) <= ordinal:
                # sparse: merge each principal's posting prefix
                cone = sorted(
                    chain.from_iterable(
                        postings[slot][:count]
                        for slot, count in enumerate(clock)
                        if count
                    )
                )
                cone.pop()  # ``ordinal`` itself: every cone member is older
                return tuple(cone)
            # dense: every older delivery except, per principal, those
            # past its clock entry — sorting the few gaps beats sorting
            # the many members.  Slicing ``_ordinals`` shares the int
            # objects the postings hold, so an answer kept alive costs
            # 8 B per member, as on the sparse path.
            gaps = sorted(
                chain.from_iterable(
                    posting[count : bisect_left(posting, ordinal, count)]
                    for posting, count in zip_longest(
                        postings, clock, fillvalue=0
                    )
                )
            )
            ordinals = self._ordinals
            cone = []
            start = 0
            for gap in gaps:
                cone += ordinals[start:gap]
                start = gap + 1
            cone += ordinals[start:ordinal]
            return tuple(cone)
        seen = {ordinal}
        frontier = [ordinal]
        while frontier:
            current = frontier.pop()
            for kind, source in self._hb_preds[current]:
                if kind in wanted and source not in seen:
                    seen.add(source)
                    frontier.append(source)
        seen.discard(ordinal)
        return tuple(sorted(seen))

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

        self._check(earlier)
        self._check(later)
        if earlier >= later:
            return False
        clock = self._clock(later)
        slot = self._slots[self._deliveries[earlier].principal]
        # ``earlier``'s own entry is its position in its posting list + 1
        own = self._clocks[earlier][slot]
        return slot < len(clock) and clock[slot] >= own

    def _check(self, ordinal: int) -> None:
        self._settled()
        delivered = len(self._deliveries)
        if not 0 <= ordinal < delivered:
            raise IndexError(
                f"ordinal {ordinal} out of range: {delivered} deliveries"
            )

    def _clock(self, ordinal: int) -> array:
        """The vector clock of ``ordinal``, extending the clocks first.

        Each receiving principal has a slot, in order of first receipt;
        ``clock[slot(q)]`` is how many deliveries to ``q`` lie in
        ``{ordinal} ∪ cone(ordinal)``.  That set meets every posting
        list in a prefix: every edge points to a lower ordinal, and each
        delivery has a program edge to its principal's previous one.  So
        a clock is the element-wise max of its sources' clocks, which
        hold its position in its own posting list, with that entry then
        incremented.  Missing trailing slots read 0.
        """

        clocks = self._clocks
        if ordinal >= len(clocks):
            slots = self._slots
            preds = self._hb_preds
            work = 0
            for current in range(len(clocks), len(self._deliveries)):
                principal = self._deliveries[current].principal
                slot = slots.get(principal)
                if slot is None:
                    slot = slots[principal] = len(slots)
                    self._slot_postings.append(self._received_by[principal])
                edges = preds[current]
                clock = clocks[edges[0][1]] if edges else array("I")
                for _, source in edges[1:]:
                    other = clocks[source]
                    if len(other) > len(clock):
                        clock, other = other, clock
                    clock = array("I", map(max, clock, other)) + clock[
                        len(other) :
                    ]
                if len(edges) == 1:
                    clock = clock[:]
                if len(clock) <= slot:
                    clock.extend([0] * (slot + 1 - len(clock)))
                clock[slot] += 1
                work += len(clock)
                clocks.append(clock)
            self.clock_work += work
        return clocks[ordinal]

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
            admits = self._engine.admits
            cached = tuple(
                suffix
                for suffix in provenance.suffixes()
                if admits(suffix, pattern)
            )
            self._sweep_cache[key] = cached
        return cached

    def minimal_witness(
        self, provenance: Provenance, pattern: Pattern
    ) -> Optional[Provenance]:
        """The *shortest* suffix satisfying ``pattern`` (``None`` if no
        suffix does): the minimal witness that the history can satisfy
        the policy.

        ``mw(ε) = ε if ε ⊨ π``, and ``mw(n) = mw(n.tail)`` when that is
        not ``None``, else ``n`` if ``n ⊨ π``.  Evaluated bottom-up from
        the deepest node not yet in the pattern's memo, so a spine that
        extends an earlier one costs only its new nodes.
        """

        memo = self._witness_memo.get(pattern)
        if memo is None:
            memo = self._witness_memo[pattern] = {}
        path = []
        node = provenance
        witness = memo.get(node, _UNSEEN)
        while witness is _UNSEEN and node:
            path.append(node)
            node = node.tail
            witness = memo.get(node, _UNSEEN)
        admits = self._engine.admits
        if witness is _UNSEEN:
            witness = memo[node] = node if admits(node, pattern) else None
        for node in reversed(path):
            if witness is None and admits(node, pattern):
                witness = node
            memo[node] = witness
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

        self._check(ordinal)
        return (
            (value.provenance, self.minimal_witness(value.provenance, pattern))
            for value in self._deliveries[ordinal].values
        )
