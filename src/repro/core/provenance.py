"""Provenance sequences and events (Table 1 of the paper), hash-consed.

A provenance ``κ`` is a sequence of *events*, chronologically ordered with
the **most recent event first** (the head of the sequence).  An event is
either

* an output event ``a!κ`` — the value was *sent* by principal ``a`` on a
  channel whose provenance was ``κ`` at the time of sending, or
* an input event ``a?κ`` — the value was *received* by principal ``a`` on a
  channel whose provenance was ``κ``.

Note the recursion: because channels are data, the channel used for a
communication has a provenance of its own, and that whole sequence is
embedded inside the event.  *Semantically* a provenance is therefore a
tree of events, and all sizes reported by this module distinguish the
*spine* length (number of top-level events, :meth:`Provenance.__len__`)
from the *total* event count including nested channel provenances
(:meth:`Provenance.total_events`).

Representation: a hash-consed DAG
---------------------------------

The semantics only ever *extends* provenance (R-Send/R-Recv prepend one
event), so across a run the provenance values of a system share almost
all of their structure.  This module exploits that:

* the spine is a **cons list** — :meth:`Provenance.cons` and
  :meth:`Provenance.tail` are O(1) and allocate at most one node;
* every event and every spine node is **interned**: structurally equal
  constructions return the *same object*, so ``==`` is identity and
  ``hash`` is a single attribute read;
* ``total_events``, ``depth``, the spine length and the canonical
  structural hash are computed once at intern time (from the
  already-computed values of the children) and memoized on the node, so
  every repeated query is O(1) no matter how often a subtree is shared;
* ``principals`` is a view no delivery reads (audits and analyses ask
  for it afterwards), so a node holds ``None`` until someone asks.  The
  first request walks the DAG iteratively — stopping at every node that
  already answered — and memoizes the set on the node asked, so asking
  along a growing spine costs O(new events) per request and no stamp
  ever allocates a set.

The tree/DAG distinction is observable only through ``is``/``id`` and
:meth:`Provenance.dag_size`: all sequence-level semantics (ordering,
``str``, iteration, :meth:`suffixes`, the observation functions) are
bit-identical to the historical tuple-of-trees representation —
property-tested against a reference model in
``tests/test_provenance_interning.py``.

Intern-table lifetime: both tables hold **weak** references to their
nodes, so provenance values are garbage-collected exactly as before —
dropping the last reference to a run's systems frees its provenance DAG,
and the tables never pin memory.  The tables are process-global and
assume the CPython GIL with single-threaded construction (true of the
whole engine and the simulated runtime); see
:func:`intern_table_sizes` for introspection.

Merkle chain
------------

Besides the (collision-prone, process-local) structural ``hash``, every
event and spine node carries a **cryptographic digest** — 16 bytes of
``blake2b`` over a canonical encoding, computed once at intern time from
the already-computed digests of the children, so :meth:`Provenance.cons`
stays O(1):

* event digest: ``blake2b(tag ‖ len(principal) ‖ principal ‖
  digest(channel provenance))``;
* spine digest: ``blake2b(digest(head event) ‖ digest(tail))``, with a
  fixed domain-separated digest for ``ε``.

A node's digest therefore commits to its *entire* history — the spine
below it and every nested channel provenance, transitively.  Two
provenances have equal digests iff they are structurally equal (up to
blake2b collisions), across processes and machines: the digest is the
identity the wire layer ships for corruption detection and the quantity
the middleware's :class:`~repro.core.integrity.KeyRing` signs to make
histories unforgeable (see :mod:`repro.core.integrity`).
"""

from __future__ import annotations

import weakref
from hashlib import blake2b
from typing import Iterable, Iterator

from repro.core.names import Principal

__all__ = [
    "DIGEST_SIZE",
    "Event",
    "OutputEvent",
    "InputEvent",
    "Provenance",
    "EMPTY",
    "dag_event_count",
    "intern_table_sizes",
]


DIGEST_SIZE = 16
"""Bytes of blake2b digest carried by every event and spine node."""


_EVENT_INTERN: "weakref.WeakValueDictionary[tuple, Event]" = (
    weakref.WeakValueDictionary()
)
_SPINE_INTERN: "weakref.WeakValueDictionary[tuple, Provenance]" = (
    weakref.WeakValueDictionary()
)


def intern_table_sizes() -> tuple[int, int]:
    """Live interned ``(events, spine nodes)`` — for tests and benches."""

    return len(_EVENT_INTERN), len(_SPINE_INTERN)


class Event:
    """Base class of provenance events; use the concrete subclasses.

    Events are interned: ``OutputEvent(a, κ)`` returns the one canonical
    instance for that principal and (already-interned) channel
    provenance, so equality is identity and the derived quantities below
    are shared by every occurrence.
    """

    __slots__ = (
        "principal",
        "channel_provenance",
        "_hash",
        "_digest",
        "_principals",
        "_total_events",
        "_depth",
        "__weakref__",
    )

    _symbol = ""

    def __new__(
        cls, principal: Principal, channel_provenance: "Provenance | None" = None
    ) -> "Event":
        if cls is Event:
            raise TypeError("instantiate OutputEvent or InputEvent, not Event")
        if channel_provenance is None:
            channel_provenance = EMPTY
        if not isinstance(channel_provenance, Provenance):
            raise TypeError(
                f"channel provenance must be a Provenance, got "
                f"{channel_provenance!r}"
            )
        key = (cls, principal, channel_provenance)
        existing = _EVENT_INTERN.get(key)
        if existing is not None:
            return existing
        self = object.__new__(cls)
        nested = channel_provenance
        object.__setattr__(self, "principal", principal)
        object.__setattr__(self, "channel_provenance", nested)
        object.__setattr__(self, "_total_events", 1 + nested._total_events)
        object.__setattr__(self, "_depth", 1 + nested._depth)
        object.__setattr__(self, "_principals", None)
        object.__setattr__(
            self, "_hash", hash((cls._symbol, principal, nested._hash))
        )
        name = principal.name.encode("utf-8")
        object.__setattr__(
            self,
            "_digest",
            blake2b(
                cls._symbol.encode("ascii")
                + len(name).to_bytes(4, "big")
                + name
                + nested._digest,
                digest_size=DIGEST_SIZE,
            ).digest(),
        )
        _EVENT_INTERN[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def symbol(self) -> str:
        return type(self)._symbol

    @property
    def digest(self) -> bytes:
        """Cryptographic digest committing to this event and everything
        nested below it (see module docstring, *Merkle chain*)."""

        return self._digest

    def principals(self) -> frozenset[Principal]:
        """All principals mentioned by this event, including nested ones.

        Computed on the first request and memoized on the event (see
        :func:`_mentioned`); O(1) from then on.
        """

        mentioned = self._principals
        if mentioned is None:
            mentioned = _mentioned(self.channel_provenance, {self.principal})
            object.__setattr__(self, "_principals", mentioned)
        return mentioned

    def total_events(self) -> int:
        """1 plus the number of events nested in the channel provenance."""

        return self._total_events

    def depth(self) -> int:
        """Nesting depth contributed by this event (at least 1)."""

        return self._depth

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.principal, self.channel_provenance))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.principal!r}, "
            f"{self.channel_provenance!r})"
        )

    def __str__(self) -> str:
        inner = (
            "" if self.channel_provenance.is_empty
            else str(self.channel_provenance)
        )
        return f"{self.principal}{self.symbol}{{{inner}}}"


class OutputEvent(Event):
    """``a!κ`` — sent by ``a`` on a channel with provenance ``κ``."""

    __slots__ = ()
    _symbol = "!"


class InputEvent(Event):
    """``a?κ`` — received by ``a`` on a channel with provenance ``κ``."""

    __slots__ = ()
    _symbol = "?"


class Provenance:
    """An immutable provenance sequence ``κ`` (most recent event first).

    Internally a hash-consed cons list: ``Provenance(events)`` folds the
    tuple through the intern table and returns the canonical node, so two
    structurally equal provenances are always the *same object* and
    comparison, hashing and the observation functions are O(1).
    """

    __slots__ = (
        "_head",
        "_tail",
        "_length",
        "_hash",
        "_digest",
        "_principals",
        "_total_events",
        "_depth",
        "__weakref__",
    )

    # -- construction ----------------------------------------------------

    def __new__(cls, events: Iterable[Event] = ()) -> "Provenance":
        node = EMPTY
        for event in reversed(tuple(events)):
            node = node.cons(event)
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Provenance is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Provenance is immutable")

    @staticmethod
    def of(*events: Event) -> "Provenance":
        """Build a provenance from events given most-recent-first."""

        return Provenance(events)

    @staticmethod
    def from_iterable(events: Iterable[Event]) -> "Provenance":
        return Provenance(tuple(events))

    def cons(self, event: Event) -> "Provenance":
        """Prepend ``event`` as the new most-recent event (``e; κ``).

        O(1): one intern-table probe; allocates only on a table miss.
        """

        if not isinstance(event, Event):
            raise TypeError(f"not a provenance event: {event!r}")
        key = (event, self)
        existing = _SPINE_INTERN.get(key)
        if existing is not None:
            return existing
        node = object.__new__(Provenance)
        object.__setattr__(node, "_head", event)
        object.__setattr__(node, "_tail", self)
        object.__setattr__(node, "_length", self._length + 1)
        object.__setattr__(
            node, "_total_events", self._total_events + event._total_events
        )
        depth = event._depth if event._depth > self._depth else self._depth
        object.__setattr__(node, "_depth", depth)
        object.__setattr__(node, "_principals", None)
        object.__setattr__(node, "_hash", hash((event._hash, self._hash)))
        object.__setattr__(
            node,
            "_digest",
            blake2b(
                event._digest + self._digest, digest_size=DIGEST_SIZE
            ).digest(),
        )
        _SPINE_INTERN[key] = node
        return node

    def concat(self, other: "Provenance") -> "Provenance":
        """Sequence composition ``κ; κ'`` — ``self`` is more recent."""

        if self._length == 0:
            return other
        if other._length == 0:
            return self
        node = other
        for event in reversed(tuple(self)):
            node = node.cons(event)
        return node

    # -- observation -----------------------------------------------------

    @property
    def events(self) -> tuple[Event, ...]:
        """The spine as a tuple (materialized on demand, O(n))."""

        return tuple(self)

    @property
    def is_empty(self) -> bool:
        """True for the nil provenance ``ε``."""

        return self._length == 0

    @property
    def head(self) -> Event:
        """The most recent event; raises IndexError on ``ε``."""

        if self._length == 0:
            raise IndexError("head of empty provenance")
        return self._head

    @property
    def tail(self) -> "Provenance":
        """Everything but the most recent event (``ε`` for ``ε``)."""

        return self._tail

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Event]:
        node = self
        while node._length:
            yield node._head
            node = node._tail

    def __bool__(self) -> bool:
        return self._length != 0

    def __hash__(self) -> int:
        return self._hash

    @property
    def digest(self) -> bytes:
        """Merkle digest of the whole history hanging off this node.

        Equal digests ⟺ structurally equal provenances (up to blake2b
        collisions), across process boundaries — unlike ``hash``, which
        is process-local.  Computed once at intern time; O(1) to read.
        """

        return self._digest

    def __reduce__(self):
        return (Provenance, (tuple(self),))

    def principals(self) -> frozenset[Principal]:
        """Every principal mentioned anywhere in the sequence.

        This is the set the auditing example of the paper extracts: the
        principals "involved" in bringing a value to its current state.
        Computed on the first request and memoized on this node: the walk
        (:func:`_mentioned`) stops at every node that already answered,
        so it costs O(events no asked node covers), and a repeated query
        is O(1).
        """

        mentioned = self._principals
        if mentioned is None:
            mentioned = _mentioned(self, set())
            object.__setattr__(self, "_principals", mentioned)
        return mentioned

    def total_events(self) -> int:
        """Total events including nested channel provenances (tree size)."""

        return self._total_events

    def depth(self) -> int:
        """Maximum nesting depth of channel provenances (0 for ``ε``)."""

        return self._depth

    def dag_size(self) -> int:
        """Number of *distinct* event objects reachable from this node.

        ``total_events()`` counts the semantic tree; ``dag_size()`` counts
        the shared representation actually held in memory (and shipped by
        the v2 wire format).  The ratio of the two is the structural
        sharing factor reported by ``benchmarks/bench_provenance_sharing``.
        For sharing *across* values use :func:`dag_event_count`.
        """

        return dag_event_count((self,))

    def suffixes(self) -> Iterator["Provenance"]:
        """All suffixes, longest (self) first, ending with ``ε``.

        Useful to matchers: position ``i`` of the spine corresponds to the
        suffix ``κ_i; …; κ_n``.  Lazy over the shared spine: each yielded
        suffix *is* the interned tail node — no allocation at all.
        """

        node = self
        while node._length:
            yield node
            node = node._tail
        yield node

    def __repr__(self) -> str:
        return f"Provenance({tuple(self)!r})"

    def __str__(self) -> str:
        if self._length == 0:
            return "ε"
        return "; ".join(str(event) for event in self)


def dag_event_count(roots: Iterable[Provenance]) -> int:
    """Distinct event objects reachable from ``roots``, collectively.

    The identity-based DAG walk behind :meth:`Provenance.dag_size`,
    exposed for multi-root callers (e.g. all values of a system) so the
    tree-vs-DAG accounting lives in one place.  O(unique nodes): spine
    nodes are marked as visited too, so shared tails are never re-walked.
    """

    seen_events: set[int] = set()
    seen_nodes: set[int] = set()
    stack: list[Provenance] = list(roots)
    while stack:
        node = stack.pop()
        while node._length and id(node) not in seen_nodes:
            seen_nodes.add(id(node))
            event = node._head
            if id(event) not in seen_events:
                seen_events.add(id(event))
                stack.append(event.channel_provenance)
            node = node._tail
    return len(seen_events)


def _mentioned(root: Provenance, found: set) -> frozenset[Principal]:
    """``found`` plus every principal mentioned under ``root``.

    Iterative over spine length and nesting depth alike, and O(unique
    nodes) like :func:`dag_event_count`.  A node or event that already
    memoized its set contributes that set and is not entered.  Nothing
    is memoized here: the caller stores the result on the one node it
    was asked about, so an unasked spine never holds a set.
    """

    seen: set[int] = set()
    stack: list[Provenance] = [root]
    while stack:
        node = stack.pop()
        while node._length and id(node) not in seen:
            known = node._principals
            if known is not None:
                found.update(known)
                break
            seen.add(id(node))
            event = node._head
            if id(event) not in seen:
                seen.add(id(event))
                known = event._principals
                if known is not None:
                    found.update(known)
                else:
                    found.add(event.principal)
                    stack.append(event.channel_provenance)
            node = node._tail
    return frozenset(found)


def _make_empty() -> Provenance:
    node = object.__new__(Provenance)
    object.__setattr__(node, "_head", None)
    object.__setattr__(node, "_length", 0)
    object.__setattr__(node, "_total_events", 0)
    object.__setattr__(node, "_depth", 0)
    object.__setattr__(node, "_principals", frozenset())
    object.__setattr__(node, "_hash", hash(("repro.provenance", "ε")))
    object.__setattr__(
        node,
        "_digest",
        blake2b(b"repro.provenance.empty", digest_size=DIGEST_SIZE).digest(),
    )
    object.__setattr__(node, "_tail", node)
    return node


EMPTY = _make_empty()
"""The nil provenance ``ε`` — the annotation of freshly created data."""
