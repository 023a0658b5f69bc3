"""Wire format: serialization of values and provenance.

The provenance-overhead experiments (E13) need honest byte counts, so the
runtime really serializes what travels, and the journal stores the same
bytes.  :class:`Codec` is the one provenance serializer.  All integers
are *canonical* unsigned LEB128 varints — overlong encodings are
rejected on decode, so every value has exactly one wire form.

Provenance values are hash-consed DAGs (:mod:`repro.core.provenance`);
flattening the sharing away would ship the full tree, which goes
superlinear on deep relay/fan-in chains.  The format writes each
distinct spine node and event *once*, inline at its first occurrence,
and every later occurrence as a varint back-reference into a table
indexed in encounter (post-)order.  Events and spine nodes have separate
index spaces, and the tables outlive single payloads: a codec's later
payloads back-reference everything its earlier ones shipped, so values
whose provenances share structure (the common case: every value stamped
by the same send, every hop of a relay) share bytes too::

    name       ::=  varint(len) utf8-bytes
    plain      ::=  0x43 name                -- 'C', channel
               |    0x50 name                -- 'P', principal
    prov2      ::=  varint(0)                -- ε
               |    varint(1) event2 prov2   -- cons: head, then tail
               |    varint(2+i)              -- back-ref: spine node #i
    event2     ::=  varint(0) name prov2     -- output event, inline
               |    varint(1) name prov2     -- input event, inline
               |    varint(2+i)              -- back-ref: event #i
    value2     ::=  plain prov2
    payload2   ::=  varint(k) value2*k

Nodes enter the tables bottom-up (a node is registered after its
children are written), so a back-reference always points strictly
backwards and decoding needs no fixups; decoded aliases are *identity*
— shared subtrees come back as the same interned node.  A one-shot
encoding is a fresh ``Codec()``.  (The tree format this replaced, with
no sharing, survives only as the byte baseline in
``tests/wire_oracle.py``; ``benchmarks/bench_provenance_sharing.py``
draws the curve.)

The codec is total on well-formed inputs and raises
:class:`~repro.core.errors.WireFormatError` on malformed bytes (including
hostile length/count fields claiming more items than the remaining bytes
could possibly hold); encode/decode round-trips are property-tested.
Hostile-input contract: *every* decode failure — truncated fields, bad
tags, invalid names, out-of-range back-references, nesting past
``MAX_NESTING`` — surfaces as a ``WireFormatError`` carrying the byte
offset where decoding stopped, never a leaked ``KeyError`` /
``IndexError`` / ``ValueError`` / ``RecursionError``
(``tests/test_wire_hostile.py`` fuzzes bit-flipped streams for this).

Digested frames: :meth:`Codec.encode_frame` wraps a payload2 in
a length prefix plus a 16-byte blake2b over the frame bytes *and* the
Merkle digests of every value's provenance
(:attr:`repro.core.provenance.Provenance.digest`), so
:meth:`Codec.decode_frame` detects any corruption in flight — of the
plain values, the provenance encoding, or the digest itself — before the
payload reaches a channel manager.  Every encode and decode call also
reports the spine nodes the payload newly registered/constructed, in
matching order (the encoder registers post-order, exactly the order the
decoder cons's — the id-agreement invariant cross-shard links rely on),
which is how attestation tags travel with their nodes between shards
and into the journal.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.core.errors import WireFormatError
from repro.core.names import Channel, PlainValue, Principal
from repro.core.provenance import (
    DIGEST_SIZE,
    EMPTY,
    Event,
    InputEvent,
    OutputEvent,
    Provenance,
)
from repro.core.values import AnnotatedValue

__all__ = [
    "Codec",
    "MAX_NESTING",
    "encode_varint",
    "decode_varint",
    "encode_plain",
    "decode_plain",
    "plain_size",
]

_TAG_CHANNEL = 0x43
_TAG_PRINCIPAL = 0x50

# The smallest possible value: a plain tag, an empty name (1-byte
# length) and an empty provenance (1-byte tag).  A count field claiming
# more values than the remaining bytes divided by this minimum is
# hostile or truncated input, and is rejected *before* any allocation
# proportional to the claim.
_MIN_VALUE_BYTES = 3

MAX_NESTING = 200
"""Deepest channel-provenance nesting the decoder will follow.

Decoding recurses once per nesting level, and each level costs two
Python frames, so hostile input could otherwise drive the interpreter
into ``RecursionError`` (an unstructured crash mid-decode) with a few
hundred bytes of ``cons(event(cons(...)))`` prefixes.  At 200 levels a
decode stays within half the default recursion limit of 1,000 even when
called from deep inside a caller's stack (the lexer caps its nesting at
the same depth).  Honest traffic nests far shallower — the workloads'
channel histories nest two deep; spine *length* is unbounded and
decoded iteratively; only nesting is capped.
"""


_VARINT_SINGLE = tuple(bytes([value]) for value in range(0x80))
"""Prebuilt encodings for the dominant one-byte case: counts, branch
indices, back-reference distances and most lengths fit in 7 bits, and
the journal flush path calls :func:`encode_varint` ~18 times per
delivery — a table lookup beats a bytearray round-trip."""


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""

    if 0 <= value < 0x80:
        return _VARINT_SINGLE[value]
    if value < 0:
        raise WireFormatError(f"cannot encode negative varint {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one canonical unsigned LEB128 varint at ``offset``.

    Rejects *overlong* encodings (a terminating ``0x00`` byte after one
    or more continuation bytes, e.g. ``81 00`` for 1 or ``80 00`` for 0):
    every value must have exactly one wire representation, so byte
    payloads can be compared and deduplicated without re-encoding.
    """

    result = 0
    shift = 0
    start = offset
    while True:
        if offset >= len(data):
            raise WireFormatError("truncated varint", start)
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and shift > 0:
                raise WireFormatError(
                    "non-canonical varint (overlong encoding)", start
                )
            return result, offset
        shift += 7
        if shift > 63:
            raise WireFormatError("varint too long", start)


_NAME_CACHE: dict[str, bytes] = {}
_NAME_CACHE_BOUND = 65536
"""Principal and channel names recur on every event of every spine;
their framed encodings are tiny and bounded in any real system, so a
capped module-level cache turns the hot path into one dict probe.  The
bound only matters under adversarial name churn (fresh names per
message), where the cache degrades to a no-op rather than a leak."""


def _encode_name(name: str) -> bytes:
    framed = _NAME_CACHE.get(name)
    if framed is None:
        raw = name.encode("utf-8")
        framed = encode_varint(len(raw)) + raw
        if len(_NAME_CACHE) < _NAME_CACHE_BOUND:
            _NAME_CACHE[name] = framed
    return framed


def _decode_name(data: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise WireFormatError("truncated name", offset)
    try:
        return data[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise WireFormatError(f"bad utf-8 in name: {error}", offset) from error


def _principal_at(name: str, offset: int) -> Principal:
    """Build a principal from decoded bytes, mapping bad names to wire
    errors (``Principal`` rejects non-identifier spellings with a
    ``ValueError`` that must not leak out of a decoder)."""

    try:
        return Principal(name)
    except ValueError as error:
        raise WireFormatError(f"invalid principal name: {error}", offset) from error


def encode_plain(value: PlainValue) -> bytes:
    if isinstance(value, Channel):
        return bytes((_TAG_CHANNEL,)) + _encode_name(value.name)
    if isinstance(value, Principal):
        return bytes((_TAG_PRINCIPAL,)) + _encode_name(value.name)
    raise WireFormatError(f"not a plain value: {value!r}")


def plain_size(payload: tuple[AnnotatedValue, ...]) -> int:
    """Bytes a payload's plain parts take on the wire: the value count
    plus each value's plain encoding.  Byte accounting counts the rest
    of a message's bytes as provenance."""

    return len(encode_varint(len(payload))) + sum(
        len(encode_plain(value.value)) for value in payload
    )


def decode_plain(data: bytes, offset: int) -> tuple[PlainValue, int]:
    if offset >= len(data):
        raise WireFormatError("truncated plain value", offset)
    tag = data[offset]
    # Validate the tag *before* decoding the name: on malformed input the
    # error should say "unknown tag", not whatever decoding the following
    # garbage as a length-prefixed name happens to trip over first.
    if tag not in (_TAG_CHANNEL, _TAG_PRINCIPAL):
        raise WireFormatError(f"unknown plain-value tag 0x{tag:02x}", offset)
    start = offset + 1
    name, offset = _decode_name(data, start)
    try:
        if tag == _TAG_CHANNEL:
            return Channel(name), offset
        return Principal(name), offset
    except ValueError as error:
        raise WireFormatError(f"invalid name: {error}", start) from error


# ---------------------------------------------------------------------------
# Back-reference encoding over the provenance DAG
# ---------------------------------------------------------------------------

_V2_EMPTY = 0
_V2_CONS = 1
_V2_OUTPUT = 0
_V2_INPUT = 1
_V2_REF_BASE = 2


class _V2Encoder:
    """Streams provenance DAGs with first-occurrence-inline sharing.

    The tables persist across values and payloads, so cross-value
    sharing (ubiquitous — all values of a send are stamped with the same
    event) collapses to back-references.
    """

    __slots__ = ("_spine_ids", "_spine_order", "_event_ids")

    def __init__(self) -> None:
        self._spine_ids: dict[Provenance, int] = {}
        self._spine_order: list[Provenance] = []
        self._event_ids: dict[Event, int] = {}

    def encode_provenance(self, provenance: Provenance, out: bytearray) -> None:
        # Iterative over the spine: recursion is spent on nesting depth
        # only, so million-event spines encode without blowing the stack.
        chain: list[Provenance] = []
        node = provenance
        while True:
            ref = self._spine_ids.get(node)
            if ref is not None:
                out += encode_varint(_V2_REF_BASE + ref)
                break
            if node.is_empty:
                out += encode_varint(_V2_EMPTY)
                break
            chain.append(node)
            out += encode_varint(_V2_CONS)
            self._encode_event(node.head, out)
            node = node.tail
        # Register post-order (deepest suffix first), matching the
        # decoder's construction order.
        for registered in reversed(chain):
            self._spine_ids[registered] = len(self._spine_ids)
            self._spine_order.append(registered)

    def _encode_event(self, event: Event, out: bytearray) -> None:
        ref = self._event_ids.get(event)
        if ref is not None:
            out += encode_varint(_V2_REF_BASE + ref)
            return
        if isinstance(event, OutputEvent):
            out += encode_varint(_V2_OUTPUT)
        elif isinstance(event, InputEvent):
            out += encode_varint(_V2_INPUT)
        else:
            raise WireFormatError(f"not an event: {event!r}")
        out += _encode_name(event.principal.name)
        self.encode_provenance(event.channel_provenance, out)
        self._event_ids[event] = len(self._event_ids)


class _V2Decoder:
    """Rebuilds the DAG; aliases decode to identical interned nodes."""

    __slots__ = ("_spines", "_events", "_depth")

    def __init__(self) -> None:
        self._spines: list[Provenance] = []
        self._events: list[Event] = []
        self._depth = 0

    def decode_provenance(
        self, data: bytes, offset: int
    ) -> tuple[Provenance, int]:
        events: list[Event] = []
        while True:
            start = offset
            tag, offset = decode_varint(data, offset)
            if tag == _V2_EMPTY:
                node = EMPTY
                break
            if tag >= _V2_REF_BASE:
                index = tag - _V2_REF_BASE
                if index >= len(self._spines):
                    raise WireFormatError(
                        f"provenance back-reference #{index} out of range "
                        f"(table holds {len(self._spines)})",
                        start,
                    )
                node = self._spines[index]
                break
            event, offset = self._decode_event(data, offset)
            events.append(event)
        for event in reversed(events):
            node = node.cons(event)
            self._spines.append(node)
        return node, offset

    def _decode_event(self, data: bytes, offset: int) -> tuple[Event, int]:
        start = offset
        tag, offset = decode_varint(data, offset)
        if tag >= _V2_REF_BASE:
            index = tag - _V2_REF_BASE
            if index >= len(self._events):
                raise WireFormatError(
                    f"event back-reference #{index} out of range "
                    f"(table holds {len(self._events)})",
                    start,
                )
            return self._events[index], offset
        name, offset = _decode_name(data, offset)
        if self._depth >= MAX_NESTING:
            raise WireFormatError(
                f"channel provenance nested deeper than {MAX_NESTING}", start
            )
        self._depth += 1
        try:
            nested, offset = self.decode_provenance(data, offset)
        finally:
            self._depth -= 1
        constructor = OutputEvent if tag == _V2_OUTPUT else InputEvent
        event = constructor(_principal_at(name, start), nested)
        self._events.append(event)
        return event, offset


class Codec:
    """The provenance codec: back-reference tables that outlive messages.

    The tables persist across calls, so a message only ships the
    provenance its predecessors on the same codec have not already
    shipped — later occurrences collapse to varint back-references with
    ids that are stable for the lifetime of the codec.  This is what
    makes cross-shard links affordable: each directed shard pair keeps
    one encoder/decoder pair, and the ids travel on the wire, so spines
    re-intern consistently on the receiving shard.  The journal keeps
    one codec across all its generations for the same reason.  A
    one-shot encoding is a fresh ``Codec()``.

    The two endpoints of a stream must agree on history: decode calls
    must see payloads in encode order (the shard router guarantees this
    with per-link FIFO sequence numbers, the journal with record order).
    """

    __slots__ = ("_encoder", "_decoder")

    def __init__(self) -> None:
        self._encoder = _V2Encoder()
        self._decoder = _V2Decoder()

    @property
    def table_sizes(self) -> tuple[int, int]:
        """(spine nodes, events) currently registered on the encode side."""

        return (
            len(self._encoder._spine_ids),
            len(self._encoder._event_ids),
        )

    def encode_payload(
        self, payload: tuple[AnnotatedValue, ...]
    ) -> tuple[bytes, tuple[Provenance, ...]]:
        """One payload2 body plus the spine nodes it newly registered.

        Back-references reach into everything this codec encoded
        before.  The node tuple is in registration order — identical to
        the order the peer's :meth:`decode_payload` constructs them, so
        per-node metadata (attestation tags) can travel positionally.
        """

        encoder = self._encoder
        order = encoder._spine_order
        registered = len(order)
        out = bytearray(encode_varint(len(payload)))
        for value in payload:
            out += encode_plain(value.value)
            encoder.encode_provenance(value.provenance, out)
        # slice the order list, never the whole table: payloads late in a
        # long-lived codec must cost O(new nodes), not O(all nodes ever
        # registered)
        return bytes(out), tuple(order[registered:])

    def decode_payload(
        self, data: bytes, offset: int = 0
    ) -> tuple[tuple[AnnotatedValue, ...], int, tuple[Provenance, ...]]:
        """Decode one body produced by this stream's encode side.

        Returns ``(values, end offset, newly constructed spine nodes)``.
        """

        count, offset = decode_varint(data, offset)
        if count > (len(data) - offset) // _MIN_VALUE_BYTES:
            raise WireFormatError(
                f"truncated payload: {count} values claimed but only "
                f"{len(data) - offset} bytes remain",
                offset,
            )
        decoder = self._decoder
        spines = decoder._spines
        constructed = len(spines)
        values = []
        for _ in range(count):
            plain_value, offset = decode_plain(data, offset)
            provenance, offset = decoder.decode_provenance(data, offset)
            values.append(AnnotatedValue(plain_value, provenance))
        return tuple(values), offset, tuple(spines[constructed:])

    # -- digested frames (cross-shard transport) --------------------------

    def encode_frame(
        self, payload: tuple[AnnotatedValue, ...]
    ) -> tuple[bytes, tuple[Provenance, ...]]:
        """One length-prefixed, digest-sealed payload2 frame.

        Returns ``(frame bytes, newly registered spine nodes)``, the
        nodes as :meth:`encode_payload` reports them.
        """

        body, new_nodes = self.encode_payload(payload)
        return (
            encode_varint(len(body)) + body + _frame_digest(body, payload),
            new_nodes,
        )

    def decode_frame(
        self, data: bytes, offset: int = 0
    ) -> tuple[tuple[AnnotatedValue, ...], int, tuple[Provenance, ...]]:
        """Decode and digest-check one frame from :meth:`encode_frame`.

        Raises :class:`WireFormatError` on any corruption — in the body
        (either the decode fails outright or the recomputed digest
        mismatches) or in the digest itself.  A streaming codec whose
        frame fails this check is poisoned: the failed decode may have
        polluted the shared back-reference tables, so the caller must
        retire the link (the shard router quarantines it) rather than
        decode further frames.  The third item is the spine nodes the
        frame constructed, as :meth:`decode_payload` reports them.
        """

        length, offset = decode_varint(data, offset)
        body_end = offset + length
        if body_end + DIGEST_SIZE > len(data):
            raise WireFormatError(
                f"truncated frame: {length} body bytes + digest claimed "
                f"but only {len(data) - offset} remain",
                offset,
            )
        body = data[offset:body_end]
        shipped = data[body_end:body_end + DIGEST_SIZE]
        payload, consumed, new_nodes = self.decode_payload(body)
        if consumed != length:
            raise WireFormatError(
                f"{length - consumed} trailing bytes inside frame body",
                offset + consumed,
            )
        if _frame_digest(body, payload) != shipped:
            raise WireFormatError("frame digest mismatch", body_end)
        return payload, body_end + DIGEST_SIZE, new_nodes


def _frame_digest(
    body: bytes, payload: tuple[AnnotatedValue, ...]
) -> bytes:
    """Seal of a frame: binds the raw bytes *and* the Merkle digests.

    The byte half catches transport corruption anywhere in the frame
    (including the plain values, which the Merkle chain does not cover);
    the digest half commits the sender's *structural* view of every
    history, so a decode that somehow diverges from the encoder's DAG
    (desynced back-reference tables) is also caught.
    """

    hasher = blake2b(b"repro.frame|", digest_size=DIGEST_SIZE)
    hasher.update(body)
    for value in payload:
        hasher.update(value.provenance.digest)
    return hasher.digest()
