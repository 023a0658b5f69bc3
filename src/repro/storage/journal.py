"""The write-ahead delivery journal and the shard window WAL.

Two record streams live here:

* The **delivery journal** (``journal-<gen>.seg``): every delivery the
  middleware hands to a receiver, in delivery order, encoded with the
  v2 wire codec in streaming mode so each generation's spine table is
  shared across records (first occurrence inline, back-references
  after — the same delta encoding the cross-shard wire uses).  Each
  delivery record also carries the attestation tags of the spine nodes
  it introduced, so a recovered :class:`AttestationStore` can answer
  verify queries without the signing keys ever leaving the manifest.
  Encoding is *deferred*, sizer-thunk style: :meth:`DurabilitySink.
  record_delivery` appends object references to a pending list and the
  bytes are produced in batches at :meth:`~DurabilitySink.flush` — the
  hot delivery path pays one list append.

* The **window WAL** (``windows.seg``): shard workers journal each
  barrier window *before* executing it — boundary, event budget, and
  the cross-shard envelopes the conductor routed in.  Because the
  engine is deterministic, this WAL is a complete recipe for rebuilding
  a killed shard: a replacement process replays the journaled windows
  from ``t = 0`` and arrives at the exact pre-crash state.

Journal entry payloads (inside the CRC framing of
:mod:`repro.storage.segments`)::

    delivery  0x01 ‖ f64 time ‖ name principal ‖ name channel
                   ‖ varint branch ‖ f64 latency ‖ v2 frame(values)
                   ‖ varint n_new ‖ n_new × (0x00 | 0x01 ‖ tag16)
    note      0x02 ‖ name kind ‖ name detail
    window    0x03 ‖ f64 boundary ‖ varint budget
                   ‖ varint len ‖ pickle(envelopes)

The chained **trace digest** commits to the delivery order: starting
from sixteen zero bytes, each delivery folds in as
``blake2b(prev ‖ key, 16)`` where *key* binds time, principal, channel,
branch, and every stamped value with its provenance digest.  Checkpoint
footers carry it; recovery recomputes it; the E23 gate compares it
across the crashed and crash-free runs.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import StorageError, WireFormatError
from repro.core.names import Channel, Principal
from repro.core.provenance import Provenance
from repro.core.values import AnnotatedValue
from repro.runtime.wire import (
    Codec,
    _decode_name,
    _encode_name,
    decode_varint,
    encode_varint,
)
from repro.storage.segments import (
    AttestationSpill,
    DurableStore,
    SegmentWriter,
    read_segment,
    repair_segment,
)

__all__ = [
    "DeliveryEntry",
    "DurabilitySink",
    "NoteEntry",
    "WindowEntry",
    "WindowJournal",
    "ZERO_DIGEST",
    "chain_digest",
    "decode_entry",
    "delivery_key",
    "encode_delivery_entry",
    "read_journal",
    "read_window_journal",
]

K_DELIVERY = 0x01
_K_DELIVERY_BYTE = bytes((K_DELIVERY,))
K_NOTE = 0x02
K_WINDOW = 0x03
K_HEADER = 0x10
K_FOOTER = 0x11

ZERO_DIGEST = b"\x00" * 16

_F64 = struct.Struct("<d")


def chain_digest(previous: bytes, key: bytes) -> bytes:
    """Fold one delivery key into the running trace digest."""

    return hashlib.blake2b(previous + key, digest_size=16).digest()


def delivery_key(
    time: float,
    principal: Principal,
    channel: Channel,
    branch_index: int,
    values: Tuple[AnnotatedValue, ...],
) -> bytes:
    """Canonical bytes binding one delivery for the trace digest."""

    parts = [
        _F64.pack(time),
        principal.name.encode("utf-8"),
        b"\x00",
        channel.name.encode("utf-8"),
        b"\x00",
        encode_varint(branch_index),
    ]
    for annotated in values:
        plain = annotated.value
        parts.append(b"\x01" if isinstance(plain, Principal) else b"\x02")
        parts.append(plain.name.encode("utf-8"))
        parts.append(b"\x00")
        parts.append(annotated.provenance.digest)
    return b"".join(parts)


@dataclass(frozen=True, slots=True)
class DeliveryEntry:
    """One journaled delivery, as decoded back from a segment."""

    time: float
    principal: Principal
    channel: Channel
    branch_index: int
    latency: float
    values: Tuple[AnnotatedValue, ...]
    new_nodes: Tuple[Provenance, ...]
    """Spine nodes this record introduced to its segment's codec table
    (post-order, matching decode order)."""
    tags: Tuple[Optional[bytes], ...]
    """Attestation tags aligned with :attr:`new_nodes`; ``None`` where
    the run had crypto off or the node was never attested."""

    def key(self) -> bytes:
        return delivery_key(
            self.time,
            self.principal,
            self.channel,
            self.branch_index,
            self.values,
        )


@dataclass(frozen=True, slots=True)
class NoteEntry:
    """A journaled state transition that is not a delivery.

    ``kind`` is one of ``quarantine`` (detail: principal name),
    ``revoke`` (detail: certificate scope), or ``tamper`` (detail: the
    metrics tamper kind) — the punishments and detections recovery must
    re-apply so a restored runtime distrusts whom the crashed one did.
    """

    kind: str
    detail: str


@dataclass(frozen=True, slots=True)
class WindowEntry:
    """One write-ahead barrier window from a shard's window WAL."""

    boundary: float
    budget: int
    envelopes: tuple


def encode_delivery_entry(
    codec: Codec,
    time: float,
    principal: Principal,
    channel: Channel,
    branch_index: int,
    latency: float,
    values: Tuple[AnnotatedValue, ...],
    tag_lookup: Optional[Callable[[Provenance], Optional[bytes]]],
) -> Tuple[bytes, Tuple[Provenance, ...], Tuple[Optional[bytes], ...]]:
    """Encode one delivery through ``codec``; returns payload + spine delta.

    The payload body rides the codec's raw :meth:`Codec.encode_payload`
    — no per-frame blake2b seal: the segment's CRC32 framing already
    catches byte corruption and the chained trace digest commits the
    structural history, so the wire frame's belt-and-braces digest
    would only tax the capture hot path.
    """

    encoder = codec._encoder
    registered = len(encoder._spine_order)
    body = codec.encode_payload(values)
    new_nodes = tuple(encoder._spine_order[registered:])
    tags = tuple(
        tag_lookup(node) if tag_lookup is not None else None
        for node in new_nodes
    )
    parts = [
        _K_DELIVERY_BYTE,
        _F64.pack(time),
        _encode_name(principal.name),
        _encode_name(channel.name),
        encode_varint(branch_index),
        _F64.pack(latency),
        body,
        encode_varint(len(tags)),
    ]
    for tag in tags:
        parts.append(b"\x01" + tag if tag is not None else b"\x00")
    return b"".join(parts), new_nodes, tags


def encode_note_entry(kind: str, detail: str) -> bytes:
    return bytes((K_NOTE,)) + _encode_name(kind) + _encode_name(detail)


def decode_entry(payload: bytes, codec: Codec):
    """Decode one journal record payload (delivery or note).

    Truncated or malformed bytes raise :class:`StorageError` — never a
    bare ``struct.error``, ``IndexError``, name ``ValueError`` or the
    codec's :class:`WireFormatError`.  A failed decode may leave
    ``codec``'s tables polluted, so the stream it belongs to is done.
    """

    try:
        return _decode_entry(payload, codec)
    except (WireFormatError, struct.error, IndexError, ValueError) as error:
        raise StorageError(f"malformed journal record: {error}") from error


def _decode_entry(payload: bytes, codec: Codec):
    if not payload:
        raise StorageError("empty journal record")
    kind = payload[0]
    if kind == K_NOTE:
        note_kind, offset = _decode_name(payload, 1)
        detail, offset = _decode_name(payload, offset)
        if offset != len(payload):
            raise StorageError("trailing bytes after note record")
        return NoteEntry(note_kind, detail)
    if kind != K_DELIVERY:
        raise StorageError(f"unknown journal record kind 0x{kind:02x}")
    offset = 1
    (time,) = _F64.unpack_from(payload, offset)
    offset += _F64.size
    principal_name, offset = _decode_name(payload, offset)
    channel_name, offset = _decode_name(payload, offset)
    branch_index, offset = decode_varint(payload, offset)
    (latency,) = _F64.unpack_from(payload, offset)
    offset += _F64.size
    decoder = codec._decoder
    constructed = len(decoder._spines)
    values, offset = codec.decode_payload(payload, offset)
    new_nodes = tuple(decoder._spines[constructed:])
    n_tags, offset = decode_varint(payload, offset)
    if n_tags != len(new_nodes):
        raise StorageError(
            f"journal record carries {n_tags} tags for "
            f"{len(new_nodes)} new spine nodes"
        )
    tags: List[Optional[bytes]] = []
    for _ in range(n_tags):
        marker = payload[offset]
        offset += 1
        if marker == 0x01:
            tags.append(payload[offset : offset + 16])
            offset += 16
        elif marker == 0x00:
            tags.append(None)
        else:
            raise StorageError(f"bad tag marker 0x{marker:02x}")
    if offset != len(payload):
        raise StorageError("trailing bytes after delivery record")
    return DeliveryEntry(
        time=time,
        principal=Principal(principal_name),
        channel=Channel(channel_name),
        branch_index=branch_index,
        latency=latency,
        values=values,
        new_nodes=new_nodes,
        tags=tuple(tags),
    )


def read_journal(
    path: Union[str, Path],
) -> Tuple[list, bool]:
    """Decode one journal generation; returns ``(entries, torn)``.

    A torn tail (crash mid-append) truncates the view to the valid
    prefix — entries past the tear are gone, which is exactly the
    write-ahead contract: nothing past the last complete record was
    ever acknowledged.  CRC-valid records that fail to *decode* raise
    :class:`StorageError` instead: that is corruption the frame check
    cannot explain, not a torn tail.
    """

    view = read_segment(path)
    codec = Codec()
    entries = []
    for payload in view.records:
        entries.append(decode_entry(payload, codec))
    return entries, view.torn


class DurabilitySink:
    """Streams the middleware's delivered record into a durable store.

    The middleware calls :meth:`record_delivery` (hot path: one list
    append) and :meth:`note`; the sink encodes pending entries in
    batches of :data:`FLUSH_BOUND` through one streaming codec per
    journal generation.  :meth:`checkpoint` compacts everything
    journaled so far into an atomic, generation-stamped snapshot and
    rolls to a fresh generation (and codec table).

    A durable runtime passes its attestation ``spill`` too: it is
    flushed with the journal, fsynced with it (on checkpoints and on
    ``close(sync=True)``) and closed with the sink, so no buffered tag
    outlives a closed sink.
    """

    FLUSH_BOUND = 1024

    __slots__ = (
        "store",
        "generation",
        "trace_digest",
        "delivered_count",
        "notes_count",
        "_lookup",
        "_spill",
        "_codec",
        "_writer",
        "_pending",
    )

    def __init__(
        self,
        store: Union[DurableStore, str, Path],
        attestation_lookup: Optional[
            Callable[[Provenance], Optional[bytes]]
        ] = None,
        wipe: bool = False,
        spill: Optional[AttestationSpill] = None,
    ) -> None:
        if not isinstance(store, DurableStore):
            store = DurableStore(store)
        if wipe:
            store.reset_record()
        if not store.is_empty_record():
            raise StorageError(
                f"store {store.root} already holds a record "
                f"(journals {store.journal_generations()}, checkpoints "
                f"{store.checkpoint_generations()}); recover it or pass "
                f"wipe=True to start over"
            )
        self.store = store
        self.generation = 1
        self.trace_digest = ZERO_DIGEST
        self.delivered_count = 0
        self.notes_count = 0
        self._lookup = attestation_lookup
        self._spill = spill
        self._codec = Codec()
        self._writer = SegmentWriter(store.journal_path(self.generation))
        self._pending: list = []

    # -- recording (hot path) -----------------------------------------

    def record_delivery(
        self,
        time: float,
        principal: Principal,
        channel: Channel,
        values: Tuple[AnnotatedValue, ...],
        branch_index: int,
        latency: float,
    ) -> None:
        self._pending.append(
            (time, principal, channel, values, branch_index, latency)
        )
        if len(self._pending) >= self.FLUSH_BOUND:
            self.flush()

    def note(self, kind: str, detail: str) -> None:
        self._pending.append((kind, detail))
        if len(self._pending) >= self.FLUSH_BOUND:
            self.flush()

    # -- persistence ---------------------------------------------------

    def flush(self, sync: bool = False) -> None:
        """Encode and append every pending entry, in order."""

        if self._pending:
            writer = self._writer
            codec = self._codec
            lookup = self._lookup
            digest = self.trace_digest
            for entry in self._pending:
                if len(entry) == 2:
                    writer.append(encode_note_entry(*entry))
                    self.notes_count += 1
                    continue
                time, principal, channel, values, branch, latency = entry
                payload, _, _ = encode_delivery_entry(
                    codec,
                    time,
                    principal,
                    channel,
                    branch,
                    latency,
                    values,
                    lookup,
                )
                writer.append(payload)
                digest = chain_digest(
                    digest,
                    delivery_key(time, principal, channel, branch, values),
                )
                self.delivered_count += 1
            self.trace_digest = digest
            self._pending.clear()
        if self._spill is not None:
            self._spill.flush(sync=sync)
        self._writer.flush(sync=sync)

    def checkpoint(self, state: dict, compact: bool = True):
        """Compact the record into a new checkpoint and roll generations.

        ``state`` is the runtime's snapshot header (time, event count,
        summary, quarantined principals, ...); the sink adds its own
        generation, counters, and trace digest.  Returns the checkpoint
        path.  Journals subsumed by the new checkpoint (and superseded
        older checkpoints) are deleted unless ``compact=False``.
        """

        from repro.storage.checkpoint import collect_entries, write_checkpoint

        self.flush(sync=True)
        self._writer.close()
        record = collect_entries(self.store)
        header = dict(state)
        header["generation"] = self.generation
        header["delivered"] = self.delivered_count
        header["notes"] = [
            [note.kind, note.detail] for note in record.notes
        ]
        header["trace_digest"] = self.trace_digest.hex()
        path = write_checkpoint(
            self.store, self.generation, header, record.entries
        )
        if compact:
            self.store.compact()
        self.generation += 1
        self._codec = Codec()
        self._writer = SegmentWriter(
            self.store.journal_path(self.generation)
        )
        return path

    def close(self, sync: bool = True) -> None:
        self.flush(sync=sync)
        self._writer.close(sync=sync)
        if self._spill is not None:
            self._spill.close(sync=False)  # the flush above synced it


class WindowJournal:
    """Write-ahead log of barrier windows for one shard.

    Opened for append after repairing any torn tail from a previous
    incarnation.  Every :meth:`record` is flushed and fsynced before
    returning — the window must be durable *before* the worker executes
    it, or a kill mid-window would leave the replacement without its
    recipe.
    """

    __slots__ = ("path", "_writer")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        repair_segment(self.path)
        self._writer = SegmentWriter(self.path)

    def record(
        self, boundary: float, budget: int, envelopes: Sequence
    ) -> None:
        blob = pickle.dumps(list(envelopes), pickle.HIGHEST_PROTOCOL)
        payload = (
            bytes((K_WINDOW,))
            + _F64.pack(boundary)
            + encode_varint(budget)
            + encode_varint(len(blob))
            + blob
        )
        self._writer.append(payload)
        self._writer.flush(sync=True)

    def close(self) -> None:
        self._writer.close()


def read_window_journal(
    path: Union[str, Path],
) -> Tuple[List[WindowEntry], bool]:
    """Decode a shard's window WAL; returns ``(windows, torn)``."""

    view = read_segment(path)
    windows: List[WindowEntry] = []
    for payload in view.records:
        if not payload or payload[0] != K_WINDOW:
            raise StorageError(
                f"window WAL {path} holds a non-window record"
            )
        offset = 1
        (boundary,) = _F64.unpack_from(payload, offset)
        offset += _F64.size
        budget, offset = decode_varint(payload, offset)
        length, offset = decode_varint(payload, offset)
        blob = payload[offset : offset + length]
        if len(blob) != length or offset + length != len(payload):
            raise StorageError(f"window WAL {path} record length mismatch")
        envelopes = tuple(pickle.loads(blob))
        windows.append(WindowEntry(boundary, budget, envelopes))
    return windows, view.torn
