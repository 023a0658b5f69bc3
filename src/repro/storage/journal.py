"""The write-ahead delivery journal.

The **delivery journal** (``journal-<gen>.seg``) holds every delivery
the middleware hands to a receiver, in delivery order, encoded with one
wire :class:`~repro.runtime.wire.Codec` so one spine table is shared
across every record of every generation (first occurrence inline,
back-references after — the same delta encoding the cross-shard wire
uses).  This is the only encoding of the record: a checkpoint seals a
generation (:mod:`repro.storage.checkpoint`), and a reader decodes
generations in order through one codec.  Each delivery record also
carries the attestation tags of the spine nodes it introduced, so a
recovered :class:`AttestationStore` can answer verify queries without
the signing keys ever leaving the manifest.  Encoding is *deferred*,
sizer-thunk style: :meth:`DurabilitySink.record_delivery` appends the
middleware's :class:`~repro.runtime.metrics.DeliveryRecord` to a
pending list and the bytes are produced in batches at
:meth:`~DurabilitySink.flush` — the hot delivery path pays one list
append.  Reading a delivery back (:func:`decode_entry`) yields that
same record shape.

Journal entry payloads (inside the CRC framing of
:mod:`repro.storage.segments`)::

    delivery  0x01 ‖ f64 time ‖ name principal ‖ name channel
                   ‖ varint branch ‖ f64 latency ‖ payload2(values)
                   ‖ varint n_new ‖ n_new × tag
    note      0x02 ‖ name kind ‖ name detail
    tag            0x00 (never attested) | 0x01 ‖ tag16

The chained **trace digest** commits to the delivery order: starting
from sixteen zero bytes, each delivery folds in as
``blake2b(prev ‖ key, 16)`` where *key* binds time, principal, channel,
branch, and every stamped value with its provenance digest.  Seals
carry it; recovery recomputes it; the E23 gate compares it across the
crashed and crash-free runs.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.errors import StorageError, WireFormatError
from repro.core.names import Channel, Principal
from repro.core.provenance import Provenance
from repro.core.values import AnnotatedValue
from repro.runtime.metrics import DeliveryRecord
from repro.runtime.wire import (
    Codec,
    _decode_name,
    _encode_name,
    decode_varint,
    encode_varint,
)
from repro.storage.segments import DurableStore, SegmentWriter, read_segment

__all__ = [
    "DurabilitySink",
    "NoteEntry",
    "ZERO_DIGEST",
    "chain_digest",
    "decode_entry",
    "delivery_key",
    "encode_delivery_entry",
    "read_journal",
]

K_DELIVERY = 0x01
_K_DELIVERY_BYTE = bytes((K_DELIVERY,))
K_NOTE = 0x02

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
class NoteEntry:
    """A journaled state transition that is not a delivery.

    ``kind`` is one of ``quarantine`` (detail: principal name),
    ``revoke`` (detail: certificate scope), ``tamper`` (detail: the
    metrics tamper kind) or ``poison`` (detail: the retired cross-shard
    link and why) — the punishments and detections the middleware's
    sinks receive as notes.  Recovery re-applies quarantine and
    revocation so a restored runtime distrusts whom the crashed one did.
    """

    kind: str
    detail: str


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

    body, new_nodes = codec.encode_payload(values)
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


def _decode_tags(
    payload: bytes, offset: int
) -> Tuple[Tuple[Optional[bytes], ...], int]:
    count, offset = decode_varint(payload, offset)
    tags: List[Optional[bytes]] = []
    for _ in range(count):
        marker = payload[offset]
        offset += 1
        if marker == 0x01:
            tag = payload[offset : offset + 16]
            if len(tag) != 16:
                raise StorageError("truncated attestation tag")
            tags.append(tag)
            offset += 16
        elif marker == 0x00:
            tags.append(None)
        else:
            raise StorageError(f"bad tag marker 0x{marker:02x}")
    return tuple(tags), offset


def encode_note_entry(kind: str, detail: str) -> bytes:
    return bytes((K_NOTE,)) + _encode_name(kind) + _encode_name(detail)


def decode_entry(
    payload: bytes,
    codec: Codec,
    attested: Optional[Dict[Provenance, bytes]] = None,
) -> Union[DeliveryRecord, NoteEntry]:
    """Decode one journal record payload (delivery or note).

    A delivery decodes to the :class:`DeliveryRecord` the middleware
    handed its sinks; the latency field is checked and skipped, since
    no reader uses it.  The attestation tags a delivery carries go into
    ``attested``, when given: each newly introduced spine node maps to
    its tag, first write kept, never-attested nodes left out.

    Truncated or malformed bytes raise :class:`StorageError` — never a
    bare ``struct.error``, ``IndexError``, name ``ValueError`` or the
    codec's :class:`WireFormatError`.  A failed decode may leave
    ``codec``'s tables polluted, so the stream it belongs to is done.
    """

    try:
        return _decode_entry(payload, codec, attested)
    except (WireFormatError, struct.error, IndexError, ValueError) as error:
        raise StorageError(f"malformed journal record: {error}") from error


def _decode_entry(
    payload: bytes,
    codec: Codec,
    attested: Optional[Dict[Provenance, bytes]],
) -> Union[DeliveryRecord, NoteEntry]:
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
    _F64.unpack_from(payload, offset)  # latency: present, unread
    offset += _F64.size
    values, offset, new_nodes = codec.decode_payload(payload, offset)
    tags, offset = _decode_tags(payload, offset)
    if len(tags) != len(new_nodes):
        raise StorageError(
            f"journal record carries {len(tags)} tags for "
            f"{len(new_nodes)} new spine nodes"
        )
    if offset != len(payload):
        raise StorageError("trailing bytes after delivery record")
    if attested is not None:
        for node, tag in zip(new_nodes, tags):
            if tag is not None:
                attested.setdefault(node, tag)
    return DeliveryRecord(
        time,
        Principal(principal_name),
        Channel(channel_name),
        values,
        branch_index,
    )


def read_journal(
    path: Union[str, Path],
    codec: Optional[Codec] = None,
    attested: Optional[Dict[Provenance, bytes]] = None,
) -> Tuple[list, bool]:
    """Decode one journal generation; returns ``(entries, torn)``.

    ``codec`` carries the stream's tables in from the generations before
    this one (:func:`~repro.storage.checkpoint.collect_entries` passes
    one codec through them all); a fresh codec reads generation 1.
    ``attested`` collects the generation's attestation tags (see
    :func:`decode_entry`).  A torn tail (crash mid-append) truncates the
    view to the valid prefix — entries past the tear are gone, which is
    exactly the write-ahead contract: nothing past the last complete
    record was ever acknowledged.  CRC-valid records that fail to
    *decode* raise :class:`StorageError` instead: that is corruption the
    frame check cannot explain, not a torn tail.
    """

    view = read_segment(path)
    if codec is None:
        codec = Codec()
    entries = [
        decode_entry(payload, codec, attested) for payload in view.records
    ]
    return entries, view.torn


class DurabilitySink:
    """Streams the middleware's delivered record into a durable store.

    A sink on the middleware's delivery pipeline: the middleware calls
    :meth:`record_delivery` (hot path: one list append) and
    :meth:`note`; the sink encodes pending entries in batches of
    :data:`FLUSH_BOUND` through one streaming codec that lives as long
    as the store.  :meth:`checkpoint` seals the current
    journal generation and rolls to the next one; it decodes and
    re-encodes nothing.

    ``attestation_lookup`` maps a spine node to its tag; each delivery
    entry carries the tags of the spine nodes it introduces, so the
    journal is the only durable home of attestation tags.
    """

    FLUSH_BOUND = 1024

    __slots__ = (
        "store",
        "generation",
        "trace_digest",
        "delivered_count",
        "_lookup",
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
    ) -> None:
        if not isinstance(store, DurableStore):
            store = DurableStore(store)
        if not store.is_empty_record():
            raise StorageError(
                f"store {store.root} already holds a record "
                f"(journals {store.journal_generations()}, checkpoints "
                f"{store.checkpoint_generations()}); recover it or "
                f"wipe() the store to start over"
            )
        self.store = store
        self.generation = 1
        self.trace_digest = ZERO_DIGEST
        self.delivered_count = 0
        self._lookup = attestation_lookup
        self._codec = Codec()
        self._writer = SegmentWriter(store.journal_path(self.generation))
        self._pending: list = []

    # -- recording (hot path) -----------------------------------------

    def record_delivery(self, record: DeliveryRecord, latency: float) -> None:
        self._pending.append((record, latency))
        if len(self._pending) >= self.FLUSH_BOUND:
            self.flush()

    def note(self, kind: str, detail: str) -> None:
        self._pending.append(NoteEntry(kind, detail))
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
                if type(entry) is NoteEntry:
                    writer.append(encode_note_entry(entry.kind, entry.detail))
                    continue
                (time, principal, channel, values, branch), latency = entry
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
        self._writer.flush(sync=sync)

    def checkpoint(self) -> Path:
        """Seal the current generation and roll to the next one.

        The journal is flushed and fsynced, then the generation's seal
        — its number, the delivered count and the trace digest — is
        written atomically; nothing is decoded or re-encoded, and the
        codec carries on into the next generation.  Nothing else is
        written: a query index is rebuilt from the journal, one
        generation per seal.  Returns the seal's path.
        """

        from repro.storage.checkpoint import write_checkpoint

        self.flush(sync=True)
        self._writer.close(sync=False)
        path = write_checkpoint(
            self.store,
            self.generation,
            self.delivered_count,
            self.trace_digest,
        )
        self.generation += 1
        self._writer = SegmentWriter(
            self.store.journal_path(self.generation)
        )
        return path

    def close(self, sync: bool = True) -> None:
        """Flush and close the open generation; a second call does nothing."""

        if self._writer.closed:
            return
        self.flush(sync=sync)
        self._writer.close(sync=sync)
