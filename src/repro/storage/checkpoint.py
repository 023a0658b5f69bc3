"""Generation seals, and reading the record back through them.

The journal is the record: every generation is one segment of a single
streaming codec (:mod:`repro.storage.journal`).  A checkpoint copies
none of it.  It *seals* a generation: once the generation's journal is
flushed and fsynced, a one-record segment is published by atomic
rename::

    checkpoint-<g>.ck   0x12 ‖ u64 generation ‖ u64 delivered
                             ‖ trace digest16          (CRC-framed)

A seal commits to the delivered count and the chained trace digest at
the end of generation *g*.  Its size does not depend on how many
deliveries it covers, and writing it costs O(1).

:func:`collect_entries` decodes generations ``1..N`` in order through
one codec and checks each sealed generation against its seal:

* a valid seal that disagrees with the running count or digest is a
  :class:`StorageError` naming the generation;
* a corrupt seal is skipped — it commits nothing, and the journal it
  sealed still holds every delivery;
* a torn or missing generation ends the record there.  Later
  generations back-reference what it held, so they are reported in
  ``torn`` and never decoded.

The runtime's live scheduler state (closures, blocked receivers) is
deliberately *not* snapshotted — it cannot be pickled and does not need
to be: the engine is deterministic, so the manifest's config plus the
delivered record is a complete description, and recovery re-executes
rather than resumes (see :mod:`repro.storage.recover`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.errors import StorageError
from repro.core.provenance import Provenance
from repro.runtime.metrics import DeliveryRecord
from repro.runtime.wire import Codec
from repro.storage.journal import (
    ZERO_DIGEST,
    NoteEntry,
    chain_digest,
    delivery_key,
    read_journal,
)
from repro.storage.segments import (
    DurableStore,
    atomic_write_bytes,
    frame_record,
    read_segment,
)

__all__ = [
    "RecordView",
    "Seal",
    "collect_entries",
    "read_checkpoint",
    "write_checkpoint",
]

K_SEAL = 0x12

_SEAL = struct.Struct("<QQ16s")


class Seal(NamedTuple):
    """What a checkpoint commits to at the end of its generation."""

    generation: int
    delivered: int
    trace_digest: bytes


@dataclass(frozen=True, slots=True)
class RecordView:
    """The store's delivered record, decoded from its journals.

    :attr:`entries` are the :class:`DeliveryRecord`\\ s the capture's
    middleware built, in trace order, so they compare with ``==`` to a
    live ``metrics.delivered``."""

    entries: List[DeliveryRecord]
    notes: List[NoteEntry]
    attested: Dict[Provenance, bytes]
    """Every journaled attestation tag, keyed by the spine node it
    attests, in the order the journal introduced the nodes."""
    torn: List[str]
    """Names of journal segments the record lost: the first torn or
    missing generation (its valid prefix is kept) and every later one."""
    trace_digest: bytes
    segments: List[Tuple[int, int]]
    """``(generation, cumulative delivery count)`` per decoded journal
    generation, in record order.  Maps a delivery index back to the
    generation that persisted it — the diagnostic ``repro recover``
    names when a replay diverges."""
    checkpoint_generation: int
    """The newest generation whose seal matched the record (0: none)."""

    def generation_of(self, index: int) -> Optional[int]:
        """The generation whose segment holds delivery ``index``."""

        for generation, end in self.segments:
            if index < end:
                return generation
        return None


def write_checkpoint(
    store: DurableStore,
    generation: int,
    delivered: int,
    trace_digest: bytes,
) -> Path:
    """Seal ``generation`` atomically; returns the seal's path.

    The caller has fsynced the generation's journal: the seal claims
    ``delivered`` deliveries and ``trace_digest`` at its end.
    """

    payload = bytes((K_SEAL,)) + _SEAL.pack(
        generation, delivered, trace_digest
    )
    return atomic_write_bytes(
        store.checkpoint_path(generation), frame_record(payload)
    )


def read_checkpoint(path: Union[str, Path]) -> Seal:
    """Read one seal; :class:`StorageError` if it is not a valid one."""

    view = read_segment(path)
    payload = view.records[0] if len(view.records) == 1 else b""
    if view.torn or len(payload) != 1 + _SEAL.size or payload[0] != K_SEAL:
        raise StorageError(f"checkpoint {path} is not a valid seal")
    return Seal._make(_SEAL.unpack_from(payload, 1))


def collect_entries(
    store: DurableStore, view: type = RecordView, /, **fields
) -> RecordView:
    """The full delivered record: journal generations 1..N, one codec.

    Returns a ``view`` (a :class:`RecordView` or a subclass built with
    the extra ``fields``).  See the module docstring for how seals,
    torn and missing generations shape it.
    """

    journals = set(store.journal_generations())
    seals = set(store.checkpoint_generations())
    codec = Codec()
    entries: List[DeliveryRecord] = []
    notes: List[NoteEntry] = []
    attested: Dict[Provenance, bytes] = {}
    torn: List[str] = []
    segments: List[Tuple[int, int]] = []
    digest = ZERO_DIGEST
    sealed = 0
    for generation in sorted(journals | seals):
        path = store.journal_path(generation)
        expected = len(segments) + 1
        if torn or generation != expected or generation not in journals:
            # later generations back-reference what a torn or missing
            # one held: the record ends at the first of them
            torn.append(path.name)
            continue
        decoded, was_torn = read_journal(path, codec, attested)
        for entry in decoded:
            if type(entry) is NoteEntry:
                notes.append(entry)
                continue
            entries.append(entry)
            time, principal, channel, values, branch = entry
            digest = chain_digest(
                digest, delivery_key(time, principal, channel, branch, values)
            )
        segments.append((generation, len(entries)))
        if was_torn:
            torn.append(path.name)
            continue
        if generation not in seals:
            continue
        try:
            seal = read_checkpoint(store.checkpoint_path(generation))
        except StorageError:
            continue
        if seal != (generation, len(entries), digest):
            raise StorageError(
                f"generation {generation} disagrees with its seal: the "
                f"seal claims generation {seal.generation}, "
                f"{seal.delivered} deliveries, digest "
                f"{seal.trace_digest.hex()}; the journal holds "
                f"{len(entries)} deliveries, digest {digest.hex()}"
            )
        sealed = generation
    return view(
        entries=entries,
        notes=notes,
        attested=attested,
        torn=torn,
        trace_digest=digest,
        segments=segments,
        checkpoint_generation=sealed,
        **fields,
    )
