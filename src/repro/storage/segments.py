"""Append-only CRC-framed segments and the durable store layout.

A *segment* is a flat file of records, each framed as::

    ┌────────────────┬─────────────┬──────────────────┐
    │ varint(len(p)) │ payload  p  │ crc32(p)  4B LE  │
    └────────────────┴─────────────┴──────────────────┘

The length prefix reuses the wire layer's canonical LEB128 varints
(overlong encodings rejected), so a segment reader needs no schema to
skip records it does not understand.  The CRC makes every record
self-validating: a crash mid-append leaves a *torn tail* — a partial
length, a short payload, or a CRC mismatch — and :func:`read_segment`
detects it and yields only the valid prefix.  :func:`repair_segment`
truncates the file in place to that prefix so the segment can be
reopened for append.

This module deliberately knows nothing about what payloads *mean*; the
entry formats live in :mod:`repro.storage.journal`.  It must not import
:mod:`repro.runtime` (beyond the self-contained varint helpers in
:mod:`repro.runtime.wire`) — the runtime imports storage lazily and a
cycle here would deadlock package init.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.errors import StorageError, WireFormatError
from repro.runtime.wire import decode_varint, encode_varint

__all__ = [
    "AttestationSpill",
    "DurableStore",
    "SegmentView",
    "SegmentWriter",
    "atomic_write_bytes",
    "frame_record",
    "iter_record_spans",
    "read_segment",
    "repair_segment",
    "torn_truncate",
]

_CRC_SIZE = 4


def frame_record(payload: bytes) -> bytes:
    """Length-prefix and CRC-frame one record payload."""

    return (
        encode_varint(len(payload))
        + payload
        + zlib.crc32(payload).to_bytes(_CRC_SIZE, "little")
    )


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename).

    Readers never observe a partially written file: they see either the
    old content or the new, complete content.  Used for checkpoints and
    manifests; journals are append-only and rely on CRC framing instead.
    """

    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return path


class SegmentWriter:
    """Append-only writer for one CRC-framed segment file."""

    __slots__ = ("path", "_handle", "records_written", "bytes_written")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "ab")
        self.records_written = 0
        self.bytes_written = 0

    def append(self, payload: bytes) -> int:
        """Frame and buffer one record; returns the framed length."""

        framed = frame_record(payload)
        self._handle.write(framed)
        self.records_written += 1
        self.bytes_written += len(framed)
        return len(framed)

    def flush(self, sync: bool = False) -> None:
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def close(self, sync: bool = True) -> None:
        if self._handle.closed:
            return
        self.flush(sync=sync)
        self._handle.close()


class SegmentView:
    """The readable prefix of a segment plus its torn-tail verdict."""

    __slots__ = ("records", "valid_bytes", "torn", "reason")

    def __init__(
        self,
        records: List[bytes],
        valid_bytes: int,
        torn: bool,
        reason: str = "",
    ) -> None:
        self.records = records
        self.valid_bytes = valid_bytes
        self.torn = torn
        self.reason = reason


def iter_record_spans(data: bytes) -> Iterator[Tuple[int, int, bytes]]:
    """Yield ``(start, end, payload)`` for each valid record in ``data``.

    Stops silently at the first malformed record — callers that care
    about *why* use :func:`read_segment`, which reports the reason.
    """

    view = _scan(data)
    offset = 0
    for payload in view.records:
        framed = len(frame_record(payload))
        yield offset, offset + framed, payload
        offset += framed


def _scan(data: bytes) -> SegmentView:
    records: List[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        start = offset
        try:
            length, offset = decode_varint(data, offset)
        except WireFormatError as error:
            return SegmentView(
                records, start, True, f"torn length prefix: {error}"
            )
        end = offset + length + _CRC_SIZE
        if end > total:
            return SegmentView(
                records,
                start,
                True,
                f"short record: need {end - total} more bytes",
            )
        payload = data[offset : offset + length]
        stored = int.from_bytes(
            data[offset + length : end], "little"
        )
        if zlib.crc32(payload) != stored:
            return SegmentView(records, start, True, "CRC mismatch")
        records.append(payload)
        offset = end
    return SegmentView(records, total, False)


def read_segment(path: Union[str, Path]) -> SegmentView:
    """Read a segment, truncating the view at the first invalid record.

    A missing file reads as an empty, untorn segment — callers treat
    "never written" and "written nothing" identically.
    """

    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return SegmentView([], 0, False)
    return _scan(data)


def repair_segment(path: Union[str, Path]) -> bool:
    """Truncate a torn segment in place to its last valid record.

    Returns ``True`` if bytes were dropped.  Idempotent: a clean
    segment (or a missing file) is left untouched.
    """

    path = Path(path)
    view = read_segment(path)
    if not view.torn:
        return False
    with open(path, "r+b") as handle:
        handle.truncate(view.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return True


def torn_truncate(path: Union[str, Path]) -> bool:
    """Cut the last record of a segment mid-record (fault injection).

    Leaves the file ending strictly inside its final record's framing —
    the state a crash mid-append produces — so recovery code can be
    exercised against realistic torn tails.  Returns ``False`` when the
    segment has no records to tear.
    """

    path = Path(path)
    view = read_segment(path)
    if not view.records:
        return False
    last_payload = view.records[-1]
    framed = len(frame_record(last_payload))
    start = view.valid_bytes - framed
    # a frame is at least 6 bytes (varint + payload byte + CRC32), so
    # the cut lands strictly inside the final record
    cut = start + max(1, framed // 2)
    with open(path, "r+b") as handle:
        handle.truncate(cut)
        handle.flush()
        os.fsync(handle.fileno())
    return True


class AttestationSpill:
    """Fixed-width spill file for attestation tags: ``digest16 ‖ tag16``.

    The in-RAM :class:`~repro.core.integrity.AttestationStore` evicts
    weak entries once they are journaled here; a verify miss seeks the
    tag back by digest.  Records are 32 bytes with no framing — a torn
    tail is simply ``size % 32`` trailing bytes, truncated on open so
    the offset index stays record-aligned.
    """

    RECORD_SIZE = 32
    _DIGEST_SIZE = 16

    __slots__ = ("path", "_index", "_handle", "_size")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._index: Dict[bytes, int] = {}
        self._handle = None
        self._size = 0
        if self.path.exists():
            data = self.path.read_bytes()
            usable = len(data) - len(data) % self.RECORD_SIZE
            if usable != len(data):
                with open(self.path, "r+b") as handle:
                    handle.truncate(usable)
            for offset in range(0, usable, self.RECORD_SIZE):
                digest = data[offset : offset + self._DIGEST_SIZE]
                self._index[digest] = offset
            self._size = usable

    def _file(self):
        if self._handle is None:
            self._handle = open(self.path, "a+b")
        return self._handle

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._index

    def append(self, digest: bytes, tag: bytes) -> None:
        if digest in self._index:
            return
        if (
            len(digest) != self._DIGEST_SIZE
            or len(tag) != self.RECORD_SIZE - self._DIGEST_SIZE
        ):
            raise StorageError(
                f"spill record must be {self._DIGEST_SIZE}+"
                f"{self.RECORD_SIZE - self._DIGEST_SIZE} bytes, got "
                f"{len(digest)}+{len(tag)}"
            )
        self._file().write(digest + tag)
        self._index[digest] = self._size
        self._size += self.RECORD_SIZE

    def lookup(self, digest: bytes) -> Optional[bytes]:
        offset = self._index.get(digest)
        if offset is None:
            return None
        handle = self._file()
        handle.flush()
        handle.seek(offset)
        record = handle.read(self.RECORD_SIZE)
        if (
            len(record) != self.RECORD_SIZE
            or record[: self._DIGEST_SIZE] != digest
        ):
            raise StorageError(
                f"attestation spill corrupt at offset {offset}"
            )
        return record[self._DIGEST_SIZE :]

    def flush(self, sync: bool = False) -> None:
        if self._handle is not None:
            self._handle.flush()
            if sync:
                os.fsync(self._handle.fileno())

    def close(self, sync: bool = True) -> None:
        """Flush and close the handle; a later append or lookup reopens it."""

        if self._handle is not None:
            self.flush(sync=sync)
            self._handle.close()
            self._handle = None


_JOURNAL_PATTERN = re.compile(r"journal-(\d{8})\.seg$")
_CHECKPOINT_PATTERN = re.compile(r"checkpoint-(\d{8})\.ck$")
_QUERY_INDEX_PATTERN = re.compile(r"queryindex-(\d{8})\.seg$")


class DurableStore:
    """Directory layout for one runtime's durable record.

    ::

        <root>/
          MANIFEST.json          # config needed to re-execute the run
          journal-00000001.seg   # delivery journal, generation 1
          checkpoint-00000001.ck # compacted snapshot through gen 1
          journal-00000002.seg   # suffix journaled after the checkpoint
          windows.seg            # shard-only: write-ahead window WAL
          attest.spill           # spilled attestation tags
          shard-0/ shard-1/ ...  # sharded runs: one store per shard

    Generations monotonically increase; checkpoint *g* subsumes journal
    generations ``≤ g``, which :meth:`compact` garbage-collects (their
    spine nodes are unreachable from any live checkpoint — the newest
    checkpoint re-encodes the full record, so older segments pin
    nothing).
    """

    MANIFEST = "MANIFEST.json"

    __slots__ = ("root",)

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def journal_path(self, generation: int) -> Path:
        return self.root / f"journal-{generation:08d}.seg"

    def checkpoint_path(self, generation: int) -> Path:
        return self.root / f"checkpoint-{generation:08d}.ck"

    def query_index_path(self, generation: int) -> Path:
        """The provenance-query-index snapshot beside checkpoint
        ``generation`` (see :mod:`repro.query.persist`)."""

        return self.root / f"queryindex-{generation:08d}.seg"

    def windows_path(self) -> Path:
        return self.root / "windows.seg"

    def spill_path(self) -> Path:
        return self.root / "attest.spill"

    def shard_dir(self, index: int) -> Path:
        return self.root / f"shard-{index}"

    def shard_dirs(self) -> List[Path]:
        return sorted(
            (p for p in self.root.glob("shard-*") if p.is_dir()),
            key=lambda p: int(p.name.split("-")[1]),
        )

    # -- generations ---------------------------------------------------

    def journal_generations(self) -> List[int]:
        return self._generations(_JOURNAL_PATTERN)

    def checkpoint_generations(self) -> List[int]:
        return self._generations(_CHECKPOINT_PATTERN)

    def query_index_generations(self) -> List[int]:
        return self._generations(_QUERY_INDEX_PATTERN)

    def _generations(self, pattern) -> List[int]:
        found = []
        for entry in self.root.iterdir():
            match = pattern.search(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # -- manifest ------------------------------------------------------

    def write_manifest(self, manifest: dict) -> Path:
        return atomic_write_bytes(
            self.manifest_path(),
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
            + b"\n",
        )

    def read_manifest(self) -> Optional[dict]:
        try:
            text = self.manifest_path().read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise StorageError(
                f"manifest {self.manifest_path()} is corrupt: {error}"
            ) from None

    # -- lifecycle -----------------------------------------------------

    def is_empty_record(self) -> bool:
        """True when no journal or checkpoint has ever been written."""

        return not self.journal_generations() and not (
            self.checkpoint_generations()
        )

    def compact(self) -> List[Path]:
        """Drop journals and checkpoints subsumed by the newest checkpoint.

        Checkpoint *g* carries the complete delivery record through
        journal generation *g*, so journals ``≤ g`` and checkpoints
        ``< g`` pin no reachable spine nodes.  Returns the deleted
        paths.
        """

        checkpoints = self.checkpoint_generations()
        if not checkpoints:
            return []
        newest = checkpoints[-1]
        removed = []
        for generation in self.journal_generations():
            if generation <= newest:
                path = self.journal_path(generation)
                path.unlink(missing_ok=True)
                removed.append(path)
        for generation in checkpoints:
            if generation < newest:
                path = self.checkpoint_path(generation)
                path.unlink(missing_ok=True)
                removed.append(path)
        snapshots = self.query_index_generations()
        if snapshots:
            # a query-index snapshot is only an accelerator: keep the
            # newest, drop the ones older snapshots already subsume
            for generation in snapshots[:-1]:
                path = self.query_index_path(generation)
                path.unlink(missing_ok=True)
                removed.append(path)
        return removed

    def reset_record(self) -> List[Path]:
        """Delete the delivery record (journals, checkpoints, spill).

        Used by a recovering shard worker before deterministic
        re-execution: the replacement rebuilds the record from scratch,
        so whatever partial state the killed incarnation left — flushed
        or torn — is dropped wholesale.  The window WAL and manifest
        survive; they *drive* the re-execution.
        """

        removed = []
        for generation in self.journal_generations():
            path = self.journal_path(generation)
            path.unlink(missing_ok=True)
            removed.append(path)
        for generation in self.checkpoint_generations():
            path = self.checkpoint_path(generation)
            path.unlink(missing_ok=True)
            removed.append(path)
        for generation in self.query_index_generations():
            path = self.query_index_path(generation)
            path.unlink(missing_ok=True)
            removed.append(path)
        spill = self.spill_path()
        if spill.exists():
            spill.unlink()
            removed.append(spill)
        return removed

    def wipe(self) -> List[Path]:
        """Delete the whole store record, WAL and manifest included.

        Used when a *fresh* run reuses an existing directory: unlike
        :meth:`reset_record`, nothing from the previous run survives —
        a stale window WAL or manifest would otherwise poison a later
        recovery with another run's history.
        """

        removed = self.reset_record()
        for path in (self.windows_path(), self.manifest_path()):
            if path.exists():
                path.unlink()
                removed.append(path)
        return removed
