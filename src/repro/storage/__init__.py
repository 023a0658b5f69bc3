"""Durable provenance: crash-recoverable segment store and replay.

The runtime's in-memory record — interned spines, attestation tags, the
delivered-event log — dies with the process that built it.  This package
makes the record survive.  The write-ahead journal is the record's only
encoding; everything else is a commitment to it or an accelerator:

* :mod:`repro.storage.segments` — append-only, CRC-framed record files
  with torn-tail detection, and the
  :class:`~repro.storage.segments.DurableStore` directory layout
  (manifest stamped with :data:`RECORD_FORMAT`, generation-stamped
  journals and seals).
* :mod:`repro.storage.journal` — the write-ahead delivery journal
  :class:`~repro.storage.journal.DurabilitySink` the middleware streams
  delivered events and attestations into (deferred encoding, flushed in
  batches, one codec across every generation), plus the per-shard
  window WAL used for kill recovery.
* :mod:`repro.storage.checkpoint` — a checkpoint seals a generation:
  a fixed-size, atomically written record of its generation, delivered
  count and chained trace digest.  Reading the record back decodes the
  journals in order and checks each sealed generation.
* :mod:`repro.storage.recover` — load the record, and deterministically
  re-execute the manifest's system to verify the persisted record is a
  bit-identical prefix of the crash-free run.

Import order note: :mod:`repro.storage.recover` builds runtimes, so it
imports :mod:`repro.runtime` lazily inside functions; the runtime side
likewise imports this package lazily when ``durable=`` is requested.
Nothing here may import :mod:`repro.runtime` at module level.
"""

from repro.storage.checkpoint import (
    RecordView,
    Seal,
    collect_entries,
    read_checkpoint,
    write_checkpoint,
)
from repro.storage.journal import (
    DurabilitySink,
    NoteEntry,
    WindowEntry,
    WindowJournal,
    chain_digest,
    delivery_key,
    read_journal,
    read_window_journal,
)
from repro.storage.recover import (
    RecoveredState,
    ReplayReport,
    load_state,
    recover_runtime,
    verify_replay,
)
from repro.storage.segments import (
    RECORD_FORMAT,
    DurableStore,
    SegmentView,
    SegmentWriter,
    atomic_write_bytes,
    read_segment,
    repair_segment,
    torn_truncate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
