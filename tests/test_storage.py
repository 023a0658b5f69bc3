"""Tests for the durable segment store: framing, torn tails,
generations, the delivery journal, generation seals and the window WAL.

The load-bearing contracts: a torn tail (crash mid-append) always
truncates to the last valid record and never surfaces garbage; a
checkpoint seals a generation without copying it; and every decoder of
stored bytes fails only with StorageError.
"""

import json
import pickle
import random
import struct

import pytest

from repro.core.errors import StorageError
from repro.core.integrity import AttestationStore
from repro.core.names import Channel, Principal
from repro.core.provenance import EMPTY, InputEvent, OutputEvent
from repro.core.values import AnnotatedValue
from repro.lang import parse_system
from repro.runtime import DistributedRuntime, FaultPlan
from repro.runtime.wire import Codec
from repro.storage import (
    RECORD_FORMAT,
    DurableStore,
    DurabilitySink,
    NoteEntry,
    WindowJournal,
    chain_digest,
    collect_entries,
    read_checkpoint,
    read_journal,
    read_segment,
    read_window_journal,
    repair_segment,
    torn_truncate,
)
from repro.storage.journal import (
    ZERO_DIGEST,
    DeliveryEntry,
    decode_entry,
    encode_delivery_entry,
)
from repro.storage.segments import SegmentWriter, frame_record

RELAY = "a[m<u>] || b[m(x).n<x>] || c[n(y).p<y>] || d[p(z).0]"


def spine(*hops):
    node = EMPTY
    for index, name in enumerate(hops):
        cls = OutputEvent if index % 2 == 0 else InputEvent
        node = node.cons(cls(Principal(name)))
    return node


class TestSegmentFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seg"
        writer = SegmentWriter(path)
        payloads = [b"alpha", b"", b"x" * 1000, bytes(range(256))]
        for payload in payloads:
            writer.append(payload)
        writer.close()
        view = read_segment(path)
        assert not view.torn
        assert view.records == payloads
        assert view.valid_bytes == path.stat().st_size

    def test_missing_file_is_empty_untorn(self, tmp_path):
        view = read_segment(tmp_path / "absent")
        assert view.records == [] and not view.torn

    def test_truncation_mid_record_is_torn(self, tmp_path):
        path = tmp_path / "seg"
        writer = SegmentWriter(path)
        writer.append(b"first")
        writer.append(b"second")
        writer.close()
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # cut into the last record's CRC
        view = read_segment(path)
        assert view.torn
        assert view.records == [b"first"]

    def test_bitflip_detected_and_confined(self, tmp_path):
        path = tmp_path / "seg"
        writer = SegmentWriter(path)
        writer.append(b"first")
        writer.append(b"second")
        writer.close()
        data = bytearray(path.read_bytes())
        data[len(frame_record(b"first")) + 3] ^= 0x40  # inside "second"
        path.write_bytes(bytes(data))
        view = read_segment(path)
        assert view.torn
        assert view.records == [b"first"]

    def test_repair_truncates_to_valid_prefix(self, tmp_path):
        path = tmp_path / "seg"
        writer = SegmentWriter(path)
        writer.append(b"keep")
        writer.append(b"lost")
        writer.close()
        path.write_bytes(path.read_bytes()[:-2])
        assert repair_segment(path) is True
        view = read_segment(path)
        assert not view.torn and view.records == [b"keep"]
        # idempotent: a clean segment repairs to itself
        assert repair_segment(path) is False

    def test_torn_truncate_cuts_mid_record(self, tmp_path):
        path = tmp_path / "seg"
        writer = SegmentWriter(path)
        writer.append(b"one")
        writer.append(b"two")
        writer.close()
        assert torn_truncate(path) is True
        view = read_segment(path)
        assert view.torn
        assert view.records == [b"one"]

    def test_fuzzed_tails_always_truncate_cleanly(self, tmp_path):
        rng = random.Random(0xBEEF)
        path = tmp_path / "seg"
        writer = SegmentWriter(path)
        payloads = [bytes(rng.randbytes(rng.randrange(1, 64))) for _ in range(20)]
        for payload in payloads:
            writer.append(payload)
        writer.close()
        pristine = path.read_bytes()
        for _ in range(50):
            data = bytearray(pristine)
            if rng.random() < 0.5:
                data = data[: rng.randrange(1, len(data))]
            else:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(data))
            view = read_segment(path)
            # every surviving record is a clean prefix of the truth
            assert view.records == payloads[: len(view.records)]


class TestAttestationStoreSpill:
    """The attestation store is one weak map; a durable run's tags live
    in the journal (``test_durability.py`` recovers them)."""

    def test_default_store_unchanged_without_spill(self):
        store = AttestationStore()
        node = spine("a", "b")
        store.record(node, b"t" * 16)
        assert store.tag(node) == b"t" * 16
        assert store.tag(spine("a", "c")) is None
        assert len(store) == 1


class TestDurableStore:
    def test_generations_and_paths(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        assert store.is_empty_record()
        store.journal_path(1).write_bytes(b"")
        store.journal_path(3).write_bytes(b"")
        store.checkpoint_path(2).write_bytes(b"")
        assert store.journal_generations() == [1, 3]
        assert store.checkpoint_generations() == [2]
        assert not store.is_empty_record()

    def test_reset_keeps_wal_and_manifest(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        store.journal_path(1).write_bytes(b"")
        store.checkpoint_path(1).write_bytes(b"")
        store.windows_path().write_bytes(b"wal")
        store.write_manifest({"seed": 1})
        store.reset_record()
        assert store.is_empty_record()
        assert store.windows_path().read_bytes() == b"wal"
        assert store.read_manifest() == {"seed": 1, "format": RECORD_FORMAT}

    def test_wipe_removes_everything(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        store.journal_path(1).write_bytes(b"")
        store.windows_path().write_bytes(b"wal")
        store.write_manifest({})
        store.wipe()
        assert store.is_empty_record()
        assert not store.windows_path().exists()
        assert store.read_manifest() is None

    def test_wipe_removes_a_legacy_attestation_spill(self, tmp_path):
        # older stores wrote every tag a second time to attest.spill;
        # tags now live only in the journal, and a fresh run drops it
        store = DurableStore(tmp_path / "store")
        legacy = store.root / "attest.spill"
        legacy.write_bytes(b"d" * 16 + b"t" * 16)
        store.journal_path(1).write_bytes(b"")
        assert legacy in store.wipe()
        assert list(store.root.iterdir()) == []

    @pytest.mark.parametrize("declared", [1, None, "2"])
    def test_other_record_formats_are_refused(self, tmp_path, declared):
        store = DurableStore(tmp_path / "store")
        manifest = {} if declared is None else {"format": declared}
        store.manifest_path().write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match=f"format {declared!r}"):
            store.read_manifest()

    def test_corrupt_manifest_raises(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        store.manifest_path().write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError, match="manifest"):
            store.read_manifest()


class TestDurabilitySink:
    def _run(self, root, checkpoint_every=None, source=RELAY):
        runtime = DistributedRuntime(
            seed=5, durable=str(root), checkpoint_every=checkpoint_every
        )
        runtime.deploy(parse_system(source))
        runtime.run()
        return runtime

    def test_journal_roundtrips_deliveries(self, tmp_path):
        runtime = self._run(tmp_path / "store")
        runtime.durability.close()
        store = DurableStore(tmp_path / "store")
        [generation] = store.journal_generations()
        entries, torn = read_journal(store.journal_path(generation))
        assert not torn
        deliveries = [e for e in entries if not isinstance(e, NoteEntry)]
        assert len(deliveries) == len(runtime.metrics.delivered)
        for entry, record in zip(deliveries, runtime.metrics.delivered):
            assert entry.time == record.time
            assert entry.principal == record.principal
            assert entry.channel == record.channel
            assert entry.branch_index == record.branch_index
            # interning makes cross-codec value equality exact
            assert entry.values == record.values

    def test_trace_digest_chains_deliveries(self, tmp_path):
        runtime = self._run(tmp_path / "store")
        sink = runtime.durability
        sink.close()
        digest = ZERO_DIGEST
        store = DurableStore(tmp_path / "store")
        [generation] = store.journal_generations()
        entries, _ = read_journal(store.journal_path(generation))
        for entry in entries:
            if not isinstance(entry, NoteEntry):
                digest = chain_digest(digest, entry.key())
        assert digest == sink.trace_digest
        assert digest != ZERO_DIGEST

    def test_refuses_nonempty_store_without_wipe(self, tmp_path):
        root = tmp_path / "store"
        self._run(root).durability.close()
        with pytest.raises(StorageError, match="wipe"):
            DurabilitySink(DurableStore(root))
        # wipe=True starts over
        sink = DurabilitySink(DurableStore(root), wipe=True)
        sink.close()

    def test_checkpoint_seals_without_compaction(self, tmp_path):
        root = tmp_path / "store"
        runtime = self._run(root, checkpoint_every=3)
        runtime.durability.close()
        store = DurableStore(root)
        seals = store.checkpoint_generations()
        assert seals
        # every generation's journal survives beside its seal
        assert store.journal_generations() == list(range(1, seals[-1] + 2))
        record = collect_entries(store)
        assert record.checkpoint_generation == seals[-1]
        assert not record.torn
        assert len(record.entries) == len(runtime.metrics.delivered)
        assert record.trace_digest == runtime.durability.trace_digest
        seal = read_checkpoint(store.checkpoint_path(seals[-1]))
        assert seal.generation == seals[-1]
        assert seal.delivered == dict(record.segments)[seals[-1]]

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        root = tmp_path / "store"
        runtime = self._run(root, checkpoint_every=3)
        runtime.durability.close()
        store = DurableStore(root)
        seals = store.checkpoint_generations()
        path = store.checkpoint_path(seals[-1])
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            read_checkpoint(path)
        # a corrupt seal commits nothing and loses no delivery
        record = collect_entries(store)
        assert len(record.entries) == len(runtime.metrics.delivered)
        assert record.checkpoint_generation == (
            seals[-2] if len(seals) > 1 else 0
        )

    def test_seal_truncations_and_bit_flips_raise_storage_error(
        self, tmp_path
    ):
        root = tmp_path / "store"
        self._run(root, checkpoint_every=3).durability.close()
        store = DurableStore(root)
        pristine = store.checkpoint_path(1).read_bytes()
        target = tmp_path / "seal.ck"
        damaged = [pristine[:cut] for cut in range(len(pristine))]
        for position in range(len(pristine)):
            for bit in range(8):
                flipped = bytearray(pristine)
                flipped[position] ^= 1 << bit
                damaged.append(bytes(flipped))
        for data in damaged:
            target.write_bytes(data)
            with pytest.raises(StorageError):
                read_checkpoint(target)


PICKLE_RAN = False
"""Set by :func:`_flip`: proof that a crafted record executed code."""


def _flip():
    global PICKLE_RAN
    PICKLE_RAN = True


class _Reducer:
    def __reduce__(self):
        return (_flip, ())


def envelopes():
    from repro.runtime.shards import WireEnvelope

    return [
        WireEnvelope(0, 1, 0, "m", b"\x01\x02frame", 0.5, 1.75, 3),
        WireEnvelope(
            1, 0, 7, "n", b"", 2.0, 2.5, 9, (b"t" * 16, None, b"u" * 16)
        ),
    ]


class TestWindowJournal:
    def _record(self, tmp_path, windows):
        journal = WindowJournal(tmp_path / "windows.seg")
        for boundary, budget, batch in windows:
            journal.record(boundary, budget, batch)
        journal.close()
        return tmp_path / "windows.seg"

    def test_roundtrip(self, tmp_path):
        windows = [
            (1.0, 64, envelopes()),
            (2.5, 0, []),
            (4.0, 10**9, envelopes()[:1]),
        ]
        read, torn = read_window_journal(self._record(tmp_path, windows))
        assert not torn
        assert [
            (w.boundary, w.budget, list(w.envelopes)) for w in read
        ] == windows

    def test_crafted_pickle_runs_no_code(self, tmp_path):
        """A parent-era window record carried a pickle: reading one must
        neither unpickle it nor fail untyped."""

        blob = pickle.dumps([_Reducer()], pickle.HIGHEST_PROTOCOL)
        payload = (
            bytes((0x03,))
            + struct.pack("<d", 1.0)
            + bytes((8,))
            + bytes((len(blob),))
            + blob
        )
        path = tmp_path / "windows.seg"
        path.write_bytes(frame_record(payload))
        with pytest.raises(StorageError, match="window WAL"):
            read_window_journal(path)
        assert not PICKLE_RAN

    def test_damage_decodes_or_raises_storage_error(self, tmp_path):
        path = self._record(tmp_path, [(1.0, 64, envelopes())])
        [payload] = read_segment(path).records
        target = tmp_path / "damaged.seg"
        rejected = 0
        variants = [payload[:cut] for cut in range(len(payload))]
        for position in range(len(payload)):
            for bit in range(8):
                flipped = bytearray(payload)
                flipped[position] ^= 1 << bit
                variants.append(bytes(flipped))
        for variant in variants:
            # re-framed so the CRC passes: the decoder itself is tested
            target.write_bytes(frame_record(variant))
            try:
                read_window_journal(target)
            except StorageError:
                rejected += 1
        assert rejected >= len(payload)


def delivery_payload(values, tag_lookup=None):
    payload, _, _ = encode_delivery_entry(
        Codec(), 1.5, Principal("a"), Channel("m"), 2, 0.25, values, tag_lookup
    )
    return payload


MINIMAL_RECORD = delivery_payload((AnnotatedValue(Channel("v"), EMPTY),))
"""One value with an empty history: 28 bytes, 27 truncation points."""

RICH_RECORD = delivery_payload(
    (
        AnnotatedValue(Channel("v"), spine("a", "b", "c")),
        AnnotatedValue(Principal("b"), spine("a", "b")),
    ),
    lambda node: bytes(16) if len(node) % 2 else None,
)
"""Shared spines, back-references and both kinds of tag marker."""


class TestDeliveryEntryDecoding:
    """Truncated or corrupted records fail only with StorageError."""

    @pytest.mark.parametrize(
        "payload", [MINIMAL_RECORD, RICH_RECORD], ids=["minimal", "rich"]
    )
    def test_roundtrip(self, payload):
        entry = decode_entry(payload, Codec())
        assert isinstance(entry, DeliveryEntry)
        assert (entry.time, entry.branch_index, entry.latency) == (1.5, 2, 0.25)
        assert (entry.principal, entry.channel) == (
            Principal("a"),
            Channel("m"),
        )

    def test_minimal_record_size(self):
        assert len(MINIMAL_RECORD) == 28

    @pytest.mark.parametrize(
        "payload", [MINIMAL_RECORD, RICH_RECORD], ids=["minimal", "rich"]
    )
    def test_every_truncation_raises_storage_error(self, payload):
        for cut in range(len(payload)):
            with pytest.raises(StorageError):
                decode_entry(payload[:cut], Codec())

    @pytest.mark.parametrize(
        "payload", [MINIMAL_RECORD, RICH_RECORD], ids=["minimal", "rich"]
    )
    def test_bit_flips_decode_or_raise_storage_error(self, payload):
        rejected = 0
        for position in range(len(payload)):
            for bit in range(8):
                flipped = bytearray(payload)
                flipped[position] ^= 1 << bit
                try:
                    decode_entry(bytes(flipped), Codec())
                except StorageError:
                    rejected += 1
        assert rejected > 0


class TestFaultPlanParse:
    """Satellite: unknown keys and bad values fail loudly, naming the token."""

    def test_valid_spec_parses(self):
        plan = FaultPlan.parse("drop=0.1, dup=0.2, kill=1.0, torn=0.5")
        assert plan.drop == 0.1 and plan.duplicate == 0.2
        assert plan.kill == 1.0 and plan.torn == 0.5
        assert plan.has_process_faults

    def test_empty_and_blank_parts_ignored(self):
        assert FaultPlan.parse("") == FaultPlan()
        assert FaultPlan.parse(" , drop=0.1 ,, ") == FaultPlan(drop=0.1)

    def test_unknown_key_names_the_token(self):
        with pytest.raises(ValueError, match=r"unknown fault kind 'dorp'"):
            FaultPlan.parse("dorp=0.1")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match=r"no '=' found"):
            FaultPlan.parse("drop")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match=r"not a number"):
            FaultPlan.parse("drop=lots")

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            FaultPlan.parse("drop=1.5")
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            FaultPlan.parse("kill=-0.1")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan.parse("delay=-1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="given twice"):
            FaultPlan.parse("drop=0.1,drop=0.2")
        # aliases collide too: dup and duplicate are one knob
        with pytest.raises(ValueError, match="given twice"):
            FaultPlan.parse("dup=0.1,duplicate=0.2")

    def test_process_faults_do_not_make_plan_loud(self):
        assert FaultPlan.parse("kill=1.0").is_quiet
        assert not FaultPlan.parse("kill=1.0,drop=0.1").is_quiet
