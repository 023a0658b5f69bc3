"""Tests for the durable segment store: framing, torn tails, spill,
generations, the delivery journal, and checkpoint compaction.

The load-bearing contracts: a torn tail (crash mid-append) always
truncates to the last valid record and never surfaces garbage; the
attestation spill changes *where* tags live, never verify verdicts;
and a checkpoint is a complete, self-contained substitute for the
journals it compacts away.
"""

import random

import pytest

from repro.core.errors import StorageError
from repro.core.integrity import AttestationStore, KeyRing, SpineVerifier
from repro.core.names import Channel, Principal
from repro.core.provenance import EMPTY, InputEvent, OutputEvent
from repro.core.values import AnnotatedValue
from repro.lang import parse_system
from repro.runtime import DistributedRuntime, FaultPlan
from repro.runtime.wire import Codec
from repro.storage import (
    AttestationSpill,
    DurableStore,
    DurabilitySink,
    NoteEntry,
    chain_digest,
    load_latest_checkpoint,
    read_checkpoint,
    read_journal,
    read_segment,
    repair_segment,
    torn_truncate,
)
from repro.storage.checkpoint import collect_entries
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


class TestAttestationSpill:
    def test_append_lookup_roundtrip(self, tmp_path):
        spill = AttestationSpill(tmp_path / "spill")
        digest, tag = b"d" * 16, b"t" * 16
        spill.append(digest, tag)
        assert spill.lookup(digest) == tag
        assert spill.lookup(b"x" * 16) is None
        spill.close()
        # a fresh handle over the same file still finds it
        reopened = AttestationSpill(tmp_path / "spill")
        assert reopened.lookup(digest) == tag
        reopened.close()

    def test_misaligned_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "spill"
        spill = AttestationSpill(path)
        spill.append(b"a" * 16, b"b" * 16)
        spill.close()
        with open(path, "ab") as handle:
            handle.write(b"torn-partial")
        reopened = AttestationSpill(path)
        assert reopened.lookup(b"a" * 16) == b"b" * 16
        reopened.close()
        assert path.stat().st_size == 32

    def test_the_sink_flushes_and_closes_the_spill(self, tmp_path):
        from repro.workloads import vetted_relay_chain

        runtime = DistributedRuntime(seed=1, durable=tmp_path)
        spill = runtime.middleware.attestations._spill
        runtime.deploy(vetted_relay_chain(16).system)
        runtime.run(max_events=20)
        runtime.checkpoint()
        # fewer tags than one write buffer: only a flush puts them on disk
        assert 0 < len(spill) < 256
        assert spill.path.stat().st_size == 32 * len(spill)
        runtime.run()
        runtime.durability.close()
        assert spill._handle is None
        assert spill.path.stat().st_size == 32 * len(spill)


class TestAttestationStoreSpill:
    """Satellite: bounded RAM with spill-backed reload, verdicts stable."""

    def _attested_chain(self, store):
        ring = KeyRing(b"spill-test")
        verifier = SpineVerifier(ring, store)
        node = spine("a", "b", "a", "c", "b", "a")
        verifier.attest_chain(node)
        return ring, verifier, node

    def test_eviction_and_reload_preserve_verdicts(self, tmp_path):
        store = AttestationStore(
            spill=AttestationSpill(tmp_path / "spill"), capacity=2
        )
        ring, verifier, node = self._attested_chain(store)
        assert store.evictions > 0, "capacity 2 must force eviction"
        assert verifier.verify(node) is True
        # fresh verifier (no verdict cache): every tag comes off disk
        fresh = SpineVerifier(ring, store)
        assert fresh.verify(node) is True
        assert store.spill_reloads > 0

    def test_verdicts_match_unbounded_store(self, tmp_path):
        bounded = AttestationStore(
            spill=AttestationSpill(tmp_path / "spill"), capacity=1
        )
        ring_b, _, node_b = self._attested_chain(bounded)
        unbounded = AttestationStore()
        ring_u, _, node_u = self._attested_chain(unbounded)
        assert node_b is node_u  # interning: same chain, same node
        assert SpineVerifier(ring_b, bounded).verify(node_b) is True
        assert SpineVerifier(ring_u, unbounded).verify(node_u) is True
        # a tampered node fails in both worlds identically
        forged = node_b.cons(OutputEvent(Principal("mallory")))
        assert SpineVerifier(ring_b, bounded).verify(forged) is False
        assert SpineVerifier(ring_u, unbounded).verify(forged) is False

    def test_default_store_unchanged_without_spill(self):
        store = AttestationStore()
        node = spine("a", "b")
        store.record(node, b"t" * 16)
        assert store.tag(node) == b"t" * 16
        assert store.evictions == 0 and store.spill_reloads == 0


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

    def test_compact_drops_subsumed_generations(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        for generation in (1, 2, 3):
            store.journal_path(generation).write_bytes(b"")
        store.checkpoint_path(1).write_bytes(b"")
        store.checkpoint_path(2).write_bytes(b"")
        store.compact()
        assert store.journal_generations() == [3]
        assert store.checkpoint_generations() == [2]

    def test_reset_keeps_wal_and_manifest(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        store.journal_path(1).write_bytes(b"")
        store.checkpoint_path(1).write_bytes(b"")
        store.spill_path().write_bytes(b"")
        store.windows_path().write_bytes(b"wal")
        store.write_manifest({"format": 1})
        store.reset_record()
        assert store.is_empty_record()
        assert not store.spill_path().exists()
        assert store.windows_path().read_bytes() == b"wal"
        assert store.read_manifest() == {"format": 1}

    def test_wipe_removes_everything(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        store.journal_path(1).write_bytes(b"")
        store.windows_path().write_bytes(b"wal")
        store.write_manifest({"format": 1})
        store.wipe()
        assert store.is_empty_record()
        assert not store.windows_path().exists()
        assert store.read_manifest() is None

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

    def test_checkpoint_roundtrip_and_compaction(self, tmp_path):
        root = tmp_path / "store"
        runtime = self._run(root, checkpoint_every=3)
        runtime.durability.close()
        store = DurableStore(root)
        checkpoint = load_latest_checkpoint(store)
        assert checkpoint is not None
        # compaction: no journal at or below the checkpoint generation
        assert all(
            generation > checkpoint.generation
            for generation in store.journal_generations()
        )
        reread = read_checkpoint(checkpoint.path)
        assert reread.trace_digest == checkpoint.trace_digest
        record = collect_entries(store)
        assert len(record.entries) == len(runtime.metrics.delivered)
        assert record.trace_digest == runtime.durability.trace_digest

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        root = tmp_path / "store"
        runtime = self._run(root, checkpoint_every=3)
        runtime.durability.close()
        store = DurableStore(root)
        checkpoint = load_latest_checkpoint(store)
        data = bytearray(checkpoint.path.read_bytes())
        data[len(data) // 2] ^= 0x10
        checkpoint.path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            read_checkpoint(checkpoint.path)
        # load_latest skips the bad one instead of failing the world
        assert load_latest_checkpoint(store) is None


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
