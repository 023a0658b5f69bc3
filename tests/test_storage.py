"""Tests for the durable segment store: framing, torn tails,
generations, the delivery journal, generation seals and shard recovery
without a window log.

The load-bearing contracts: a torn tail (crash mid-append) always
truncates to the last valid record and never surfaces garbage; a
checkpoint seals a generation without copying it; and every decoder of
stored bytes fails only with StorageError.
"""

import contextlib
import json
import pickle
import random
import struct
import sys

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
    chain_digest,
    collect_entries,
    read_checkpoint,
    read_journal,
    read_segment,
    torn_truncate,
)
from repro.runtime.metrics import DeliveryRecord
from repro.storage.journal import (
    ZERO_DIGEST,
    decode_entry,
    delivery_key,
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
        view = read_segment(path)
        assert view.torn and view.records == [b"keep"]
        # the valid prefix is exactly the frames before the tear
        assert view.valid_bytes == len(frame_record(b"keep"))
        # reading truncates the view, never the file
        assert path.stat().st_size > view.valid_bytes

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
        legacy = store.root / "windows.seg"
        legacy.write_bytes(b"wal")
        store.write_manifest({"seed": 1})
        store.reset_record()
        assert store.is_empty_record()
        assert legacy.read_bytes() == b"wal"
        assert store.read_manifest() == {"seed": 1, "format": RECORD_FORMAT}

    def test_wipe_removes_everything(self, tmp_path):
        store = DurableStore(tmp_path / "store")
        store.journal_path(1).write_bytes(b"")
        (store.root / "windows.seg").write_bytes(b"wal")
        store.write_manifest({})
        store.wipe()
        assert store.is_empty_record()
        assert list(store.root.iterdir()) == []
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

    @pytest.mark.parametrize(
        "declared", [1, None, "2", pytest.param(2, id="int-2")]
    )
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
        runtime.close()
        store = DurableStore(tmp_path / "store")
        [generation] = store.journal_generations()
        entries, torn = read_journal(store.journal_path(generation))
        assert not torn
        deliveries = [e for e in entries if not isinstance(e, NoteEntry)]
        # deliveries decode to the metrics' record shape; interning makes
        # cross-codec value equality exact
        assert deliveries == list(runtime.metrics.delivered)

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
                time, principal, channel, values, branch = entry
                digest = chain_digest(
                    digest,
                    delivery_key(time, principal, channel, branch, values),
                )
        assert digest == sink.trace_digest
        assert digest != ZERO_DIGEST

    def test_refuses_nonempty_store_without_wipe(self, tmp_path):
        root = tmp_path / "store"
        self._run(root).close()
        with pytest.raises(StorageError, match="wipe"):
            DurabilitySink(DurableStore(root))
        # a wiped store starts over
        store = DurableStore(root)
        store.wipe()
        DurabilitySink(store).close()

    def test_checkpoint_seals_without_compaction(self, tmp_path):
        root = tmp_path / "store"
        runtime = self._run(root, checkpoint_every=3)
        runtime.close()
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
        runtime.close()
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
        self._run(root, checkpoint_every=3).close()
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


class _Replacement:
    """Both ends of a replacement worker the conductor talks to: it
    answers ``ready``, then one ``done`` per (pickled) window it is
    sent."""

    def __init__(self):
        self.sent = []
        self._replies = [("ready", 0.0)]

    def send_bytes(self, data):
        command = pickle.loads(data)
        self.sent.append(command)
        self._replies.append(("done", len(self.sent), command[1], []))

    def recv(self):
        return self._replies.pop(0)

    def close(self):
        pass

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


_OPENED = None
"""While :func:`opened_paths` watches: every path the process opens."""


def _audit(event, args):
    if _OPENED is not None and event == "open" and args[0] is not None:
        _OPENED.append(str(args[0]))


@contextlib.contextmanager
def opened_paths():
    """Collect the paths of every file opened inside the block."""

    global _OPENED
    if not getattr(opened_paths, "installed", False):
        sys.addaudithook(_audit)  # audit hooks cannot be removed
        opened_paths.installed = True
    _OPENED = seen = []
    try:
        yield seen
    finally:
        _OPENED = None


def legacy_window_log(payloads):
    """The bytes of an older store's ``windows.seg``: one CRC frame per
    payload."""

    return b"".join(frame_record(payload) for payload in payloads)


class TestWindowJournal:
    """A killed process shard is rebuilt from the windows its conductor
    re-sends; stores keep no window log, and one an older store left is
    never read and is deleted by :meth:`DurableStore.wipe`."""

    def test_roundtrip(self, tmp_path, monkeypatch):
        from repro.runtime import ShardedRuntime, shards

        spawned = []

        def spawn(context, spec):
            spawned.append(spec)
            replacement = _Replacement()
            return replacement, replacement

        monkeypatch.setattr(shards, "_spawn", spawn)
        mesh = ShardedRuntime(
            shards=2, shard_mode="process", durable_dir=tmp_path
        )
        issued = [
            ("window", 1.0, envelopes(), 64),
            ("window", 2.5, [], 0),
            ("window", 4.0, envelopes()[:1], 10**9),
        ]
        connections = [_Replacement(), _Replacement()]
        reply = mesh._recover_shard(
            1, mesh._make_specs()[1], None, connections, list(connections),
            [pickle.dumps(command) for command in issued],
        )
        [spec] = spawned
        assert spec.recover and spec.index == 1
        # every issued window, envelopes included, in the order issued;
        # the last reply is the one the dead worker owed
        assert connections[1].sent == issued
        assert reply == ("done", 3, 4.0, [])

    @pytest.fixture
    def stores(self, tmp_path):
        """A single-runtime store and a durable inline sharded store."""

        from repro.runtime import ShardedRuntime

        single = tmp_path / "single"
        runtime = DistributedRuntime(seed=5, durable=str(single))
        runtime.deploy(parse_system(RELAY))
        runtime.run()
        runtime.close()
        sharded = tmp_path / "sharded"
        mesh = ShardedRuntime(shards=2, seed=5, durable_dir=str(sharded))
        mesh.deploy(parse_system(RELAY))
        mesh.run()
        mesh.close()
        return [single, sharded]

    def _plant_and_read(self, stores, logs, capsys):
        """Plant ``logs`` (in turn) as the ``windows.seg`` of every store
        and shard store, read each store the way ``repro recover`` and
        ``repro query`` do, then wipe it; returns the planted paths any
        reader opened."""

        from repro.cli import main

        planted = {}
        for root in stores:
            for folder in (root, *sorted(root.glob("shard-*"))):
                path = folder / "windows.seg"
                path.write_bytes(logs[len(planted) % len(logs)])
                planted[path] = path.read_bytes()
        with opened_paths() as seen:
            for root in stores:
                assert main(["recover", str(root)]) == 0
                assert main(["query", str(root)]) == 0
        capsys.readouterr()
        for path, data in planted.items():
            assert path.read_bytes() == data
            assert path in DurableStore(path.parent).wipe()
            assert not path.exists()
        return [path for path in planted if str(path) in seen]

    def test_crafted_pickle_runs_no_code(self, stores, capsys):
        """An older window record could carry a pickle: a planted one is
        never unpickled, because nothing opens the file."""

        blob = pickle.dumps([_Reducer()], pickle.HIGHEST_PROTOCOL)
        payload = (
            bytes((0x03,))
            + struct.pack("<d", 1.0)
            + bytes((8,))
            + bytes((len(blob),))
            + blob
        )
        data = legacy_window_log([payload])
        assert self._plant_and_read(stores, [data], capsys) == []
        assert not PICKLE_RAN

    def test_damage_decodes_or_raises_storage_error(self, stores, capsys):
        """A torn or bit-flipped window log cannot fail a reader: no
        reader opens it."""

        data = legacy_window_log([b"\x03" + bytes(range(40))] * 3)
        torn = data[: len(data) - 7]
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0x10
        assert self._plant_and_read(stores, [torn, bytes(flipped)], capsys) == []


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
        attested = {}
        record = decode_entry(payload, Codec(), attested)
        assert isinstance(record, DeliveryRecord)
        assert (record.time, record.branch_index) == (1.5, 2)
        assert (record.principal, record.channel) == (
            Principal("a"),
            Channel("m"),
        )
        # the tag lookup attested exactly the odd-length new nodes
        assert all(
            len(node) % 2 and tag == bytes(16)
            for node, tag in attested.items()
        )
        assert bool(attested) == (payload is RICH_RECORD)

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
