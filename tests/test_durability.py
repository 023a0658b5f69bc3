"""End-to-end durability: capture, checkpoint, recovery, kill injection.

These are the integration contracts on top of :mod:`repro.storage`'s
unit layer (``test_storage.py``): a durable run's persisted record is a
bit-identical prefix of the same-seed in-memory run; recovery
re-executes deterministically; a SIGKILLed shard's replacement resumes
from its WAL without changing the merged trace; and security state
(quarantine, revocation) survives the crash.
"""

import contextlib
import gc
import io
import json

import pytest

from repro.cli import main
from repro.core.errors import ShardLostError, StorageError
from repro.lang import parse_system
from repro.runtime import (
    DistributedRuntime,
    FaultPlan,
    ShardedRuntime,
    run_threat_suite,
)
from repro.storage import (
    DurableStore,
    load_state,
    recover_runtime,
    verify_replay,
)
from repro.storage.recover import rebuild_system
from repro.workloads import relay_gauntlet, vetted_relay_chain, wide_fanout

HOPS, LANES = 12, 2

SHARD_KWARGS = dict(n_regions=2, sources_per_region=2, burst=1, guard_depth=1)


def trace(runtime):
    return [
        (r.time, r.principal.name, r.channel.name, r.values, r.branch_index)
        for r in runtime.metrics.delivered
    ]


def run_gauntlet(durable=None, seed=13, checkpoint_every=None):
    workload = relay_gauntlet(hops=HOPS, lanes=LANES)
    runtime = DistributedRuntime(
        seed=seed,
        durable=durable,
        checkpoint_every=checkpoint_every,
        durable_wipe=durable is not None,
    )
    runtime.deploy(workload.system)
    runtime.run()
    return runtime, workload


RECORD_SHA256 = {
    "checkpoint-00000001.ck": "356a18a407b9f269fa25aac727f39a6fe122e302ea974d2c1ceae026ac032177",
    "checkpoint-00000002.ck": "d45b2096c3d3b6f43cf060a25df43acf98df96c8e91a90bd4fcbba41289c9de2",
    "checkpoint-00000003.ck": "0beb6216643bb30fc7b8dd58bdddc126a043ecd3f241ff857421b4592f0dc618",
    "checkpoint-00000004.ck": "120e2d00bcbd95315bcafa43400c07ad376c2daa787665e87abb264446709ed3",
    "checkpoint-00000005.ck": "85c46053bbfe77c1f8b4caa3e86999e7bec04333828a45243b3b33654f7fd1a1",
    "checkpoint-00000006.ck": "4a691dbcb3443af0408b2f22a31f052c312176c326405b6a6bbd656d57d26fde",
    "journal-00000001.seg": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "journal-00000002.seg": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "journal-00000003.seg": "f974138dd118f405cb3464fc98c65d7510acb6d54fd21523843d78ee65ea4778",
    "journal-00000004.seg": "884f6b84fff182c711f856929b7e6bf282e9985e6aced36b02f66ee18114acb4",
    "journal-00000005.seg": "01c09474933911d79815cc89eaba0a344d49712f68760c45b678f0072cdab7e0",
    "journal-00000006.seg": "5869de17d72e4d1d02ddfeb4d08c80dc3b372ca686a770acaf6cc6158f00914b",
    "journal-00000007.seg": "2686f004acfe8cfc5b2f1427e119c42b3eef0e4e2a9005d24273c645a416977a",
}
"""sha256 of every journal segment and seal of the relay gauntlet
(8 hops, 2 lanes, seed 13, a checkpoint every 8 events).  Generations
1 and 2 seal before the first delivery, so their segments are empty."""


class TestDurableCapture:
    def test_persisted_record_matches_in_memory_run(self, tmp_path):
        reference, _ = run_gauntlet()
        durable, workload = run_gauntlet(durable=str(tmp_path / "store"))
        assert trace(durable) == trace(reference)
        durable.checkpoint()
        durable.close()
        state = load_state(DurableStore(tmp_path / "store"))
        persisted = [
            (e.time, e.principal.name, e.channel.name, e.values,
             e.branch_index)
            for e in state.entries
        ]
        assert persisted == trace(reference)
        assert len(persisted) == workload.expected_deliveries

    def test_capture_does_not_change_summary(self, tmp_path):
        reference, _ = run_gauntlet()
        durable, _ = run_gauntlet(durable=str(tmp_path / "store"))
        durable.close()
        ref_summary = reference.metrics.summary()
        dur_summary = durable.metrics.summary()
        for key in ("deliveries", "messages_sent", "vet_transitions"):
            assert dur_summary[key] == ref_summary[key], key

    def test_close_twice_is_a_no_op(self, tmp_path):
        runtime, workload = run_gauntlet(durable=str(tmp_path / "single"))
        runtime.close()
        runtime.close()
        state = load_state(DurableStore(tmp_path / "single"))
        assert len(state.entries) == workload.expected_deliveries
        sharded = ShardedRuntime(
            shards=2,
            shard_mode="inline",
            seed=7,
            plan=wide_fanout(**SHARD_KWARGS).shard_plan(2),
            durable_dir=str(tmp_path / "sharded"),
        )
        sharded.deploy_builder(wide_fanout, **SHARD_KWARGS)
        sharded.run()
        sharded.close()
        sharded.close()
        assert sharded.delivered_trace()

    def test_record_bytes_are_pinned(self, tmp_path):
        # the on-disk format (RECORD_FORMAT 2): a change to how a
        # delivery, a note or a seal is encoded shows up here
        import hashlib

        root = tmp_path / "store"
        workload = relay_gauntlet(hops=8, lanes=2)
        runtime = DistributedRuntime(
            seed=13, durable=str(root), checkpoint_every=8
        )
        runtime.deploy(workload.system)
        runtime.run()
        runtime.close()
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.iterdir())
            if path.suffix in (".seg", ".ck")
        }
        assert digests == RECORD_SHA256

    def test_checkpoint_cadence_seals_every_generation(self, tmp_path):
        root = tmp_path / "store"
        runtime, workload = run_gauntlet(
            durable=str(root), checkpoint_every=8
        )
        runtime.close()
        store = DurableStore(root)
        generations = store.checkpoint_generations()
        assert generations, "cadenced run cut no checkpoint"
        # every generation keeps its journal; each but the last is sealed
        assert generations == list(range(1, generations[-1] + 1))
        assert store.journal_generations() == generations + [
            generations[-1] + 1
        ]
        state = load_state(store)
        assert len(state.entries) == workload.expected_deliveries
        assert state.checkpoint_generation == generations[-1]


def stray_files(root):
    """Names in a store directory other than the manifest, journals,
    seals and (shards only) the window WAL."""

    return sorted(
        path.name
        for path in root.iterdir()
        if path.name not in ("MANIFEST.json", "windows.seg")
        and not path.name.startswith(("journal-", "checkpoint-"))
    )


class TestRecovery:
    def test_tags_survive_recovery_from_the_journal_alone(self, tmp_path):
        root = tmp_path / "store"
        runtime, _ = run_gauntlet(durable=str(root), checkpoint_every=8)
        runtime.close()
        assert runtime.durability.generation > 2
        assert stray_files(root) == []
        live = runtime.middleware.attestations
        persisted = load_state(DurableStore(root))
        journaled = {
            node.digest: tag for node, tag in persisted.attested.items()
        }
        assert journaled == {
            node.digest: live.tag(node) for node in persisted.attested
        }
        # every spine node of every delivered value was journaled
        assert all(
            node.digest in journaled
            for entry in persisted.entries
            for value in entry.values
            for node in value.provenance.suffixes()
            if node
        )
        # drop the live run and its tag store: recovery has only the
        # store directory to read tags from
        del runtime, live, persisted
        gc.collect()
        recovered, state = recover_runtime(DurableStore(root))
        middleware = recovered.middleware
        assert middleware.crypto
        recovered_tags = {
            node.digest: middleware.attestations.tag(node)
            for node in state.attested
        }
        assert recovered_tags == journaled
        for entry in state.entries:
            for value in entry.values:
                assert middleware.verifier.verify(value.provenance)
        assert middleware.verifier.nodes_checked >= len(journaled)

    def test_verify_replay_confirms_bit_identical_record(self, tmp_path):
        runtime, workload = run_gauntlet(durable=str(tmp_path / "store"))
        runtime.checkpoint()
        runtime.close()
        store = DurableStore(tmp_path / "store")
        report = verify_replay(store)
        assert report.ok, report.detail
        assert report.persisted == workload.expected_deliveries
        assert report.replayed == workload.expected_deliveries

    def test_recovered_runtime_finishes_to_same_trace(self, tmp_path):
        reference, _ = run_gauntlet()
        runtime, _ = run_gauntlet(durable=str(tmp_path / "store"))
        runtime.close()
        store = DurableStore(tmp_path / "store")
        recovered, state = recover_runtime(store)
        recovered.deploy(rebuild_system(state.manifest))
        recovered.run()
        assert trace(recovered) == trace(reference)

    def test_threat_suite_state_survives_recovery(self, tmp_path):
        """Quarantine and revocation are part of the durable record."""

        class Cert:
            def branch_action(self, *args):
                return "vet"

        root = tmp_path / "store"
        runtime = DistributedRuntime(
            seed=11, durable=str(root), certificate=Cert()
        )
        runtime.deploy(parse_system("a[m<u>] || b[m(x).0]"))
        runtime.run()
        outcomes = run_threat_suite(runtime.middleware)
        # detection gate holds under durable capture: every attack in
        # the taxonomy detected, none accepted
        bad = [o.attack for o in outcomes if not o.detected or o.accepted]
        assert not bad, f"attacks not detected under durable capture: {bad}"
        assert runtime.middleware.quarantined
        runtime.checkpoint()
        runtime.close()

        state = load_state(DurableStore(root))
        expected = {p.name for p in runtime.middleware.quarantined}
        assert state.quarantined == expected
        assert state.revoked is True
        assert state.tampered > 0

        recovered, state = recover_runtime(DurableStore(root))
        assert {
            p.name for p in recovered.middleware.quarantined
        } == expected
        assert recovered.middleware.certificate is None
        # the quarantined intruders stay locked out after recovery
        replay = run_threat_suite(recovered.middleware)
        assert not [o for o in replay if o.accepted]

    def test_checkpoint_plus_suffix_threat_state(self, tmp_path):
        """Quarantine before the checkpoint and after it both recover."""

        root = tmp_path / "store"
        runtime = DistributedRuntime(seed=11, durable=str(root))
        runtime.deploy(parse_system("a[m<u>] || b[m(x).0]"))
        runtime.run()
        run_threat_suite(runtime.middleware, attacks=("forge",))
        runtime.checkpoint()  # the first quarantine note is sealed
        run_threat_suite(runtime.middleware, attacks=("replay",))
        runtime.close()  # the second lands in the next generation
        state = load_state(DurableStore(root))
        assert {"intruder_forge", "intruder_replay"} <= state.quarantined


class TestSealedRecord:
    """The journal is the record; a checkpoint only seals a generation."""

    HOPS = 24

    def _store(self, root, seed=13):
        workload = relay_gauntlet(hops=self.HOPS, lanes=LANES)
        runtime = DistributedRuntime(
            seed=seed, durable=str(root), checkpoint_every=16
        )
        runtime.deploy(workload.system)
        runtime.run()
        runtime.close()
        store = DurableStore(root)
        assert len(store.checkpoint_generations()) >= 3
        return store, workload.expected_deliveries

    def test_corrupt_newest_seal_loses_no_delivery(self, tmp_path):
        store, expected = self._store(tmp_path / "store")
        *older, newest = store.checkpoint_generations()
        path = store.checkpoint_path(newest)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        state = load_state(store)
        assert len(state.entries) == expected == 50
        assert state.checkpoint_generation == older[-1]
        assert not state.torn
        report = verify_replay(store, state)
        assert report.ok and report.persisted == expected, report.detail

    @pytest.mark.parametrize("damage", ["bit flip", "deleted"])
    def test_damaged_middle_journal_ends_the_record(self, tmp_path, damage):
        store, expected = self._store(tmp_path / "store")
        journals = store.journal_generations()
        middle = journals[len(journals) // 2]
        path = store.journal_path(middle)
        if damage == "deleted":
            path.unlink()
        else:
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        state = load_state(store)
        assert state.torn == [
            store.journal_path(generation).name
            for generation in journals
            if generation >= middle
        ]
        assert state.checkpoint_generation == middle - 1
        sealed = dict(state.segments)[middle - 1]
        assert 0 < sealed <= len(state.entries) < expected
        report = verify_replay(store, state)
        assert report.ok and report.persisted == len(state.entries)

    def test_another_runs_seal_is_a_storage_error(self, tmp_path, capsys):
        store, _ = self._store(tmp_path / "store")
        other, _ = self._store(tmp_path / "other", seed=14)
        generation = store.checkpoint_generations()[-2]
        foreign = other.checkpoint_path(generation).read_bytes()
        assert foreign != store.checkpoint_path(generation).read_bytes()
        store.checkpoint_path(generation).write_bytes(foreign)
        with pytest.raises(StorageError, match=f"generation {generation} "):
            load_state(store)
        assert main(["recover", str(store.root)]) == 2
        assert f"generation {generation} " in capsys.readouterr().err

    def test_seals_are_flat_and_checkpoints_decode_nothing(
        self, tmp_path, monkeypatch
    ):
        import repro.storage.journal as journal

        decoded = []
        real = journal.decode_entry
        monkeypatch.setattr(
            journal,
            "decode_entry",
            lambda *args: decoded.append(1) or real(*args),
        )
        store, _ = self._store(tmp_path / "store")
        assert not decoded
        sizes = {
            store.checkpoint_path(generation).stat().st_size
            for generation in store.checkpoint_generations()
        }
        assert len(sizes) == 1

    def test_format_1_store_is_refused(self, tmp_path, capsys):
        store, _ = self._store(tmp_path / "store")
        manifest = json.loads(store.manifest_path().read_text())
        manifest["format"] = 1
        store.manifest_path().write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="record format 1"):
            load_state(store)
        assert main(["recover", str(store.root)]) == 2
        assert "record format 1" in capsys.readouterr().err


class TestKillRecovery:
    def _trace(self, fault_plan=None, durable_dir=None, **extra):
        workload = wide_fanout(**SHARD_KWARGS)
        runtime = ShardedRuntime(
            shards=2,
            shard_mode="process",
            seed=7,
            plan=workload.shard_plan(2),
            fault_plan=fault_plan,
            durable_dir=durable_dir,
            **extra,
        )
        runtime.deploy_builder(wide_fanout, **SHARD_KWARGS)
        runtime.run()
        return runtime.delivered_trace()

    def test_killed_shards_recover_bit_identical(self, tmp_path):
        reference = self._trace()
        assert reference
        recovered = self._trace(
            fault_plan=FaultPlan.parse("kill=1.0"),
            durable_dir=str(tmp_path / "store"),
            checkpoint_every=2,
        )
        assert recovered == reference

    def test_torn_journal_tails_recover_bit_identical(self, tmp_path):
        reference = self._trace()
        recovered = self._trace(
            fault_plan=FaultPlan.parse("torn=1.0"),
            durable_dir=str(tmp_path / "store"),
            checkpoint_every=2,
        )
        assert recovered == reference

    def test_shard_stores_hold_only_the_record(self, tmp_path):
        root = tmp_path / "store"
        self._trace(durable_dir=str(root), checkpoint_every=2)
        shard_dirs = DurableStore(root).shard_dirs()
        assert len(shard_dirs) == 2
        for shard_dir in shard_dirs:
            assert stray_files(shard_dir) == []
            store = DurableStore(shard_dir)
            assert store.checkpoint_generations()
            assert store.windows_path().exists()

    def test_kill_without_durable_store_is_fatal(self):
        # no WAL to recover from: the conductor retries, then degrades
        # to a typed error instead of hanging the barrier
        with pytest.raises(ShardLostError):
            self._trace(fault_plan=FaultPlan.parse("kill=1.0"))


class TestRecoverCli:
    def _durable_sim(self, tmp_path, *extra):
        from repro.cli import main

        source = tmp_path / "system.pi"
        source.write_text("a[m<v>] || s[m(x).n1<x>] || c[n1(x).keep<x>]")
        root = tmp_path / "store"
        assert main(
            ["sim", str(source), "--durable", str(root),
             "--checkpoint-every", "2", *extra]
        ) == 0
        return root

    def test_sim_durable_then_recover(self, tmp_path, capsys):
        from repro.cli import main

        root = self._durable_sim(tmp_path)
        out = capsys.readouterr().out
        assert "deliveries = 2" in out
        assert main(["recover", str(root)]) == 0
        out = capsys.readouterr().out
        assert "delivered=2" in out
        assert "trace_digest=" in out
        assert "verify: ok" in out

    def test_recover_no_verify(self, tmp_path, capsys):
        from repro.cli import main

        root = self._durable_sim(tmp_path)
        capsys.readouterr()
        assert main(["recover", str(root), "--no-verify"]) == 0

    def test_recover_empty_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nothing")]) == 2
        assert "error" in capsys.readouterr().err.lower()


class TestHostileManifestSource:
    """A manifest whose system source is damaged fails typed: the replay
    raises only StorageError (wrapping the positioned ParseError) or
    reports a divergence, and ``repro recover`` exits 0, 1 or 2 — never a
    traceback."""

    @pytest.fixture(scope="class")
    def relay_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("relay") / "store"
        runtime = DistributedRuntime(seed=3, durable=str(root))
        runtime.deploy(vetted_relay_chain(1).system)
        runtime.run()
        runtime.checkpoint()
        runtime.close()
        return root

    @staticmethod
    def _outcomes(root, sources):
        manifest_path = root / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        verdicts = set()
        try:
            for source in sources:
                manifest_path.write_text(
                    json.dumps({**manifest, "system": source})
                )
                try:
                    report = verify_replay(str(root))
                    verdicts.add("ok" if report.ok else "diverged")
                except StorageError as error:
                    assert "MANIFEST.json" in str(error)
                    verdicts.add("storage-error")
                quiet = io.StringIO()
                with contextlib.redirect_stdout(quiet), \
                        contextlib.redirect_stderr(quiet):
                    status = main(["recover", str(root)])
                assert status in (0, 1, 2), (source, status)
        finally:
            manifest_path.write_text(json.dumps(manifest))
        return verdicts

    def test_truncation_and_bit_flip_sweep(self, relay_store):
        source = json.loads((relay_store / "MANIFEST.json").read_text())[
            "system"
        ]
        damaged = [source[:cut] for cut in range(len(source))]
        damaged += [
            source[:at] + chr(ord(source[at]) ^ bit) + source[at + 1:]
            for at in range(len(source))
            for bit in (0x01, 0x80)
        ]
        verdicts = self._outcomes(relay_store, damaged)
        assert "storage-error" in verdicts and "diverged" in verdicts

    @pytest.mark.parametrize(
        "source",
        [
            "a[" + "(" * 5000 + "t1<v>" + ")" * 5000 + "]",
            "a[t1(" + "(" * 5000 + "~" + ")" * 5000 + "!any as x).0]",
            "t1<<v:" + "{a!" * 5000 + "{}" + "}" * 5000 + ">>",
        ],
        ids=["process", "pattern-group", "provenance"],
    )
    def test_deep_nesting_is_a_storage_error(self, relay_store, source):
        assert self._outcomes(relay_store, [source]) == {"storage-error"}
        manifest = json.loads((relay_store / "MANIFEST.json").read_text())
        with pytest.raises(StorageError, match=r"does not parse: nesting"):
            rebuild_system({**manifest, "system": source}, "MANIFEST.json")


def _without_crypto(manifest):
    del manifest["runtime"]["crypto"]


DAMAGES = {
    "missing-runtime-key": _without_crypto,
    "bogus-mode": lambda m: m["runtime"].update(mode="BOGUS"),
    "non-hex-keyring": lambda m: m.update(keyring_master="not hex"),
    "unknown-fault-field": lambda m: m.update(faults={"drop": 0.0, "bogus": 1}),
    "list-seed": lambda m: m["runtime"].update(seed=[1]),
    "int-principals": lambda m: m.update(principals=5),
    "top-level-list": None,
}
"""One manifest edit each; ``None`` wraps the whole manifest in a list."""

LEGACY_KEYS = {
    "vetting": "bank",
    "scheduler": "runq",
    "wire_version": 2,
    "processing_delay": 0.0,
}
"""Runtime options parent-era manifests recorded, at the values they ran."""


class TestDamagedManifest:
    """A manifest of the wrong shape or types fails as a StorageError, and
    ``repro recover`` exits 2 with an ``error:`` line, never a traceback."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("manifest")
        source = base / "system.pi"
        source.write_text("a[m<v>] || s[m(x).n1<x>] || c[n1(x).keep<x>]")
        root = base / "store"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sim", str(source), "--durable", str(root)]) == 0
        return root

    @contextlib.contextmanager
    def edited(self, root, edit):
        path = root / "MANIFEST.json"
        original = path.read_text()
        manifest = json.loads(original)
        if edit is None:
            manifest = [manifest]
        else:
            edit(manifest)
        path.write_text(json.dumps(manifest))
        try:
            yield
        finally:
            path.write_text(original)

    @staticmethod
    def recover_cli(root, capsys):
        status = main(["recover", str(root)])
        return status, capsys.readouterr().err

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damage_is_a_storage_error(self, store, damage, capsys):
        with self.edited(store, DAMAGES[damage]):
            with pytest.raises(StorageError):
                verify_replay(str(store))
            if damage == "int-principals":
                # recover_runtime rebuilds the runtime, not the system,
                # so it never reads the principal list
                recover_runtime(str(store))
            else:
                with pytest.raises(StorageError):
                    recover_runtime(str(store))
            status, err = self.recover_cli(store, capsys)
        assert status == 2
        assert err.startswith("error: ")

    def test_parent_era_legacy_keys_recover_and_verify(self, store, capsys):
        with self.edited(store, lambda m: m["runtime"].update(LEGACY_KEYS)):
            assert verify_replay(str(store)).ok
            runtime, state = recover_runtime(str(store))
            assert state.delivered == 2
            assert main(["recover", str(store)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key,value",
        [("vetting", "nfa"), ("scheduler", "heap"), ("wire_version", 1),
         ("wire_version", "2"), ("processing_delay", 0.5)],
        ids=["vetting-nfa", "scheduler-heap", "wire-v1", "wire-v2-as-text",
             "processing-delay"],
    )
    def test_other_legacy_values_name_the_key(self, store, key, value, capsys):
        with self.edited(store, lambda m: m["runtime"].update({key: value})):
            with pytest.raises(StorageError, match=key):
                verify_replay(str(store))
            with pytest.raises(StorageError, match=key):
                recover_runtime(str(store))
            status, err = self.recover_cli(store, capsys)
        assert status == 2
        assert key in err
