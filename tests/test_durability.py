"""End-to-end durability: capture, checkpoint, recovery, kill injection.

These are the integration contracts on top of :mod:`repro.storage`'s
unit layer (``test_storage.py``): a durable run's persisted record is a
bit-identical prefix of the same-seed in-memory run; recovery
re-executes deterministically; a SIGKILLed shard's replacement resumes
from its WAL without changing the merged trace; and security state
(quarantine, revocation) survives the crash.
"""

import contextlib
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


class TestDurableCapture:
    def test_persisted_record_matches_in_memory_run(self, tmp_path):
        reference, _ = run_gauntlet()
        durable, workload = run_gauntlet(durable=str(tmp_path / "store"))
        assert trace(durable) == trace(reference)
        durable.checkpoint()
        durable.durability.close()
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
        ref_summary = reference.metrics.summary()
        dur_summary = durable.metrics.summary()
        for key in ("deliveries", "messages_sent", "vet_transitions"):
            assert dur_summary[key] == ref_summary[key], key

    def test_checkpoint_cadence_compacts_journals(self, tmp_path):
        root = tmp_path / "store"
        runtime, workload = run_gauntlet(
            durable=str(root), checkpoint_every=8
        )
        runtime.durability.close()
        store = DurableStore(root)
        generations = store.checkpoint_generations()
        assert generations, "cadenced run cut no checkpoint"
        # compaction ran at each checkpoint: subsumed journals are gone,
        # yet the loadable record is still the complete run
        assert all(
            journal > generations[-1]
            for journal in store.journal_generations()
        )
        state = load_state(store)
        assert len(state.entries) == workload.expected_deliveries
        assert state.checkpoint_generation == generations[-1]


class TestRecovery:
    def test_verify_replay_confirms_bit_identical_record(self, tmp_path):
        runtime, workload = run_gauntlet(durable=str(tmp_path / "store"))
        runtime.checkpoint()
        runtime.durability.close()
        store = DurableStore(tmp_path / "store")
        report = verify_replay(store)
        assert report.ok, report.detail
        assert report.persisted == workload.expected_deliveries
        assert report.replayed == workload.expected_deliveries

    def test_recovered_runtime_finishes_to_same_trace(self, tmp_path):
        reference, _ = run_gauntlet()
        runtime, _ = run_gauntlet(durable=str(tmp_path / "store"))
        runtime.durability.close()
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
        runtime.durability.close()

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
        runtime.checkpoint()  # quarantine lands in the header
        run_threat_suite(runtime.middleware, attacks=("replay",))
        runtime.durability.close()  # second one stays in the journal suffix
        state = load_state(DurableStore(root))
        assert {"intruder_forge", "intruder_replay"} <= state.quarantined


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
