"""The Byzantine threat suite: classification, quarantine, degradation,
fault injection, and the metrics/CLI surface around them."""

from __future__ import annotations

import pytest

from repro.core.builder import ch, pr
from repro.core.provenance import EMPTY, OutputEvent
from repro.core.values import AnnotatedValue
from repro.runtime import (
    ATTACK_MIXES,
    CollusionAdversary,
    DistributedRuntime,
    FaultInjector,
    FaultPlan,
    ForgingAdversary,
    GarblingAdversary,
    RuntimeMetrics,
    ShardedRuntime,
    SplicingAdversary,
    TruncatingAdversary,
    run_threat_suite,
)
from repro.workloads import relay_gauntlet

A, B = pr("a"), pr("b")
M, V = ch("m"), ch("v")


def captured(middleware, hops=3):
    value = AnnotatedValue(V)
    for _ in range(hops):
        (value,) = middleware.stamp_output(A, EMPTY, (value,))
    return value


class TestThreatSuite:
    def test_full_mix_detected(self):
        runtime = DistributedRuntime(seed=11)
        outcomes = run_threat_suite(runtime.middleware)
        assert len(outcomes) == len(ATTACK_MIXES["mix"])
        assert all(o.detected and not o.accepted for o in outcomes)

    def test_enforcement_off_accepts_everything(self):
        runtime = DistributedRuntime(seed=11, enforce_integrity=False)
        outcomes = run_threat_suite(runtime.middleware)
        assert all(o.accepted and not o.detected for o in outcomes)

    def test_attack_attempts_are_counted_per_kind(self):
        runtime = DistributedRuntime(seed=11)
        run_threat_suite(runtime.middleware)
        attempts = runtime.metrics.summary()["attack_attempts"]
        assert set(attempts) == set(ATTACK_MIXES["mix"])
        assert all(count == 1 for count in attempts.values())

    def test_single_attack_mix(self):
        runtime = DistributedRuntime(seed=11)
        outcomes = run_threat_suite(
            runtime.middleware, attacks=ATTACK_MIXES["splice"]
        )
        assert [o.attack for o in outcomes] == ["splice"]
        assert outcomes[0].detected

    def test_unknown_attack_rejected(self):
        runtime = DistributedRuntime(seed=11)
        with pytest.raises(ValueError, match="unknown attack"):
            run_threat_suite(runtime.middleware, attacks=("teleport",))


class TestClassification:
    def test_forged_origin_is_a_forge(self):
        runtime = DistributedRuntime(seed=1)
        adversary = ForgingAdversary(B, runtime.middleware)
        assert not adversary.forge_origin(M, A, (V,), depth=2)
        assert runtime.metrics.summary()["tamper_by_kind"] == {"forge": 1}

    def test_replayed_genuine_history_is_a_replay(self):
        runtime = DistributedRuntime(seed=1)
        genuine = (captured(runtime.middleware),)
        adversary = ForgingAdversary(B, runtime.middleware)
        assert not adversary.replay(M, genuine)
        assert runtime.metrics.replays_blocked == 1
        assert runtime.metrics.summary()["tamper_by_kind"] == {"replay": 1}

    def test_truncation_classified_as_replay_of_stale_prefix(self):
        runtime = DistributedRuntime(seed=1)
        adversary = TruncatingAdversary(B, runtime.middleware)
        assert not adversary.truncate(M, (captured(runtime.middleware),))
        assert runtime.metrics.summary()["tamper_by_kind"] == {"replay": 1}

    def test_splice_classified_as_forge(self):
        runtime = DistributedRuntime(seed=1)
        middleware = runtime.middleware
        donor = captured(middleware)
        (target,) = middleware.stamp_output(B, EMPTY, (AnnotatedValue(V),))
        adversary = SplicingAdversary(pr("mallory"), middleware)
        assert not adversary.splice(M, donor, target)
        assert runtime.metrics.summary()["tamper_by_kind"] == {"forge": 1}

    def test_garble_classified_as_forge(self):
        runtime = DistributedRuntime(seed=1)
        adversary = GarblingAdversary(B, runtime.middleware)
        assert not adversary.crash_and_garble(
            M, (captured(runtime.middleware),)
        )
        assert runtime.metrics.summary()["tamper_by_kind"] == {"forge": 1}

    def test_epsilon_knock_is_not_tampering(self):
        """An all-ε unsigned injection is blocked but not classified as
        tampering — no quarantine, no certificate loss (PR 7 contract)."""

        runtime = DistributedRuntime(seed=1)
        adversary = ForgingAdversary(B, runtime.middleware)
        assert not adversary.replay(M, (AnnotatedValue(V),))
        assert runtime.metrics.forgeries_blocked == 1
        assert runtime.metrics.tamper_detected == 0
        assert runtime.metrics.principals_quarantined == 0


class TestQuarantine:
    def test_offender_is_quarantined_and_then_muted(self):
        runtime = DistributedRuntime(seed=1)
        adversary = ForgingAdversary(B, runtime.middleware)
        adversary.forge_origin(M, A, (V,), depth=2)
        assert B in runtime.middleware.quarantined
        assert runtime.metrics.principals_quarantined == 1
        # second attempt: silently dropped, not re-classified
        adversary.forge_origin(M, A, (V,), depth=2)
        assert runtime.metrics.quarantined_drops == 1
        assert runtime.metrics.tamper_detected == 1

    def test_victim_is_never_quarantined(self):
        runtime = DistributedRuntime(seed=1)
        ForgingAdversary(B, runtime.middleware).forge_origin(
            M, A, (V,), depth=2
        )
        assert A not in runtime.middleware.quarantined

    def test_detected_tampering_revokes_certificate(self):
        class Cert:
            def branch_action(self, *args):
                return "vet"

        runtime = DistributedRuntime(seed=1, certificate=Cert())
        ForgingAdversary(B, runtime.middleware).forge_origin(
            M, A, (V,), depth=2
        )
        assert runtime.middleware.certificate is None
        assert runtime.metrics.certificates_revoked == 1


class TestCollusion:
    def make(self, runtime, colluder):
        return CollusionAdversary(
            pr("mallory"),
            runtime.middleware,
            {colluder: runtime.middleware.keyring.leak(colluder)},
        )

    def test_own_history_coalition_is_the_documented_boundary(self):
        runtime = DistributedRuntime(seed=1)
        adversary = self.make(runtime, pr("turncoat"))
        assert adversary.forge_own_history(M, V)
        assert runtime.metrics.tamper_detected == 0

    def test_implicating_an_honest_principal_is_detected(self):
        runtime = DistributedRuntime(seed=1)
        adversary = self.make(runtime, pr("turncoat"))
        assert not adversary.implicate(M, A, V)
        assert runtime.metrics.summary()["tamper_by_kind"] == {"chain": 1}
        # the signing colluder is the quarantined presenter
        assert pr("mallory") in runtime.middleware.quarantined


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("drop=0.1,dup=0.2,reorder=0.3,delay=7")
        assert plan == FaultPlan(
            drop=0.1, duplicate=0.2, reorder=0.3, reorder_delay=7.0
        )
        assert not plan.is_quiet
        assert FaultPlan.parse("").is_quiet

    @pytest.mark.parametrize(
        "spec", ["drop=2", "drop=-0.1", "warp=0.5", "drop", "drop=x"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_decisions_are_seeded_and_deterministic(self):
        plan = FaultPlan(drop=0.3, corrupt=0.3)

        def decisions(seed):
            injector = FaultInjector(plan, seed)
            return [injector.decide(A, M) for _ in range(64)]

        assert decisions(5) == decisions(5)
        assert decisions(5) != decisions(6)

    def test_quiet_plan_draws_nothing(self):
        injector = FaultInjector(FaultPlan(), 5)
        assert all(
            injector.decide(A, M).is_clean for _ in range(8)
        )
        assert injector._ordinals == {}


class TestFaultInjection:
    def test_drops_reduce_deliveries_deterministically(self):
        workload = relay_gauntlet(hops=4, lanes=4)

        def run():
            runtime = DistributedRuntime(
                seed=13, fault_plan=FaultPlan(drop=0.25)
            )
            runtime.deploy(workload.system)
            runtime.run()
            return runtime.metrics.summary()

        first, second = run(), run()
        assert first["faults_dropped"] > 0
        assert first["deliveries"] < workload.expected_deliveries
        assert (
            first["deliveries"],
            first["faults_dropped"],
        ) == (second["deliveries"], second["faults_dropped"])

    def test_corruption_is_fully_detected_under_paranoid_verify(self):
        workload = relay_gauntlet(hops=6, lanes=3)
        runtime = DistributedRuntime(
            seed=13,
            verify_deliveries=True,
            fault_plan=FaultPlan(corrupt=0.3),
        )
        runtime.deploy(workload.system)
        runtime.run()
        summary = runtime.metrics.summary()
        assert summary["faults_corrupted"] > 0
        assert (
            summary["tamper_by_kind"].get("chain", 0)
            == summary["faults_corrupted"]
        )

    def test_corrupted_wire_frames_poison_the_link(self):
        workload = relay_gauntlet(hops=6, lanes=3)
        runtime = ShardedRuntime(
            seed=13,
            shards=2,
            verify_deliveries=True,
            fault_plan=FaultPlan(corrupt=0.3),
        )
        runtime.deploy(workload.system)
        runtime.run()
        summary = runtime.metrics_summary()
        if summary["faults_corrupted"]:
            assert summary["tamper_detected"] > 0

    def test_duplicated_wire_frames_blocked_as_replays(self):
        """Every cross-shard frame shipped twice: the second copy of each
        must be blocked as a wire replay (re-decoding it would desync the
        link codec), and the delivered run must be unaffected."""

        workload = relay_gauntlet(hops=6, lanes=3)
        runtime = ShardedRuntime(
            seed=13,
            shards=2,
            fault_plan=FaultPlan(duplicate=1.0),
        )
        runtime.deploy(workload.system)
        runtime.run()
        summary = runtime.metrics_summary()
        wire_sends = sum(
            stat["cross_shard_sent"] for stat in runtime.shard_stats()
        )
        assert wire_sends > 0
        assert summary["replays_blocked"] == wire_sends
        assert summary["deliveries"] == workload.expected_deliveries


class TestMetricsMerge:
    def test_dict_counters_merge_by_key(self):
        left, right = RuntimeMetrics(), RuntimeMetrics()
        left.note("tamper", "forge")
        left.record_attack("splice")
        right.note("tamper", "forge")
        right.note("tamper", "replay")
        right.record_attack("splice")
        merged = RuntimeMetrics.merge(left.summary(), right.summary())
        assert merged["tamper_detected"] == 3
        assert merged["tamper_by_kind"] == {"forge": 2, "replay": 1}
        assert merged["attack_attempts"] == {"splice": 2}


class TestCli:
    def make_system(self, tmp_path):
        path = tmp_path / "system.pi"
        path.write_text("a[m<v>] || b[m(x).0]\n", encoding="utf-8")
        return str(path)

    def test_sim_adversary_mix(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sim", self.make_system(tmp_path), "--adversary", "mix"]) == 0
        out = capsys.readouterr().out
        assert "detection: 6/6" in out
        assert "tamper_detected = 6" in out

    def test_sim_faults_spec(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "sim",
                self.make_system(tmp_path),
                "--faults",
                "drop=0.5",
                "--verify-deliveries",
            ]
        )
        assert code == 0
        assert "faults_dropped" in capsys.readouterr().out

    def test_sim_bad_fault_spec_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["sim", self.make_system(tmp_path), "--faults", "drop=9"]
        )
        assert code == 2
        assert "fault probability" in capsys.readouterr().err

    def test_sim_adversary_needs_single_runtime(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "sim",
                self.make_system(tmp_path),
                "--adversary",
                "mix",
                "--shards",
                "2",
            ]
        )
        assert code == 2
