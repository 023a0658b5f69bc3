"""Tests for the sharded runtime: partitioner, inline conductor, wire
envelopes, and the process-mode conservative barrier.

The load-bearing contract is the differential: for any system and any
partition, the inline sharded run's merged delivered trace is
bit-identical to the bare runtime's — times, values, branch indices,
canonical order — under a quiet fault plan and under drops and reorders.  Process mode carries the same contract for workloads
whose receivers are co-located with their channels' homes.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ch, inp, located, nil, out, pr, sys_par, var
from repro.core.errors import SimulationError
from repro.lang import parse_system
from repro.runtime import (
    DistributedRuntime,
    FaultPlan,
    LatencyModel,
    ShardedRuntime,
)
from repro.runtime import shards as shards_module
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.shards import Partitioner, ShardPlan, merge_delivered
from repro.storage import load_state
from repro.workloads import fan_in_fan_out, wide_fanout
from repro.workloads.random_systems import GeneratorConfig, random_system

RACY_EXAMPLE = parse_system(
    "a[ m<u> | m<v> | k(x).done<x> ] ||"
    "b[ m(x).(n<x> | m(y).n<y>) ] ||"
    "c[ n(p).n(q).k<q> ]"
)

COMPARED_KEYS = (
    "messages_sent",
    "deliveries",
    "pattern_checks",
    "pattern_rejections",
    "forgeries_blocked",
    "provenance_values",
    "provenance_events_total",
    "mean_provenance_events",
    "max_provenance_spine",
)


def _run(system, shards, seed=0, max_events=20_000, **kwargs):
    runtime = ShardedRuntime(
        shards=shards,
        seed=seed,
        latency=kwargs.pop("latency", LatencyModel(1.0, 0.5)),
        **kwargs,
    )
    runtime.deploy(system)
    runtime.run(max_events=max_events)
    return runtime


def _run_bare(system, seed, fault_plan=None, max_events=20_000):
    runtime = DistributedRuntime(
        seed=seed, latency=LatencyModel(1.0, 0.5), fault_plan=fault_plan
    )
    runtime.deploy(system)
    runtime.run(max_events=max_events)
    return runtime


class TestPartitioner:
    def test_assignment_is_stable_across_instances(self):
        first = Partitioner(4)
        second = Partitioner(4)
        for name in ("alice", "bob", "board", "w_r3_17"):
            assert first.shard_of(pr(name)) == second.shard_of(pr(name))
            assert first.home_of(ch(name)) == second.home_of(ch(name))

    def test_assignment_in_range(self):
        partitioner = Partitioner(3)
        for index in range(100):
            assert 0 <= partitioner.shard_of(pr(f"p{index}")) < 3
            assert 0 <= partitioner.home_of(ch(f"k{index}")) < 3

    def test_overrides_win(self):
        partitioner = Partitioner(
            4,
            principal_overrides={"alice": 2},
            channel_overrides={"board": 0},
        )
        assert partitioner.shard_of(pr("alice")) == 2
        assert partitioner.home_of(ch("board")) == 0

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Partitioner(2, principal_overrides={"alice": 2})

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            Partitioner(0)


class TestInlineSharding:
    def test_bad_shard_mode_rejected(self):
        with pytest.raises(ValueError):
            ShardedRuntime(shards=2, shard_mode="threads")

    def test_racy_example_identical_across_partitions(self):
        baseline = _run(RACY_EXAMPLE, 1, seed=3)
        trace = baseline.delivered_trace()
        assert trace, "baseline delivered nothing"
        for shards in (2, 3, 5):
            sharded = _run(RACY_EXAMPLE, shards, seed=3)
            assert sharded.delivered_trace() == trace
            base_summary = baseline.metrics_summary()
            shard_summary = sharded.metrics_summary()
            for key in COMPARED_KEYS:
                assert shard_summary[key] == base_summary[key], key

    def test_cross_shard_traffic_actually_flows(self):
        # pin sender and receiver to different shards so the run must
        # cross the wire, then check the router counted it
        runtime = ShardedRuntime(
            shards=2,
            seed=1,
            plan=ShardPlan({"a": 0, "b": 1}, {"m": 1}),
        )
        runtime.deploy(parse_system("a[m<u>] || b[m(x).0]"))
        runtime.run()
        stats = runtime.shard_stats()
        assert stats[0]["cross_shard_sent"] == 1
        assert stats[1]["cross_shard_received"] == 1
        assert runtime.metrics_summary()["deliveries"] == 1

    def test_deploy_honours_a_topology(self):
        runtime = ShardedRuntime(
            shards=2, seed=1, plan=ShardPlan({"a": 0, "b": 1}, {"m": 1})
        )
        runtime.deploy(
            parse_system("a[m<u>] || b[m(x).0]"),
            topology=lambda sender, channel: LatencyModel(7.5, 0.0),
        )
        runtime.run()
        [delivery] = runtime.delivered_trace()
        assert delivery.time == pytest.approx(7.5)

    def test_shard_stats_are_consistent(self):
        runtime = _run(RACY_EXAMPLE, 3, seed=3)
        stats = runtime.shard_stats()
        summary = runtime.metrics_summary()
        assert sum(s["deliveries"] for s in stats) == summary["deliveries"]
        assert sum(s["cross_shard_sent"] for s in stats) == sum(
            s["cross_shard_received"] for s in stats
        )
        assert runtime.messages_in_flight() == 0

    def test_wide_fanout_with_plan_identical(self):
        workload = wide_fanout(4, 3, burst=2, guard_depth=1)
        kwargs = dict(n_regions=4, sources_per_region=3, burst=2,
                      guard_depth=1)
        baseline = ShardedRuntime(
            shards=1, seed=7, plan=workload.shard_plan(1)
        )
        baseline.deploy_builder(wide_fanout, **kwargs)
        baseline.run()
        sharded = ShardedRuntime(
            shards=3, seed=7, plan=workload.shard_plan(3)
        )
        sharded.deploy_builder(wide_fanout, **kwargs)
        sharded.run()
        assert sharded.delivered_trace() == baseline.delivered_trace()
        assert (
            sharded.metrics_summary()["deliveries"]
            == workload.expected_deliveries
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=2, max_value=5),
        overridden=st.dictionaries(
            st.sampled_from(["p0", "p1", "p2", "p3"]),
            st.integers(min_value=0, max_value=1),
            max_size=4,
        ),
        fault_plan=st.sampled_from([None, FaultPlan(drop=0.2, reorder=0.2)]),
    )
    def test_any_partition_matches_single_shard(
        self, seed, shards, overridden, fault_plan
    ):
        """The property the whole design hangs on: partition-invariance.

        Every partition reproduces the bare runtime's trace, under a
        quiet plan and under drops and reorders, which every transport
        applies the same way."""

        system = random_system(
            seed, GeneratorConfig(n_components=4, n_messages=2, max_depth=3)
        )
        runs = ((1, ShardPlan()), (shards, ShardPlan(dict(overridden))))
        # random_system can produce dynamically ill-typed programs (e.g.
        # receiving on a variable bound to a principal); the middleware
        # raises TypeError for those at runtime.  Partition-invariance
        # still has to hold: the sharded run must fail the same way.
        try:
            bare = _run_bare(system, seed, fault_plan, max_events=4_000)
        except TypeError as expected:
            for count, plan in runs:
                with pytest.raises(TypeError, match=re.escape(str(expected))):
                    _run(
                        system,
                        count,
                        seed=seed,
                        max_events=4_000,
                        plan=plan,
                        fault_plan=fault_plan,
                    )
            return
        bare_trace = merge_delivered([bare.metrics.delivered])
        bare_summary = bare.metrics.summary()
        for count, plan in runs:
            sharded = _run(
                system,
                count,
                seed=seed,
                max_events=4_000,
                plan=plan,
                fault_plan=fault_plan,
            )
            assert sharded.delivered_trace() == bare_trace
            shard_summary = sharded.metrics_summary()
            for key in COMPARED_KEYS:
                assert shard_summary[key] == bare_summary[key], key

    def test_dropped_sends_leave_the_trace_partition_independent(self):
        # twelve sends on one link under drops: a dropped cross-shard
        # send must not consume a latency draw the local path would not
        sends = " || ".join(f"p[m<v{i}>]" for i in range(12))
        receivers = " || ".join("c[m(x).0]" for _ in range(12))
        system = parse_system(f"{sends} || {receivers}")
        plan = FaultPlan(drop=0.3)
        bare = _run_bare(system, 5, plan)
        assert 0 < bare.metrics.faults_dropped < 12
        expected = merge_delivered([bare.metrics.delivered])
        for home in (0, 1):
            sharded = _run(
                system,
                2,
                seed=5,
                fault_plan=plan,
                plan=ShardPlan({"p": 0, "c": home}, {"m": home}),
            )
            assert sharded.delivered_trace() == expected


class TestShardPlan:
    def test_wide_fanout_plan_covers_every_name(self):
        workload = wide_fanout(5, 2, burst=2)
        plan = workload.shard_plan(3)
        assert plan.principals[workload.collector.name] == 0
        assert plan.channels[workload.board.name] == 0
        assert plan.lookahead == pytest.approx(5.0)
        for source in workload.sources:
            assert source.name in plan.principals
        for work in workload.work_channels:
            assert work.name in plan.channels
        # sinks sit with their region's work channels: process mode
        # requires receiver/home co-location
        for region, sink in enumerate(workload.sinks):
            assert plan.principals[sink.name] == region % 3

    def test_plan_feeds_runtime_overrides(self):
        workload = wide_fanout(2, 1)
        plan = ShardPlan(
            principals={"collector": 0}, channels={"board": 0}, lookahead=2.5
        )
        runtime = ShardedRuntime(shards=2, plan=plan)
        assert runtime.lookahead == pytest.approx(2.5)
        assert runtime.partitioner.home_of(workload.board) == 0


class TestProcessSharding:
    def test_needs_positive_lookahead(self):
        with pytest.raises(ValueError, match="lookahead"):
            ShardedRuntime(
                shards=2,
                shard_mode="process",
                latency=LatencyModel(0.0, 0.0),
            )

    def test_wide_fanout_differential(self):
        kwargs = dict(n_regions=4, sources_per_region=4, burst=2,
                      guard_depth=1)
        workload = wide_fanout(**kwargs)
        baseline = ShardedRuntime(
            shards=1, seed=7, plan=workload.shard_plan(1)
        )
        baseline.deploy_builder(wide_fanout, **kwargs)
        baseline.run()
        sharded = ShardedRuntime(
            shards=2, shard_mode="process", seed=7,
            plan=workload.shard_plan(2),
        )
        sharded.deploy_builder(wide_fanout, **kwargs)
        sharded.run()
        assert sharded.delivered_trace() == baseline.delivered_trace()
        base_summary = baseline.metrics_summary()
        shard_summary = sharded.metrics_summary()
        for key in COMPARED_KEYS:
            assert shard_summary[key] == base_summary[key], key
        assert sharded.barrier_rounds > 0
        stats = sharded.shard_stats()
        assert all(s["barrier_stall_seconds"] >= 0.0 for s in stats)

    def test_both_modes_report_the_same_results(self):
        """Inline shards and process workers fill one report shape: every
        result accessor reads the same values in both modes.  ``now`` is
        left out (a process clock stops at a window boundary), and so is
        the wall-clock barrier stall."""

        kwargs = dict(n_regions=4, sources_per_region=4, burst=2,
                      guard_depth=1)
        plan = wide_fanout(**kwargs).shard_plan(2)
        results = []
        for mode in ("inline", "process"):
            runtime = ShardedRuntime(
                shards=2, shard_mode=mode, seed=7, plan=plan
            )
            runtime.deploy_builder(wide_fanout, **kwargs)
            runtime.run()
            stats = runtime.shard_stats()
            for row in stats:
                del row["barrier_stall_seconds"]
            results.append(
                (
                    stats,
                    runtime.shard_summaries(),
                    runtime.blocked_threads(),
                    runtime.messages_in_flight(),
                    runtime.delivered_trace(),
                )
            )
        inline, process = results
        assert inline[-1], "the run delivered nothing"
        assert inline == process

    def test_results_before_run(self):
        runtime = ShardedRuntime(shards=2, shard_mode="process")
        runtime.deploy(RACY_EXAMPLE)
        for read in (
            runtime.shard_summaries,
            runtime.shard_stats,
            runtime.delivered_trace,
        ):
            with pytest.raises(SimulationError, match=r"run\(\) the mesh"):
                read()
        assert runtime.now == 0.0
        assert runtime.blocked_threads() == 0
        assert runtime.messages_in_flight() == 0

    def test_remote_receiver_rejected_with_clear_error(self):
        # channel homed away from its receiver: inline resolves the
        # home manager in-process, but across OS processes a delivery
        # callback cannot travel — the worker must refuse loudly
        runtime = ShardedRuntime(
            shards=2,
            shard_mode="process",
            lookahead=1.0,
            plan=ShardPlan({"a": 0, "b": 1}, {"m": 0}),
        )
        runtime.deploy(parse_system("a[m<u>] || b[m(x).0]"))
        with pytest.raises(SimulationError, match="co-locate"):
            runtime.run()

    def test_untruthful_lookahead_rejected(self):
        # link latency 1.0 but a declared lookahead of 5.0: the barrier
        # would run windows the message could arrive inside
        runtime = ShardedRuntime(
            shards=2,
            shard_mode="process",
            lookahead=5.0,
            latency=LatencyModel(1.0, 0.0),
            plan=ShardPlan({"a": 0, "b": 1}, {"m": 1}),
        )
        runtime.deploy(parse_system("a[m<u>] || b[m(x).0]"))
        with pytest.raises(SimulationError, match="lookahead"):
            runtime.run()

    def test_process_mesh_runs_once(self):
        kwargs = dict(n_regions=2, sources_per_region=1, burst=1)
        workload = wide_fanout(**kwargs)
        runtime = ShardedRuntime(
            shards=2, shard_mode="process", seed=1,
            plan=workload.shard_plan(2),
        )
        runtime.deploy_builder(wide_fanout, **kwargs)
        runtime.run()
        with pytest.raises(SimulationError, match="runs once"):
            runtime.run()


def _deep_relay(lanes, hops):
    """``lanes`` relays of ``hops`` hops alternating between two servers,
    every channel homed with its receiver."""

    x = var("x")
    components = []
    homes = {}
    for lane in range(lanes):
        channels = [ch(f"t{lane}_{i}") for i in range(hops + 1)]
        components.append(
            located(pr(f"s{lane % 2}"), out(channels[0], ch(f"v{lane}")))
        )
        for i in range(1, hops + 1):
            server = (lane + i) % 2
            body = out(channels[i], x) if i < hops else nil()
            components.append(
                located(pr(f"s{server}"), inp(channels[i - 1], x, body=body))
            )
            homes[channels[i - 1].name] = server
    plan = ShardPlan({"s0": 0, "s1": 1}, homes, LatencyModel().base)
    return sys_par(*components), plan


def _dag_nodes(trace):
    """Distinct spine nodes reachable from the trace's values."""

    seen = set()
    stack = [value.provenance for *_, values, _ in trace for value in values]
    while stack:
        node = stack.pop()
        while node and id(node) not in seen:
            seen.add(id(node))
            stack.append(node.head.channel_provenance)
            node = node.tail
    return len(seen)


def _answers(index, principals):
    delivered = index.delivered
    return (
        delivered,
        [index.cone_of_influence(o) for o in range(delivered)],
        [index.happens_before(o, delivered - 1 - o) for o in range(delivered)],
        [index.taint(p) for p in principals],
        [index.derived_from_sends(p) for p in principals],
    )


def _assert_trust_journaled(root, summaries):
    """Each shard's journal holds exactly the trust transitions its
    metrics counted; a retired link is never a principal quarantine."""

    for index, summary in enumerate(summaries):
        state = load_state(root / f"shard-{index}")
        kinds = [note.kind for note in state.notes]
        assert state.tampered == summary["tamper_detected"], index
        assert kinds.count("poison") == summary["principals_quarantined"]
        assert not state.quarantined
    return sum(summary["tamper_detected"] for summary in summaries)


class TestRouterTrustNotes:
    def test_inline_wire_tampering_reaches_every_shard_journal(
        self, tmp_path
    ):
        detected = 0
        for seed in range(1, 6):
            runtime = ShardedRuntime(
                shards=2,
                seed=seed,
                durable_dir=tmp_path / str(seed),
                fault_plan=FaultPlan(corrupt=0.3),
            )
            runtime.deploy(fan_in_fan_out(8).system)
            runtime.run()
            runtime.close()
            detected += _assert_trust_journaled(
                tmp_path / str(seed), runtime.shard_summaries()
            )
        assert detected > 0

    def test_process_wire_tampering_and_replays_reach_the_journal(
        self, tmp_path
    ):
        system, plan = _deep_relay(2, 16)
        runtime = ShardedRuntime(
            shards=2,
            shard_mode="process",
            seed=2,
            plan=plan,
            durable_dir=tmp_path,
            fault_plan=FaultPlan(corrupt=0.3, duplicate=0.5),
        )
        runtime.deploy(system)
        runtime.run()
        summaries = runtime.shard_summaries()
        assert _assert_trust_journaled(tmp_path, summaries) > 0
        kinds = RuntimeMetrics.merge(*summaries)["tamper_by_kind"]
        assert kinds.get("wire") and kinds.get("replay")


class TestShardedStoreQuery:
    def test_query_dot_export_matches_the_live_merge(self, tmp_path):
        """``repro query`` on a sharded store merges the shard journals
        exactly as ``delivered_trace()`` merges the live records."""

        from repro.cli import main
        from repro.query import to_dot

        store = tmp_path / "store"
        runtime = _run(RACY_EXAMPLE, 3, seed=3, durable_dir=store)
        runtime.close()
        expected = to_dot(runtime.build_query_index())
        dot = tmp_path / "trace.dot"
        assert main(["query", str(store), "--export-dot", str(dot)]) == 0
        assert dot.read_text(encoding="utf-8") == expected
        assert len(runtime.delivered_trace()) == 5


class TestProcessResultFrames:
    def test_deep_relay_matches_inline_with_every_layer_on(
        self, tmp_path, monkeypatch
    ):
        lanes, hops = 2, 128
        system, plan = _deep_relay(lanes, hops)
        baseline = ShardedRuntime(shards=1, seed=3)
        baseline.deploy(system)
        baseline.run()
        shipped = []
        decode = shards_module._decode_delivered

        def spy(index, entries):
            shipped.append(sum(len(entry) for entry in entries))
            return decode(index, entries)

        monkeypatch.setattr(shards_module, "_decode_delivered", spy)
        sharded = ShardedRuntime(
            shards=2,
            shard_mode="process",
            seed=3,
            plan=plan,
            crypto=True,
            verify_deliveries=True,
            durable_dir=tmp_path / "store",
        )
        sharded.deploy(system)
        sharded.run()
        trace = sharded.delivered_trace()
        assert len(trace) == lanes * hops
        assert trace == baseline.delivered_trace()
        principals = [pr("s0"), pr("s1")]
        assert _answers(sharded.build_query_index(), principals) == _answers(
            baseline.build_query_index(), principals
        )
        # the finish payload grows with the interned DAG, not with the
        # summed spine lengths (the pickled spines' cost)
        assert len(shipped) == 2
        spine_events = sum(
            len(value.provenance) for *_, values, _ in trace for value in values
        )
        nodes = _dag_nodes(trace)
        assert spine_events > 30 * nodes
        assert sum(shipped) <= 40 * nodes

    def test_undecodable_result_names_the_shard(self):
        with pytest.raises(SimulationError, match="shard 1"):
            shards_module._decode_delivered(1, [b"\x01\x00"])
        with pytest.raises(SimulationError, match="shard 0.*not a delivery"):
            shards_module._decode_delivered(0, [b"\x02\x01k\x01d"])
