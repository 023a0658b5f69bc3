"""The provenance analytics layer: index, planner, persistence, export.

Covers the generation-indexed query engine end to end: hand-built
traces pin the happens-before edge semantics; live runtimes exercise
the delivery-observer hook and the bit-identical differential; durable
stores exercise snapshot save/load/resume (including the O(new events)
resume property); sharded runs pin partition invariance.
"""

import pytest

from repro.core.names import Channel, Principal
from repro.core.provenance import EMPTY, InputEvent, OutputEvent
from repro.core.values import AnnotatedValue
from repro.lang import parse_system
from repro.query import (
    CHANNEL,
    DERIVES,
    PROGRAM,
    ProvenanceIndex,
    load_index,
    plan_where,
    resume_index,
    run_where,
    save_index,
    spine_to_dot,
    to_dot,
    to_prov_json,
)
from repro.runtime.runtime import DistributedRuntime
from repro.workloads.scaling import relay_guard, vetted_relay_chain

A, B, C = Principal("a"), Principal("b"), Principal("c")
T1, T2 = Channel("t1"), Channel("t2")


def annotated(provenance):
    return AnnotatedValue(Channel("v"), provenance)


def relay_trace(hops, principals=3, channels=2):
    """A relay-style trace: each delivery's spine extends the previous."""

    people = [Principal(f"p{i}") for i in range(principals)]
    chans = [Channel(f"t{i}") for i in range(channels)]
    trace = []
    spine = EMPTY
    for i in range(hops):
        spine = spine.cons(OutputEvent(people[i % principals]))
        spine = spine.cons(InputEvent(people[(i + 1) % principals]))
        trace.append(
            (
                float(i),
                people[(i + 1) % principals],
                chans[i % channels],
                (annotated(spine),),
                0,
            )
        )
    return trace, spine


class TestEdgeSemantics:
    def test_program_edge_links_same_receiver(self):
        index = ProvenanceIndex()
        index.extend_trace(
            [
                (0.0, A, T1, (annotated(EMPTY),), 0),
                (1.0, B, T2, (annotated(EMPTY),), 0),
                (2.0, A, T2, (annotated(EMPTY),), 0),
            ]
        )
        kinds = {(kind, src) for kind, src in index.predecessors(2)}
        assert (PROGRAM, 0) in kinds
        assert (CHANNEL, 1) in kinds

    def test_derivation_edge_follows_spine_extension(self):
        trace, _ = relay_trace(4)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        for ordinal in range(1, 4):
            sources = {
                src
                for kind, src in index.predecessors(ordinal)
                if kind == DERIVES
            }
            assert sources == {ordinal - 1}

    def test_no_derivation_edge_between_unrelated_spines(self):
        kappa_a = EMPTY.cons(OutputEvent(A))
        kappa_b = EMPTY.cons(OutputEvent(B))
        index = ProvenanceIndex()
        index.extend_trace(
            [
                (0.0, A, T1, (annotated(kappa_a),), 0),
                (1.0, B, T2, (annotated(kappa_b),), 0),
            ]
        )
        assert index.edge_counts()[DERIVES] == 0

    def test_erased_empty_provenance_never_derives(self):
        index = ProvenanceIndex()
        index.extend_trace(
            [(float(i), A, T1, (annotated(EMPTY),), 0) for i in range(3)]
        )
        assert index.edge_counts()[DERIVES] == 0

    def test_successors_mirror_predecessors(self):
        trace, _ = relay_trace(6)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        for ordinal in range(index.delivered):
            for kind, source in index.predecessors(ordinal):
                assert ordinal in index.successors(source)

    def test_happens_before_is_transitive_and_antisymmetric(self):
        trace, _ = relay_trace(5)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        assert index.happens_before(0, 4)
        assert not index.happens_before(4, 0)
        assert not index.happens_before(2, 2)


class TestGenerations:
    def test_each_commit_is_one_generation(self):
        trace, _ = relay_trace(9)
        index = ProvenanceIndex()
        for start in range(0, 9, 3):
            index.extend_trace(trace[start : start + 3])
        assert index.generation == 3
        assert index.generation_marks == (3, 6, 9)
        assert len(index.generation_work) == 3

    def test_empty_commit_does_not_bump_generation(self):
        index = ProvenanceIndex()
        assert index.commit() == 0
        assert index.generation == 0

    def test_indexing_work_is_o_new_events_not_o_history(self):
        # hash-consing: every batch extends a shared spine, so absorbing
        # batch k costs the same as batch 1 even though the history has
        # grown k-fold — the tentpole property E24 gates at scale
        trace, _ = relay_trace(300)
        index = ProvenanceIndex()
        for start in range(0, 300, 50):
            index.extend_trace(trace[start : start + 50])
        work = index.generation_work
        assert max(work) <= 1.5 * min(work)

    def test_observe_delivery_is_pending_until_commit(self):
        trace, _ = relay_trace(2)
        index = ProvenanceIndex()
        for time, principal, channel, values, branch in trace:
            index.observe_delivery(time, principal, channel, values, branch)
        assert index.pending == 2
        assert index.delivered == 0
        index.commit()
        assert (index.pending, index.delivered) == (0, 2)

    def test_queries_settle_pending_observations(self):
        trace, _ = relay_trace(3)
        index = ProvenanceIndex()
        for entry in trace:
            index.observe_delivery(*entry)
        assert len(index.derived_from_sends(Principal("p0"))) == 3
        assert index.generation == 1


class TestQueries:
    def brute_force_senders(self, values):
        senders = set()

        def walk(node):
            for event in node:
                if isinstance(event, OutputEvent):
                    senders.add(event.principal)
                walk(event.channel_provenance)

        for value in values:
            walk(value.provenance)
        return senders

    def test_derived_from_sends_matches_brute_force(self):
        workload = vetted_relay_chain(7)
        runtime = DistributedRuntime(seed=11)
        index = runtime.attach_query_index()
        runtime.deploy(workload.system)
        runtime.run()
        index.commit()
        for principal in index.known_principals() | {Principal("a")}:
            expected = tuple(
                record.ordinal
                for record in index.deliveries()
                if principal in self.brute_force_senders(record.values)
            )
            assert index.derived_from_sends(principal) == expected

    def test_taint_reaches_forward_along_dataflow(self):
        trace, _ = relay_trace(5)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        assert index.taint(Principal("p0")) == (0, 1, 2, 3, 4)

    def test_cone_of_influence_is_the_backward_slice(self):
        trace, _ = relay_trace(5)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        assert index.cone_of_influence(4) == (0, 1, 2, 3)
        assert index.cone_of_influence(0) == ()

    def test_cone_respects_edge_kind_filter(self):
        index = ProvenanceIndex()
        index.extend_trace(
            [
                (0.0, A, T1, (annotated(EMPTY),), 0),
                (1.0, A, T2, (annotated(EMPTY),), 0),
            ]
        )
        assert index.cone_of_influence(1, kinds=(PROGRAM,)) == (0,)
        assert index.cone_of_influence(1, kinds=(DERIVES,)) == ()

    def test_matching_suffixes_agree_with_pattern_matches(self):
        trace, spine = relay_trace(8)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        pattern = relay_guard()
        expected = tuple(
            suffix for suffix in spine.suffixes() if pattern.matches(suffix)
        )
        assert index.matching_suffixes(spine, pattern) == expected
        # warm repeat is the same object: a pure cache hit
        assert index.matching_suffixes(spine, pattern) is index.matching_suffixes(
            spine, pattern
        )

    def test_minimal_witness_is_the_shortest_match(self):
        trace, spine = relay_trace(8)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        pattern = relay_guard()
        matches = index.matching_suffixes(spine, pattern)
        witness = index.minimal_witness(spine, pattern)
        assert witness is matches[-1]
        assert len(witness) == min(len(m) for m in matches)

    def test_first_compliant_suffix_is_the_longest_match(self):
        trace, spine = relay_trace(8)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        pattern = relay_guard()
        assert index.first_compliant_suffix(spine, pattern) is (
            index.matching_suffixes(spine, pattern)[0]
        )

    def test_iter_value_witnesses_pairs_roots_with_witnesses(self):
        trace, _ = relay_trace(4)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        pairs = list(index.iter_value_witnesses(3, relay_guard()))
        assert len(pairs) == 1
        root, witness = pairs[0]
        assert root is index.delivery(3).roots[0]
        assert witness is index.minimal_witness(root, relay_guard())


class TestLiveRuntime:
    def test_observer_streams_every_delivery(self):
        runtime = DistributedRuntime(seed=5)
        index = runtime.attach_query_index()
        runtime.deploy(vetted_relay_chain(5).system)
        runtime.run()
        index.commit()
        assert index.delivered == runtime.metrics.deliveries

    def test_double_attach_is_refused(self):
        runtime = DistributedRuntime(seed=5)
        runtime.attach_query_index()
        with pytest.raises(ValueError):
            runtime.attach_query_index()

    def test_delivered_trace_identical_with_observer_on_and_off(self):
        # the E24 differential in miniature: observers are pure
        # consumers, so attaching an index never perturbs the run
        def trace(attach):
            runtime = DistributedRuntime(seed=13)
            if attach:
                runtime.attach_query_index()
            runtime.deploy(vetted_relay_chain(6).system)
            runtime.run()
            return [
                (r.time, r.principal, r.channel, r.values, r.branch_index)
                for r in runtime.metrics.delivered
            ]

        assert trace(False) == trace(True)

    def test_index_trace_tuples_match_metrics(self):
        runtime = DistributedRuntime(seed=7)
        index = runtime.attach_query_index()
        runtime.deploy(vetted_relay_chain(4).system)
        runtime.run()
        index.commit()
        metrics_trace = [
            (r.time, r.principal, r.channel, r.values, r.branch_index)
            for r in runtime.metrics.delivered
        ]
        assert [
            d.trace_tuple() for d in index.deliveries()
        ] == metrics_trace


class TestSharded:
    def test_build_query_index_is_partition_invariant(self):
        from repro.runtime.shards import ShardedRuntime

        workload = vetted_relay_chain(8)

        def build(shards):
            sharded = ShardedRuntime(shards, seed=5)
            sharded.deploy(workload.system)
            sharded.run()
            return sharded.build_query_index()

        one, three = build(1), build(3)
        assert one.summary() == three.summary()
        assert [d.trace_tuple() for d in one.deliveries()] == [
            d.trace_tuple() for d in three.deliveries()
        ]

    def test_sharded_index_reinterns_cross_shard_spines(self):
        from repro.runtime.shards import ShardedRuntime

        sharded = ShardedRuntime(3, seed=5)
        sharded.deploy(vetted_relay_chain(8).system)
        sharded.run()
        index = sharded.build_query_index()
        # the relay's spines arrive over the v2 wire shard-by-shard yet
        # re-intern into one shared DAG: derivation edges chain through
        assert index.edge_counts()[DERIVES] == index.delivered - 1


class TestPersistence:
    def run_durable(self, tmp_path, hops=6, checkpoint=True):
        runtime = DistributedRuntime(seed=3, durable=tmp_path)
        index = runtime.attach_query_index()
        runtime.deploy(vetted_relay_chain(hops).system)
        runtime.run()
        if checkpoint:
            runtime.checkpoint()
        return runtime, index

    def test_snapshot_roundtrip_preserves_everything(self, tmp_path):
        from repro.storage import load_state

        _, index = self.run_durable(tmp_path)
        state = load_state(tmp_path)
        loaded, generation = load_index(tmp_path, state.entries)
        assert generation == 1
        assert loaded.summary() == index.summary()
        for ordinal in range(index.delivered):
            assert loaded.predecessors(ordinal) == index.predecessors(ordinal)
        for principal in index.known_principals():
            assert loaded.received_by(principal) == index.received_by(
                principal
            )
            assert loaded.derived_from_sends(
                principal
            ) == index.derived_from_sends(principal)

    def test_resume_without_snapshot_rebuilds(self, tmp_path):
        _, index = self.run_durable(tmp_path, checkpoint=False)
        index.commit()
        resumed, info = resume_index(tmp_path)
        assert info["snapshot_generation"] == 0
        assert resumed.delivered == index.delivered

    def test_resume_extends_only_the_journal_suffix(self, tmp_path):
        runtime, index = self.run_durable(tmp_path)
        # more deliveries after the checkpoint land journal-only
        runtime.deploy(parse_system("a[t1<v>] || b[t1(x).0]"))
        runtime.run()
        runtime.durability.flush()
        index.commit()
        resumed, info = resume_index(tmp_path)
        assert info["snapshot_generation"] == 1
        assert info["extended_deliveries"] == 1
        assert resumed.delivered == index.delivered
        assert resumed.summary() == index.summary()
        # O(new events): this process walked just the journal suffix —
        # a full rebuild would have spent the whole events_indexed total
        assert 0 < info["extended_work"] < resumed.events_indexed

    def test_corrupt_snapshot_falls_back_to_rebuild(self, tmp_path):
        from repro.storage.segments import DurableStore

        self.run_durable(tmp_path)
        store = DurableStore(tmp_path)
        [generation] = store.query_index_generations()
        path = store.query_index_path(generation)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        resumed, info = resume_index(tmp_path)
        assert info["snapshot_generation"] == 0
        assert resumed.delivered == 7  # 6 relays + the final consume

    CRAFTED = {
        "set id out of range": lambda h, e, n: n["rows"][0].__setitem__(
            0, len(n["sets"])
        ),
        "negative set id": lambda h, e, n: n["rows"][0].__setitem__(0, -1),
        "principal id out of range": lambda h, e, n: n["sets"].__setitem__(
            0, [len(h["principals"])]
        ),
        "unknown edge kind": lambda h, e, n: e.__setitem__(1, [[9, 0]]),
        "header without principals": lambda h, e, n: h.pop("principals"),
        "rows not a list": lambda h, e, n: n.__setitem__("rows", 5),
        "edge source out of range": lambda h, e, n: e.__setitem__(
            1, [[0, 10**6]]
        ),
        "self edge": lambda h, e, n: e.__setitem__(1, [[0, 1]]),
        "forward edge": lambda h, e, n: e.__setitem__(1, [[0, 2]]),
    }

    @pytest.mark.parametrize("craft", sorted(CRAFTED))
    def test_crafted_snapshot_falls_back_to_a_fresh_build(
        self, tmp_path, craft, capsys
    ):
        """CRC-valid snapshots with bad content are refused, not followed."""

        import json

        from repro.cli import main
        from repro.query.persist import _read_snapshot
        from repro.storage import load_state
        from repro.storage.segments import (
            DurableStore,
            atomic_write_bytes,
            frame_record,
        )

        self.run_durable(tmp_path)
        store = DurableStore(tmp_path)
        [generation] = store.query_index_generations()
        path = store.query_index_path(generation)
        parts = _read_snapshot(path)
        self.CRAFTED[craft](*parts)
        atomic_write_bytes(
            path,
            b"".join(
                frame_record(bytes((kind,)) + json.dumps(part).encode())
                for kind, part in zip((0x20, 0x21, 0x22), parts)
            ),
        )
        resumed, info = resume_index(tmp_path)
        assert info["snapshot_generation"] == 0
        fresh = ProvenanceIndex()
        fresh.extend_entries(load_state(tmp_path).entries)
        assert resumed.summary() == fresh.summary()
        for ordinal in range(fresh.delivered):
            assert resumed.predecessors(ordinal) == fresh.predecessors(ordinal)
            assert resumed.cone_of_influence(
                ordinal
            ) == fresh.cone_of_influence(ordinal)
        for principal in fresh.known_principals():
            assert resumed.derived_from_sends(
                principal
            ) == fresh.derived_from_sends(principal)
            assert resumed.taint(principal) == fresh.taint(principal)
        assert main(["query", str(tmp_path)]) == 0
        assert "deliveries=7" in capsys.readouterr().out

    def test_checkpoint_writes_one_snapshot_per_generation(self, tmp_path):
        from repro.storage.segments import DurableStore

        runtime, _ = self.run_durable(tmp_path)
        runtime.deploy(parse_system("a[t1<v>] || b[t1(x).0]"))
        runtime.run()
        runtime.checkpoint()
        generations = DurableStore(tmp_path).query_index_generations()
        assert generations == [1, 2]

    def test_compact_keeps_only_newest_snapshot(self, tmp_path):
        from repro.storage.segments import DurableStore

        runtime, _ = self.run_durable(tmp_path)
        runtime.deploy(parse_system("a[t1<v>] || b[t1(x).0]"))
        runtime.run()
        runtime.checkpoint()
        store = DurableStore(tmp_path)
        store.compact()
        assert store.query_index_generations() == [2]


class TestPlanner:
    def build(self):
        trace, _ = relay_trace(9, principals=3, channels=2)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        return index

    def test_receiver_query_uses_the_posting_list(self):
        index = self.build()
        ordinals, plan = run_where(index, receiver=Principal("p1"))
        assert plan.access == "received-by"
        assert ordinals == index.received_by(Principal("p1"))

    def test_channel_query_uses_the_posting_list(self):
        index = self.build()
        ordinals, plan = run_where(index, channel=Channel("t0"))
        assert plan.access == "on-channel"
        assert ordinals == index.on_channel(Channel("t0"))

    def test_sender_only_query_scans(self):
        index = self.build()
        ordinals, plan = run_where(index, sender=Principal("p0"))
        assert plan.access == "scan"
        assert ordinals == tuple(
            d.ordinal
            for d in index.deliveries()
            if Principal("p0") in d.senders
        )

    def test_conjunctive_query_picks_the_shorter_posting(self):
        index = self.build()
        receiver, channel = Principal("p1"), Channel("t0")
        ordinals, plan = run_where(index, receiver=receiver, channel=channel)
        shorter = min(
            ("received-by", len(index.received_by(receiver))),
            ("on-channel", len(index.on_channel(channel))),
            key=lambda item: item[1],
        )[0]
        assert plan.access == shorter
        assert ordinals == tuple(
            d.ordinal
            for d in index.deliveries()
            if d.principal == receiver and d.channel == channel
        )

    def test_signature_buckets_refine_the_scan_estimate(self):
        from repro.logs.ast import EMPTY_LOG, Action, ActionKind, LogAction
        from repro.logs.order import LogIndex

        log = EMPTY_LOG
        for _ in range(2):
            log = LogAction(
                Action(ActionKind.SND, Principal("p0"), (Channel("t0"),)),
                log,
            )
        buckets = LogIndex(log).signature_buckets()
        assert sum(buckets.values()) == 2
        index = self.build()
        unrefined = plan_where(index, sender=Principal("p0"))
        refined = plan_where(
            index, sender=Principal("p0"), signature_buckets=buckets
        )
        assert unrefined.estimated_matches == index.delivered
        assert refined.access == "scan"
        assert refined.estimated_matches == 2

    def test_plan_describe_is_printable(self):
        index = self.build()
        plan = plan_where(index, receiver=Principal("p1"))
        assert "received-by" in plan.describe()


class TestExport:
    def build(self):
        trace, spine = relay_trace(4)
        index = ProvenanceIndex()
        index.extend_trace(trace)
        return index, spine

    def test_prov_json_has_the_w3c_sections(self):
        index, _ = self.build()
        document = to_prov_json(index)
        assert set(document) >= {
            "prefix",
            "agent",
            "activity",
            "entity",
            "wasAssociatedWith",
            "wasDerivedFrom",
        }
        assert len(document["activity"]) == index.delivered
        assert len(document["wasDerivedFrom"]) == index.edge_counts()[DERIVES]

    def test_prov_json_limit_caps_activities(self):
        index, _ = self.build()
        document = to_prov_json(index, limit=2)
        assert len(document["activity"]) == 2

    def test_write_prov_json_is_valid_json(self, tmp_path):
        import json

        from repro.query import write_prov_json

        index, _ = self.build()
        path = tmp_path / "prov.json"
        write_prov_json(index, path)
        assert json.loads(path.read_text())["agent"]

    def test_dot_mentions_every_delivery(self):
        index, _ = self.build()
        dot = to_dot(index)
        assert dot.startswith("digraph")
        for ordinal in range(index.delivered):
            assert f"d{ordinal} " in dot

    def test_spine_to_dot_renders_the_cons_list(self):
        _, spine = self.build()
        dot = spine_to_dot(spine)
        assert dot.startswith("digraph")
        assert dot.count("->") >= len(spine) - 1
