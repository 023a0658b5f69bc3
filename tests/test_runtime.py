"""Tests for the simulated distributed runtime: clock, wire, middleware,
nodes, adversary, and agreement with the calculus semantics."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings

from repro.core.builder import ch, pr
from repro.core.errors import SimulationError, WireFormatError
from repro.core.names import Channel, Principal
from repro.core.process import Process
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.core.semantics import SemanticsMode
from repro.core.values import AnnotatedValue, annotate
from repro.lang import parse_system
from repro.runtime import (
    DistributedRuntime,
    ForgingAdversary,
    LatencyModel,
    Simulator,
)
from repro.runtime.wire import Codec
from tests.conftest import provenances
from tests.substrate_oracle import HeapSimulator, seed_substrate
from tests.vetting_oracle import nfa_vetting

A, B = pr("a"), pr("b")
M, V = ch("m"), ch("v")

SIMULATORS = {"runq": Simulator, "heap": HeapSimulator}
"""The scheduler and its single-heap oracle, by the name each test id uses."""


def substrate(scheduler):
    """Runtimes built in this context run on the named substrate."""

    return seed_substrate() if scheduler == "heap" else nullcontext()


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(2.0, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_callbacks_may_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def ping():
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule(1.0, ping)

        sim.schedule(0.0, ping)
        sim.run()
        assert seen == [0.0, 1.0, 2.0]

    def test_until_leaves_future_events_pending(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        assert sim.run(until=1.0) == 0
        assert sim.pending == 1

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        assert sim.run(max_events=10) == 10


@pytest.mark.parametrize("scheduler", ["runq", "heap"])
class TestTwoTierScheduler:
    """The scheduler and its single-heap oracle run the identical event order."""

    def test_zero_delay_runs_before_timed(self, scheduler):
        sim = SIMULATORS[scheduler]()
        order = []
        sim.schedule(1.0, lambda: order.append("timed"))
        sim.schedule(0.0, lambda: order.append("now"))
        sim.run()
        assert order == ["now", "timed"]

    def test_runq_merges_with_heap_in_sequence_order(self, scheduler):
        # At t=2 the heap holds A (seq 1) and B (seq 2); A's callback
        # schedules zero-delay C (seq 3).  Exact (time, sequence) order
        # is A, B, C — a scheduler that drained its run queue eagerly
        # would run C before B.
        sim = SIMULATORS[scheduler]()
        order = []
        sim.schedule(2.0, lambda: (order.append("A"),
                                   sim.schedule(0.0, lambda: order.append("C"))))
        sim.schedule(2.0, lambda: order.append("B"))
        sim.run()
        assert order == ["A", "B", "C"]

    def test_zero_delay_cascade_stays_fifo(self, scheduler):
        sim = SIMULATORS[scheduler]()
        order = []

        def spawn(label, children):
            order.append(label)
            for child in children:
                sim.schedule(0.0, lambda c=child: order.append(c))

        sim.schedule(0.0, lambda: spawn("root1", ["a", "b"]))
        sim.schedule(0.0, lambda: spawn("root2", ["c"]))
        sim.run()
        assert order == ["root1", "root2", "a", "b", "c"]

    def test_until_advances_clock_to_window_end(self, scheduler):
        # Satellite fix: a windowed run must not leave a stale clock.
        sim = SIMULATORS[scheduler]()
        sim.schedule(5.0, lambda: None)
        sim.run(until=1.0)
        assert sim.now == 1.0
        sim.run(until=3.0)
        assert sim.now == 3.0
        sim.run(until=7.0)
        assert sim.now == 7.0  # event at 5 ran, clock carried to the window end
        assert sim.pending == 0

    def test_until_clock_stops_at_next_event_on_max_events(self, scheduler):
        sim = SIMULATORS[scheduler]()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 1
        # stopped by the guard with an event inside the window: the
        # clock advances to min(until, next event), not past it
        assert sim.now == 2.0

    def test_windowed_runs_compose_like_one_run(self, scheduler):
        def build():
            sim = SIMULATORS[scheduler](seed=3)
            seen = []

            def ping(label):
                seen.append((sim.now, label))
                if len(seen) < 6:
                    sim.schedule(sim.rng.random(), lambda: ping(label + 1))

            sim.schedule(0.5, lambda: ping(0))
            return sim, seen

        full_sim, full = build()
        full_sim.run()
        windowed_sim, windowed = build()
        t = 0.0
        while windowed_sim.pending:
            t += 0.4
            windowed_sim.run(until=t)
        assert windowed == full

    def test_cancelled_events_do_not_leak(self, scheduler):
        # Satellite fix: cancel() corpses must not accumulate.
        sim = SIMULATORS[scheduler]()
        live = sim.schedule(1.0, lambda: None)
        corpses = [
            sim.schedule(1.0, lambda: None) for _ in range(1000)
        ]
        for event in corpses:
            sim.cancel(event)
        assert sim.pending == 1
        assert len(sim._queue) + len(sim._runq) <= 3
        sim.cancel(live)
        assert sim.pending == 0
        assert sim.run() == 0

    def test_cancelled_zero_delay_events_compact(self, scheduler):
        sim = SIMULATORS[scheduler]()
        corpses = [sim.schedule(0.0, lambda: None) for _ in range(1000)]
        keeper = sim.schedule(0.0, lambda: None)
        for event in corpses:
            sim.cancel(event)
        assert sim.pending == 1
        assert len(sim._queue) + len(sim._runq) <= 3
        assert sim.run() == 1

    def test_double_cancel_is_idempotent(self, scheduler):
        sim = SIMULATORS[scheduler]()
        event = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending == 1
        assert sim.run() == 1

    def test_cancel_after_execution_is_a_no_op(self, scheduler):
        # the classic schedule-timeout-then-cancel pattern: cancelling
        # an event that already ran must not corrupt the live count
        for delay in (0.0, 1.0):
            sim = SIMULATORS[scheduler]()
            event = sim.schedule(delay, lambda: None)
            assert sim.run() == 1
            sim.cancel(event)
            assert sim.pending == 0
            sim.schedule(1.0, lambda: None)
            assert sim.pending == 1
            assert sim.run() == 1


def round_trip(payload):
    """Encode through a fresh codec, decode through another."""

    body, _ = Codec().encode_payload(payload)
    decoded, offset, _ = Codec().decode_payload(body)
    assert offset == len(body)
    return decoded


class TestWire:
    def test_value_round_trip(self):
        k = Provenance.of(OutputEvent(A, Provenance.of(InputEvent(B, EMPTY))))
        value = annotate(V, k)
        assert round_trip((value,)) == (value,)

    def test_payload_round_trip(self):
        payload = (annotate(V), annotate(pr("a")))
        assert round_trip(payload) == payload

    @settings(max_examples=100, deadline=None)
    @given(provenances())
    def test_provenance_round_trip_property(self, k):
        (decoded,) = round_trip((annotate(V, k),))
        assert decoded.provenance is k

    def test_bytes_grow_with_provenance(self):
        small, _ = Codec().encode_payload((annotate(V),))
        big, _ = Codec().encode_payload(
            (annotate(V, Provenance.of(*(OutputEvent(A, EMPTY),) * 10)),)
        )
        assert len(big) > len(small)

    @pytest.mark.parametrize(
        "junk",
        [b"", b"\xff", b"\x43\x05ab", b"\x99\x01a\x00"],
    )
    def test_malformed_bytes_rejected(self, junk):
        # one value claimed, then the junk where the value should be
        with pytest.raises(WireFormatError):
            Codec().decode_payload(b"\x01" + junk)

    def test_varint_round_trip_is_canonical(self):
        from repro.runtime.wire import decode_varint, encode_varint

        for value in (0, 1, 127, 128, 300, 1 << 20, (1 << 63) - 1):
            encoded = encode_varint(value)
            assert decode_varint(encoded, 0) == (value, len(encoded))

    @pytest.mark.parametrize(
        "overlong",
        [
            b"\x80\x00",  # 0 in two bytes
            b"\x81\x00",  # 1 in two bytes
            b"\xff\x80\x00",  # trailing zero-continuation padding
        ],
    )
    def test_overlong_varint_rejected(self, overlong):
        from repro.runtime.wire import decode_varint

        with pytest.raises(WireFormatError, match="non-canonical"):
            decode_varint(overlong, 0)

    def test_single_zero_byte_is_canonical_zero(self):
        from repro.runtime.wire import decode_varint

        assert decode_varint(b"\x00", 0) == (0, 1)

    def test_unknown_plain_tag_reported_before_name_decode(self):
        # Bad tag followed by garbage that would die as a "truncated
        # name": the tag check must win so the error points at the real
        # problem.
        from repro.runtime.wire import decode_plain

        with pytest.raises(WireFormatError, match="unknown plain-value tag"):
            decode_plain(b"\x7a\xff\xff\xff", 0)

    def test_unknown_event_tag_reported_before_name_decode(self):
        # one value on channel v whose spine conses an event tagged as a
        # back-reference the table cannot hold, then an overlong length:
        # the tag must be rejected before the name is decoded
        with pytest.raises(WireFormatError, match="event back-reference"):
            Codec().decode_payload(b"\x01\x43\x01v\x01\x5a\xff\xff")


class TestCodec:
    """v2 back-reference tables that outlive single messages."""

    @staticmethod
    def _growing_payloads(n=6):
        """Payloads whose provenance extends a single shared spine."""

        from repro.core.provenance import Provenance

        spine = EMPTY
        payloads = []
        for index in range(n):
            spine = spine.cons(OutputEvent(A, EMPTY)).cons(
                InputEvent(B, EMPTY)
            )
            payloads.append((annotate(V, spine), annotate(M, spine)))
        assert isinstance(spine, Provenance)
        return payloads

    def test_resumed_round_trip_in_order(self):
        encoder, decoder = Codec(), Codec()
        for payload in self._growing_payloads():
            frame, sent = encoder.encode_payload(payload)
            decoded, offset, constructed = decoder.decode_payload(frame)
            assert decoded == payload
            assert offset == len(frame)
            assert constructed == sent

    def test_resumption_shrinks_repeat_provenance(self):
        encoder = Codec()
        payloads = self._growing_payloads()
        frames = [encoder.encode_payload(p)[0] for p in payloads]
        # a fresh codec per message re-ships the whole spine every time;
        # the stream ships only the two new events per message
        for payload, frame in zip(payloads[1:], frames[1:]):
            assert len(frame) < len(Codec().encode_payload(payload)[0])
        assert encoder.table_sizes[0] > 0

    def test_second_frame_needs_stream_history(self):
        encoder = Codec()
        payloads = self._growing_payloads(2)
        encoder.encode_payload(payloads[0])
        second, _ = encoder.encode_payload(payloads[1])
        with pytest.raises(WireFormatError, match="back-reference"):
            Codec().decode_payload(second)

    def test_reset_matches_one_shot_encoding(self):
        # a one-shot encoding is a fresh codec: the first payload of any
        # stream is byte-identical to it, and each stands alone
        payloads = self._growing_payloads(3)
        stream = Codec()
        assert stream.encode_payload(payloads[0]) == Codec().encode_payload(
            payloads[0]
        )
        for payload in payloads:
            body, _ = Codec().encode_payload(payload)
            decoded, _, _ = Codec().decode_payload(body)
            assert decoded == payload

    def test_resume_restores_streaming(self):
        # a codec carries its tables from one payload to the next
        codec = Codec()
        payloads = self._growing_payloads(2)
        frames = [codec.encode_payload(p)[0] for p in payloads]
        assert len(frames[1]) < len(frames[0])

    def test_decoded_spines_intern_identically(self):
        encoder, decoder = Codec(), Codec()
        payloads = self._growing_payloads(2)
        first = decoder.decode_payload(encoder.encode_payload(payloads[0])[0])
        second = decoder.decode_payload(encoder.encode_payload(payloads[1])[0])
        # both values of a payload share one spine; the back-referenced
        # decode must yield the *same interned node*, not a copy
        assert first[0][0].provenance is first[0][1].provenance
        assert (
            second[0][0].provenance.tail.tail is first[0][0].provenance
        )


class TestMetricsMergeSummaries:
    def _summary_for(self, source):
        runtime = DistributedRuntime(seed=4, latency=LatencyModel(1.0, 0.0))
        runtime.deploy(parse_system(source))
        runtime.run()
        return runtime.metrics.summary()

    def test_merge_sums_counters_and_recomputes_means(self):
        from repro.runtime import RuntimeMetrics

        first = self._summary_for("a[m<u>] || b[m(x).n<x>] || c[n(y).0]")
        second = self._summary_for("a[m<u>] || b[m(x).0]")
        merged = RuntimeMetrics.merge(first, second)
        assert merged["deliveries"] == first["deliveries"] + second[
            "deliveries"
        ]
        assert merged["messages_sent"] == first["messages_sent"] + second[
            "messages_sent"
        ]
        assert merged["bytes_total"] == first["bytes_total"] + second[
            "bytes_total"
        ]
        assert merged["max_provenance_spine"] == max(
            first["max_provenance_spine"], second["max_provenance_spine"]
        )
        # the mean is recomputed from merged integer sums — exactly
        assert merged["mean_provenance_events"] == (
            merged["provenance_events_total"] / merged["provenance_values"]
        )

    def test_merge_of_one_summary_is_a_projection(self):
        from repro.runtime import RuntimeMetrics

        summary = self._summary_for("a[m<u>] || b[m(x).0]")
        merged = RuntimeMetrics.merge(summary)
        for key in (
            "messages_sent",
            "deliveries",
            "bytes_total",
            "pattern_checks",
            "mean_provenance_events",
            "provenance_overhead_ratio",
            "rejections_by_pattern",
        ):
            assert merged[key] == summary[key], key

    def test_merge_unions_rejection_tables(self):
        from repro.runtime import RuntimeMetrics

        left = {"rejections_by_pattern": {"p": 2, "q": 1}}
        right = {"rejections_by_pattern": {"q": 3}}
        merged = RuntimeMetrics.merge(left, right)
        assert merged["rejections_by_pattern"] == {"p": 2, "q": 4}


class TestMiddleware:
    def test_runtime_delivery_matches_calculus_provenance(self):
        # the runtime's stamped provenance equals the engine's
        source = "a[m<v>] || s[m(x).n1<x>] || c[n1(x).0]"
        runtime = DistributedRuntime(seed=3)
        runtime.deploy(parse_system(source))
        runtime.run()
        final_delivery = runtime.metrics.delivered[-1]
        assert str(final_delivery.values[0].provenance) == (
            "c?{}; s!{}; s?{}; a!{}"
        )

    def test_pattern_vetting_blocks_at_manager(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(parse_system("a[m<v>] || c[m(b!any as x).0]", principals={"b"}))
        runtime.run()
        assert runtime.metrics.deliveries == 0
        assert runtime.metrics.pattern_rejections > 0
        assert runtime.blocked_threads() == 1

    def test_erased_mode_skips_stamping_and_vetting(self):
        runtime = DistributedRuntime(seed=1, mode=SemanticsMode.ERASED)
        runtime.deploy(parse_system("a[m<v>] || c[m(b!any as x).0]", principals={"b"}))
        runtime.run()
        assert runtime.metrics.deliveries == 1
        assert runtime.metrics.delivered[0].values[0].provenance is EMPTY

    def test_messages_queue_until_receiver_arrives(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(parse_system("a[m<v>]"))
        runtime.run()
        manager = runtime.middleware.manager(M)
        assert manager.queued_messages == 1
        runtime.deploy(parse_system("b[m(x).0]"))
        runtime.run()
        assert manager.queued_messages == 0

    def test_latency_model_zero_jitter_is_deterministic_time(self):
        runtime = DistributedRuntime(
            seed=5, latency=LatencyModel(base=2.0, jitter=0.0)
        )
        runtime.deploy(parse_system("a[m<v>] || b[m(x).0]"))
        runtime.run()
        assert runtime.now == 2.0

    def test_metrics_overhead_ratio_is_zero_without_provenance(self):
        runtime = DistributedRuntime(seed=1, mode=SemanticsMode.ERASED)
        runtime.deploy(parse_system("a[m<v>] || b[m(x).0]"))
        runtime.run()
        # empty provenances still serialize a zero-length marker byte
        assert runtime.metrics.provenance_overhead_ratio < 0.5


class TestNode:
    def test_replication_budget_bounds_copies(self):
        runtime = DistributedRuntime(seed=1, replication_budget=3)
        runtime.deploy(parse_system("a[*(m<v>)]"))
        runtime.run(max_events=100)
        assert runtime.metrics.messages_sent == 3

    def test_restriction_creates_fresh_channels(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(
            parse_system("a[(new k)(k<v>)] || a[(new k)(k<w>)]")
        )
        runtime.run()
        # two private channels, no crosstalk: both messages queued on
        # distinct managers
        queued = [
            manager.queued_messages
            for manager in runtime.middleware._managers.values()
        ]
        assert queued.count(1) == 2

    def test_match_executes_locally(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(parse_system("a[if v = v then m<v> else 0]"))
        runtime.run()
        assert runtime.metrics.messages_sent == 1

    def test_sum_consumes_exactly_one_message(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(
            parse_system("a[m<v>] || b[(m(any as x).0 + m(eps as y).0)]")
        )
        runtime.run()
        assert runtime.metrics.deliveries == 1

    @pytest.mark.parametrize("batched", [False, True], ids=["spawn", "group"])
    def test_unknown_process_class_is_refused(self, batched):
        class Stray(Process):
            __slots__ = ()

        runtime = DistributedRuntime(seed=1)
        node = runtime.node(Principal("a"))
        if batched:
            node.spawn_group([Stray()])
        else:
            node.spawn(Stray())
        with pytest.raises(SimulationError, match="cannot execute"):
            runtime.run()


class TestAdversary:
    def test_forgery_blocked_by_default(self):
        runtime = DistributedRuntime(seed=1)
        adversary = ForgingAdversary(B, runtime.middleware)
        assert not adversary.forge_origin(M, A, (V,))
        assert runtime.metrics.forgeries_blocked == 1

    def test_forgery_lands_without_integrity(self):
        runtime = DistributedRuntime(seed=1, enforce_integrity=False)
        runtime.deploy(parse_system("c[m(a!any as x).0]", principals={"a"}))
        adversary = ForgingAdversary(B, runtime.middleware)
        assert adversary.forge_origin(M, A, (V,))
        runtime.run()
        assert runtime.metrics.deliveries == 1

    def test_replay_is_also_gated(self):
        runtime = DistributedRuntime(seed=1)
        captured = (annotate(V, Provenance.of(OutputEvent(A, EMPTY))),)
        adversary = ForgingAdversary(B, runtime.middleware)
        assert not adversary.replay(M, captured)


class TestScalingWorkload:
    """The fan-in/fan-out scenario deployed on the simulated cluster."""

    def test_fan_in_fan_out_delivers_everything(self):
        from repro.workloads import fan_in_fan_out

        workload = fan_in_fan_out(25)
        runtime = DistributedRuntime(seed=7)
        runtime.deploy(workload.system)
        runtime.run()
        # 25 hub sends + 25 relay forwards; 25 hub receives + 25 sink receives
        assert runtime.metrics.messages_sent == 50
        assert runtime.metrics.deliveries == 50
        # every sink ends blocked inside its freeze continuation
        assert runtime.blocked_threads() == 25

    def test_fan_in_fan_out_provenance_depth(self):
        from repro.workloads import fan_in_fan_out

        workload = fan_in_fan_out(4)
        runtime = DistributedRuntime(seed=7)
        runtime.deploy(workload.system)
        runtime.run()
        # delivered values carry src! ; rel? ; rel! ; snk? — four events
        assert runtime.metrics.summary()["max_provenance_spine"] == 4

    def test_runtime_and_engine_agree_on_served_payloads(self):
        from repro.core.engine import Engine, RunStatus
        from repro.workloads import fan_in_fan_out, sinks_served

        workload = fan_in_fan_out(8, n_relays=5)
        trace = Engine().run(workload.system)
        assert trace.status is RunStatus.QUIESCENT
        assert sinks_served(workload, trace.final) == 5


def _sink_streams(runtime):
    """Check a durable runtime's sinks saw one stream; its digest.

    The metrics' retained records, the journal's decoded entries and
    the query index's absorbed deliveries are the same sequence (with
    ``retain=0``: the same count, and the journal's trace digest over
    what the index absorbed), and the journal's notes, counted by kind,
    are the metrics' trust counters.
    """

    from collections import Counter

    from repro.storage import load_state
    from repro.storage.journal import ZERO_DIGEST, chain_digest, delivery_key

    state = load_state(runtime.durable)
    runtime.query_index.commit()
    indexed = list(runtime.query_index.deliveries())
    metrics = runtime.metrics
    assert metrics.deliveries == len(state.entries) == len(indexed)
    if metrics.retain != 0:
        retained = list(metrics.delivered)
        assert retained == state.delivered_trace() == indexed
    digest = ZERO_DIGEST
    for time, principal, channel, values, branch in indexed:
        digest = chain_digest(
            digest, delivery_key(time, principal, channel, branch, values)
        )
    assert digest == state.trace_digest
    kinds = Counter(note.kind for note in state.notes)
    assert kinds["tamper"] == metrics.tamper_detected
    assert dict(
        Counter(note.detail for note in state.notes if note.kind == "tamper")
    ) == metrics.tamper_by_kind
    assert kinds["quarantine"] + kinds["poison"] == (
        metrics.principals_quarantined
    )
    assert kinds["revoke"] == metrics.certificates_revoked
    return digest


class TestIncrementalVetting:
    """The lazy-DFA policy bank and the vetting metrics surface."""

    def test_bank_and_nfa_modes_deliver_identically(self):
        from repro.workloads import vetted_relay_chain

        workload = vetted_relay_chain(8)
        runs = {}
        for vetting, engine in (("bank", nullcontext), ("nfa", nfa_vetting)):
            with engine():
                runtime = DistributedRuntime(seed=5)
            runtime.deploy(workload.system)
            runtime.run()
            assert runtime.metrics.deliveries == workload.expected_deliveries
            runs[vetting] = [
                (r.time, r.principal, r.channel, r.values)
                for r in runtime.metrics.delivered
            ]
        assert runs["bank"] == runs["nfa"]

    @pytest.mark.parametrize("crypto", [True, False])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bank_matches_nfa_oracle_on_random_systems(
        self, shards, crypto, tmp_path
    ):
        """Bank and oracle vetting agree on durable, indexed shards with
        records retained and not, and every shard's sinks (metrics,
        journal, query index) saw one delivery stream and one set of
        trust transitions."""

        from repro.core.errors import ReproError
        from repro.runtime import ShardedRuntime
        from repro.workloads.random_systems import GeneratorConfig, random_system

        config = GeneratorConfig(n_components=6, n_messages=3, p_pattern=0.6)
        decided = delivered = 0

        def outcome(system, seed, engine, retention):
            nonlocal decided, delivered
            store = tmp_path / f"{seed}-{engine.__name__}-{retention}"
            with engine():  # inline shards build their middleware at deploy
                runtime = ShardedRuntime(
                    shards=shards,
                    seed=seed,
                    crypto=crypto,
                    metrics_retention=retention,
                    durable_dir=store,
                )
                runtime.deploy(system)
            for index in range(shards):
                runtime.shard(index).attach_query_index()
            try:
                runtime.run(max_events=4_000)
            except (TypeError, ReproError) as error:
                # random systems can be dynamically ill-typed; both
                # vetting paths must then fail the same way
                return type(error).__name__, str(error)
            finally:
                runtime.close()
                for index in range(shards):
                    policy = runtime.shard(index).middleware.policy
                    decided += getattr(policy, "decisions", 0)
            summary = runtime.metrics_summary()
            delivered += summary["deliveries"]
            return (
                [_sink_streams(runtime.shard(i)) for i in range(shards)],
                summary["pattern_checks"],
                summary["pattern_rejections"],
                summary["rejections_by_pattern"],
            )

        for seed in range(24):
            system = random_system(seed, config)
            runs = [
                outcome(system, seed, engine, retention)
                for engine in (nullcontext, nfa_vetting)
                for retention in (None, 0)
            ]
            assert all(run == runs[0] for run in runs), seed
        assert decided > 0  # the oracle really vetted sample patterns
        assert delivered > 0

    def test_bank_extends_cached_runs_instead_of_replaying(self):
        from repro.workloads import vetted_relay_chain

        hops = 12
        runtime = DistributedRuntime(seed=5)
        runtime.deploy(vetted_relay_chain(hops).system)
        runtime.run()
        # two new spine events per hop, one transition each, +1 first hop
        assert runtime.metrics.vet_transitions == 2 * hops + 1
        assert runtime.metrics.vet_cache_hits > 0

    def test_pattern_checks_count_components(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(
            parse_system("a[m<v,w>] || c[m(any as x, eps as y).0]")
        )
        runtime.run()
        # both components vetted once: `any` admits, `eps` refuses
        assert runtime.metrics.pattern_checks == 2
        assert runtime.metrics.pattern_rejections == 1
        assert runtime.metrics.rejections_by_pattern == {"eps": 1}
        assert runtime.metrics.deliveries == 0

    def test_rejections_attributed_per_pattern(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(
            parse_system(
                "a[m<v>] || a[m<w>] || c[m(b!any as x).0] || c[m(b!any as y).0]",
                principals={"b"},
            )
        )
        runtime.run()
        summary = runtime.metrics.summary()
        assert summary["rejections_by_pattern"] == {
            "b!any": summary["pattern_rejections"]
        }
        assert summary["pattern_rejections"] >= 2

    def test_erased_mode_counts_no_checks(self):
        runtime = DistributedRuntime(seed=1, mode=SemanticsMode.ERASED)
        runtime.deploy(parse_system("a[m<v>] || c[m(b!any as x).0]", principals={"b"}))
        runtime.run()
        assert runtime.metrics.pattern_checks == 0
        assert runtime.metrics.vet_transitions == 0

    def test_channel_bank_fuses_branch_patterns(self):
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(
            parse_system("a[m<v>] || b[(m(any as x).0 + m(a!any as y).0)]")
        )
        runtime.run()
        manager = runtime.middleware.manager(M)
        assert {str(p) for p in manager.policy_bank().patterns} == {
            "any", "a!any"
        }
        assert runtime.metrics.deliveries == 1


class TestNetworkAccounting:
    def test_in_flight_returns_to_zero_after_run(self):
        runtime = DistributedRuntime(seed=3)
        runtime.deploy(parse_system("a[m<v>] || s[m(x).n1<x>] || c[n1(x).0]"))
        runtime.run()
        assert runtime.network.messages_in_flight == 0

    def test_in_flight_balanced_when_callback_raises(self):
        # Satellite fix: the decrement must survive a raising callback.
        from repro.runtime import Network, Simulator

        sim = Simulator()
        network = Network(sim, LatencyModel(1.0, 0.0))

        def explode():
            raise RuntimeError("hostile payload")

        network.deliver(explode)
        network.deliver(lambda: None)
        assert network.messages_in_flight == 2
        with pytest.raises(RuntimeError):
            sim.run()
        assert network.messages_in_flight == 1
        sim.run()
        assert network.messages_in_flight == 0

    def test_topology_routes_per_link(self):
        from repro.runtime import Network, Simulator, ZERO_LATENCY

        fast, slow = ZERO_LATENCY, LatencyModel(9.0, 0.0)
        network = Network(
            Simulator(),
            topology=lambda sender, channel: slow if sender == B else fast,
        )
        assert network.latency_for(A, M) is fast
        assert network.latency_for(B, M) is slow

    def test_zero_latency_link_draws_no_jitter(self):
        from repro.runtime import ZERO_LATENCY

        class Forbidden:
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("zero link sampled the generator")

        assert ZERO_LATENCY.sample(Forbidden()) == 0.0


@pytest.mark.parametrize("scheduler", ["runq", "heap"])
class TestNodeThreadAccounting:
    """threads_spawned / blocked_threads across both interpreters."""

    def _runtime(self, scheduler, source, **kwargs):
        with substrate(scheduler):
            runtime = DistributedRuntime(seed=2, **kwargs)
            runtime.deploy(parse_system(source))
        runtime.run()
        return runtime

    def test_input_sum_branch_firing(self, scheduler):
        runtime = self._runtime(
            scheduler, "a[m<v>] || b[(m(any as x).k<x> + m(eps as y).0)]"
        )
        node = runtime.nodes[pr("b")]
        # the sum registers once (blocked), fires once (unblocked), and
        # interprets: the sum itself, plus the fired continuation k<x>
        assert node.blocked_threads == 0
        assert node.threads_spawned == 2
        assert runtime.metrics.deliveries == 1

    def test_unfired_input_stays_blocked(self, scheduler):
        runtime = self._runtime(scheduler, "b[m(eps as y).0]")
        node = runtime.nodes[pr("b")]
        assert node.blocked_threads == 1
        assert node.threads_spawned == 1

    def test_replication_budget_unfolding(self, scheduler):
        runtime = self._runtime(
            scheduler, "a[*(m<v>)]", replication_budget=5
        )
        node = runtime.nodes[pr("a")]
        # the replication node plus five unfolded copies
        assert node.threads_spawned == 6
        assert runtime.metrics.messages_sent == 5

    def test_parallel_counts_every_part(self, scheduler):
        # the top-level par is normalized into three deploy components;
        # the match continuation is the only dynamically spawned thread
        runtime = self._runtime(scheduler, "a[(m<v> | n<v> | if v = v then k<v> else 0)]")
        node = runtime.nodes[pr("a")]
        assert node.threads_spawned == 4
        assert runtime.metrics.messages_sent == 3

    def test_continuation_parallel_counts_every_part(self, scheduler):
        # a par *inside* a fired continuation is interpreted by the node:
        # the input, the fired par, and its two parts
        runtime = self._runtime(scheduler, "a[m<v>] || b[m(x).(k<x> | n<x>)]")
        node = runtime.nodes[pr("b")]
        assert node.threads_spawned == 4
        assert runtime.metrics.messages_sent == 3

    def test_counts_identical_across_schedulers(self, scheduler):
        # the parametrized runs land on the same totals as this pinned
        # reference, so heap and runq interpreters count identically
        from repro.workloads import wide_fanout

        workload = wide_fanout(2, 3, burst=2, guard_depth=2)
        with substrate(scheduler):
            runtime = DistributedRuntime(seed=5, topology=workload.topology)
            runtime.deploy(workload.system)
        runtime.run()
        assert runtime.metrics.deliveries == workload.expected_deliveries
        assert runtime.threads_spawned() == 68
        assert runtime.blocked_threads() == 0


class TestSchedulerDifferential:
    """The run-queue substrate and the seed-substrate oracle execute the same run."""

    @staticmethod
    def _trace(runtime):
        return list(runtime.metrics.delivered)

    def test_fan_in_fan_out_identical_under_jitter(self):
        from repro.workloads import fan_in_fan_out

        workload = fan_in_fan_out(12, n_relays=9)
        runs = {}
        for scheduler in ("runq", "heap"):
            with substrate(scheduler):
                runtime = DistributedRuntime(seed=13)
                runtime.deploy(workload.system)
            runtime.run()
            runs[scheduler] = (
                self._trace(runtime),
                runtime.metrics.summary(),
                runtime.threads_spawned(),
            )
        assert runs["runq"] == runs["heap"]

    def test_wide_fanout_identical(self):
        from repro.workloads import wide_fanout

        workload = wide_fanout(3, 5, burst=2, guard_depth=3)
        runs = {}
        for scheduler in ("runq", "heap"):
            with substrate(scheduler):
                runtime = DistributedRuntime(
                    seed=17, topology=workload.topology
                )
                runtime.deploy(workload.system)
            runtime.run()
            assert runtime.network.messages_in_flight == 0
            runs[scheduler] = (self._trace(runtime), runtime.metrics.summary())
        assert runs["runq"] == runs["heap"]

    def test_batched_deploy_uses_fewer_scheduler_events(self):
        from repro.workloads import wide_fanout

        workload = wide_fanout(2, 10, burst=4, guard_depth=4)
        events = {}
        for scheduler in ("runq", "heap"):
            with substrate(scheduler):
                runtime = DistributedRuntime(
                    seed=5, topology=workload.topology
                )
                runtime.deploy(workload.system)
            runtime.run()
            events[scheduler] = runtime.simulator.events_processed
        # the whole point: same run, far fewer scheduler events
        assert events["runq"] * 4 < events["heap"]


class TestBoundedMetrics:
    def test_retention_caps_series_but_not_aggregates(self):
        from repro.workloads import fan_in_fan_out

        workload = fan_in_fan_out(10)
        summaries = {}
        delivered = {}
        for retention in (None, 5):
            runtime = DistributedRuntime(seed=9, metrics_retention=retention)
            runtime.deploy(workload.system)
            runtime.run()
            summaries[retention] = runtime.metrics.summary()
            delivered[retention] = list(runtime.metrics.delivered)
        assert summaries[None] == summaries[5]
        # the cap keeps the newest records of the same trace
        assert delivered[5] == delivered[None][-5:]

    def test_retain_zero_still_counts_everything(self):
        runtime = DistributedRuntime(seed=3, metrics_retention=0)
        runtime.deploy(parse_system("a[m<v>] || s[m(x).n1<x>] || c[n1(x).0]"))
        runtime.run()
        metrics = runtime.metrics
        assert metrics.deliveries == 2
        assert len(metrics.delivered) == 0
        assert metrics.summary()["max_provenance_spine"] == 4

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            DistributedRuntime(metrics_retention=-1)

    def test_retained_and_streaming_paths_report_identically(self):
        # retaining records must not change what the summary reports
        from repro.workloads import fan_in_fan_out

        workload = fan_in_fan_out(6)
        reports = {}
        for retention in (None, 0):
            runtime = DistributedRuntime(seed=21, metrics_retention=retention)
            runtime.deploy(workload.system)
            runtime.run()
            reports[retention] = runtime.metrics.summary()
        assert reports[None] == reports[0]


class TestLazyByteAccounting:
    def test_encode_deferred_until_metric_read(self):
        runtime = DistributedRuntime(seed=3)
        runtime.deploy(parse_system("a[m<v>] || s[m(x).n1<x>] || c[n1(x).0]"))
        runtime.run()
        metrics = runtime.metrics
        assert metrics.pending_byte_accounting == metrics.messages_sent == 2
        total = metrics.bytes_total  # settles the deferred sizers
        assert metrics.pending_byte_accounting == 0
        assert total == metrics.bytes_payload + metrics.bytes_provenance
        assert metrics.bytes_provenance > 0

    def test_detailed_false_drops_byte_accounting(self):
        runtime = DistributedRuntime(seed=3, detailed_metrics=False)
        runtime.deploy(parse_system("a[m<v>] || s[m(x).n1<x>] || c[n1(x).0]"))
        runtime.run()
        metrics = runtime.metrics
        assert metrics.messages_sent == 2
        assert metrics.deliveries == 2
        assert metrics.pending_byte_accounting == 0
        assert metrics.bytes_total == 0
        assert metrics.provenance_overhead_ratio == 0.0

    def test_lazy_bytes_match_eager_wire_encoding(self):
        runtime = DistributedRuntime(seed=3)
        runtime.deploy(parse_system("a[m<v>]"))
        runtime.run()
        stamped = runtime.middleware.manager(M)._messages[0].payload
        body, _ = Codec().encode_payload(stamped)
        assert runtime.metrics.bytes_total == len(body)
