"""Interned (hash-consed) provenance vs the legacy tree semantics.

The DAG representation must be observationally identical to the seed's
tuple-of-trees: these tests pit every observation (``str``,
``principals``, ``total_events``, ``depth``, ``suffixes`` ordering,
iteration) against a straight recursive *model* computed from the event
structure, and check the interning guarantees themselves (structural
equality is object identity, suffixes alias the shared spine, wire
round-trips through the codec rebuild the very same interned nodes).
"""

from __future__ import annotations

import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.builder import av, ch, pr, sys_par
from repro.core.errors import WireFormatError
from repro.core.provenance import (
    EMPTY,
    Event,
    InputEvent,
    OutputEvent,
    Provenance,
    intern_table_sizes,
)
from repro.runtime.wire import Codec, encode_varint
from tests import wire_oracle
from tests.conftest import provenances

A, B, C = pr("a"), pr("b"), pr("c")

# one value on channel v: the byte prefix every hostile payload below
# shares before its provenance (count 1, plain tag 'C', name "v")
VALUE_PREFIX = b"\x01\x43\x01v"


def encode_one(k: Provenance) -> bytes:
    """``k`` as the provenance of a one-value payload, fresh tables."""

    body, _ = Codec().encode_payload((av(ch("v"), k),))
    return body


def decode_one(data: bytes) -> tuple[Provenance, int]:
    values, offset, _ = Codec().decode_payload(data)
    return values[0].provenance, offset


# -- the reference model: direct recursion over the event structure -------


def model_str(provenance: Provenance) -> str:
    if not provenance.events:
        return "ε"
    return "; ".join(_model_event_str(e) for e in provenance.events)


def _model_event_str(event: Event) -> str:
    inner = (
        ""
        if not event.channel_provenance.events
        else model_str(event.channel_provenance)
    )
    return f"{event.principal}{event.symbol}{{{inner}}}"


def model_principals(provenance: Provenance) -> frozenset:
    result = frozenset()
    for event in provenance.events:
        result |= model_principals(event.channel_provenance) | {event.principal}
    return result


def model_total_events(provenance: Provenance) -> int:
    return sum(
        1 + model_total_events(e.channel_provenance) for e in provenance.events
    )


def model_depth(provenance: Provenance) -> int:
    if not provenance.events:
        return 0
    return max(1 + model_depth(e.channel_provenance) for e in provenance.events)


class TestLegacyAgreement:
    @given(provenances())
    def test_str_agrees(self, k):
        assert str(k) == model_str(k)

    @given(provenances())
    def test_principals_agree(self, k):
        assert k.principals() == model_principals(k)

    @given(provenances())
    def test_total_events_agree(self, k):
        assert k.total_events() == model_total_events(k)

    @given(provenances())
    def test_depth_agrees(self, k):
        assert k.depth() == model_depth(k)

    @given(provenances())
    def test_suffixes_order_agrees(self, k):
        events = k.events
        suffixes = list(k.suffixes())
        assert len(suffixes) == len(events) + 1
        for i, suffix in enumerate(suffixes):
            assert suffix.events == events[i:]
        assert suffixes[-1] is EMPTY

    @given(provenances(), provenances())
    def test_construction_paths_are_bit_identical(self, k1, k2):
        events = k1.events + k2.events
        assert Provenance.of(*events) is Provenance(events)
        assert Provenance.from_iterable(iter(events)) is Provenance(events)
        assert k1.concat(k2) is Provenance(events)
        consed = k2
        for event in reversed(k1.events):
            consed = consed.cons(event)
        assert consed is k1.concat(k2)

    @given(provenances())
    def test_iteration_matches_events(self, k):
        assert tuple(k) == k.events
        assert len(k) == len(k.events)


class TestInterning:
    def test_structural_equality_is_identity(self):
        left = Provenance.of(OutputEvent(A, Provenance.of(InputEvent(B))))
        right = Provenance.of(OutputEvent(A, Provenance.of(InputEvent(B))))
        assert left is right
        assert OutputEvent(A) is OutputEvent(A)
        assert OutputEvent(A) is not InputEvent(A)

    def test_empty_is_canonical(self):
        assert Provenance(()) is EMPTY
        assert Provenance.of() is EMPTY
        assert EMPTY.tail is EMPTY

    def test_suffixes_alias_the_shared_spine(self):
        k = Provenance.of(OutputEvent(A), InputEvent(B), OutputEvent(C))
        suffixes = list(k.suffixes())
        assert suffixes[0] is k
        assert suffixes[1] is k.tail
        assert suffixes[2] is k.tail.tail

    def test_memoized_queries_are_shared_across_occurrences(self):
        nested = Provenance.of(OutputEvent(C))
        k = Provenance.of(OutputEvent(A, nested), InputEvent(B, nested))
        assert k.head.channel_provenance is nested
        assert k.total_events() == 4
        assert k.dag_size() == 3  # C's event counted once, A's, B's

    def test_base_event_class_not_instantiable(self):
        with pytest.raises(TypeError):
            Event(A, EMPTY)

    def test_events_are_immutable(self):
        event = OutputEvent(A)
        with pytest.raises(AttributeError):
            event.principal = B
        with pytest.raises(AttributeError):
            Provenance.of(event).events = ()

    def test_cons_rejects_non_events(self):
        with pytest.raises(TypeError):
            EMPTY.cons("not an event")

    @given(provenances())
    def test_pickle_round_trips_to_the_same_node(self, k):
        assert pickle.loads(pickle.dumps(k)) is k

    def test_intern_tables_release_dead_nodes(self):
        principal = pr("transient_principal")
        k = Provenance.of(OutputEvent(principal))
        events_before, spines_before = intern_table_sizes()
        assert events_before >= 1
        del k
        gc.collect()
        events_after, spines_after = intern_table_sizes()
        assert events_after < events_before
        assert spines_after < spines_before


_FRESH = itertools.count()


def fresh(k: Provenance, tag: str) -> Provenance:
    """``k`` with every principal renamed apart: nodes no test has asked.

    Interned nodes outlive a test while anything holds them, so a
    structurally reused node may already carry an answer; renaming
    guarantees each question below meets a node in its unasked state.
    """

    return Provenance.of(*(
        type(event)(
            pr(f"{event.principal.name}_{tag}"),
            fresh(event.channel_provenance, tag),
        )
        for event in k
    ))


def reachable(k: Provenance) -> list:
    """Every spine node (ε excluded) and event hanging off ``k``."""

    found, stack = [], [k]
    while stack:
        node = stack.pop()
        for suffix in node.suffixes():
            if suffix.is_empty:
                break
            found += [suffix, suffix.head]
            stack.append(suffix.head.channel_provenance)
    return found


class TestOnDemandPrincipals:
    """``principals()`` is computed when asked and memoized per node."""

    @given(st.lists(provenances(max_length=5, max_depth=3), max_size=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_question_order_agrees_with_the_model(self, roots, order):
        tag = str(next(_FRESH))
        roots = [fresh(k, tag) for k in roots]
        # a DAG: each root also extended by the next, sharing its spine
        roots += [a.concat(b) for a, b in zip(roots, roots[1:])]
        nodes = [node for k in roots for node in reachable(k)]
        random.Random(order).shuffle(nodes)
        for node in nodes:
            expected = (
                model_principals(node) if isinstance(node, Provenance)
                else model_principals(node.channel_provenance)
                | {node.principal}
            )
            assert node.principals() == expected
            assert node.principals() is node._principals  # memoized

    def test_tail_asked_before_and_after_its_extension(self):
        tail = Provenance.of(OutputEvent(pr("t1")), InputEvent(pr("t2")))
        assert tail.principals() == {pr("t1"), pr("t2")}
        extended = tail.cons(InputEvent(pr("t3"), tail))
        assert extended.principals() == {pr("t1"), pr("t2"), pr("t3")}
        longer = extended.cons(OutputEvent(pr("t4")))
        assert longer.principals() == {pr(f"t{i}") for i in range(1, 5)}
        middle = longer.tail.tail  # asked after its extensions
        assert middle is tail
        other = Provenance.of(OutputEvent(pr("u1")), InputEvent(pr("u2")))
        grown = other.cons(OutputEvent(pr("u3")))
        assert grown.principals() == {pr("u1"), pr("u2"), pr("u3")}
        assert other._principals is None  # only the asked node holds a set
        assert other.principals() == {pr("u1"), pr("u2")}

    def test_nested_channel_provenance_asked_first(self):
        nested = Provenance.of(OutputEvent(pr("n1")), InputEvent(pr("n2")))
        assert nested.principals() == {pr("n1"), pr("n2")}
        event = OutputEvent(pr("n3"), nested)
        assert event.principals() == {pr("n1"), pr("n2"), pr("n3")}
        k = Provenance.of(InputEvent(pr("n4")), event)
        assert k.principals() == {pr(f"n{i}") for i in range(1, 5)}

    def test_long_spines_and_deep_nesting_walk_without_recursion(self):
        spine = EMPTY
        for hop in range(20_000):
            spine = spine.cons(OutputEvent(pr(f"long{hop % 7919}")))
        assert spine.principals() == {pr(f"long{i}") for i in range(7919)}
        nested = EMPTY
        for level in range(600):
            nested = Provenance.of(InputEvent(pr(f"deep{level}"), nested))
        assert nested.depth() == 600
        expected = {pr(f"deep{i}") for i in range(600)}
        assert nested.head.principals() == expected
        assert nested.principals() == expected

    def test_a_relay_run_leaves_every_delivered_spine_without_a_set(self):
        from repro.core.builder import inp, located, out, var
        from repro.runtime import DistributedRuntime

        hops = [pr(f"relay_run_{i}") for i in range(12)]
        links = [ch(f"relay_run_t{i}") for i in range(len(hops))]
        x = var("x")
        components = [located(hops[0], out(links[0], ch("relay_run_v")))]
        for i in range(1, len(hops)):
            body = out(links[i], x) if i + 1 < len(hops) else None
            components.append(located(hops[i], inp(links[i - 1], x, body=body)))
        runtime = DistributedRuntime(seed=1)
        runtime.deploy(sys_par(*components))
        runtime.run()
        delivered = runtime.metrics.delivered
        assert len(delivered) == len(hops) - 1
        for record in delivered:
            for node in reachable(record.values[0].provenance):
                assert node._principals is None


class TestWireRoundTrips:
    @given(provenances())
    def test_v1_round_trip_rebuilds_interned_nodes(self, k):
        # decoded mid-stream: after a payload that shares k's tail, the
        # back-referencing decode still lands on the interned node
        encoder, decoder = Codec(), Codec()
        for payload in ((av(ch("v"), k.tail),), (av(ch("v"), k),)):
            body, _ = encoder.encode_payload(payload)
            decoded, _, _ = decoder.decode_payload(body)
            assert decoded[0].provenance is payload[0].provenance

    @given(provenances())
    def test_v2_round_trip_rebuilds_interned_nodes(self, k):
        decoded, offset = decode_one(encode_one(k))
        assert decoded is k
        assert offset == len(encode_one(k))

    def test_v2_aliased_subtrees_decode_to_identical_nodes(self):
        shared = Provenance.of(OutputEvent(A), InputEvent(B))
        k = Provenance.of(
            OutputEvent(C, shared), InputEvent(C, shared)
        ).concat(shared)
        decoded, _ = decode_one(encode_one(k))
        assert decoded is k
        events = decoded.events
        assert events[0].channel_provenance is events[1].channel_provenance

    def test_v2_shared_subtrees_cost_fewer_bytes(self):
        shared = Provenance.of(
            OutputEvent(A, Provenance.of(InputEvent(B), OutputEvent(C)))
        )
        aliased = Provenance.of(
            OutputEvent(A, shared), InputEvent(B, shared), OutputEvent(C, shared)
        )
        payload = (av(ch("v"), aliased),)
        assert len(encode_one(aliased)) < len(wire_oracle.encode_payload(payload))

    @given(provenances())
    def test_message_envelope_round_trips_both_versions(self, k):
        # the one codec round-trips a payload whose values share k; the
        # second occurrence is a back-reference to the same node
        payload = (av(ch("m"), k), av(ch("n"), k))
        body, _ = Codec().encode_payload(payload)
        decoded, offset, _ = Codec().decode_payload(body)
        assert decoded == payload and offset == len(body)
        assert decoded[0].provenance is decoded[1].provenance

    def test_unknown_message_version_rejected(self):
        # the bytes the retired version envelope refused are refused by
        # the codec too: seven values claimed in one byte, and nothing
        with pytest.raises(WireFormatError, match="truncated payload"):
            Codec().decode_payload(b"\x07\x00")
        with pytest.raises(WireFormatError, match="truncated varint"):
            Codec().decode_payload(b"")


class TestHostileInputs:
    def test_huge_event_count_rejected_before_allocation(self):
        # A spine event whose principal name claims 2^40 bytes with two
        # bytes of input left.
        hostile = VALUE_PREFIX + b"\x01\x00" + encode_varint(1 << 40) + b"\x00\x00"
        with pytest.raises(WireFormatError, match="truncated name"):
            Codec().decode_payload(hostile)

    def test_huge_nested_count_rejected(self):
        # One real output event whose *nested* provenance holds an event
        # claiming a 2^40-byte name: the nested decode applies the same
        # bound.
        hostile = (
            VALUE_PREFIX
            + b"\x01\x00\x01a"         # cons: output event by "a"
            + b"\x01\x00"               # nested spine: cons, output event
            + encode_varint(1 << 40)    # nested name length: hostile
        )
        with pytest.raises(WireFormatError, match="truncated name"):
            Codec().decode_payload(hostile)

    def test_huge_payload_count_rejected(self):
        hostile = encode_varint(1 << 40) + b"\x00"
        with pytest.raises(WireFormatError, match="truncated payload"):
            Codec().decode_payload(hostile, 0)

    def test_v2_out_of_range_backref_rejected(self):
        with pytest.raises(WireFormatError, match="back-reference"):
            Codec().decode_payload(VALUE_PREFIX + encode_varint(2 + 99))

    def test_v2_out_of_range_event_backref_rejected(self):
        hostile = VALUE_PREFIX + encode_varint(1) + encode_varint(2 + 99)
        with pytest.raises(WireFormatError, match="back-reference"):
            Codec().decode_payload(hostile)

    def test_v2_truncated_input_rejected(self):
        with pytest.raises(WireFormatError):
            Codec().decode_payload(VALUE_PREFIX)
        with pytest.raises(WireFormatError):
            # cons with no event
            Codec().decode_payload(VALUE_PREFIX + encode_varint(1))
