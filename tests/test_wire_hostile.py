"""Hostile-input handling on the wire: every malformed byte stream must
raise :class:`WireFormatError` (with an offset) — never ``KeyError``,
``IndexError``, ``RecursionError`` or a silently wrong decode — and the
journal must turn it into a :class:`StorageError`."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import provenances
from repro.core.builder import ch, pr
from repro.core.errors import StorageError, WireError, WireFormatError
from repro.core.names import Channel
from repro.core.provenance import EMPTY, OutputEvent, Provenance
from repro.core.values import AnnotatedValue
from repro.runtime.wire import MAX_NESTING, Codec, encode_varint
from repro.storage.journal import decode_entry, encode_delivery_entry

A, B = pr("a"), pr("b")
V = ch("v")


def sample_payload(depth=4):
    provenance = EMPTY
    for index in range(depth):
        provenance = provenance.cons(
            OutputEvent(pr(f"hop{index}"), EMPTY)
        )
    return (AnnotatedValue(V, provenance), AnnotatedValue(ch("w"), EMPTY))


def nested_payload(depth):
    """One value whose channel histories nest ``depth`` events deep."""

    provenance = EMPTY
    for _ in range(depth):
        provenance = Provenance.of(OutputEvent(A, provenance))
    return (AnnotatedValue(V, provenance),)


def at_stack_depth(frames, thunk):
    """Call ``thunk`` from ``frames`` Python frames below the caller."""

    if frames == 0:
        return thunk()
    return at_stack_depth(frames - 1, thunk)


def journal_entry(payload):
    entry, _, _ = encode_delivery_entry(
        Codec(), 1.0, A, Channel("m"), 0, 0.0, payload, None
    )
    return entry


def check_nesting_guard():
    """``MAX_NESTING`` levels decode everywhere; one more is refused
    with a typed error, never a ``RecursionError``."""

    deepest = nested_payload(MAX_NESTING)
    body, _ = Codec().encode_payload(deepest)
    assert Codec().decode_payload(body)[0] == deepest
    frame, _ = Codec().encode_frame(deepest)
    assert Codec().decode_frame(frame)[0] == deepest
    assert decode_entry(journal_entry(deepest), Codec()).values == deepest

    too_deep = nested_payload(MAX_NESTING + 1)
    body, _ = Codec().encode_payload(too_deep)
    with pytest.raises(WireFormatError, match="nested deeper"):
        Codec().decode_payload(body)
    frame, _ = Codec().encode_frame(too_deep)
    with pytest.raises(WireFormatError, match="nested deeper"):
        Codec().decode_frame(frame)
    with pytest.raises(StorageError, match="nested deeper"):
        decode_entry(journal_entry(too_deep), Codec())


class TestErrorContract:
    def test_wire_error_is_an_alias(self):
        assert WireError is WireFormatError

    def test_offset_is_carried_and_rendered(self):
        error = WireFormatError("bad tag", 17)
        assert error.offset == 17
        assert "at byte 17" in str(error)
        assert WireFormatError("no position").offset is None

    def test_empty_stream(self):
        with pytest.raises(WireFormatError):
            Codec().decode_payload(b"")

    def test_truncated_varint(self):
        with pytest.raises(WireFormatError):
            Codec().decode_payload(b"\xff")

    def test_absurd_count_rejected_before_allocation(self):
        data = encode_varint(2**40) + b"\x00"
        with pytest.raises(WireFormatError, match="truncated payload"):
            Codec().decode_payload(data)

    def test_unknown_version_envelope(self):
        # the bytes a version envelope would have refused: a stray
        # leading byte in front of a genuine payload
        body, _ = Codec().encode_payload(sample_payload())
        with pytest.raises(WireFormatError):
            Codec().decode_payload(b"\x09" + body)

    def test_deep_nesting_guard(self):
        # 200 frames down first: the guard must hold for a decoder
        # called from deep inside a caller's stack, at the default
        # recursion limit
        at_stack_depth(200, check_nesting_guard)


class TestBitFlipFuzz:
    """Satellite 1: every single-bit flip of a digested v2 frame is
    rejected cleanly — 100% corruption detection, typed errors only."""

    def test_every_single_bit_flip_is_detected(self):
        encoder = Codec()
        frame, _ = encoder.encode_frame(sample_payload())
        for byte_index in range(len(frame)):
            for bit in range(8):
                mutated = bytearray(frame)
                mutated[byte_index] ^= 1 << bit
                decoder = Codec()
                with pytest.raises(WireFormatError):
                    decoder.decode_frame(bytes(mutated))

    def test_truncation_at_every_boundary_is_detected(self):
        encoder = Codec()
        frame, _ = encoder.encode_frame(sample_payload())
        for cut in range(len(frame)):
            decoder = Codec()
            with pytest.raises(WireFormatError):
                decoder.decode_frame(frame[:cut])

    def test_trailing_garbage_inside_body_is_detected(self):
        encoder = Codec()
        body, _ = encoder.encode_payload(sample_payload())
        inflated = encode_varint(len(body) + 2) + body + b"\x00\x00" + bytes(16)
        decoder = Codec()
        with pytest.raises(WireFormatError):
            decoder.decode_frame(inflated)

    def test_mid_stream_flip_only_poisons_that_frame(self):
        """A resumed stream delivers frame 1 fine; the flipped frame 2
        raises; the codec is then retired by contract (no assertion on
        further decodes — the router poisons the link)."""

        encoder, decoder = Codec(), Codec()
        first, _ = encoder.encode_frame(sample_payload())
        second, _ = encoder.encode_frame(sample_payload(depth=6))
        payload, consumed, _ = decoder.decode_frame(first)
        assert consumed == len(first)
        assert payload == sample_payload()
        mutated = bytearray(second)
        mutated[len(mutated) // 2] ^= 0x10
        with pytest.raises(WireFormatError):
            decoder.decode_frame(bytes(mutated))


class TestRandomFuzz:
    # the ids name the one-shot decoders these two cases once drove
    @pytest.mark.parametrize(
        "fresh",
        [
            pytest.param(True, id="decode_payload"),
            pytest.param(False, id="decode_payload_v2"),
        ],
    )
    def test_random_bytes_never_escape_the_error_type(self, fresh):
        """Random blobs through a fresh codec each, or through one codec
        whose tables already hold a genuine payload's history (so
        back-references can land) and keep whatever the blobs add."""

        rng = random.Random(0xC0FFEE)
        primed = Codec()
        primed.decode_payload(Codec().encode_payload(sample_payload())[0])
        for _ in range(300):
            blob = rng.randbytes(rng.randrange(1, 64))
            try:
                (Codec() if fresh else primed).decode_payload(blob)
            except WireFormatError:
                pass  # the only acceptable failure

    def test_random_mutations_of_genuine_messages(self):
        rng = random.Random(0xBEEF)
        data, _ = Codec().encode_payload(sample_payload())
        for _ in range(500):
            mutated = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            try:
                Codec().decode_payload(bytes(mutated))
            except WireFormatError:
                pass  # flips may land in don't-care bits of plain names;
                # anything detected must be detected *cleanly*

    @settings(max_examples=30, deadline=None)
    @given(provenances(max_length=4, max_depth=2), st.integers(0, 2**32))
    def test_frame_roundtrip_survives_and_flips_fail(self, provenance, seed):
        payload = (AnnotatedValue(V, provenance),)
        encoder, decoder = Codec(), Codec()
        frame, sent_nodes = encoder.encode_frame(payload)
        decoded, consumed, got_nodes = Codec().decode_frame(frame)
        assert decoded == payload
        assert consumed == len(frame)
        assert [n.digest for n in got_nodes] == [n.digest for n in sent_nodes]
        rng = random.Random(seed)
        mutated = bytearray(frame)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        if bytes(mutated) != frame:
            with pytest.raises(WireFormatError):
                decoder.decode_frame(bytes(mutated))
