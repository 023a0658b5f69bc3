"""The v1 tree encoder: the byte baseline for the wire codec.

:class:`~repro.runtime.wire.Codec` writes each distinct spine node and
event of a provenance DAG once and back-references it afterwards.  The
v1 format it replaced flattens that sharing away and ships the full
tree, so its bytes grow with the semantic tree while the codec's track
the DAG.  E17's v1-vs-v2 byte curve (``bench_provenance_sharing.py``)
and ``test_v2_shared_subtrees_cost_fewer_bytes`` compare against it.
Nothing decodes v1 any more, so only the encoder is kept.  It is
test-only: nothing in ``src/`` imports it.

The grammar (integers are canonical unsigned LEB128 varints)::

    name       ::=  varint(len) utf8-bytes
    plain      ::=  0x43 name            -- 'C', channel
               |    0x50 name            -- 'P', principal
    event      ::=  0x21 name provenance -- '!', output event
               |    0x3F name provenance -- '?', input event
    provenance ::=  varint(n) event*n
    value      ::=  plain provenance     -- an annotated value
    payload    ::=  varint(k) value*k
"""

from __future__ import annotations

from repro.core.provenance import Event, InputEvent, OutputEvent, Provenance
from repro.core.values import AnnotatedValue
from repro.runtime.wire import _encode_name, encode_plain, encode_varint

_TAG_OUTPUT = 0x21
_TAG_INPUT = 0x3F


def encode_provenance(provenance: Provenance) -> bytes:
    out = bytearray(encode_varint(len(provenance)))
    for event in provenance:
        out += _encode_event(event)
    return bytes(out)


def _encode_event(event: Event) -> bytes:
    tag = _TAG_OUTPUT if isinstance(event, OutputEvent) else _TAG_INPUT
    assert isinstance(event, (OutputEvent, InputEvent)), event
    return (
        bytes((tag,))
        + _encode_name(event.principal.name)
        + encode_provenance(event.channel_provenance)
    )


def encode_value(value: AnnotatedValue) -> bytes:
    return encode_plain(value.value) + encode_provenance(value.provenance)


def encode_payload(payload: tuple[AnnotatedValue, ...]) -> bytes:
    out = bytearray(encode_varint(len(payload)))
    for value in payload:
        out += encode_value(value)
    return bytes(out)
