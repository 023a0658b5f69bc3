"""Concrete syntax for Table 3 patterns.

Grammar (lowest precedence first)::

    pattern  :=  alt
    alt      :=  seq ('|' seq)*                  -- alternation π ∨ π'
    seq      :=  rep (';' rep)*                  -- composition π;π'
    rep      :=  primary '*'*                    -- repetition π*
    primary  :=  'any' | 'eps' | 'none'
              |  group ('!'|'?') primary         -- events G!π / G?π
              |  '(' pattern ')'
    group    :=  gatom (('+'|'-') gatom)*        -- union / difference
    gatom    :=  '~' | NAME | '(' group ')'

Examples from the paper::

    c!any;any          -- sent directly by c, any earlier history
    any;d!any          -- originated at d, any intermediaries
    (c1+c3)!any;any    -- sent by c1 or c3
    (~-o)?any          -- received by anyone except the organiser

The one ambiguity — ``(`` opening a group versus a parenthesized pattern —
is resolved by backtracking: we try the event interpretation first and fall
back to the pattern parenthesis.

``none`` (the core :class:`~repro.core.patterns.MatchNone`) is accepted for
convenience in tests even though Table 3 does not include it; it is the
empty alternation, expressible but not denotable in the paper's grammar.
"""

from __future__ import annotations

from repro.core.names import Principal
from repro.core.patterns import MatchNone, Pattern
from repro.lang.lexer import Mismatch, TokenStream
from repro.patterns.ast import (
    Alternation,
    AnyPattern,
    Empty,
    EventPattern,
    Group,
    GroupAll,
    GroupDifference,
    GroupSingle,
    GroupUnion,
    Repetition,
    SamplePattern,
    Sequence,
)

__all__ = ["parse_pattern", "parse_pattern_stream", "parse_group"]


def parse_pattern(text: str) -> Pattern:
    """Parse a standalone pattern; input must be fully consumed."""

    stream = TokenStream(text)
    return stream.complete(lambda: _alt(stream))


def parse_pattern_stream(stream: TokenStream) -> Pattern:
    """Parse a pattern starting at the stream's cursor (embeddable).

    Failures are the stream's unpositioned :class:`~repro.lang.lexer.
    Mismatch`; the caller's :meth:`TokenStream.complete` positions them.
    """

    return _alt(stream)


def _alt(stream: TokenStream) -> Pattern:
    left = _seq(stream)
    while stream.accept("|"):
        right = _seq(stream)
        left = Alternation(_sample(left, stream), _sample(right, stream))
    return left


def _seq(stream: TokenStream) -> Pattern:
    left = _rep(stream)
    while stream.accept(";"):
        right = _rep(stream)
        left = Sequence(_sample(left, stream), _sample(right, stream))
    return left


def _rep(stream: TokenStream) -> Pattern:
    pattern = _primary(stream)
    while stream.accept("*"):
        pattern = Repetition(_sample(pattern, stream))
    return pattern


def _primary(stream: TokenStream) -> Pattern:
    if stream.accept("any"):
        return AnyPattern()
    if stream.accept("eps"):
        return Empty()
    if stream.accept("none"):
        return MatchNone()
    if stream.at("NAME", "~"):
        return _event(stream)
    if stream.at("("):
        # Either a parenthesized group followed by !/? (an event) or a
        # parenthesized pattern.  Try the event reading first.
        mark = stream.mark()
        try:
            return _event(stream)
        except Mismatch:
            stream.reset(mark)
        stream.expect("(")
        stream.descend()
        pattern = _alt(stream)
        stream.expect(")")
        stream.depth -= 1
        return pattern
    raise stream.error(
        f"expected a pattern, found {stream.kind!r}"
    )


def _event(stream: TokenStream) -> Pattern:
    group = parse_group(stream)
    if stream.accept("!"):
        direction = "!"
    elif stream.accept("?"):
        direction = "?"
    else:
        raise stream.error("expected '!' or '?' after group expression")
    stream.descend()
    channel_pattern = _primary(stream)
    stream.depth -= 1
    return EventPattern(direction, group, _sample(channel_pattern, stream))


def parse_group(stream: TokenStream) -> Group:
    """Parse a group expression ``G`` (exported for analyses and tools)."""

    left = _gatom(stream)
    while stream.at("+", "-"):
        operator = stream.advance()
        right = _gatom(stream)
        if operator == "+":
            left = GroupUnion(left, right)
        else:
            left = GroupDifference(left, right)
    return left


def _gatom(stream: TokenStream) -> Group:
    if stream.accept("~"):
        return GroupAll()
    if stream.at("NAME"):
        return GroupSingle(Principal(stream.advance()))
    if stream.accept("("):
        stream.descend()
        group = parse_group(stream)
        stream.expect(")")
        stream.depth -= 1
        return group
    raise stream.error(
        f"expected a group expression, found {stream.kind!r}"
    )


def _sample(pattern: Pattern, stream: TokenStream) -> SamplePattern:
    """Restrict combinators to sample patterns (MatchNone stays standalone)."""

    if isinstance(pattern, SamplePattern):
        return pattern
    raise stream.error(
        f"pattern {pattern} cannot be combined with sample-language operators"
    )
