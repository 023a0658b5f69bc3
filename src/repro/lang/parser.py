"""Recursive-descent parser for the concrete syntax.

The parser resolves the calculus' three name sorts contextually:

* a name directly followed by ``[`` hosts a located process — it is a
  **principal** (a pre-scan collects these before parsing, so forward
  references work); extra principal names can be supplied via the
  ``principals`` argument for data-only principals (e.g. a value ``d``
  sent in a payload when ``d`` never hosts a process);
* a name bound by an enclosing input binder is a **variable**;
* every other name in identifier position is a **channel**.

Provenance annotations (``v:{a!{}}``) always force the value reading.

Patterns inside input prefixes use the sample language of Table 3
(:mod:`repro.patterns.parse`); the calculus itself remains parametric in
the pattern language, but the concrete syntax commits to the paper's
sample language.

The front end is one linear pass: :func:`~repro.lang.lexer.scan` lexes
the text with one regular expression into parallel kind and text lists,
the rules below walk them by index through a
:class:`~repro.lang.lexer.TokenStream`, and no token object or line and
column is built unless a :class:`ParseError` escapes.  Two things keep
long machine-written sources, such as a durable store's manifest, cheap
and safe to re-read:

* **Guard memo.**  Within one parse, a binding's pattern is keyed by its
  token texts up to the ``as`` at parenthesis depth 0; a later binding
  with the same text reuses the first one's frozen pattern object
  instead of re-parsing (and re-backtracking through) it.  Patterns are
  immutable values, so the sharing is unobservable — a 2,048-hop relay
  parses its guard once.
* **Nesting limit.**  Terms, patterns, groups and provenance literals
  nested deeper than :data:`~repro.lang.lexer.MAX_NESTING` fail with a
  positioned :class:`ParseError` rather than a :class:`RecursionError`.

A name outside the calculus' ASCII alphabet lexes but is refused with a
positioned :class:`ParseError` when the parser builds it.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.names import Channel, Principal, Variable
from repro.core.patterns import Pattern
from repro.core.process import (
    Inaction,
    InputBranch,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
)
from repro.core.provenance import (
    EMPTY,
    Event,
    InputEvent,
    OutputEvent,
    Provenance,
)
from repro.core.system import Located, Message, SysParallel, SysRestriction, System
from repro.core.values import AnnotatedValue, Identifier
from repro.lang.lexer import Mismatch, TokenStream
from repro.patterns.ast import AnyPattern
from repro.patterns.parse import parse_pattern_stream

__all__ = ["parse_system", "parse_process", "parse_provenance", "parse_identifier"]


def parse_system(source: str, principals: Iterable[str] = ()) -> System:
    """Parse a complete system term."""

    stream = TokenStream(source)
    parser = _Parser(stream, _scan_principals(stream, principals))
    return stream.complete(parser.system)


def parse_process(source: str, principals: Iterable[str] = ()) -> Process:
    """Parse a complete process term."""

    stream = TokenStream(source)
    return stream.complete(_Parser(stream, set(principals)).process)


def parse_provenance(source: str) -> Provenance:
    """Parse a braced provenance literal, e.g. ``{c?{}; s!{}}``."""

    stream = TokenStream(source)
    return stream.complete(_Parser(stream, set()).provenance)


def parse_identifier(source: str, principals: Iterable[str] = ()) -> Identifier:
    """Parse a standalone identifier (value, annotated value or variable).

    Free bare names parse as channels unless listed in ``principals``.
    """

    stream = TokenStream(source)
    return stream.complete(_Parser(stream, set(principals)).identifier)


def _scan_principals(stream: TokenStream, extra: Iterable[str]) -> set[str]:
    """Names immediately followed by ``[`` host located processes."""

    principals = set(extra)
    kinds, texts = stream.kinds, stream.texts
    index = 0
    try:
        while True:
            index = kinds.index("[", index + 1)
            if kinds[index - 1] == "NAME":
                principals.add(texts[index - 1])
    except ValueError:
        return principals


class _Parser:
    def __init__(self, stream: TokenStream, principals: set[str]) -> None:
        self.stream = stream
        self.principals = principals
        self._bound: list[str] = []
        self._guards: dict[tuple[str, ...], Pattern] = {}

    # -- systems ---------------------------------------------------------

    def system(self) -> System:
        parts = [self.sysatom()]
        while self.stream.accept("||"):
            parts.append(self.sysatom())
        if len(parts) == 1:
            return parts[0]
        return SysParallel(tuple(parts))

    def sysatom(self) -> System:
        stream = self.stream
        stream.descend()
        system = self._sysatom()
        stream.depth -= 1
        return system

    def _sysatom(self) -> System:
        stream = self.stream
        if stream.at("("):
            if stream.peek() == "new":
                stream.expect("(")
                stream.expect("new")
                name = stream.expect("NAME")
                stream.expect(")")
                body = self.sysatom()
                return SysRestriction(Channel(name), body)
            stream.expect("(")
            system = self.system()
            stream.expect(")")
            return system
        if stream.at("NUMBER") and stream.text == "0":
            stream.advance()
            return SysParallel(())
        if stream.at("NAME"):
            if stream.peek() == "[":
                name = stream.advance()
                self.principals.add(name)
                stream.expect("[")
                process = self.process()
                stream.expect("]")
                return Located(Principal(name), process)
            if stream.peek() == "<<":
                name = stream.advance()
                stream.expect("<<")
                payload = self._value_list(">>")
                stream.expect(">>")
                return Message(Channel(name), tuple(payload))
        raise stream.error(
            f"expected a system, found {stream.kind!r}"
        )

    def _value_list(self, closer: str) -> list[AnnotatedValue]:
        values: list[AnnotatedValue] = []
        if self.stream.at(closer):
            return values
        while True:
            identifier = self.identifier()
            if not isinstance(identifier, AnnotatedValue):
                raise self.stream.error(
                    f"message payloads must be values, found variable"
                    f" {identifier}"
                )
            values.append(identifier)
            if not self.stream.accept(","):
                return values

    # -- processes ---------------------------------------------------------

    def process(self) -> Process:
        parts = [self.sumterm()]
        while self.stream.accept("|"):
            parts.append(self.sumterm())
        if len(parts) == 1:
            return parts[0]
        return Parallel(tuple(parts))

    def sumterm(self) -> Process:
        first = self.patom()
        if not self.stream.at("+"):
            return first
        summands = [self._as_single_sum(first)]
        while self.stream.accept("+"):
            summands.append(self._as_single_sum(self.patom()))
        channel = summands[0].channel
        for other in summands[1:]:
            if other.channel != channel:
                raise self.stream.error(
                    "input-guarded sums must share one channel "
                    f"({other.channel} vs {channel})"
                )
        branches = tuple(
            branch for summand in summands for branch in summand.branches
        )
        return InputSum(channel, branches)

    def _as_single_sum(self, process: Process) -> InputSum:
        if isinstance(process, InputSum):
            return process
        raise self.stream.error("only input prefixes may be summed with '+'")

    def patom(self) -> Process:
        stream = self.stream
        stream.descend()
        process = self._patom()
        stream.depth -= 1
        return process

    def _patom(self) -> Process:
        stream = self.stream
        if stream.at("("):
            if stream.peek() == "new":
                stream.expect("(")
                stream.expect("new")
                name = stream.expect("NAME")
                stream.expect(")")
                return Restriction(Channel(name), self.patom())
            stream.expect("(")
            process = self.process()
            stream.expect(")")
            return process
        if stream.accept("*"):
            return Replication(self.patom())
        if stream.at("NUMBER") and stream.text == "0":
            stream.advance()
            return Inaction()
        if stream.at("if"):
            return self._match()
        if stream.at("NAME"):
            subject = self.identifier()
            if stream.accept("<"):
                payload: list[Identifier] = []
                if not stream.at(">"):
                    while True:
                        payload.append(self.identifier())
                        if not stream.accept(","):
                            break
                stream.expect(">")
                return Output(subject, tuple(payload))
            if stream.at("("):
                branch = self._input_branch()
                return InputSum(subject, (branch,))
            raise stream.error(
                "expected '<' (output) or '(' (input) after channel"
            )
        raise stream.error(f"expected a process, found {stream.kind!r}")

    def _match(self) -> Process:
        stream = self.stream
        stream.expect("if")
        left = self.identifier()
        stream.expect("=")
        right = self.identifier()
        stream.expect("then")
        then_branch = self.patom()
        stream.expect("else")
        else_branch = self.patom()
        return Match(left, right, then_branch, else_branch)

    def _input_branch(self) -> InputBranch:
        stream = self.stream
        stream.expect("(")
        patterns: list[Pattern] = []
        binders: list[Variable] = []
        if not stream.at(")"):
            while True:
                pattern, binder = self._binding()
                patterns.append(pattern)
                binders.append(binder)
                if not stream.accept(","):
                    break
        stream.expect(")")
        stream.expect(".")
        self._bound.extend(binder.name for binder in binders)
        try:
            continuation = self.patom()
        finally:
            del self._bound[len(self._bound) - len(binders) :]
        return InputBranch(tuple(patterns), tuple(binders), continuation)

    def _binding(self) -> tuple[Pattern, Variable]:
        """``π as x`` or a bare binder ``x`` (which guards with ``any``).

        Guards repeat: a relay's every hop carries the same one.  Patterns
        are immutable values, so within one parse the text before ``as``
        (at parenthesis depth 0) keys the parsed pattern, and a repeat
        reuses the first hop's object instead of parsing it again.
        """

        stream = self.stream
        start = stream.index
        key = self._guard_key(start)
        if key is not None:
            pattern = self._guards.get(key)
            after = start + len(key) + 1
            # without a binder name after ``as``, parse as before so the
            # error is the same
            if pattern is not None and stream.kinds[after] == "NAME":
                stream.index = after + 1
                return pattern, Variable(stream.texts[after])
        mark = stream.mark()
        try:
            pattern = parse_pattern_stream(stream)
            if stream.accept("as"):
                name = stream.expect("NAME")
                # memoize only a pattern that spans exactly the key
                if key is not None and stream.index == start + len(key) + 2:
                    self._guards[key] = pattern
                return pattern, Variable(name)
        except Mismatch:
            pass
        stream.reset(mark)
        name = stream.expect("NAME")
        return AnyPattern(), Variable(name)

    def _guard_key(self, start: int) -> tuple[str, ...] | None:
        """The token texts from ``start`` up to the next depth-0 ``as``.

        ``None`` when a ``,`` or an unmatched ``)`` ends the binding
        first (a bare binder), or the text runs out.
        """

        kinds = self.stream.kinds
        depth = 0
        index = start
        while True:
            kind = kinds[index]
            if kind == "as" and depth == 0:
                return tuple(self.stream.texts[start:index])
            if kind == "(":
                depth += 1
            elif kind == ")":
                if depth == 0:
                    return None
                depth -= 1
            elif kind == "," and depth == 0 or kind == "EOF":
                return None
            index += 1

    # -- identifiers and provenance ---------------------------------------

    def identifier(self) -> Identifier:
        stream = self.stream
        name = stream.expect("NAME")
        if stream.at(":"):
            stream.expect(":")
            provenance = self.provenance()
            return AnnotatedValue(self._plain(name), provenance)
        if name in self._bound:
            return Variable(name)
        return AnnotatedValue(self._plain(name), EMPTY)

    def _plain(self, name: str):
        if name in self.principals:
            return Principal(name)
        return Channel(name)

    def provenance(self) -> Provenance:
        stream = self.stream
        stream.expect("{")
        stream.descend()
        events: list[Event] = []
        if not stream.at("}"):
            while True:
                events.append(self._event())
                if not stream.accept(";"):
                    break
        stream.expect("}")
        stream.depth -= 1
        return Provenance(tuple(events))

    def _event(self) -> Event:
        stream = self.stream
        name = stream.expect("NAME")
        principal = Principal(name)
        self.principals.add(name)
        if stream.accept("!"):
            return OutputEvent(principal, self.provenance())
        if stream.accept("?"):
            return InputEvent(principal, self.provenance())
        raise stream.error("expected '!' or '?' in provenance event")
