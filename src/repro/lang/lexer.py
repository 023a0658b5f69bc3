"""Tokenizer for the concrete syntax of the calculus and its patterns.

One lexer serves both the system/process grammar and the pattern grammar
(patterns occur inside input prefixes, so they share a token stream).  The
token vocabulary:

====================  =======================================
kind                  examples
====================  =======================================
``NAME``              ``m``, ``judge1``, ``x'``
``NUMBER``            ``0``
``keyword``           ``if then else new as any eps none``
punctuation           ``[ ] ( ) { } < > << >> | || + - * ! ?``
                      ``~ ; : , . =``
``EOF``               end of input
====================  =======================================

A name starts with a letter or ``_`` and continues with letters, digits,
``_`` and ``'``; a number is a run of digits (both in the sense of
:meth:`str.isalpha` / :meth:`str.isdigit`, so non-ASCII letters and
digits count).  Comments run from ``#`` to end of line.
``<<``/``>>``/``||`` are matched greedily before ``<``/``>``/``|``.

:func:`scan` is the front end's one pass over the text: a single compiled
regular expression whose C-level ``findall`` yields the lexemes, from
which a parallel list of kinds is derived.  A second ``match`` of the same
alternation finds the end of the valid prefix, so the first foreign
character is reported at its exact line and column.  Scanning builds no
per-token objects and computes no positions: :class:`TokenStream` walks
the kind and text lists by index, and a token's line and column are
worked out only when :func:`tokenize` asks for them or a
:class:`ParseError` escapes a parse.

Inside a parse, rules fail by raising :class:`Mismatch`
(:meth:`TokenStream.error`), a :class:`ParseError` subclass that carries
a token index instead of a line and column.  Backtracking probes catch it
cheaply; :meth:`TokenStream.complete`, the wrapper every ``parse_*``
entry point uses, turns one that escapes into a positioned
:class:`ParseError`.  Nesting deeper than :data:`MAX_NESTING` raises a
failure no probe catches.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, TypeVar

from repro.core.errors import ParseError

__all__ = [
    "KEYWORDS",
    "MAX_NESTING",
    "Mismatch",
    "Token",
    "TokenStream",
    "scan",
    "tokenize",
]

KEYWORDS = frozenset({"if", "then", "else", "new", "as", "any", "eps", "none"})

_PUNCTUATION = "<< >> || [ ] ( ) { } < > | + - * ! ? ~ ; : , . =".split()

_FIXED_KINDS = {text: text for text in (*KEYWORDS, *_PUNCTUATION)}

MAX_NESTING = 200
"""Deepest nesting of terms, patterns, groups and provenance literals a
parse accepts (CPython's own parser stops at 200 nested parentheses).
The recursive-descent rules use a few interpreter frames per level, so
this keeps a hostile input to a positioned :class:`ParseError` instead
of a :class:`RecursionError`."""

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class Token:
    """A lexeme with its source position (1-based line/column)."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


@lru_cache(maxsize=8)
def _lexer(odd: str) -> tuple[re.Pattern, re.Pattern]:
    """The token and valid-prefix expressions for one alphabet.

    ``\\w`` is exactly ``str.isalnum() or '_'`` and ``\\d`` exactly
    ``str.isdecimal()``, so ``[^\\W\\d]`` is a letter or ``_`` — except
    for the few numeric characters that are neither letters nor decimal
    digits (``²``, ``½``, …).  ``odd`` lists those present in the source:
    they may not start a name, and the ``isdigit`` ones (``²``) extend
    the number class.
    """

    digits = "".join(c for c in odd if c.isdigit())
    name = (f"(?![{re.escape(odd)}])" if odd else "") + r"[^\W\d][\w']*"
    number = f"[\\d{re.escape(digits)}]+" if digits else r"\d+"
    punctuation = "|".join(map(re.escape, _PUNCTUATION))
    token = f"{name}|{number}|{punctuation}"
    skip = r"[ \t\r\n]+|#[^\n]*"
    return (
        re.compile(f"{skip}|({token})"),
        re.compile(f"(?:{skip}|{token})*"),
    )


def _lexer_for(source: str) -> tuple[re.Pattern, re.Pattern]:
    if source.isascii():
        return _lexer("")
    odd = sorted(
        c for c in set(source)
        if c.isnumeric() and not c.isdecimal() and not c.isalpha()
    )
    return _lexer("".join(odd))


def _kinds(texts: list[str]) -> list[str]:
    fixed = _FIXED_KINDS.get
    return [
        fixed(text) or ("NUMBER" if text[0].isdigit() else "NAME")
        for text in texts
    ]


def scan(source: str) -> tuple[list[str], list[str]]:
    """Lex ``source`` into parallel ``(kinds, texts)`` lists ending in EOF.

    Raises :class:`ParseError` at the first character no lexeme starts
    with.
    """

    tokens, valid = _lexer_for(source)
    end = valid.match(source).end()
    if end < len(source):
        line, column = _Positions(source).at(end)
        raise ParseError(
            f"unexpected character {source[end]!r}", line, column
        )
    texts = list(filter(None, tokens.findall(source)))
    kinds = _kinds(texts)
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


class _Positions:
    """Line/column arithmetic for one source, computed on demand."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.newlines = [m.start() for m in re.finditer("\n", source)]

    def at(self, offset: int) -> tuple[int, int]:
        lines_before = bisect_right(self.newlines, offset - 1)
        start = self.newlines[lines_before - 1] + 1 if lines_before else 0
        return lines_before + 1, offset - start + 1

    def token_offsets(self) -> list[int]:
        """Start offset of every token, EOF included.

        A trailing comment does not advance the column, so EOF sits where
        the last line's comment starts (a ``#`` on a valid line always
        opens one), else at the end of the text.
        """

        tokens, _ = _lexer_for(self.source)
        offsets = [
            match.start(1)
            for match in tokens.finditer(self.source)
            if match.start(1) >= 0
        ]
        last_line = self.newlines[-1] + 1 if self.newlines else 0
        comment = self.source.find("#", last_line)
        offsets.append(comment if comment >= 0 else len(self.source))
        return offsets

    def error(self, message: str, index: int) -> ParseError:
        """A :class:`ParseError` at the start of token ``index``."""

        return ParseError(message, *self.at(self.token_offsets()[index]))


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into positioned tokens; raises on foreign bytes."""

    kinds, texts = scan(source)
    positions = _Positions(source)
    return [
        Token(kind, text, *positions.at(offset))
        for kind, text, offset in zip(kinds, texts, positions.token_offsets())
    ]


class _Failure(ParseError):
    """A parse failure at a token index, not yet positioned.

    Cheap to raise; it becomes a positioned :class:`ParseError` only if it
    escapes a parse through :meth:`TokenStream.complete`.  Raised as is,
    it is fatal: nesting past :data:`MAX_NESTING` ends the parse.
    """

    def __init__(self, message: str, index: int) -> None:
        Exception.__init__(self, message)
        self.message = message
        self.index = index
        self.line = self.column = 0


class Mismatch(_Failure):
    """A rule did not match at this token; a backtracking probe may catch
    it and try another reading."""


class TokenStream:
    """A cursor over the scanned kind and text lists.

    Lookahead is one token (:meth:`peek`), and the parser combinators use
    :meth:`mark` / :meth:`reset` for the ambiguous corners of the grammar
    (group parentheses vs pattern parentheses, pattern vs bare binder).
    ``depth`` counts open nesting levels (:meth:`descend`); a mark
    restores it along with the cursor.
    """

    __slots__ = ("source", "kinds", "texts", "index", "depth")

    def __init__(self, source: str) -> None:
        self.source = source
        self.kinds, self.texts = scan(source)
        self.index = 0
        self.depth = 0

    @property
    def kind(self) -> str:
        """The current token's kind."""

        return self.kinds[self.index]

    @property
    def text(self) -> str:
        """The current token's text."""

        return self.texts[self.index]

    def peek(self) -> str:
        """The kind of the next token (EOF past the end)."""

        return self.kinds[min(self.index + 1, len(self.kinds) - 1)]

    def at(self, *kinds: str) -> bool:
        """True when the current token's kind is one of ``kinds``."""

        return self.kinds[self.index] in kinds

    def advance(self) -> str:
        """Consume the current token (never EOF) and return its text."""

        index = self.index
        if self.kinds[index] != "EOF":
            self.index = index + 1
        return self.texts[index]

    def expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its text, or fail."""

        index = self.index
        found = self.kinds[index]
        if found != kind:
            raise Mismatch(
                f"expected {kind!r}, found {found!r}"
                f" ({self.texts[index]!r})",
                index,
            )
        if found != "EOF":
            self.index = index + 1
        return self.texts[index]

    def accept(self, kind: str) -> bool:
        """Consume the current token if it has ``kind`` (never EOF)."""

        if self.kinds[self.index] == kind:
            self.index += 1
            return True
        return False

    def mark(self) -> tuple[int, int]:
        return self.index, self.depth

    def reset(self, mark: tuple[int, int]) -> None:
        self.index, self.depth = mark

    def descend(self) -> None:
        """Open one nesting level; fail past :data:`MAX_NESTING`.

        The rule that calls this decrements ``depth`` when its nested part
        is parsed.
        """

        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _Failure(
                f"nesting deeper than {MAX_NESTING} levels", self.index
            )

    def error(self, message: str) -> Mismatch:
        """A failure at the current token, positioned only if it escapes."""

        return Mismatch(message, self.index)

    def complete(self, rule: Callable[[], _T]) -> _T:
        """Run ``rule``, require EOF after it, position any failure."""

        try:
            result = rule()
            self.expect("EOF")
        except _Failure as failure:
            raise _Positions(self.source).error(
                failure.message, failure.index
            ) from None
        except ValueError:
            # A non-ASCII name lexes, but calculus names are ASCII
            # (repro.core.names): its constructor refuses it mid-parse.
            # Names are built as soon as they are read or, at the latest,
            # once the term they head is parsed, so the refused one is
            # the last non-ASCII name before the cursor.
            for index in range(self.index - 1, -1, -1):
                text = self.texts[index]
                if self.kinds[index] == "NAME" and not text.isascii():
                    raise _Positions(self.source).error(
                        f"invalid name {text!r}: names are ASCII", index
                    ) from None
            raise
        return result
