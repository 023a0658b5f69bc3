"""The character-loop lexer the regex scanner replaced, kept as an oracle.

``repro.lang.lexer`` scans with one compiled regular expression and
computes positions lazily.  This is the straightforward reading of the
token grammar — one character at a time, positions tracked as it goes —
and the differential tests in ``test_lang.py`` require both to produce
the same ``(kind, text, line, column)`` stream and the same
:class:`ParseError` for every input.  It is test-only: nothing in
``src/`` imports it.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.lang.lexer import KEYWORDS, Token

_PUNCTUATION = [
    "<<",
    ">>",
    "||",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "|",
    "+",
    "-",
    "*",
    "!",
    "?",
    "~",
    ";",
    ":",
    ",",
    ".",
    "=",
]


def oracle_tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`ParseError` on foreign bytes."""

    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "#":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (
                source[index].isalnum() or source[index] in "_'"
            ):
                index += 1
            text = source[start:index]
            kind = text if text in KEYWORDS else "NAME"
            tokens.append(Token(kind, text, line, column))
            column += index - start
            continue
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("NUMBER", text, line, column))
            column += index - start
            continue
        for punct in _PUNCTUATION:
            if source.startswith(punct, index):
                tokens.append(Token(punct, punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column)
    tokens.append(Token("EOF", "", line, column))
    return tokens
