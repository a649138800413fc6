"""Lexer for the Haskell-like surface syntax of terms and types.

One compiled master regex of named groups, driven by ``finditer`` over
the whole source, finds every token: each match first skips whitespace
and ``--`` comments, then matches one token.  Maximal munch follows the
order of :data:`SYMBOLS`.  Integer literals are ASCII digits only.

:func:`scan` is the parser's view: parallel lists of *keys*, texts and
start offsets, with no per-token object and no line bookkeeping.  A
token's key is its text for a symbol or keyword and its kind otherwise
(``ident``, ``conid``, ``int``, ``bool``, ``char``, ``string``, ``eof``),
so one string comparison tests both.  :func:`position` turns an offset
into a line and column when an error or a caller needs one; the column
is the offset from the last newline.  :func:`tokenize` builds
:class:`Token` objects from the same scan.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.core.errors import ParseError

KEYWORDS = {"forall", "let", "in", "case", "of", "True", "False"}

# Multi-character symbols first so maximal munch works.
SYMBOLS = [
    "::",
    "->",
    "=>",
    "++",
    "∀",  # ∀
    "→",  # →
    "\\",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    "=",
    ":",
    "$",
]

_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"  # skipped: whitespace and comments
    r"(?:(?P<ident>[a-z_][\w']*)"
    r"|(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")"
    r"|(?P<conid>[A-Z][\w']*)"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"[^"]*")'
    r"|(?P<char>'[\s\S]')"
    r"|(?P<name>[^\W\d][\w']*)"  # a name that starts with a non-ASCII letter
    r"|(?P<eof>\Z)"
    r"|(?P<error>[\s\S]))"
)

#: The key of every token whose text fixes it: symbols, keywords, booleans.
_FIXED_KEYS = {symbol: symbol for symbol in SYMBOLS}
_FIXED_KEYS.update({word: word for word in KEYWORDS})
_FIXED_KEYS.update({"True": "bool", "False": "bool"})

#: Match groups whose text or key needs a second look.
_RAW = frozenset({"string", "char", "name", "error"})

#: Keys that are token kinds; every other key is a symbol or keyword text.
_KINDS = frozenset({"ident", "conid", "int", "bool", "char", "string", "eof"})


class Token(NamedTuple):
    """One lexical token with its source position."""

    kind: str  # 'ident', 'conid', 'int', 'char', 'string', 'symbol', 'eof'
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return self.text if self.kind != "eof" else "<end of input>"


def kind_of(key: str) -> str:
    """The :attr:`Token.kind` of a token with this key."""
    if key in _KINDS:
        return key
    return "keyword" if key in KEYWORDS else "symbol"


def position(source: str, offset: int, first_line: int = 1) -> tuple[int, int]:
    """The line and column of ``offset`` in ``source``."""
    return (
        first_line + source.count("\n", 0, offset),
        offset - source.rfind("\n", 0, offset),
    )


def scan(source: str, first_line: int = 1) -> tuple[list[str], list[str], list[int]]:
    """Lex ``source`` into ``(keys, texts, starts)``, ending with ``eof``.

    ``texts`` holds a literal's contents without its quotes.  A lexical
    error raises :class:`ParseError` at its file position, counting lines
    from ``first_line``.
    """
    keys: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    add_key, add_text, add_start = keys.append, texts.append, starts.append
    fixed = _FIXED_KEYS.get
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        # The key is the text of a symbol, keyword or boolean, else the kind.
        key = fixed(text, kind)
        if key in _RAW:
            if key == "string":
                text = text[1:-1]
            elif key == "char":
                text = text[1]
            elif key == "name" and text[0].isalpha():
                key = "conid" if text[0].isupper() else "ident"
            else:  # an error, or a name that starts with a non-ASCII digit
                line, column = position(source, match.start(kind), first_line)
                if text[0] == "'":
                    raise ParseError("unterminated character literal", line, column)
                if text[0] == '"':
                    raise ParseError("unterminated string literal", line, column)
                raise ParseError(f"unexpected character {text[0]!r}", line, column)
        add_key(key)
        add_text(text)
        add_start(match.start(kind))
        if key == "eof":
            break
    return keys, texts, starts


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Convert source text into a token list (ending with an ``eof``).

    ``first_line`` is the line number of the first line of ``source``, so
    a caller lexing part of a file gets file lines in tokens and errors.
    """
    keys, texts, starts = scan(source, first_line)
    tokens: list[Token] = []
    line, line_start, newline = first_line, 0, source.find("\n")
    for key, text, start in zip(keys, texts, starts):
        while 0 <= newline < start:
            line, line_start = line + 1, newline + 1
            newline = source.find("\n", line_start)
        tokens.append(Token(kind_of(key), text, line, start - line_start + 1))
    return tokens
