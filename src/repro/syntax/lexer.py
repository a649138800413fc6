"""Lexer for the Haskell-like surface syntax of terms and types."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    kind: str  # 'ident', 'conid', 'int', 'char', 'string', 'symbol', 'eof'
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return self.text if self.kind != "eof" else "<end of input>"


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Convert source text into a token list (ending with an ``eof``).

    ``first_line`` is the line number of the first line of ``source``, so
    a caller lexing part of a file gets file lines in tokens and errors.
    """
    tokens: list[Token] = []
    index = 0
    line = first_line
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = source[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if source.startswith("--", index):
            while index < length and source[index] != "\n":
                advance(1)
            continue
        if char.isdigit():
            start = index
            start_line, start_column = line, column
            while index < length and source[index].isdigit():
                advance(1)
            tokens.append(Token("int", source[start:index], start_line, start_column))
            continue
        if char == "'":
            if index + 2 < length and source[index + 2] == "'":
                tokens.append(Token("char", source[index + 1], line, column))
                advance(3)
                continue
            # A prime after an identifier is handled below; a lone quote
            # here is an error.
            raise ParseError("unterminated character literal", line, column)
        if char == '"':
            start = index + 1
            end = source.find('"', start)
            if end == -1:
                raise ParseError("unterminated string literal", line, column)
            tokens.append(Token("string", source[start:end], line, column))
            advance(end + 1 - index)
            continue
        if char.isalpha() or char == "_":
            start = index
            start_line, start_column = line, column
            while index < length and (source[index].isalnum() or source[index] in "_'"):
                advance(1)
            text = source[start:index]
            if text in ("True", "False"):
                tokens.append(Token("bool", text, start_line, start_column))
            elif text in KEYWORDS:
                tokens.append(Token("keyword", text, start_line, start_column))
            elif text[0].isupper():
                tokens.append(Token("conid", text, start_line, start_column))
            else:
                tokens.append(Token("ident", text, start_line, start_column))
            continue
        for symbol in SYMBOLS:
            if source.startswith(symbol, index):
                tokens.append(Token("symbol", symbol, line, column))
                advance(len(symbol))
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column)
    tokens.append(Token("eof", "", line, column))
    return tokens
