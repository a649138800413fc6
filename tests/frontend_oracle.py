"""The recursive-descent front end as of commit ``a8ccff0``: a test oracle.

A verbatim copy of the per-character lexer and the recursive-descent
parser that the one-pass front end (``repro.syntax.lexer`` and
``repro.syntax.parser``) replaced.  ``tests/test_frontend_oracle.py``
checks that the new front end gives equal tokens, equal trees and equal
``ParseError`` messages and positions on random source.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ParseError
from repro.core.terms import Ann, AnnLam, App, Case, CaseAlt, Lam, Let, Lit, Term, Var, app
from repro.core.types import Pred, TCon, TVar, Type, forall, fun, list_of, tuple_of

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

class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # -- token plumbing --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.position + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.position += 1
        return token

    def at_symbol(self, text: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind == "symbol" and token.text == text

    def at_keyword(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.text == text

    def expect_symbol(self, text: str) -> Token:
        token = self.next()
        if token.kind != "symbol" or token.text != text:
            raise ParseError(f"expected `{text}`, found `{token}`", token.line, token.column)
        return token

    def expect_kind(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found `{token}`", token.line, token.column)
        return token

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected trailing input `{token}`", token.line, token.column)

    # -- types -----------------------------------------------------------

    def type_(self) -> Type:
        if self.at_keyword("forall") or self.at_symbol("∀"):
            self.next()
            binders: list[str] = []
            while self.peek().kind == "ident":
                binders.append(self.next().text)
            if not binders:
                token = self.peek()
                raise ParseError("forall needs at least one binder", token.line, token.column)
            self.expect_symbol(".")
            context, body = self.context_and_type()
            return forall(binders, body, context)
        context, body = self.context_and_type()
        return forall([], body, context)

    def context_and_type(self) -> tuple[list[Pred], Type]:
        checkpoint = self.position
        try:
            context = self.context()
        except ParseError:
            self.position = checkpoint
            return [], self.arrow_type()
        if context is None:
            self.position = checkpoint
            return [], self.arrow_type()
        return context, self.arrow_type()

    def context(self) -> list[Pred] | None:
        """Parse ``C => `` or ``(C1, C2) => ``; None when not a context."""
        predicates: list[Pred] = []
        if self.at_symbol("("):
            checkpoint = self.position
            self.next()
            try:
                predicates.append(self.predicate())
                while self.at_symbol(","):
                    self.next()
                    predicates.append(self.predicate())
                self.expect_symbol(")")
            except ParseError:
                self.position = checkpoint
                return None
        elif self.peek().kind == "conid":
            checkpoint = self.position
            try:
                predicates.append(self.predicate())
            except ParseError:
                self.position = checkpoint
                return None
        else:
            return None
        if not self.at_symbol("=>"):
            return None
        self.next()
        return predicates

    def predicate(self) -> Pred:
        name = self.expect_kind("conid").text
        arguments: list[Type] = []
        while self._at_atomic_type():
            arguments.append(self.atomic_type())
        if not arguments:
            token = self.peek()
            raise ParseError("class predicate needs arguments", token.line, token.column)
        return Pred(name, tuple(arguments))

    def arrow_type(self) -> Type:
        left = self.app_type()
        if self.at_symbol("->") or self.at_symbol("→"):
            self.next()
            right = self.type_()
            return fun(left, right)
        return left

    def app_type(self) -> Type:
        if self.peek().kind == "conid":
            name = self.next().text
            arguments: list[Type] = []
            while self._at_atomic_type():
                arguments.append(self.atomic_type())
            return TCon(name, tuple(arguments))
        return self.atomic_type()

    def _at_atomic_type(self) -> bool:
        token = self.peek()
        if token.kind in ("ident", "conid"):
            return True
        return token.kind == "symbol" and token.text in ("(", "[")

    def atomic_type(self) -> Type:
        token = self.peek()
        if token.kind == "ident":
            self.next()
            return TVar(token.text)
        if token.kind == "conid":
            self.next()
            return TCon(token.text)
        if self.at_symbol("["):
            self.next()
            element = self.type_()
            self.expect_symbol("]")
            return list_of(element)
        if self.at_symbol("("):
            self.next()
            if self.at_symbol(")"):
                self.next()
                return TCon("()")
            first = self.type_()
            elements = [first]
            while self.at_symbol(","):
                self.next()
                elements.append(self.type_())
            self.expect_symbol(")")
            if len(elements) == 1:
                return first
            return tuple_of(*elements)
        raise ParseError(f"expected a type, found `{token}`", token.line, token.column)

    # -- terms -----------------------------------------------------------

    def term(self) -> Term:
        if self.at_symbol("\\"):
            return self.lambda_()
        if self.at_keyword("let"):
            return self.let_()
        if self.at_keyword("case"):
            return self.case_()
        return self.operator_term()

    def lambda_(self) -> Term:
        self.expect_symbol("\\")
        binders: list[tuple[str, Type | None]] = []
        while True:
            token = self.peek()
            if token.kind == "ident":
                self.next()
                binders.append((token.text, None))
            elif self.at_symbol("(") and self.peek(1).kind == "ident":
                self.next()
                name = self.expect_kind("ident").text
                self.expect_symbol("::")
                annotation = self.type_()
                self.expect_symbol(")")
                binders.append((name, annotation))
            else:
                break
        if not binders:
            token = self.peek()
            raise ParseError("lambda needs at least one binder", token.line, token.column)
        if self.at_symbol("."):
            self.next()
        elif self.at_symbol("->") or self.at_symbol("→"):
            self.next()
        else:
            token = self.peek()
            raise ParseError(
                f"expected `.` or `->` after lambda binders, found `{token}`",
                token.line,
                token.column,
            )
        body = self.term()
        for name, annotation in reversed(binders):
            if annotation is None:
                body = Lam(name, body)
            else:
                body = AnnLam(name, annotation, body)
        return body

    def let_(self) -> Term:
        self.next()  # 'let'
        name = self.expect_kind("ident").text
        self.expect_symbol("=")
        bound = self.term()
        token = self.next()
        if token.kind != "keyword" or token.text != "in":
            raise ParseError(f"expected `in`, found `{token}`", token.line, token.column)
        body = self.term()
        return Let(name, bound, body)

    def case_(self) -> Term:
        self.next()  # 'case'
        scrutinee = self.term()
        token = self.next()
        if token.kind != "keyword" or token.text != "of":
            raise ParseError(f"expected `of`, found `{token}`", token.line, token.column)
        self.expect_symbol("{")
        alts = [self.alt()]
        while self.at_symbol(";"):
            self.next()
            alts.append(self.alt())
        self.expect_symbol("}")
        return Case(scrutinee, tuple(alts))

    def alt(self) -> CaseAlt:
        constructor = self.expect_kind("conid").text
        binders: list[str] = []
        while self.peek().kind == "ident":
            binders.append(self.next().text)
        self.expect_symbol("->")
        return CaseAlt(constructor, tuple(binders), self.term())

    def operator_term(self) -> Term:
        """Right-associative infix ``:``, ``++``, ``$`` as prelude calls."""
        left = self.application()
        for symbol, function in ((":", "cons"), ("++", "append"), ("$", "$")):
            if self.at_symbol(symbol):
                self.next()
                right = self.operator_term()
                return app(Var(function), left, right)
        return left

    def application(self) -> Term:
        head = self.atom()
        arguments: list[Term] = []
        while self._at_atom():
            arguments.append(self.atom())
        return app(head, *arguments)

    def _at_atom(self) -> bool:
        token = self.peek()
        if token.kind in ("ident", "conid", "int", "bool", "char", "string"):
            return True
        return token.kind == "symbol" and token.text in ("(", "[")

    def atom(self) -> Term:
        token = self.peek()
        if token.kind == "ident" or token.kind == "conid":
            self.next()
            return Var(token.text)
        if token.kind == "int":
            self.next()
            return Lit(int(token.text))
        if token.kind == "bool":
            self.next()
            return Lit(token.text == "True")
        if token.kind == "char":
            self.next()
            return Lit(token.text)
        if token.kind == "string":
            self.next()
            return Lit(token.text)
        if self.at_symbol("["):
            self.next()
            if self.at_symbol("]"):
                self.next()
                return Var("nil")
            elements = [self.term()]
            while self.at_symbol(","):
                self.next()
                elements.append(self.term())
            self.expect_symbol("]")
            result: Term = Var("nil")
            for element in reversed(elements):
                result = app(Var("cons"), element, result)
            return result
        if self.at_symbol("("):
            self.next()
            if self.at_symbol(")"):
                self.next()
                return Var("unit")
            first = self.term()
            if self.at_symbol("::"):
                self.next()
                annotation = self.type_()
                self.expect_symbol(")")
                return Ann(first, annotation)
            if self.at_symbol(","):
                elements = [first]
                while self.at_symbol(","):
                    self.next()
                    elements.append(self.term())
                self.expect_symbol(")")
                result = app(Var("pair"), *elements)
                return result
            self.expect_symbol(")")
            return first
        raise ParseError(f"expected a term, found `{token}`", token.line, token.column)


def parse_term(source: str) -> Term:
    """Parse a complete term."""
    parser = _Parser(tokenize(source))
    term = parser.term()
    parser.expect_eof()
    return term


def parse_type(source: str) -> Type:
    """Parse a complete type."""
    parser = _Parser(tokenize(source))
    type_ = parser.type_()
    parser.expect_eof()
    return type_
