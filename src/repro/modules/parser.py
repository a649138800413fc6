"""Parser for Haskell-like module files.

A module file is a sequence of top-level declarations::

    -- an optional header
    module Lens where

    setters :: [forall a. a -> a]
    setters = id : ids

    pick =
      head setters            -- continuation lines are indented

Two declaration forms exist: a *signature* ``name :: type`` and a
*definition* ``name = expr``.  A declaration starts on a line whose first
character is in column one; indented lines continue the declaration
above, so definitions can span lines.  ``--`` comments and blank lines
separate declarations freely.

Positions in errors are file positions: each declaration chunk is lexed
from its starting line, so a lexer or parse error deep inside the third
binding reports the line of the offending token, not line one of its
chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import DuplicateBindingError, ParseError
from repro.core.terms import Term, free_vars
from repro.core.types import Type
from repro.syntax.parser import _Parser


@dataclass(frozen=True)
class Binding:
    """One top-level binding: a definition plus its optional signature."""

    name: str
    term: Term
    signature: Type | None = None
    line: int = 1
    """File line of the definition's name token."""

    column: int = 1
    signature_line: int | None = None

    @property
    def source_key(self) -> str:
        """The content-addressable text of this binding: the *pretty-printed*
        definition and signature, so whitespace and comment edits do not
        change the key (see :mod:`repro.modules.cache`)."""
        sig = "" if self.signature is None else str(self.signature)
        return f"{self.name} :: {sig}\n{self.name} = {self.term}"

    def free_term_vars(self) -> frozenset[str]:
        """The definition's free names, computed once per binding: the
        dependency graph, the recursion test and the cache key share it."""
        cached = self.__dict__.get("_free_term_vars")
        if cached is None:
            cached = frozenset(free_vars(self.term))
            object.__setattr__(self, "_free_term_vars", cached)
        return cached


@dataclass
class Module:
    """A parsed module: named bindings in declaration order."""

    name: str | None = None
    bindings: list[Binding] = field(default_factory=list)
    path: str | None = None

    @property
    def names(self) -> list[str]:
        return [binding.name for binding in self.bindings]

    def binding(self, name: str) -> Binding:
        for binding in self.bindings:
            if binding.name == name:
                return binding
        raise KeyError(name)


def _chunks(source: str) -> list[tuple[int, str]]:
    """Split into declaration chunks: ``(start_line, text)`` pairs.

    A chunk starts at a line whose first column is non-blank; indented
    lines (and any blank/comment lines between them and further indented
    lines) belong to the chunk above.  The chunk text keeps the original
    line breaks and indentation so token columns are file columns.
    """
    chunks: list[tuple[int, list[str]]] = []
    # Lines end at "\n", "\r\n" or a lone "\r"; the chunks rejoin with
    # "\n", which is where the lexer counts lines.  `str.splitlines` would
    # also break at "\u2028", "\x0c" or "\x85", even inside a comment.
    lines_of_file = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_number, line in enumerate(lines_of_file, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        if line[0] not in " \t":
            chunks.append((line_number, [line]))
        elif chunks:
            start, lines = chunks[-1]
            # Pad intervening blank lines so token line numbers stay
            # file-accurate inside the chunk.
            missing = line_number - start - len(lines)
            lines.extend([""] * missing)
            lines.append(line)
        else:
            raise ParseError(
                "a module declaration cannot start with indentation",
                line_number,
                len(line) - len(line.lstrip()) + 1,
            )
    return [(start, "\n".join(lines)) for start, lines in chunks]


def _is_module_header(parser: _Parser) -> bool:
    keys, texts = parser.keys, parser.texts
    return (
        len(texts) >= 3
        and keys[0] == "ident"
        and texts[0] == "module"
        and keys[1] == "conid"
        and keys[2] == "ident"
        and texts[2] == "where"
    )


@dataclass
class _RawSignature:
    name: str
    type_: Type
    line: int
    column: int


@dataclass
class _RawDefinition:
    name: str
    term: Term
    line: int
    column: int


def parse_module(source: str, path: str | None = None) -> Module:
    """Parse a whole module file.

    Raises :class:`ParseError` for syntax problems (with file positions),
    :class:`DuplicateBindingError` for repeated definitions or signatures,
    and :class:`ParseError` for a signature that has no definition.
    """
    module_name: str | None = None
    signatures: dict[str, _RawSignature] = {}
    definitions: dict[str, _RawDefinition] = {}
    order: list[str] = []

    for index, (start_line, text) in enumerate(_chunks(source)):
        parser = _Parser(text, start_line)
        if index == 0 and _is_module_header(parser):
            module_name = parser.texts[1]
            if parser.keys[3] != "eof":
                extra = parser.token(3)
                raise ParseError(
                    f"unexpected input after module header: `{extra}`",
                    extra.line,
                    extra.column,
                )
            continue
        head = parser.token(0)
        if head.kind != "ident":
            raise ParseError(
                f"expected a top-level binding name, found `{head}`",
                head.line,
                head.column,
            )
        separator = parser.keys[1]
        parser.position = 2  # past `name ::` / `name =`
        if separator == "::":
            type_ = parser.type_()
            parser.expect_eof()
            if head.text in signatures:
                raise DuplicateBindingError(
                    head.text,
                    "signature",
                    head.line,
                    head.column,
                    signatures[head.text].line,
                )
            signatures[head.text] = _RawSignature(head.text, type_, head.line, head.column)
        elif separator == "=":
            term = parser.term()
            parser.expect_eof()
            if head.text in definitions:
                raise DuplicateBindingError(
                    head.text,
                    "binding",
                    head.line,
                    head.column,
                    definitions[head.text].line,
                )
            definitions[head.text] = _RawDefinition(head.text, term, head.line, head.column)
            order.append(head.text)
        else:
            found = parser.token(1)
            raise ParseError(
                f"expected `::` or `=` after `{head.text}`, found `{found}`",
                found.line,
                found.column,
            )

    for name, signature in signatures.items():
        if name not in definitions:
            raise ParseError(
                f"signature for `{name}` has no accompanying binding",
                signature.line,
                signature.column,
            )

    bindings = [
        Binding(
            name=name,
            term=definitions[name].term,
            signature=signatures[name].type_ if name in signatures else None,
            line=definitions[name].line,
            column=definitions[name].column,
            signature_line=signatures[name].line if name in signatures else None,
        )
        for name in order
    ]
    return Module(name=module_name, bindings=bindings, path=path)


def parse_module_file(path: str) -> Module:
    """Read and parse a module file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_module(handle.read(), path=path)
