"""Parser for the surface language: an explicit stack, no Python recursion.

Types::

    forall a b. Eq a => (a -> b) -> [a] -> (a, b)

Terms::

    \\x -> e            \\(x :: forall a. a -> a) -> e
    let x = e1 in e2    case e of { Just x -> e1 ; Nothing -> e2 }
    (e :: t)            [e1, e2]    (e1, e2)    e1 : e2    e1 ++ e2    f $ x

The infix operators ``:``, ``++`` and ``$`` desugar to *ordinary
applications* of the prelude functions ``cons``, ``append`` and ``$``;
``$`` in particular is not special-cased the way GHC treats it — the whole
point of the paper is that ``runST $ argST`` typechecks through the
operator's ordinary type.  The three share one precedence and associate
to the right.  Lists and tuples desugar to ``nil``/``cons`` and ``pair``.
Application is n-ary: ``f x y`` parses to ``app(f, x, y)``.

The grammar is that of a recursive-descent parser; only the control is
iterative.  :meth:`_Parser.term` and :meth:`_Parser.type_` each run one
loop over a stack of frames.  A construct that nests (a parenthesis or
bracket, a lambda body, a ``let`` or ``case`` part, the right operand of
an infix operator or of ``->``) pushes a frame saying what to do with the
inner result, and the loop goes on with the inner construct.  When that
is complete the loop pops frames, building nodes, until a frame asks for
more input.  Depth of nesting is bounded by memory, not by Python's
recursion limit.  A term calls :meth:`~_Parser.type_` for an annotation:
one Python frame, not one per level.

A type headed by a constructor is parsed once.  ``C t1 .. tn`` followed
by ``=>`` is a class context, and so is a parenthesised tuple of such
applications; otherwise the same nodes are the type.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.core.terms import Ann, AnnLam, App, Case, CaseAlt, Lam, Let, Lit, Term, Var, app
from repro.core.types import ARROW, Pred, TCon, TVar, Type, forall, list_of, tuple_of
from repro.syntax.lexer import Token, kind_of, position, scan

_OPERATORS = {":": "cons", "++": "append", "$": "$"}
_LITERALS = frozenset({"int", "bool", "char", "string"})

# Term frames: lists whose first element is the tag.
_APPLY = 0  # [_APPLY, head, arguments]: an application waiting for an atom
_OPERAND = 1  # [_OPERAND, left, function]: `left op` waiting for the right operand
_LAMBDA = 2  # [_LAMBDA, binders]: waiting for the body
_BOUND = 3  # [_BOUND, name]: `let name =` waiting for the bound term
_BODY = 4  # [_BODY, name, bound]: `let name = bound in` waiting for the body
_SCRUTINEE = 5  # [_SCRUTINEE]: `case` waiting for the scrutinee
_ALT = 6  # [_ALT, scrutinee, alts, constructor, binders]: an alternative's body
_LIST = 7  # [_LIST, elements]: `[e, ..` waiting for an element
_PAREN = 8  # [_PAREN]: `(` waiting for its first term
_TUPLE = 9  # [_TUPLE, elements]: `(e, ..` waiting for an element

# Type frames.
_QUALIFIED = 0  # [_QUALIFIED, binders, context]: a type; context None while one may come
_RESULT = 1  # [_RESULT, argument]: `argument ->` waiting for the result type
_CON_ARGS = 2  # [_CON_ARGS, name, arguments]: `C t1 ..` waiting for an argument
_LIST_TYPE = 3  # [_LIST_TYPE]: `[` waiting for the element type
_TUPLE_TYPE = 4  # [_TUPLE_TYPE, elements, predicates]: `(t, ..` waiting for an element

# Loop modes.
_START = 0  # parse a term (or type) from its first token
_ATOMS = 1  # parse the atoms of an application (or constructor arguments)
_TERM_DONE = 2  # a term (or type) is complete: pop frames
_ATOM_DONE = 3  # a bracketed atom is complete: hand it to the application
_APP_DONE = 4  # types only: an application type is complete


class _Parser:
    """Parse one source text.

    ``position`` is the index of the next token.  :meth:`term` and
    :meth:`type_` start there and leave it past what they parsed, so a
    caller can parse part of the tokens (a module declaration starts at
    token 2).  ``first_line`` numbers the source's first line, so errors
    in part of a file report file lines.
    """

    def __init__(self, source: str, first_line: int = 1) -> None:
        self.source = source
        self.first_line = first_line
        self.keys, self.texts, self.starts = scan(source, first_line)
        # One more `eof` so a one-token lookahead never runs off the end.
        self.keys.append("eof")
        self.position = 0

    # -- token plumbing --------------------------------------------------

    def token(self, index: int) -> Token:
        """The token at ``index``, with its file position."""
        line, column = position(self.source, self.starts[index], self.first_line)
        return Token(kind_of(self.keys[index]), self.texts[index], line, column)

    def error(self, message: str, index: int) -> ParseError:
        token = self.token(index)
        return ParseError(message, token.line, token.column)

    def found(self, expected: str, index: int) -> ParseError:
        """``expected, found `token``` at the token at ``index``."""
        return self.error(f"{expected}, found `{self.token(index)}`", index)

    def expect(self, key: str, index: int) -> int:
        """The index past the symbol or keyword ``key`` at ``index``."""
        if self.keys[index] != key:
            raise self.found(f"expected `{key}`", index)
        return index + 1

    def expect_kind(self, kind: str, index: int) -> int:
        """The index past the ``ident`` or ``conid`` at ``index``."""
        if self.keys[index] != kind:
            raise self.found(f"expected {kind}", index)
        return index + 1

    def expect_eof(self) -> None:
        if self.keys[self.position] != "eof":
            token = self.token(self.position)
            raise self.error(f"unexpected trailing input `{token}`", self.position)

    # -- types -----------------------------------------------------------

    def type_(self) -> Type:
        keys, texts = self.keys, self.texts
        pos = self.position
        stack: list[list] = []
        mode = _START
        name = arguments = value = predicate = parenthesised = None
        while True:
            if mode == _START:
                # An optional `forall a b.`, then the first application
                # type, which may turn out to be a class context.
                binders: list[str] = []
                if keys[pos] == "forall" or keys[pos] == "∀":
                    pos += 1
                    while keys[pos] == "ident":
                        binders.append(texts[pos])
                        pos += 1
                    if not binders:
                        raise self.error("forall needs at least one binder", pos)
                    pos = self.expect(".", pos)
                stack.append([_QUALIFIED, binders, None])
                if keys[pos] == "conid":
                    name, arguments = texts[pos], []
                    pos += 1
                else:
                    name = None
                mode = _ATOMS
            elif mode == _ATOMS:
                # Atomic types: the arguments of constructor `name`, or
                # one lone atomic type when `name` is None.
                while True:
                    key = keys[pos]
                    if key == "ident":
                        value = TVar(texts[pos])
                        pos += 1
                    elif key == "conid":
                        value = TCon(texts[pos])
                        pos += 1
                    elif key == "(" and keys[pos + 1] == ")":
                        value = TCon("()")
                        pos += 2
                    elif key == "[" or key == "(":
                        if name is not None:
                            stack.append([_CON_ARGS, name, arguments])
                        stack.append([_LIST_TYPE] if key == "[" else [_TUPLE_TYPE, [], []])
                        pos += 1
                        mode = _START
                        break
                    elif name is None:
                        raise self.found("expected a type", pos)
                    else:
                        value = TCon(name, tuple(arguments))
                        predicate = Pred(name, value.args) if arguments else None
                        parenthesised = None
                        mode = _APP_DONE
                        break
                    if name is None:
                        predicate = parenthesised = None
                        mode = _APP_DONE
                        break
                    arguments.append(value)
            elif mode == _APP_DONE:
                # `value` is an application type: the first of its
                # `type_` may be a context; then an optional `->`.
                frame = stack[-1]
                if frame[2] is None:
                    context = [predicate] if predicate is not None else parenthesised
                    if context and keys[pos] == "=>":
                        frame[2] = context
                        pos += 1
                        if keys[pos] == "conid":
                            name, arguments = texts[pos], []
                            pos += 1
                        else:
                            name = None
                        mode = _ATOMS
                        continue
                    frame[2] = ()
                key = keys[pos]
                if key == "->" or key == "→":
                    stack.append([_RESULT, value])
                    pos += 1
                    mode = _START
                    continue
                stack.pop()
                if frame[1] or frame[2]:
                    value = forall(frame[1], value, frame[2])
                    predicate = None
                mode = _TERM_DONE
            elif mode == _TERM_DONE:
                # `value` is a complete `type_` (`predicate` when it is
                # exactly a class predicate).
                if not stack:
                    self.position = pos
                    return value
                frame = stack.pop()
                tag = frame[0]
                if tag == _RESULT:
                    value = TCon(ARROW, (frame[1], value))
                    predicate = None
                    frame = stack.pop()  # the `_QUALIFIED` of the arrow
                    if frame[1] or frame[2]:
                        value = forall(frame[1], value, frame[2])
                elif tag == _LIST_TYPE:
                    pos = self.expect("]", pos)
                    value = list_of(value)
                    parenthesised = None
                    mode = _ATOM_DONE
                else:  # _TUPLE_TYPE
                    elements, predicates = frame[1], frame[2]
                    elements.append(value)
                    if predicates is not None:
                        if predicate is None:
                            frame[2] = None
                        else:
                            predicates.append(predicate)
                    if keys[pos] == ",":
                        stack.append(frame)
                        pos += 1
                        mode = _START
                        continue
                    pos = self.expect(")", pos)
                    value = elements[0] if len(elements) == 1 else tuple_of(*elements)
                    parenthesised = frame[2]
                    mode = _ATOM_DONE
            else:  # _ATOM_DONE: a bracketed atomic type is complete
                frame = stack[-1]
                if frame[0] == _CON_ARGS:
                    stack.pop()
                    name, arguments = frame[1], frame[2]
                    arguments.append(value)
                    mode = _ATOMS
                else:  # it is the whole application type
                    predicate = None
                    mode = _APP_DONE

    # -- terms -----------------------------------------------------------

    def term(self) -> Term:
        keys, texts = self.keys, self.texts
        pos = self.position
        stack: list[list] = []
        mode = _START
        prefix = True  # a lambda, `let` or `case` may start here
        head = arguments = value = None
        while True:
            if mode == _START:
                key = keys[pos]
                if prefix and key == "\\":
                    pos = self._lambda_binders(pos + 1, stack)
                    continue
                if prefix and key == "let":
                    pos = self.expect_kind("ident", pos + 1)
                    stack.append([_BOUND, texts[pos - 1]])
                    pos = self.expect("=", pos)
                    continue
                if prefix and key == "case":
                    stack.append([_SCRUTINEE])
                    pos += 1
                    continue
                head, arguments = None, []
                mode = _ATOMS
            elif mode == _ATOMS:
                # The atoms of an application; a bracket pushes its frame.
                while True:
                    key = keys[pos]
                    if key == "ident" or key == "conid":
                        value = Var(texts[pos])
                    elif key in _LITERALS:
                        text = texts[pos]
                        if key == "int":
                            value = Lit(int(text))
                        elif key == "bool":
                            value = Lit(text == "True")
                        else:
                            value = Lit(text)
                    elif key == "(" or key == "[":
                        if keys[pos + 1] == ("]" if key == "[" else ")"):
                            value = Var("nil" if key == "[" else "unit")
                            pos += 1
                        else:
                            stack.append([_APPLY, head, arguments])
                            stack.append([_LIST, []] if key == "[" else [_PAREN])
                            pos += 1
                            prefix = True
                            mode = _START
                            break
                    elif head is None:
                        raise self.found("expected a term", pos)
                    else:
                        value = app(head, *arguments) if arguments else head
                        function = _OPERATORS.get(key)
                        if function is None:
                            mode = _TERM_DONE
                        else:
                            stack.append([_OPERAND, value, function])
                            pos += 1
                            prefix = False
                            mode = _START
                        break
                    pos += 1
                    if head is None:
                        head = value
                    else:
                        arguments.append(value)
            elif mode == _TERM_DONE:
                if not stack:
                    self.position = pos
                    return value
                frame = stack.pop()
                tag = frame[0]
                if tag == _OPERAND:
                    value = App(Var(frame[2]), (frame[1], value))
                elif tag == _LAMBDA:
                    for name, annotation in reversed(frame[1]):
                        if annotation is None:
                            value = Lam(name, value)
                        else:
                            value = AnnLam(name, annotation, value)
                elif tag == _BOUND:
                    if keys[pos] != "in":
                        raise self.found("expected `in`", pos)
                    stack.append([_BODY, frame[1], value])
                    pos += 1
                    prefix = True
                    mode = _START
                elif tag == _BODY:
                    value = Let(frame[1], frame[2], value)
                elif tag == _SCRUTINEE:
                    if keys[pos] != "of":
                        raise self.found("expected `of`", pos)
                    pos = self.expect("{", pos + 1)
                    pos = self._alternative(pos, [_ALT, value, []], stack)
                    prefix = True
                    mode = _START
                elif tag == _ALT:
                    frame[2].append(CaseAlt(frame[3], tuple(frame[4]), value))
                    if keys[pos] == ";":
                        pos = self._alternative(pos + 1, frame, stack)
                        prefix = True
                        mode = _START
                    else:
                        pos = self.expect("}", pos)
                        value = Case(frame[1], tuple(frame[2]))
                elif tag == _LIST or tag == _TUPLE:
                    elements = frame[1]
                    elements.append(value)
                    if keys[pos] == ",":
                        stack.append(frame)
                        pos += 1
                        prefix = True
                        mode = _START
                    elif tag == _LIST:
                        pos = self.expect("]", pos)
                        value = Var("nil")
                        for element in reversed(elements):
                            value = App(Var("cons"), (element, value))
                        mode = _ATOM_DONE
                    else:
                        pos = self.expect(")", pos)
                        value = App(Var("pair"), tuple(elements))
                        mode = _ATOM_DONE
                else:  # _PAREN
                    key = keys[pos]
                    if key == "::":
                        self.position = pos + 1
                        value = Ann(value, self.type_())
                        pos = self.expect(")", self.position)
                        mode = _ATOM_DONE
                    elif key == ",":
                        stack.append([_TUPLE, [value]])
                        pos += 1
                        prefix = True
                        mode = _START
                    else:
                        pos = self.expect(")", pos)
                        mode = _ATOM_DONE
            else:  # _ATOM_DONE: a bracketed atom goes to its application
                _, head, arguments = stack.pop()
                if head is None:
                    head = value
                else:
                    arguments.append(value)
                mode = _ATOMS

    def _lambda_binders(self, pos: int, stack: list[list]) -> int:
        """Parse lambda binders and the arrow after ``\\``; push the frame."""
        keys = self.keys
        binders: list[tuple[str, Type | None]] = []
        while True:
            key = keys[pos]
            if key == "ident":
                binders.append((self.texts[pos], None))
                pos += 1
            elif key == "(" and keys[pos + 1] == "ident":
                name = self.texts[pos + 1]
                self.position = self.expect("::", pos + 2)
                annotation = self.type_()
                pos = self.expect(")", self.position)
                binders.append((name, annotation))
            else:
                break
        if not binders:
            raise self.error("lambda needs at least one binder", pos)
        key = keys[pos]
        if key != "." and key != "->" and key != "→":
            raise self.found("expected `.` or `->` after lambda binders", pos)
        stack.append([_LAMBDA, binders])
        return pos + 1

    def _alternative(self, pos: int, frame: list, stack: list[list]) -> int:
        """Parse ``K x1 .. xn ->`` of a case alternative into ``frame``."""
        keys, texts = self.keys, self.texts
        constructor = texts[pos]
        pos = self.expect_kind("conid", pos)
        binders: list[str] = []
        while keys[pos] == "ident":
            binders.append(texts[pos])
            pos += 1
        pos = self.expect("->", pos)
        frame[3:] = (constructor, binders)
        stack.append(frame)
        return pos


def parse_term(source: str) -> Term:
    """Parse a complete term."""
    parser = _Parser(source)
    term = parser.term()
    parser.expect_eof()
    return term


def parse_type(source: str) -> Type:
    """Parse a complete type."""
    parser = _Parser(source)
    type_ = parser.type_()
    parser.expect_eof()
    return type_
