"""Pretty printer for terms and types (inverse of the parser)."""

from __future__ import annotations

from repro.core.terms import (
    Ann,
    AnnLam,
    App,
    Case,
    Lam,
    Let,
    Lit,
    Term,
    Var,
    drive,
)
from repro.core.types import Type, render_type

_ATOM, _APP, _TOP = 2, 1, 0

# Applications of these prelude functions print back as the operators the
# parser desugars them from.
_INFIX = {"cons": ":", "append": "++", "$": "$"}


def pretty_type(type_: Type) -> str:
    """Render a type in surface syntax."""
    return render_type(type_)


def pretty_term(term: Term, precedence: int = _TOP) -> str:
    """Render a term in surface syntax."""
    return drive(_pretty(term, precedence))


def _pretty(term: Term, precedence: int):
    """A leaf's text, or the walk that renders any other node."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Lit):
        if isinstance(term.value, bool):
            return "True" if term.value else "False"
        if isinstance(term.value, str) and len(term.value) == 1:
            return f"'{term.value}'"
        if isinstance(term.value, str):
            return f'"{term.value}"'
        return str(term.value)
    return _pretty_node(term, precedence)


def _pretty_node(term: Term, precedence: int):
    if isinstance(term, App):
        if (
            isinstance(term.head, Var)
            and term.head.name in _INFIX
            and len(term.args) == 2
        ):
            symbol = _INFIX[term.head.name]
            left = yield _pretty(term.args[0], _ATOM)
            right = yield _pretty(term.args[1], _APP)
            rendered = f"{left} {symbol} {right}"
            return f"({rendered})" if precedence >= _APP else rendered
        pieces = [(yield _pretty(term.head, _ATOM))]
        for argument in term.args:
            pieces.append((yield _pretty(argument, _ATOM)))
        rendered = " ".join(pieces)
        return f"({rendered})" if precedence >= _ATOM else rendered
    if isinstance(term, (Lam, AnnLam)):
        binders: list[str] = []
        body: Term = term
        while isinstance(body, (Lam, AnnLam)):
            if isinstance(body, Lam):
                binders.append(body.var)
            else:
                binders.append(f"({body.var} :: {pretty_type(body.annotation)})")
            body = body.body
        body_text = yield _pretty(body, _TOP)
        rendered = f"\\{' '.join(binders)} -> {body_text}"
        return f"({rendered})" if precedence > _TOP else rendered
    if isinstance(term, Ann):
        expr = yield _pretty(term.expr, _TOP)
        return f"({expr} :: {pretty_type(term.annotation)})"
    if isinstance(term, Let):
        bound = yield _pretty(term.bound, _TOP)
        body = yield _pretty(term.body, _TOP)
        rendered = f"let {term.var} = {bound} in {body}"
        return f"({rendered})" if precedence > _TOP else rendered
    if isinstance(term, Case):
        scrutinee = yield _pretty(term.scrutinee, _TOP)
        rendered_alts = []
        for alt in term.alts:
            rhs = yield _pretty(alt.rhs, _TOP)
            rendered_alts.append(
                f"{alt.constructor}"
                + ("" if not alt.binders else " " + " ".join(alt.binders))
                + f" -> {rhs}"
            )
        rendered = f"case {scrutinee} of {{ {' ; '.join(rendered_alts)} }}"
        return f"({rendered})" if precedence > _TOP else rendered
    raise TypeError(f"unknown term node: {term!r}")
