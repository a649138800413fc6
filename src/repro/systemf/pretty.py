"""Pretty printer for System F terms."""

from __future__ import annotations

from repro.core.terms import drive
from repro.core.types import render_type
from repro.systemf.ast import (
    FApp,
    FCase,
    FLam,
    FLet,
    FLit,
    FTerm,
    FTyApp,
    FTyLam,
    FVar,
)

_ATOM, _TOP = 1, 0


def pretty_fterm(term: FTerm, precedence: int = _TOP) -> str:
    """Render a System F term with explicit type abstractions/applications."""
    return drive(_pretty(term, precedence))


def _pretty(term: FTerm, precedence: int):
    if isinstance(term, FVar):
        return term.name
    if isinstance(term, FLit):
        if isinstance(term.value, bool):
            return "True" if term.value else "False"
        if isinstance(term.value, str) and len(term.value) == 1:
            return f"'{term.value}'"
        return str(term.value)
    return _pretty_node(term, precedence)


def _pretty_node(term: FTerm, precedence: int):
    if isinstance(term, FLam):
        body = yield _pretty(term.body, _TOP)
        rendered = f"\\({term.var} :: {render_type(term.annotation)}) -> {body}"
        return f"({rendered})" if precedence > _TOP else rendered
    if isinstance(term, FTyLam):
        body = yield _pretty(term.body, _TOP)
        rendered = f"/\\{' '.join(term.binders)} -> {body}"
        return f"({rendered})" if precedence > _TOP else rendered
    if isinstance(term, FApp):
        fn = yield _pretty(term.fn, _ATOM)
        arg = yield _pretty(term.arg, _ATOM)
        rendered = f"{fn} {arg}"
        return f"({rendered})" if precedence >= _ATOM else rendered
    if isinstance(term, FTyApp):
        fn = yield _pretty(term.fn, _ATOM)
        types = " ".join(f"@({render_type(t)})" for t in term.types)
        rendered = f"{fn} {types}"
        return f"({rendered})" if precedence >= _ATOM else rendered
    if isinstance(term, FLet):
        bound = yield _pretty(term.bound, _TOP)
        body = yield _pretty(term.body, _TOP)
        rendered = (
            f"let {term.var} :: {render_type(term.annotation)} = {bound} in {body}"
        )
        return f"({rendered})" if precedence > _TOP else rendered
    if isinstance(term, FCase):
        scrutinee = yield _pretty(term.scrutinee, _TOP)
        alts = []
        for alt in term.alts:
            rhs = yield _pretty(alt.rhs, _TOP)
            alts.append(
                alt.constructor
                + "".join(f" @{b}" for b in alt.type_binders)
                + "".join(f" {b}" for b in alt.binders)
                + f" -> {rhs}"
            )
        rendered = f"case {scrutinee} of {{ {' ; '.join(alts)} }}"
        return f"({rendered})" if precedence > _TOP else rendered
    raise TypeError(f"unknown System F term: {term!r}")
