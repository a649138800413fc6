"""Type erasure: System F terms back to untyped source terms.

Erasing an elaborated program and the original source program yields
β-equivalent terms, so the interpreter (:mod:`repro.interp`) can be used
to confirm that elaboration preserves runtime behaviour.
"""

from __future__ import annotations

from repro.core.terms import Case, CaseAlt, Lam, Let, Lit, Term, Var, app, drive
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


def erase(term: FTerm) -> Term:
    """Drop all type abstractions, type applications and annotations."""
    return drive(_erase(term))


def _erase(term: FTerm):
    if isinstance(term, FVar):
        return Var(term.name)
    if isinstance(term, FLit):
        return Lit(term.value)
    return _erase_node(term)


def _erase_node(term: FTerm):
    if isinstance(term, FLam):
        return Lam(term.var, (yield _erase(term.body)))
    if isinstance(term, FTyLam):
        return (yield _erase(term.body))
    if isinstance(term, FTyApp):
        return (yield _erase(term.fn))
    if isinstance(term, FApp):
        fn = yield _erase(term.fn)
        return app(fn, (yield _erase(term.arg)))
    if isinstance(term, FLet):
        bound = yield _erase(term.bound)
        return Let(term.var, bound, (yield _erase(term.body)))
    if isinstance(term, FCase):
        scrutinee = yield _erase(term.scrutinee)
        alts = []
        for alt in term.alts:
            alts.append(CaseAlt(alt.constructor, alt.binders, (yield _erase(alt.rhs))))
        return Case(scrutinee, tuple(alts))
    raise TypeError(f"unknown System F term: {term!r}")
