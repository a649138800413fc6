"""Hypothesis strategies for types and terms.

They live in the package so they are importable outside pytest (the
conformance CLI and the seeded generator share the same name pools).
Requires ``hypothesis`` — the seeded CLI generator in
:mod:`repro.conformance.generator` deliberately does not, so this module
is imported lazily by the package.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.sorts import Sort
from repro.core.terms import App, Lam, Lit, Term, Var, app
from repro.core.types import (
    BOOL,
    INT,
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    forall,
    fun,
    list_of,
)

TVAR_NAMES = ("a", "b", "c", "d")
UVAR_NAMES = ("u1", "u2", "u3")
CON_NAMES = ("Int", "Bool", "Char")


def monotypes(max_depth: int = 3) -> st.SearchStrategy[Type]:
    """Fully monomorphic types (sort ``m``)."""
    base = st.one_of(
        st.sampled_from(TVAR_NAMES).map(TVar),
        st.sampled_from(CON_NAMES).map(lambda n: TCon(n)),
        st.sampled_from(UVAR_NAMES).map(lambda n: UVar(n, Sort.M)),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda pair: fun(*pair)),
            inner.map(list_of),
        ),
        max_leaves=2 ** max_depth,
    )


def polytypes(max_depth: int = 3) -> st.SearchStrategy[Type]:
    """Arbitrary polymorphic types built with the smart constructor."""
    base = st.one_of(
        st.sampled_from(TVAR_NAMES).map(TVar),
        st.sampled_from(CON_NAMES).map(lambda n: TCon(n)),
    )

    def extend(inner: st.SearchStrategy[Type]) -> st.SearchStrategy[Type]:
        return st.one_of(
            st.tuples(inner, inner).map(lambda pair: fun(*pair)),
            inner.map(list_of),
            st.tuples(
                st.lists(st.sampled_from(TVAR_NAMES), min_size=1, max_size=2, unique=True),
                inner,
            ).map(lambda pair: forall(pair[0], pair[1])),
        )

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


def closed_polytypes(max_depth: int = 3) -> st.SearchStrategy[Type]:
    """Polytypes without free type variables (quantify what is free)."""
    return polytypes(max_depth).map(_close)


def _close(type_: Type) -> Type:
    from repro.core.types import ftv

    return forall(sorted(ftv(type_)), type_)


VAR_POOL = ("x", "y", "z", "f", "g")


def hm_terms(depth: int = 3) -> st.SearchStrategy[Term]:
    """Terms in the rank-1 λ-calculus fragment over a tiny prelude.

    Variables may be free (resolved against the shared prelude) or bound.
    Used by the Theorem 3.1 compatibility tests.
    """
    base = st.one_of(
        st.sampled_from(("inc", "plus", "choose", "single", "length") + VAR_POOL).map(Var),
        st.integers(min_value=0, max_value=9).map(Lit),
        st.booleans().map(Lit),
    )

    def extend(inner: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        return st.one_of(
            st.tuples(st.sampled_from(VAR_POOL), inner).map(lambda p: Lam(p[0], p[1])),
            st.tuples(inner, st.lists(inner, min_size=1, max_size=2)).map(
                lambda p: app(p[0], *p[1])
            ),
        )

    return st.recursive(base, extend, max_leaves=2 ** depth)
