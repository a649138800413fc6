"""``subst_tvars``: simultaneous, capture-avoiding substitution, checked
against a rename-apart-then-substitute reference; and the identity the
substitution walk preserves on untouched input."""

from itertools import count
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.strategies import TVAR_NAMES, polytypes
from repro.core.sorts import Sort
from repro.core.types import (
    INT,
    Forall,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    alpha_equal,
    ftv,
    fun,
    open_forall,
    subst_tvars,
    subst_uvars,
)


def reference(mapping: Mapping[str, Type], type_: Type) -> Type:
    """Rename every binder apart to a globally fresh name, then substitute
    naively: with no binder left that a key or an image could mention,
    nothing can be shadowed or captured."""
    supply = (f"fresh{index}" for index in count())

    def rename(node: Type, env: Mapping[str, str]) -> Type:
        if isinstance(node, TVar):
            return TVar(env.get(node.name, node.name))
        if isinstance(node, TCon):
            return TCon(node.name, tuple(rename(argument, env) for argument in node.args))
        if isinstance(node, Forall):
            inner = dict(env)
            binders = []
            for binder in node.binders:
                inner[binder] = next(supply)
                binders.append(inner[binder])
            context = tuple(
                Pred(p.class_name, tuple(rename(argument, inner) for argument in p.args))
                for p in node.context
            )
            return Forall(tuple(binders), rename(node.body, inner), context)
        return node

    def naive(node: Type) -> Type:
        if isinstance(node, TVar):
            return mapping.get(node.name, node)
        if isinstance(node, TCon):
            return TCon(node.name, tuple(naive(argument) for argument in node.args))
        if isinstance(node, Forall):
            context = tuple(
                Pred(p.class_name, tuple(naive(argument) for argument in p.args))
                for p in node.context
            )
            return Forall(node.binders, naive(node.body), context)
        return node

    return naive(rename(type_, {}))


def test_fresh_binder_name_that_is_also_a_key_is_not_substituted_again():
    # Renaming the binder ``a`` apart from the image ``a`` picks ``a1``,
    # which the mapping also sends to Int; the substitution is
    # simultaneous, so the renamed bound occurrence must stay ``a1``.
    a, x = TVar("a"), TVar("x")
    result = subst_tvars({"x": a, "a1": INT}, Forall(("a",), fun(a, x)))
    assert alpha_equal(result, Forall(("a1",), fun(TVar("a1"), a)))
    assert str(result) == "forall a1. a1 -> a"


# Keys beyond ``TVAR_NAMES`` are the names renaming apart draws first.
_KEYS = TVAR_NAMES + tuple(f"{name}1" for name in TVAR_NAMES)


@settings(max_examples=400, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_KEYS), polytypes(2).filter(lambda image: bool(ftv(image)))
    ),
    polytypes(),
)
def test_matches_rename_apart_reference(mapping, type_):
    assert alpha_equal(subst_tvars(mapping, type_), reference(mapping, type_))


@settings(max_examples=200, deadline=None)
@given(polytypes())
def test_untouched_input_is_returned_as_is(type_):
    assert subst_tvars({"zz": INT}, type_) is type_
    assert subst_uvars({}, type_) is type_
    assert subst_uvars({UVar("zz", Sort.M): INT}, type_) is type_


def test_open_forall_substitutes_context_and_body_in_one_walk():
    a, b = TVar("a"), TVar("b")
    scheme = Forall(("a", "b"), fun(a, b), (Pred("Eq", (a,)), Pred("Show", (b, a))))
    u, v = UVar("u1", Sort.U), UVar("u2", Sort.U)
    context, body = open_forall(scheme, [u, v])
    assert context == (Pred("Eq", (u,)), Pred("Show", (v, u)))
    assert body == fun(u, v)
    assert open_forall(INT, []) == ((), INT)
