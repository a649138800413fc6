"""The unifier's per-node summaries: free unification variables (by name,
first-occurrence order) with their deepest level, free rigid names, and
whether a quantifier occurs.

Each summary is built once from the children's summaries, so these tests
check it against the walks of ``repro.core.types`` on shared (DAG) and
shadowing types, check that the store's set of solved names keeps the
cleanliness test exact while the store changes, and check that the
checks of ``bind`` still see variables inside a suffix summarised before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.strategies import CON_NAMES, TVAR_NAMES, polytypes
from repro.core.errors import (
    GIError,
    InternalError,
    OccursCheckError,
    SkolemEscapeError,
    SortError,
)
from repro.core.sorts import Sort
from repro.core.types import (
    BOOL,
    INT,
    Forall,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    ftv,
    fun,
    fuv,
    list_of,
    mentions_forall,
)
from repro.core.unify import Unifier

# One name, one variable: the unifier keys its summaries by name.
SPECS = {"u1": (Sort.U, 0), "u2": (Sort.M, 1), "u3": (Sort.T, 2), "u4": (Sort.U, 3)}


def variable(name: str) -> UVar:
    # A new object each time: equal variables built twice are one variable.
    return UVar(name, *SPECS[name])


def mixed_types() -> st.SearchStrategy[Type]:
    """Types with unification variables, nodes reached twice, binders
    that shadow an enclosing binder, and class contexts."""
    base = st.one_of(
        st.sampled_from(TVAR_NAMES).map(TVar),
        st.sampled_from(CON_NAMES).map(TCon),
        st.sampled_from(sorted(SPECS)).map(variable),
    )
    binders = st.lists(st.sampled_from(TVAR_NAMES), min_size=1, max_size=2, unique=True)

    def extend(inner: st.SearchStrategy[Type]) -> st.SearchStrategy[Type]:
        return st.one_of(
            st.tuples(inner, inner).map(lambda pair: fun(*pair)),
            inner.map(lambda shared: TCon("(,)", (shared, shared))),
            st.tuples(binders, inner).map(lambda pair: Forall(tuple(pair[0]), pair[1])),
            st.tuples(binders, inner, inner).map(
                lambda triple: Forall(
                    tuple(triple[0]), triple[2], (Pred("Eq", (triple[1],)),)
                )
            ),
        )

    return st.recursive(base, extend, max_leaves=12)


TYPES = st.one_of(polytypes(), mixed_types())


@settings(max_examples=300, deadline=None)
@given(st.lists(TYPES, min_size=1, max_size=4))
def test_summaries_equal_the_free_variable_walks_in_order(batch):
    unifier = Unifier()
    # Later types are built on nodes the earlier queries summarised.
    for type_ in batch + [fun(*batch) if len(batch) > 1 else list_of(batch[0])]:
        assert unifier.fuv_of(type_) == tuple(fuv(type_))
        assert unifier.ftv_of(type_) == tuple(ftv(type_))
        _, _, level, _, poly = unifier._summary(type_)
        assert level == max((inner.level for inner in fuv(type_)), default=-1)
        assert poly is mentions_forall(type_)


# -- cleanliness while the store changes --------------------------------

POOL = [UVar(f"p{index}", Sort.U, 0) for index in range(5)]

pool_types = st.recursive(
    st.one_of(st.sampled_from(POOL), st.just(INT), st.just(BOOL)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda pair: fun(*pair)),
        inner.map(list_of),
        inner.map(lambda shared: TCon("(,)", (shared, shared))),
    ),
    max_leaves=6,
)
steps = st.tuples(
    st.sampled_from(("bind", "assign")), st.sampled_from(POOL), pool_types
)


def reference_clean(unifier: Unifier, type_: Type) -> bool:
    """Scan the store's name-keyed tables: no free variable of the type
    is solved."""
    return all(
        inner.name not in unifier._parent and inner.name not in unifier._binding
        for inner in fuv(type_)
    )


def reference_zonk(unifier: Unifier, type_: Type) -> Type:
    """Follow the store's tables by name, without the solved set."""
    if isinstance(type_, UVar):
        image = unifier._parent.get(type_.name, unifier._binding.get(type_.name))
        return type_ if image is None else reference_zonk(unifier, image)
    if isinstance(type_, TCon):
        return TCon(type_.name, tuple(reference_zonk(unifier, a) for a in type_.args))
    return type_


def apply(unifier: Unifier, kind: str, target: UVar, image: Type) -> None:
    """One store step on an unsolved variable, as the solver makes them;
    an unchecked step that would make a cycle is skipped."""
    root = unifier._find(target)
    if root.name in unifier._binding:
        return
    if kind == "bind":
        try:
            unifier.bind(target, image)
        except GIError:
            pass
        return
    if root in fuv(unifier.zonk(image)):
        return
    unifier.assign(target, image)


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=10), st.lists(pool_types, min_size=1, max_size=4))
def test_is_clean_agrees_with_a_scan_of_the_store(store_steps, probes):
    unifier = Unifier()
    for probe in probes:  # summarised before the store changes
        assert unifier._is_clean(probe)
    for kind, target, image in store_steps:
        apply(unifier, kind, target, image)
        # All three tables key by name: solved means parented or bound.
        assert unifier._solved == unifier._parent.keys() | unifier._binding.keys()
        for probe in probes:
            assert unifier._is_clean(probe) == reference_clean(unifier, probe)


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=10), st.lists(pool_types, min_size=1, max_size=4))
def test_zonk_after_each_step_reflects_the_store(store_steps, probes):
    unifier = Unifier()
    for kind, target, image in store_steps:
        for probe in probes:  # zonked before the step as well as after
            unifier.zonk(probe)
        apply(unifier, kind, target, image)
        for probe in probes:
            assert unifier.zonk(probe) == reference_zonk(unifier, probe)


def test_zonk_sees_a_binding_made_after_an_earlier_zonk():
    a, b = UVar("a"), UVar("b")
    shared = list_of(b)
    type_ = fun(a, fun(shared, shared))
    unifier = Unifier()
    unifier.unify(a, INT)
    first = unifier.zonk(type_)
    assert first == fun(INT, fun(list_of(b), list_of(b)))
    assert unifier.zonk(type_) is first
    unifier.unify(b, BOOL)
    assert unifier.zonk(type_) == fun(INT, fun(list_of(BOOL), list_of(BOOL)))


# -- the checks of bind on already-summarised suffixes ------------------


def test_occurs_check_sees_into_a_summarised_suffix():
    a, b = UVar("a"), UVar("b")
    suffix = fun(b, list_of(a))
    unifier = Unifier()
    assert unifier.fuv_of(suffix) == (b, a)
    with pytest.raises(OccursCheckError):
        unifier.bind(a, fun(INT, suffix))


def test_promotion_sees_into_a_summarised_suffix():
    outer, deep = UVar("o", Sort.U, 0), UVar("d", Sort.U, 2)
    suffix = fun(INT, list_of(deep))
    unifier = Unifier()
    assert unifier.fuv_of(suffix) == (deep,)
    unifier.bind(outer, fun(BOOL, suffix))
    promoted = unifier.zonk(deep)
    assert isinstance(promoted, UVar) and promoted.level == 0
    assert unifier.zonk(outer) == fun(BOOL, fun(INT, list_of(promoted)))


def test_skolem_escape_sees_into_a_summarised_suffix():
    unifier = Unifier()
    skolem = unifier.fresh_skolem("s", 1)
    suffix = fun(INT, TVar(skolem))
    assert unifier.ftv_of(suffix) == (skolem,)
    with pytest.raises(SkolemEscapeError):
        unifier.bind(UVar("o", Sort.U, 0), fun(BOOL, suffix))


def test_sort_check_sees_a_quantifier_in_a_summarised_suffix():
    # m := [∀a. a → a] is rule eqfully's rejection, read from the summary.
    a = TVar("a")
    poly = list_of(Forall(("a",), fun(a, a)))
    unifier = Unifier()
    assert unifier.fuv_of(poly) == ()
    with pytest.raises(SortError):
        unifier.bind(UVar("m", Sort.M), poly)
    with pytest.raises(SortError):
        unifier.bind(UVar("n", Sort.M), fun(INT, poly))


def test_promotion_reads_the_image_demotion_rebuilt():
    outer, deep = UVar("o", Sort.M, 0), UVar("d", Sort.U, 2)
    unifier = Unifier()
    unifier.bind(outer, fun(INT, list_of(deep)))
    resolved = unifier.zonk(deep)
    assert isinstance(resolved, UVar)
    assert (resolved.sort, resolved.level) == (Sort.M, 0)
    assert unifier.zonk(outer) == fun(INT, list_of(resolved))


# -- one name, one variable ---------------------------------------------


def test_equal_variables_built_twice_are_one_variable():
    assert Unifier().fuv_of(fun(UVar("x"), UVar("x"))) == (UVar("x"),)


def test_two_variables_with_one_name_are_an_internal_error():
    with pytest.raises(InternalError):
        Unifier().fuv_of(fun(UVar("x"), UVar("x", Sort.M)))


def test_a_name_reused_across_queries_is_an_internal_error():
    unifier = Unifier()
    unifier.fuv_of(list_of(UVar("x")))
    with pytest.raises(InternalError):
        unifier.fuv_of(list_of(UVar("x", Sort.U, 1)))
