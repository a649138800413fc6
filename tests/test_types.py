"""Unit and property tests for the type AST (Figures 3 and 6)."""

import pytest
from hypothesis import given

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
    alpha_equal,
    arrow_parts,
    contains_uvar,
    forall,
    ftv,
    fun,
    fuv,
    is_arrow,
    is_fully_monomorphic,
    is_rank1,
    list_of,
    rename_canonical,
    respects,
    sort_of,
    split_arrows,
    strip_forall,
    subst_tvars,
    subst_uvars,
    tuple_of,
    type_size,
)

from repro.conformance.strategies import monotypes, polytypes

A, B, C = TVar("a"), TVar("b"), TVar("c")
ID = forall(["a"], fun(A, A))


class TestConstruction:
    def test_fun_right_nests(self):
        assert fun(A, B, C) == TCon("->", (A, TCon("->", (B, C))))

    def test_fun_needs_a_type(self):
        with pytest.raises(ValueError):
            fun()

    def test_list_of(self):
        assert list_of(INT) == TCon("[]", (INT,))

    def test_tuple_of(self):
        assert tuple_of(INT, BOOL) == TCon("(,)", (INT, BOOL))
        with pytest.raises(ValueError):
            tuple_of(INT)

    def test_forall_collapses_nested(self):
        inner = Forall(("b",), fun(A, B))
        assert forall(["a"], inner) == Forall(("a", "b"), fun(A, B))

    def test_forall_drops_unused_binders(self):
        assert forall(["a", "z"], fun(A, A)) == Forall(("a",), fun(A, A))

    def test_forall_empty_is_identity(self):
        assert forall([], INT) == INT

    def test_forall_keeps_context_binders(self):
        qualified = forall(["a"], BOOL, [Pred("Eq", (A,))])
        assert isinstance(qualified, Forall)
        assert qualified.binders == ("a",)

    def test_forall_context_only(self):
        qualified = forall([], BOOL, [Pred("C", (INT,))])
        assert isinstance(qualified, Forall)
        assert qualified.binders == ()

    def test_arrow_helpers(self):
        arrow = fun(INT, BOOL)
        assert is_arrow(arrow)
        assert arrow_parts(arrow) == (INT, BOOL)
        assert not is_arrow(INT)
        with pytest.raises(ValueError):
            arrow_parts(INT)

    def test_split_arrows(self):
        arguments, result = split_arrows(fun(A, B, C))
        assert arguments == [A, B] and result == C
        arguments, result = split_arrows(fun(A, B, C), limit=1)
        assert arguments == [A] and result == fun(B, C)

    def test_strip_forall(self):
        assert strip_forall(ID) == (("a",), fun(A, A))
        assert strip_forall(INT) == ((), INT)


class TestFreeVariables:
    def test_ftv_simple(self):
        assert ftv(fun(A, B)) == {"a", "b"}

    def test_ftv_bound_removed(self):
        assert ftv(ID) == set()

    def test_ftv_shadowing(self):
        type_ = fun(A, forall(["a"], fun(A, B)))
        assert ftv(type_) == {"a", "b"}

    def test_ftv_context(self):
        qualified = Forall(("a",), A, (Pred("Eq", (B,)),))
        assert ftv(qualified) == {"b"}

    def test_fuv(self):
        alpha = UVar("x", Sort.U)
        assert fuv(fun(alpha, list_of(alpha))) == {alpha}
        assert fuv(ID) == set()

    @given(polytypes())
    def test_forall_summaries_match_the_walk(self, type_):
        # ``forall`` records each result's free variables and ``ftv``
        # answers from that record; the order must be the walk's.
        wrapped = fun(forall(["a", "c"], fun(type_, A), [Pred("Eq", (B,))]), type_, C)
        wrapped = forall(["b"], wrapped)
        for candidate in (type_, wrapped):
            assert list(ftv(candidate)) == list(ftv(_unsummarised(candidate)))


def _unsummarised(type_: Type) -> Type:
    """The same type from the plain constructors, which record no free
    variables, so ``ftv`` walks all of it."""
    if isinstance(type_, TCon):
        return TCon(type_.name, tuple(map(_unsummarised, type_.args)))
    if isinstance(type_, Forall):
        context = tuple(
            Pred(p.class_name, tuple(map(_unsummarised, p.args))) for p in type_.context
        )
        return Forall(type_.binders, _unsummarised(type_.body), context)
    return type_


class TestSubstitution:
    def test_subst_tvar(self):
        assert subst_tvars({"a": INT}, fun(A, B)) == fun(INT, B)

    def test_subst_respects_binding(self):
        assert subst_tvars({"a": INT}, ID) == ID

    def test_subst_capture_avoiding(self):
        # [b ↦ a] (∀a. a → b) must rename the binder, not capture.
        target = forall(["a"], fun(A, B))
        result = subst_tvars({"b": A}, target)
        assert isinstance(result, Forall)
        binder = result.binders[0]
        assert binder != "a"
        assert result.body == fun(TVar(binder), A)

    def test_subst_empty_mapping_is_identity(self):
        assert subst_tvars({}, ID) is ID

    def test_subst_uvars(self):
        alpha = UVar("x", Sort.U)
        assert subst_uvars({alpha: INT}, fun(alpha, A)) == fun(INT, A)

    @given(polytypes())
    def test_subst_identity_mapping(self, type_):
        mapping = {name: TVar(name) for name in ftv(type_)}
        assert subst_tvars(mapping, type_) == type_


class TestSorts:
    def test_respects_u_always(self):
        assert respects(ID, Sort.U)
        assert respects(INT, Sort.U)

    def test_respects_t(self):
        assert respects(list_of(ID), Sort.T)  # poly under constructor
        assert not respects(ID, Sort.T)  # top-level quantifier
        assert not respects(UVar("x", Sort.U), Sort.T)
        assert respects(UVar("x", Sort.T), Sort.T)

    def test_respects_m(self):
        assert respects(fun(INT, A), Sort.M)
        assert not respects(list_of(ID), Sort.M)
        assert not respects(UVar("x", Sort.T), Sort.M)
        assert respects(UVar("x", Sort.M), Sort.M)

    def test_sort_of(self):
        assert sort_of(INT) is Sort.M
        assert sort_of(list_of(ID)) is Sort.T
        assert sort_of(ID) is Sort.U

    @given(monotypes())
    def test_monotypes_are_m(self, type_):
        assert is_fully_monomorphic(type_)

    @given(polytypes())
    def test_sort_of_is_minimal(self, type_):
        sort = sort_of(type_)
        assert respects(type_, sort)
        for smaller in Sort:
            if smaller < sort:
                assert not respects(type_, smaller)

    def test_is_rank1(self):
        assert is_rank1(ID)
        assert is_rank1(INT)
        assert not is_rank1(forall(["a"], fun(ID, A)))
        assert not is_rank1(list_of(ID))


class TestAlphaEquality:
    def test_binder_names_irrelevant(self):
        left = forall(["a"], fun(A, A))
        right = forall(["b"], fun(B, B))
        assert alpha_equal(left, right)

    def test_quantifier_order_matters(self):
        # Section 2.4: ∀a b. a → b → b is NOT equal to ∀b a. a → b → b.
        left = Forall(("a", "b"), fun(A, B, B))
        right = Forall(("b", "a"), fun(A, B, B))
        assert not alpha_equal(left, right)

    def test_free_variables_by_name(self):
        assert alpha_equal(fun(A, B), fun(A, B))
        assert not alpha_equal(fun(A, B), fun(B, A))

    def test_nested(self):
        left = list_of(forall(["a"], fun(A, A)))
        right = list_of(forall(["c"], fun(C, C)))
        assert alpha_equal(left, right)

    def test_free_vs_bound(self):
        assert not alpha_equal(forall(["a"], fun(A, B)), forall(["a"], fun(A, A)))

    @given(polytypes())
    def test_reflexive(self, type_):
        assert alpha_equal(type_, type_)

    @given(polytypes())
    def test_canonical_rename_preserves_alpha(self, type_):
        assert alpha_equal(type_, rename_canonical(type_))

    @given(polytypes(), polytypes())
    def test_symmetric(self, left, right):
        assert alpha_equal(left, right) == alpha_equal(right, left)


class TestMisc:
    def test_type_size(self):
        assert type_size(INT) == 1
        assert type_size(fun(A, B)) == 3
        assert type_size(ID) == 4

    def test_contains_uvar(self):
        alpha = UVar("x", Sort.M)
        assert contains_uvar(list_of(alpha), alpha)
        assert not contains_uvar(list_of(A), alpha)

    def test_render(self):
        assert str(fun(INT, BOOL)) == "Int -> Bool"
        assert str(ID) == "forall a. a -> a"
        assert str(list_of(ID)) == "[forall a. a -> a]"
        assert str(fun(fun(A, B), C)) == "(a -> b) -> c"
        assert str(tuple_of(INT, BOOL)) == "(Int, Bool)"
        assert str(TCon("ST", (A, B))) == "ST a b"

    def test_render_qualified(self):
        qualified = forall(["a"], fun(A, BOOL), [Pred("Eq", (A,))])
        assert str(qualified) == "forall a. Eq a => a -> Bool"
