"""Tests for sort- and level-aware unification (the equality rules of
Figure 8 plus float/promotion of Figure 10)."""

import gc
import weakref

import pytest
from hypothesis import given

from repro.core.errors import (
    GIError,
    InternalError,
    OccursCheckError,
    SkolemEscapeError,
    SortError,
    UnificationError,
)
from repro.core.names import NameSupply
from repro.core.sorts import Sort
from repro.core.types import (
    BOOL,
    INT,
    Forall,
    Pred,
    TCon,
    TVar,
    UVar,
    alpha_equal,
    forall,
    fun,
    fuv,
    list_of,
)
from repro.core.unify import Unifier

from tests.strategies import monotypes, polytypes

A, B = TVar("a"), TVar("b")
ID = forall(["a"], fun(A, A))


def uvar(name: str, sort: Sort = Sort.U, level: int = 0) -> UVar:
    return UVar(name, sort, level)


class TestStructural:
    def test_eqrefl(self):
        unifier = Unifier()
        unifier.unify(INT, INT)
        assert not unifier._parent and not unifier._binding

    def test_eqmono_decomposes(self):
        unifier = Unifier()
        alpha, beta = uvar("x"), uvar("y")
        unifier.unify(fun(alpha, beta), fun(INT, BOOL))
        assert unifier.zonk(alpha) == INT
        assert unifier.zonk(beta) == BOOL

    def test_constructor_mismatch(self):
        with pytest.raises(UnificationError):
            Unifier().unify(INT, BOOL)

    def test_arity_mismatch(self):
        with pytest.raises(UnificationError):
            Unifier().unify(TCon("T", (INT,)), TCon("T", (INT, BOOL)))

    def test_mismatch_message_shows_zonked_sides(self):
        # Frames resolve only heads; the message still shows solved
        # variables inside the failing types.
        unifier = Unifier()
        alpha, beta = uvar("x"), uvar("y")
        unifier.unify(alpha, fun(INT, beta))
        unifier.unify(beta, BOOL)
        with pytest.raises(UnificationError) as error:
            unifier.unify(list_of(alpha), list_of(ID))
        assert "`Int -> Bool`" in str(error.value)

    def test_rigid_variables_only_match_themselves(self):
        Unifier().unify(A, A)
        with pytest.raises(UnificationError):
            Unifier().unify(A, B)
        with pytest.raises(UnificationError):
            Unifier().unify(A, INT)

    def test_occurs_check(self):
        unifier = Unifier()
        alpha = uvar("x")
        with pytest.raises(OccursCheckError):
            unifier.unify(alpha, list_of(alpha))

    def test_occurs_check_through_substitution(self):
        unifier = Unifier()
        alpha, beta = uvar("x"), uvar("y")
        unifier.unify(alpha, list_of(beta))
        with pytest.raises(OccursCheckError):
            unifier.unify(beta, alpha)

    @given(monotypes())
    def test_unify_with_self(self, type_):
        unifier = Unifier()
        unifier.unify(type_, type_)
        assert alpha_equal(unifier.zonk(type_), type_)

    @given(monotypes())
    def test_unify_fresh_var(self, type_):
        unifier = Unifier()
        alpha = uvar("fresh_probe")
        unifier.unify(alpha, type_)
        assert alpha_equal(unifier.zonk(alpha), unifier.zonk(type_))


class TestForallEquality:
    def test_alpha_equal_foralls(self):
        left = forall(["a"], fun(A, A))
        right = forall(["b"], fun(B, B))
        Unifier().unify(left, right)  # no exception

    def test_quantifier_order_matters(self):
        left = Forall(("a", "b"), fun(A, B, B))
        right = Forall(("b", "a"), fun(A, B, B))
        with pytest.raises(UnificationError):
            Unifier().unify(left, right)

    def test_forall_vs_mono_fails(self):
        with pytest.raises(UnificationError):
            Unifier().unify(ID, fun(INT, INT))

    def test_unification_inside_matched_bodies(self):
        # (∀b. b → α) ~ (∀b. b → Int) must solve α := Int.
        unifier = Unifier()
        alpha = uvar("x")
        left = Forall(("b",), fun(B, alpha))
        right = Forall(("b",), fun(B, INT))
        unifier.unify(left, right)
        assert unifier.zonk(alpha) == INT

    def test_bound_variable_cannot_leak(self):
        # (∀b. b → α) ~ (∀b. b → b) would need α := b — capture; reject.
        unifier = Unifier()
        alpha = uvar("x")
        with pytest.raises(SkolemEscapeError):
            unifier.unify(Forall(("b",), fun(B, alpha)), Forall(("b",), fun(B, B)))

    def test_binder_count_mismatch(self):
        left = Forall(("a",), fun(A, A))
        right = Forall(("a", "b"), fun(A, fun(B, B)))
        with pytest.raises(UnificationError):
            Unifier().unify(left, right)


class TestSorts:
    def test_eqvar_more_restrictive_wins(self):
        unifier = Unifier()
        alpha_u, beta_t = uvar("x", Sort.U), uvar("y", Sort.T)
        unifier.unify(alpha_u, beta_t)
        # The unrestricted variable must be the one substituted away.
        assert unifier.zonk(alpha_u) == beta_t
        assert unifier.zonk(beta_t) == beta_t

    def test_t_variable_accepts_nested_polymorphism(self):
        unifier = Unifier()
        beta = uvar("y", Sort.T)
        unifier.unify(beta, list_of(ID))
        assert unifier.zonk(beta) == list_of(ID)

    def test_t_variable_rejects_top_level_forall(self):
        unifier = Unifier()
        with pytest.raises(SortError):
            unifier.unify(uvar("y", Sort.T), ID)

    def test_m_variable_rejects_any_forall(self):
        unifier = Unifier()
        with pytest.raises(SortError):
            unifier.unify(uvar("z", Sort.M), list_of(ID))

    def test_eqfully_demotes(self):
        # αᵐ ~ [βᵘ] forces β to become fully monomorphic.
        unifier = Unifier()
        alpha_m, beta_u = uvar("x", Sort.M), uvar("y")
        unifier.unify(alpha_m, list_of(beta_u))
        demoted = unifier.zonk(beta_u)
        assert isinstance(demoted, UVar) and demoted.sort is Sort.M
        with pytest.raises(SortError):
            unifier.unify(beta_u, ID)

    def test_demoted_variable_still_unifies_mono(self):
        unifier = Unifier()
        alpha_m, beta_u = uvar("x", Sort.M), uvar("y")
        unifier.unify(alpha_m, list_of(beta_u))
        unifier.unify(beta_u, INT)
        assert unifier.zonk(alpha_m) == list_of(INT)


class TestLevels:
    def test_promotion(self):
        # Binding an outer variable to a type mentioning an inner variable
        # promotes the inner one (rule float).
        unifier = Unifier()
        outer = uvar("o", Sort.U, level=0)
        inner = uvar("i", Sort.U, level=3)
        unifier.unify(outer, list_of(inner))
        promoted = unifier.zonk(inner)
        assert isinstance(promoted, UVar)
        assert promoted.level == 0

    def test_skolem_escape(self):
        unifier = Unifier()
        skolem = unifier.fresh_skolem("s", level=2)
        outer = uvar("o", Sort.U, level=0)
        with pytest.raises(SkolemEscapeError):
            unifier.unify(outer, TVar(skolem))

    def test_inner_variable_may_hold_outer_skolem(self):
        unifier = Unifier()
        skolem = unifier.fresh_skolem("s", level=1)
        inner = uvar("i", Sort.U, level=2)
        unifier.unify(inner, TVar(skolem))
        assert unifier.zonk(inner) == TVar(skolem)

    def test_var_var_prefers_shallow(self):
        unifier = Unifier()
        shallow = uvar("s", Sort.U, level=0)
        deep = uvar("d", Sort.U, level=4)
        unifier.unify(shallow, deep)
        assert unifier.zonk(deep) == shallow

    def test_restrictive_but_deep_promotes(self):
        unifier = Unifier()
        outer_u = uvar("o", Sort.U, level=0)
        inner_t = uvar("i", Sort.T, level=3)
        unifier.unify(outer_u, inner_t)
        resolved = unifier.zonk(outer_u)
        assert isinstance(resolved, UVar)
        assert resolved.sort is Sort.T and resolved.level == 0


class TestZonk:
    def test_zonk_chases_chains(self):
        unifier = Unifier()
        a, b, c = uvar("a1"), uvar("b1"), uvar("c1")
        unifier.unify(a, b)
        unifier.unify(b, c)
        unifier.unify(c, INT)
        assert unifier.zonk(a) == INT

    def test_zonk_head_only_top(self):
        unifier = Unifier()
        a = uvar("a1")
        unifier.unify(a, list_of(uvar("b1")))
        assert isinstance(unifier.zonk_head(a), TCon)

    @given(polytypes())
    def test_zonk_empty_subst_is_identity(self, type_):
        assert Unifier().zonk(type_) == type_


class TestUnionFind:
    """The union-find substitution store behind the ``zonk``/``bind`` API."""

    def test_long_chain_compresses(self):
        unifier = Unifier()
        chain = [uvar(f"c{index}", Sort.M) for index in range(200)]
        for left, right in zip(chain, chain[1:]):
            unifier.unify(left, right)
        unifier.unify(chain[-1], INT)
        for variable in chain:
            assert unifier.zonk(variable) == INT
        # After one pass of queries every variable points (almost)
        # directly at its representative: re-resolving is flat.
        root = unifier._find(chain[0])
        assert all(unifier._find(v) == root for v in chain)

    def test_bindings_never_map_to_variables(self):
        # The var-var invariant: unions go through the parent table, so
        # no binding image is itself a unification variable.
        unifier = Unifier()
        a, b, c = uvar("a1"), uvar("b1"), uvar("c1")
        unifier.unify(a, b)
        unifier.unify(b, c)
        unifier.unify(a, list_of(INT))
        assert all(
            not isinstance(image, UVar) for image in unifier._binding.values()
        )

    def test_assign_unions_variables(self):
        unifier = Unifier()
        a, b = uvar("a1"), uvar("b1")
        unifier.assign(a, b)
        unifier.assign(b, INT)
        assert unifier.zonk(a) == INT

    def test_fuv_cache_consistent_after_binding(self):
        unifier = Unifier()
        a = uvar("a1")
        type_ = fun(a, list_of(a))
        assert list(unifier.fuv_of(type_)) == [a]
        unifier.unify(a, INT)
        # The cache keys on the *unzonked* node; zonking reflects the bind.
        assert fuv(unifier.zonk(type_)) == set()


class TestFreeVariableQueries:
    """The memoised ``fuv_of``/``ftv_of`` answer in first-occurrence
    pre-order, the order every deterministic iteration relies on."""

    def test_fuv_of_is_first_occurrence_order(self):
        u1, u2, u3 = uvar("u1"), uvar("u2", Sort.M, 1), uvar("u3", Sort.T, 2)
        type_ = TCon("T", (fun(u2, u1), u3, u2))
        assert Unifier().fuv_of(type_) == (u2, u1, u3)

    def test_fuv_of_visits_context_before_body(self):
        u1, u2 = uvar("u1"), uvar("u2")
        type_ = Forall(("a",), fun(u1, A), (Pred("Eq", (u2,)),))
        assert Unifier().fuv_of(type_) == (u2, u1)

    def test_ftv_of_respects_binders_and_order(self):
        type_ = forall(["b"], fun(B, fun(TVar("d"), TVar("c"))))
        assert Unifier().ftv_of(type_) == ("d", "c")


def store_scenario() -> list[str]:
    """A battery of store operations; returns every observable."""
    unifier = Unifier(NameSupply("v"))
    a, b = uvar("a"), uvar("b")
    c, m = uvar("c", Sort.T, 1), uvar("m", Sort.M)
    out = []
    unifier.unify(a, c)
    out += [str(unifier.zonk(a)), str(unifier.zonk(c))]
    unifier.unify(b, fun(INT, a))
    out.append(str(unifier.zonk(b)))
    d, e = uvar("d"), uvar("e", level=2)
    unifier.unify(m, TCon("Pair", (d, e)))
    out += [str(unifier.zonk(m)), str(unifier.zonk(d)), str(unifier.zonk(e))]
    outer, deep = uvar("o"), uvar("dd", level=3)
    unifier.unify(outer, fun(deep, INT))
    out += [str(unifier.zonk(outer)), str(unifier.zonk(deep))]
    f = uvar("f")
    unifier.unify(fun(ID, f), fun(forall(["b"], fun(B, B)), BOOL))
    out.append(str(unifier.zonk(f)))
    try:
        unifier.unify(a, list_of(a))
    except GIError as error:
        out.append(type(error).__name__)
    try:
        unifier.unify(INT, BOOL)
    except GIError as error:
        out.append(type(error).__name__)
    g, h = uvar("g"), uvar("h")
    unifier.assign(g, h)
    unifier.assign(h, TCon("Char"))
    out.append(str(unifier.zonk(g)))
    out.append(f"bindings={unifier.bindings}")
    out.append(f"subst={len(unifier._parent) + len(unifier._binding)}")
    # The tables key by name: which variables were united away, and
    # which representatives carry a binding.
    out.append(f"united={sorted(unifier._parent)}")
    out.append(f"bound={sorted(unifier._binding)}")
    out.append(f"next={unifier.supply.fresh()}")
    out.append(f"skolems={sorted(unifier.skolem_levels)}")
    return out


class TestStoreContract:
    """Observables of the substitution store that callers rely on: fresh
    name draws, demotion/promotion results, error types, binding counts
    and the number of solved variables."""

    def test_scenario_battery(self):
        assert store_scenario() == [
            "v0^t",
            "v0^t",
            "Int -> v0^t",
            "Pair v1^m v3^m",
            "v1^m",
            "v3^m",
            "v4^u -> Int",
            "v4^u",
            "Bool",
            "OccursCheckError",
            "UnificationError",
            "Char",
            "bindings=12",
            "subst=12",
            "united=['a', 'c', 'd', 'dd', 'e', 'g', 'v2']",
            "bound=['b', 'f', 'h', 'm', 'o']",
            "next=v6",
            "skolems=[]",
        ]

    def test_unifier_is_freed_without_the_cycle_collector(self):
        # Nothing the store owns may point back at the unifier: a cycle
        # keeps its tables and memos alive until the cyclic collector runs.
        gc.disable()
        try:
            unifier = Unifier()
            unifier.unify(fun(uvar("a"), uvar("b")), fun(INT, BOOL))
            ref = weakref.ref(unifier)
            del unifier
            assert ref() is None
        finally:
            gc.enable()

    def test_zonk_identity_contract(self):
        # ``deep_prenex`` and friends detect fixed points by identity, so
        # a clean type must come back as the same object.
        unifier = Unifier()
        clean = fun(INT, BOOL)
        assert unifier.zonk(clean) is clean
        assert unifier.zonk_head(clean) is clean
        assert unifier.zonk(ID) is ID

    def test_on_bind_fires_with_structural_keys(self):
        # Notifications carry the variables themselves; the solver's
        # wake-up lists key them by name.
        fired = []
        unifier = Unifier()
        unifier.on_bind = fired.append
        a, b = uvar("a"), uvar("b")
        unifier.unify(a, b)
        unifier.unify(b, INT)
        assert fired, "bindings must notify"
        assert all(isinstance(v, UVar) for v in fired)
        assert {v.name for v in fired} <= {"a", "b"}


class TestOneNameOneVariable:
    """The store keys its tables by name, so every write checks that a
    name still stands for the variable it was first stored under."""

    @pytest.mark.parametrize(
        "first, second",
        [
            # bind: the second variable would take over x's binding.
            (
                lambda unifier: unifier.bind(uvar("x"), INT),
                lambda unifier: unifier.bind(uvar("x", Sort.M), BOOL),
            ),
            # assign: the same, without the checks of bind.
            (
                lambda unifier: unifier.assign(uvar("x"), INT),
                lambda unifier: unifier.assign(uvar("x", level=1), BOOL),
            ),
            # _union: y's second spelling is only ever the kept side.
            (
                lambda unifier: unifier.assign(uvar("x"), uvar("y")),
                lambda unifier: unifier.assign(uvar("z"), uvar("y", Sort.T)),
            ),
        ],
        ids=["bind", "assign", "union"],
    )
    def test_a_second_variable_with_a_stored_name_is_an_internal_error(
        self, first, second
    ):
        unifier = Unifier()
        first(unifier)
        with pytest.raises(InternalError):
            second(unifier)

    def test_equal_variables_built_twice_share_one_entry(self):
        unifier = Unifier()
        unifier.assign(uvar("x"), uvar("y"))
        unifier.assign(uvar("y"), INT)
        assert unifier.zonk(uvar("x")) == INT
        assert sorted(unifier._parent) == ["x"]
        assert sorted(unifier._binding) == ["y"]


class TestSkolemBookkeeping:
    def test_skolem_levels_do_not_leak_across_forall_unifications(self):
        # Regression: ``_unify_forall`` used to register the fresh
        # skolems of every quantifier unification in ``skolem_levels``
        # and never remove them, so a long-lived unifier grew without
        # bound (and stale entries could shadow later levels).
        unifier = Unifier()
        nested = forall(["a"], fun(A, forall(["b"], fun(B, A))))
        baseline = len(unifier.skolem_levels)
        for _ in range(50):
            unifier.unify(nested, nested)
        growth = len(unifier.skolem_levels) - baseline
        assert growth == 0, growth

    def test_skolem_levels_pruned_on_failure_too(self):
        unifier = Unifier()
        left = forall(["a"], fun(A, A))
        right = forall(["a"], fun(A, INT))
        baseline = len(unifier.skolem_levels)
        for _ in range(20):
            with pytest.raises(UnificationError):
                unifier.unify(left, right)
        assert len(unifier.skolem_levels) == baseline
