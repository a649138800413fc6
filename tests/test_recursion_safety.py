"""Deep types must never escape as ``RecursionError``.

The core traversals (``ftv``/``fuv``/``contains_uvar``/``subst_tvars``/
``subst_uvars``/``rename_canonical``/``respects``/``type_size``/``zonk``/
``unify``/``alpha_equal``, and ``render_type`` on arrow spines) are
iterative with explicit stacks, so type depth is bounded by memory — not by Python's
recursion limit.  These tests drive each one at depths far beyond
``sys.getrecursionlimit()``; a regression to recursive form fails them
immediately.  Budgets still apply: a depth *budget* must trip as a
:class:`BudgetExceededError`, never as a raw ``RecursionError``.
"""

import sys

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.errors import BudgetExceededError, UnificationError
from repro.core.sorts import Sort
from repro.core.types import (
    INT,
    Forall,
    TCon,
    TVar,
    UVar,
    alpha_equal,
    contains_uvar,
    ftv,
    fun,
    fuv,
    is_fully_monomorphic,
    is_rank1,
    list_of,
    render_type,
    rename_canonical,
    respects,
    subst_tvars,
    subst_uvars,
    type_size,
)
from repro.core.unify import Unifier
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.workloads import deep_chain_term
from repro.robustness.budget import Budget

DEPTH = 50_000
assert DEPTH > sys.getrecursionlimit()


def deep_arrow(depth: int, leaf=INT):
    type_ = leaf
    for _ in range(depth):
        type_ = fun(INT, type_)
    return type_


def deep_list(depth: int, leaf):
    """``[[…leaf…]]``: ``depth`` list constructors."""
    type_ = leaf
    for _ in range(depth):
        type_ = list_of(type_)
    return type_


def deep_forall_list(depth: int, leaf):
    """``depth`` layers alternating ``∀a. a -> _`` and ``[_]``, a list at
    the root; each layer adds three nodes (``∀``, ``->``, ``a``) or one."""
    type_ = leaf
    for index in range(depth):
        if index % 2:
            type_ = list_of(type_)
        else:
            type_ = Forall(("a",), fun(TVar("a"), type_))
    return type_


SHAPES = [deep_list, deep_forall_list]


def expected_size(shape, depth: int) -> int:
    return 1 + (depth if shape is deep_list else 3 * ((depth + 1) // 2) + depth // 2)


class TestDeepTraversals:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_subst_tvars_deep(self, shape):
        type_ = shape(DEPTH, TVar("x"))
        image = subst_tvars({"x": TCon("Bool")}, type_)
        assert image == shape(DEPTH, TCon("Bool"))
        assert subst_tvars({"zz": INT}, type_) is type_

    @pytest.mark.parametrize("shape", SHAPES)
    def test_subst_uvars_deep(self, shape):
        variable = UVar("u0", Sort.M)
        image = subst_uvars({variable: INT}, shape(DEPTH, variable))
        assert image == shape(DEPTH, INT)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rename_canonical_deep(self, shape):
        renamed = rename_canonical(shape(DEPTH, TVar("x")))
        assert type_size(renamed) == expected_size(shape, DEPTH)
        # Walk the spine by hand: ``ftv``'s per-scope key grows with the
        # number of distinct enclosing binders.
        names, node = [], renamed
        while not isinstance(node, TVar):
            if isinstance(node, Forall):
                names.extend(node.binders)
                node = node.body
            node = node.args[-1]
        assert node == TVar("x")
        assert len(set(names)) == len(names) == (0 if shape is deep_list else DEPTH // 2)
        assert names[:3] == ([] if shape is deep_list else ["a", "b", "c"])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_respects_deep(self, shape):
        monomorphic = shape is deep_list
        assert is_fully_monomorphic(shape(DEPTH, INT)) is monomorphic
        assert is_rank1(shape(DEPTH, INT)) is monomorphic
        assert not respects(shape(DEPTH, UVar("u0", Sort.T)), Sort.M)
        assert respects(shape(DEPTH, UVar("u0", Sort.M)), Sort.M) is monomorphic

    @pytest.mark.parametrize("shape", SHAPES)
    def test_type_size_deep(self, shape):
        assert type_size(shape(DEPTH, INT)) == expected_size(shape, DEPTH)

    def test_ftv_fuv_contains(self):
        variable = UVar("u0", Sort.M)
        type_ = deep_arrow(DEPTH, leaf=variable)
        assert list(fuv(type_)) == [variable]
        assert ftv(type_) == set()
        assert contains_uvar(type_, variable)
        assert not contains_uvar(type_, UVar("other", Sort.M))

    def test_subst_rebuilds_deep_spine(self):
        variable = UVar("u0", Sort.M)
        type_ = deep_arrow(DEPTH, leaf=variable)
        image = subst_uvars({variable: INT}, type_)
        assert not contains_uvar(image, variable)
        # Identity-sharing: substituting nothing returns the same object.
        assert subst_uvars({UVar("other", Sort.M): INT}, type_) is type_

    def test_alpha_equal_deep(self):
        left = deep_arrow(DEPTH)
        right = deep_arrow(DEPTH)
        assert alpha_equal(left, right)
        assert not alpha_equal(left, deep_arrow(DEPTH, leaf=TCon("Bool")))

    def test_render_deep(self):
        rendered = render_type(deep_arrow(DEPTH))
        assert rendered.startswith("Int -> Int")

    def test_hash_and_equality_deep(self):
        left = deep_arrow(DEPTH)
        right = deep_arrow(DEPTH)
        assert hash(left) == hash(right)
        assert left == right


class TestDeepUnifier:
    def test_zonk_through_deep_binding(self):
        unifier = Unifier()
        variable = UVar("u0", Sort.M)
        unifier.bind(variable, deep_arrow(DEPTH))
        assert unifier.zonk(variable) == deep_arrow(DEPTH)

    def test_zonk_long_var_chain(self):
        unifier = Unifier()
        chain = [UVar(f"u{index}", Sort.M) for index in range(DEPTH)]
        for left, right in zip(chain, chain[1:]):
            unifier.assign(left, right)
        unifier.assign(chain[-1], INT)
        assert unifier.zonk(chain[0]) == INT

    def test_unify_deep_spines(self):
        unifier = Unifier()
        variable = UVar("u0", Sort.M)
        unifier.unify(deep_arrow(DEPTH, leaf=variable), deep_arrow(DEPTH))
        assert unifier.zonk(variable) == INT

    def test_unify_deep_mismatch_is_type_error(self):
        unifier = Unifier()
        with pytest.raises(UnificationError):
            unifier.unify(deep_arrow(DEPTH), deep_arrow(DEPTH, leaf=TCon("Bool")))

    def test_occurs_check_deep(self):
        from repro.core.errors import OccursCheckError

        unifier = Unifier()
        variable = UVar("u0", Sort.M)
        with pytest.raises(OccursCheckError):
            unifier.bind(variable, deep_arrow(DEPTH, leaf=variable))

    def test_depth_budget_still_trips_as_budget_error(self):
        # The worklist unifier keeps the old recursion-depth accounting,
        # so ``max_unify_depth`` semantics are unchanged — and the error
        # class stays BudgetExceededError even on hyper-deep input.
        budget = Budget(max_unify_depth=64).start()
        unifier = Unifier(budget=budget)
        with pytest.raises(BudgetExceededError):
            unifier.unify(deep_arrow(DEPTH), deep_arrow(DEPTH))


class TestDeepBackends:
    """``λf. f 1 … 1`` at depth 3000 through every registered system.

    Every system must accept within the same deadline.  RankN and Quick
    Look skolemise before they collect escape candidates, so a spine of
    ρ-typed arguments costs them no environment walk per argument.
    """

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_deep_chain(self, name):
        outcome = SYSTEMS[name].run(
            deep_chain_term(3000), figure2_env(), budget=Budget(wall_clock=60.0)
        )
        summary = (outcome.status, outcome.error, (outcome.detail or "")[:200])
        assert outcome.error != "RecursionError" and not outcome.crashed, summary
        assert outcome.accepted, summary
