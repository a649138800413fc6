"""Deep types must never escape as ``RecursionError``.

The core traversals (``ftv``/``fuv``/``contains_uvar``/``subst_uvars``/
``zonk``/``unify``/``render_type``/``alpha_equal``) are iterative with
explicit stacks, so type depth is bounded by memory — not by Python's
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
    TCon,
    UVar,
    alpha_equal,
    contains_uvar,
    ftv,
    fun,
    fuv,
    render_type,
    subst_uvars,
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


class TestDeepTraversals:
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

    RankN and Quick Look re-collect the environment's free variables once
    per argument, which is quadratic in the spine length; they may run
    out of a short deadline instead of answering.  The others accept.
    """

    QUADRATIC = ("RankN", "QuickLook")

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_deep_chain(self, name):
        wall_clock = 2.0 if name in self.QUADRATIC else 60.0
        outcome = SYSTEMS[name].run(
            deep_chain_term(3000), figure2_env(), budget=Budget(wall_clock=wall_clock)
        )
        summary = (outcome.status, outcome.error, (outcome.detail or "")[:200])
        assert outcome.error != "RecursionError" and not outcome.crashed, summary
        if name in self.QUADRATIC:
            assert outcome.accepted or outcome.error == "BudgetExceededError", summary
        else:
            assert outcome.accepted, summary
