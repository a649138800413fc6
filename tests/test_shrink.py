"""Properties of the greedy counterexample shrinker: soundness (the
result still fails), termination, determinism, closedness."""

from __future__ import annotations

import pytest

from repro.conformance.oracles import OracleContext, oracle_crash
from repro.conformance.shrink import candidates, shrink
from repro.core.terms import (
    Ann,
    Lam,
    Let,
    Lit,
    Var,
    app,
    free_vars,
    term_size,
)
from repro.core.types import INT, forall, fun, TVar
from repro.evalsuite.figure2 import figure2_env
from repro.robustness.faultinject import FaultPlan


@pytest.fixture(scope="module")
def env():
    return figure2_env()


def _big_term():
    return Let(
        "x",
        app(Var("plus"), Lit(1), Lit(2)),
        app(Var("choose"), Var("x"), app(Var("plus"), Lit(3), app(Var("inc"), Lit(4)))),
    )


def test_shrunk_term_still_fails_its_predicate():
    target = Var("inc")

    def contains_inc(term):
        return target in list(_walk(term))

    result = shrink(_big_term(), contains_inc)
    assert contains_inc(result.term)
    assert result.final_size < term_size(_big_term())
    # greedy minimum for this predicate: the bare occurrence itself
    assert result.term == target


def test_shrunk_term_still_fails_real_oracle(env):
    """With an armed fault plan, the crash oracle fails on (almost) any
    term; the shrunk minimum must still fail it."""

    def still_crashes(term):
        ctx = OracleContext(env, faults=FaultPlan(fail_at_solver_step=1))
        return oracle_crash(ctx, term) is not None

    original = _big_term()
    assert still_crashes(original)
    result = shrink(original, still_crashes)
    assert still_crashes(result.term)
    assert result.final_size <= 2  # a leaf still reaches solver step 1


def test_shrinking_terminates_and_sizes_strictly_decrease():
    sizes = []
    result = shrink(
        _big_term(),
        lambda term: True,  # everything "fails": worst case for termination
        on_step=lambda term: sizes.append(term_size(term)),
    )
    assert result.final_size == 1
    assert sizes == sorted(sizes, reverse=True)
    assert len(sizes) == len(set(sizes))  # strict decrease, no cycling
    assert result.checks <= 2000


def test_shrinking_respects_check_budget():
    checks = {"n": 0}

    def predicate(term):
        checks["n"] += 1
        return True

    shrink(_big_term(), predicate, max_checks=5)
    assert checks["n"] <= 5


def test_shrinking_is_deterministic():
    def predicate(term):
        return term_size(term) >= 3

    first = shrink(_big_term(), predicate)
    second = shrink(_big_term(), predicate)
    assert first.term == second.term
    assert first.steps == second.steps
    assert first.checks == second.checks


def test_crashing_predicate_is_treated_as_not_failing():
    def explodes(term):
        raise RuntimeError("oracle crashed")

    result = shrink(_big_term(), explodes)
    assert result.term == _big_term()  # no candidate accepted
    assert result.steps == 0


def test_candidates_never_leak_bound_variables():
    term = Lam("x", app(Var("plus"), Var("x"), Lit(1)))
    closed_free = free_vars(term)
    for candidate in candidates(term):
        assert free_vars(candidate) <= closed_free, candidate


def test_candidates_are_strictly_smaller():
    term = _big_term()
    size = term_size(term)
    seen = list(candidates(term))
    assert seen  # a compound term must offer shrinks
    assert all(term_size(candidate) < size for candidate in seen)


def test_candidates_drop_annotations():
    poly = forall(["a"], fun(TVar("a"), TVar("a")))
    term = Ann(Var("id"), poly)
    assert Var("id") in list(candidates(term))


def test_leaves_offer_no_candidates():
    assert list(candidates(Lit(True))) == []
    assert list(candidates(Var("inc"))) == []


def _walk(term):
    from repro.core.terms import walk_terms

    return walk_terms(term)


@pytest.mark.parametrize(
    "source, rewritten",
    [
        # a λ head drops to its body, which is itself an application
        (r"(\x -> inc x) 1", None),
        # an annotated head drops its annotation
        ("(plus 1 :: Int -> Int) 2", "plus 1 2"),
    ],
)
def test_head_rewrite_to_an_application_flattens(source, rewritten):
    from repro.syntax import parse_term

    term = parse_term(source)
    offered = list(candidates(term))
    assert offered and all(term_size(candidate) < term_size(term) for candidate in offered)
    if rewritten is not None:
        assert parse_term(rewritten) in offered
    result = shrink(term, lambda candidate: False)
    assert result.term == term and result.checks == len(offered)
