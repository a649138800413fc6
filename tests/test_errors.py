"""The error surface: every rejection carries the right exception class
and an actionable message (the paper's §4 motivation includes better
type-error diagnosis)."""

import pytest

from repro.core import Inferencer
from repro.core.errors import (
    CONSTRAINT_SHOWN,
    BudgetExceededError,
    GIError,
    MissingInstanceError,
    OccursCheckError,
    ParseError,
    ScopeError,
    SkolemEscapeError,
    SortError,
    UnificationError,
)
from repro.syntax import parse_term, parse_type
from repro.typeclasses import standard_instances
from repro.evalsuite.figure2 import figure2_env

ENV = figure2_env()


def reject(source: str):
    with pytest.raises(GIError) as info:
        Inferencer(ENV).infer(parse_term(source))
    return info.value


class TestErrorClasses:
    def test_scope_error(self):
        error = reject("frobnicate")
        assert isinstance(error, ScopeError)
        assert "frobnicate" in str(error)

    def test_unification_error_names_both_types(self):
        error = reject("inc True")
        assert isinstance(error, UnificationError)
        assert "Int" in str(error) and "Bool" in str(error)

    def test_occurs_check(self):
        error = reject(r"\x -> x x")
        assert isinstance(error, (OccursCheckError, GIError))

    def test_sort_error_suggests_annotation(self):
        # C9: map poly (single id) fails with a sort error pointing at the
        # monomorphic variable that would need polymorphism.
        error = reject("map poly (single id)")
        assert isinstance(error, SortError)
        assert "annotation" in str(error)

    def test_skolem_escape(self):
        error = reject(r"\xs -> poly (head xs)")
        assert isinstance(error, SkolemEscapeError)
        assert "escape" in str(error)

    def test_invariance_message(self):
        # E1: k h lst — the Forall-vs-arrow mismatch explains invariance.
        error = reject("k h lst")
        assert isinstance(error, UnificationError)
        assert "invariant" in str(error)

    def test_missing_instance_names_constraint(self):
        env = ENV.extended(
            "eq", parse_type("forall a. Eq a => a -> a -> Bool")
        )
        with pytest.raises(MissingInstanceError) as info:
            Inferencer(env, instances=standard_instances()).infer(
                parse_term("eq not not")
            )
        assert "Eq (Bool -> Bool)" in str(info.value)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_term("let x = in x")
        assert info.value.line == 1

    def test_all_errors_are_gi_errors(self):
        for source in ("missing", "inc True", r"\x -> x x", "k h lst"):
            with pytest.raises(GIError):
                Inferencer(ENV).infer(parse_term(source))


class TestBudgetMessage:
    def test_short_constraint_is_shown_whole(self):
        error = BudgetExceededError(
            "solver", "max_solver_steps", 5, {"solver_steps": 6}, constraint="a ~ b"
        )
        assert str(error) == (
            "budget exceeded in solver: max_solver_steps limit of 5 reached "
            "(solver_steps=6) while processing `a ~ b`"
        )

    def test_long_constraint_is_cut_with_its_length(self):
        long = "x" * (CONSTRAINT_SHOWN * 10)
        error = BudgetExceededError("solver", "max_solver_steps", 5, constraint=long)
        assert error.constraint is long
        assert f"`{'x' * CONSTRAINT_SHOWN}… ({len(long)} chars)`" in str(error)
        assert len(str(error)) < 2 * CONSTRAINT_SHOWN


class TestErrorsDoNotPoisonState:
    def test_inferencer_reusable_after_failure(self):
        gi = Inferencer(ENV)
        with pytest.raises(GIError):
            gi.infer(parse_term("inc True"))
        assert str(gi.infer(parse_term("inc 1")).type_) == "Int"
