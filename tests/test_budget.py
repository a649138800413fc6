"""Solver budgets and crash containment (the robustness tentpole).

Every way a run can exhaust its budget must surface as a structured
:class:`BudgetExceededError` carrying the phase and the run counters; and
every internal (non-GI) failure must be converted to
:class:`InternalError` at the ``Inferencer.infer`` boundary, never
escaping as a raw Python exception.
"""

import pytest

from repro.baselines import FreezeMLInferencer, HMFInferencer, QuickLookInferencer
from repro.core import Inferencer, InferOptions
from repro.core.errors import (
    BudgetExceededError,
    GIError,
    InternalError,
    StuckConstraintError,
)
from repro.core.names import NameSupply
from repro.core.sorts import Sort
from repro.core.types import BOOL, INT, TVar, forall, fun, list_of
from repro.core.unify import Unifier
from repro.robustness import Budget, FaultPlan, InjectedFaultError
from repro.syntax import parse_term
from repro.evalsuite.figure2 import figure2_env

ENV = figure2_env()


class TestSolverStepBudget:
    def test_exhaustion_is_structured(self):
        gi = Inferencer(ENV, budget=Budget(max_solver_steps=3))
        with pytest.raises(BudgetExceededError) as info:
            gi.infer(parse_term("app runST argST"))
        error = info.value
        assert error.phase == "solver"
        assert error.limit_name == "max_solver_steps"
        assert error.limit == 3
        assert error.counters["solver_steps"] == 4
        assert error.constraint is not None

    def test_budget_error_is_a_gi_error(self):
        gi = Inferencer(ENV, budget=Budget(max_solver_steps=1))
        with pytest.raises(GIError):
            gi.infer(parse_term("head ids"))
        assert not gi.accepts(parse_term("head ids"))

    def test_sufficient_budget_is_invisible(self):
        plain = Inferencer(ENV).infer(parse_term("head ids"))
        budgeted = Inferencer(ENV, budget=Budget(max_solver_steps=10_000)).infer(
            parse_term("head ids")
        )
        assert str(plain.type_) == str(budgeted.type_) == "forall a. a -> a"

    def test_budget_rearmed_between_runs(self):
        # The same Budget object serves many runs; each run starts from
        # zero fuel used (this is what isolates batch items).
        budget = Budget(max_solver_steps=50)
        gi = Inferencer(ENV, budget=budget)
        for _ in range(3):
            gi.infer(parse_term("head ids"))
        assert budget.solver_steps <= 50


class TestUnifyDepthBudget:
    def test_deep_unification_trips(self):
        budget = Budget(max_unify_depth=3).start()
        unifier = Unifier(NameSupply("u"), budget=budget)
        nested_left = INT
        nested_right = INT
        for _ in range(6):
            nested_left = list_of(nested_left)
            nested_right = list_of(nested_right)
        variable = unifier.fresh(Sort.M, 0)
        with pytest.raises(BudgetExceededError) as info:
            unifier.unify(nested_left, list_of(list_of(list_of(list_of(variable)))))
        assert info.value.phase == "unify"
        assert info.value.limit_name == "max_unify_depth"

    def test_depth_resets_after_failure(self):
        from repro.core.types import BOOL

        budget = Budget(max_unify_depth=3).start()
        unifier = Unifier(NameSupply("u"), budget=budget)
        deep_left = list_of(list_of(list_of(list_of(INT))))
        deep_right = list_of(list_of(list_of(list_of(BOOL))))
        with pytest.raises(BudgetExceededError):
            unifier.unify(deep_left, deep_right)
        assert unifier.depth == 0
        # Shallow work still fits in the same budget.
        unifier.unify(list_of(INT), list_of(INT))

    def test_end_to_end_depth_budget(self):
        gi = Inferencer(ENV, budget=Budget(max_unify_depth=1))
        with pytest.raises(BudgetExceededError) as info:
            gi.infer(parse_term("single id"))
        assert info.value.phase == "unify"

    @pytest.mark.parametrize(
        "backend", [HMFInferencer, FreezeMLInferencer, QuickLookInferencer]
    )
    def test_nested_forall_unification_stays_in_budget(self, backend):
        # ∀-bodies unify one level below their quantifiers, so 40 nested
        # quantifiers that differ only at the leaf exhaust a depth budget
        # of 10 in every backend that unifies polytypes.
        def nested(leaf):
            type_ = leaf
            for index in range(40):
                type_ = forall([f"a{index}"], fun(TVar(f"a{index}"), type_))
            return type_

        budget = Budget(max_unify_depth=10).start()
        with pytest.raises(BudgetExceededError) as info:
            backend(ENV, budget=budget).unify(nested(INT), nested(BOOL))
        assert info.value.limit_name == "max_unify_depth"
        assert budget.peak_unify_depth == 11

    def test_peak_depth_recorded(self):
        budget = Budget()
        Inferencer(ENV, budget=budget).infer(parse_term("app runST argST"))
        assert budget.peak_unify_depth >= 1
        assert budget.solver_steps >= 1


class TestDeadlineBudget:
    def test_expired_deadline(self):
        gi = Inferencer(ENV, budget=Budget(wall_clock=0.0))
        with pytest.raises(BudgetExceededError) as info:
            gi.infer(parse_term("head ids"))
        assert info.value.phase == "deadline"
        assert info.value.limit_name == "wall_clock"

    def test_generous_deadline_is_invisible(self):
        gi = Inferencer(ENV, budget=Budget(wall_clock=60.0))
        assert str(gi.infer(parse_term("head ids")).type_) == "forall a. a -> a"


class TestCrashContainment:
    def test_injected_fault_becomes_internal_error(self):
        gi = Inferencer(ENV, faults=FaultPlan(fail_at_solver_step=2))
        with pytest.raises(InternalError) as info:
            gi.infer(parse_term("app runST argST"))
        error = info.value
        assert isinstance(error, GIError)
        assert error.original_class == "InjectedFaultError"
        assert error.phase == "solve"
        assert isinstance(error.__cause__, InjectedFaultError)

    def test_snapshot_is_redacted_counts(self):
        gi = Inferencer(ENV, faults=FaultPlan(fail_at_solver_step=2))
        with pytest.raises(InternalError) as info:
            gi.infer(parse_term("app runST argST"))
        snapshot = info.value.snapshot
        assert set(snapshot) == {
            "pending_constraints",
            "deferred_constraints",
            "current_level",
            "substitution_size",
            "solver_steps",
            "traceback",
        }
        counts = {k: v for k, v in snapshot.items() if k != "traceback"}
        assert all(isinstance(value, int) for value in counts.values())

    def test_snapshot_carries_formatted_traceback(self):
        gi = Inferencer(ENV, faults=FaultPlan(fail_at_solver_step=2))
        with pytest.raises(InternalError) as info:
            gi.infer(parse_term("app runST argST"))
        trace = info.value.snapshot["traceback"]
        assert "InjectedFaultError" in trace
        assert "Traceback (most recent call last)" in trace
        # The one-line diagnostic stays one line: the traceback lives only
        # in the snapshot, never in the rendered message.
        assert str(info.value).count("\n") == 0

    def test_accepts_survives_internal_failure(self):
        gi = Inferencer(ENV, faults=FaultPlan(fail_at_unify_depth=1))
        assert gi.accepts(parse_term("head ids")) is False

    def test_generate_phase_contained(self, monkeypatch):
        from repro.core.generate import Generator

        def explode(self, env, term, path=()):
            raise AssertionError("invariant violated")

        monkeypatch.setattr(Generator, "gen", explode)
        with pytest.raises(InternalError) as info:
            Inferencer(ENV).infer(parse_term("head ids"))
        assert info.value.phase == "generate"
        assert info.value.original_class == "AssertionError"

    def test_gi_errors_pass_through_unwrapped(self):
        with pytest.raises(GIError) as info:
            Inferencer(ENV).infer(parse_term("inc True"))
        assert not isinstance(info.value, InternalError)


class TestDefaultingKnob:
    def test_disabled_defaulting_reports_stuck(self):
        # A deferred instantiation whose head nothing will ever determine:
        # with defaulting on it is completed monomorphically (Section
        # 4.3.2); with defaulting off it must fail *deterministically*.
        from repro.core.constraints import Inst
        from repro.core.solver import Solver

        solver = Solver(NameSupply("u"), defaulting=False)
        blocked = solver.unifier.fresh(Sort.U, 0)
        with pytest.raises(StuckConstraintError):
            solver.solve([Inst(blocked, Sort.M, (), (), INT, None)])

    def test_defaulting_on_solves_the_same_program(self):
        from repro.core.constraints import Inst
        from repro.core.solver import Solver

        solver = Solver(NameSupply("u"))
        blocked = solver.unifier.fresh(Sort.U, 0)
        assert solver.solve([Inst(blocked, Sort.M, (), (), INT, None)]) == []

    def test_figure2_unaffected_by_defaulting_flag(self):
        # No Figure 2 row depends on defaulting: verdicts must agree.
        from repro.evalsuite.figure2 import FIGURE2

        nodefault = Inferencer(ENV, options=InferOptions(defaulting=False))
        plain = Inferencer(ENV)
        for example in FIGURE2:
            assert plain.accepts(example.term) == nodefault.accepts(example.term), (
                example.key
            )
