"""Crash containment for the serial item loops, and budget cloning."""

import pytest

from repro.core.errors import InternalError
from repro.robustness import Budget, clone_budget, run_contained


class TestCloneBudget:
    def test_none_passes_through(self):
        assert clone_budget(None) is None

    def test_limits_copied_state_not_shared(self):
        original = Budget(max_solver_steps=7, max_unify_depth=9, wall_clock=0.5)
        original.start()
        original.check_solver_step(3)
        clone = clone_budget(original)
        assert clone is not original
        assert clone.max_solver_steps == 7
        assert clone.max_unify_depth == 9
        assert clone.wall_clock == 0.5
        assert clone.solver_steps == 0


class _Unprintable(RuntimeError):
    """An exception whose __str__ itself crashes."""

    def __str__(self):
        raise ValueError("no rendering for you")


class TestWorkerDeath:
    """A task asking the process to die is a contained task failure."""

    @pytest.mark.parametrize("death", [SystemExit, KeyboardInterrupt])
    def test_process_exit_requests_become_internal_errors(self, death):
        def task(x):
            raise death(f"worker {x} wants out")

        with pytest.raises(InternalError) as caught:
            run_contained(task, 2)
        assert caught.value.original_class == death.__name__
        assert caught.value.phase == "worker"
        # The original traceback is preserved for structured output.
        assert "wants out" in (caught.value.snapshot.get("traceback") or "")

    @pytest.mark.parametrize("death", [SystemExit, KeyboardInterrupt])
    def test_pool_survives_a_worker_death(self, death):
        def fatal(_x):
            raise death()

        with pytest.raises(InternalError):
            run_contained(fatal, 1)
        # The caller carries on: later items still run, in order.
        assert [run_contained(lambda x: x * x, n) for n in range(5)] == [
            0, 1, 4, 9, 16,
        ]

    def test_serial_path_contains_deaths_too(self):
        with pytest.raises(InternalError):
            run_contained(lambda: (_ for _ in ()).throw(SystemExit(3)))

    def test_unprintable_exception_is_still_contained(self):
        # Containment must survive a snapshot/exception whose own
        # formatting crashes: the message degrades to a placeholder.
        def task():
            raise _Unprintable()

        with pytest.raises(InternalError) as caught:
            run_contained(task)
        assert "<unprintable _Unprintable>" in str(caught.value)

    def test_results_and_gi_errors_pass_through(self):
        assert run_contained(lambda x, *, y: x + y, 2, y=3) == 5
        error = InternalError(ValueError("engine"), phase="solve")

        def engine_failure():
            raise error

        with pytest.raises(InternalError) as caught:
            run_contained(engine_failure)
        assert caught.value is error
