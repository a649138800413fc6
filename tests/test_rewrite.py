"""Cross-validation: the literal Figure 8 rewriting engine against the
production worklist solver, on the scope-free fragment."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.classify import Bit
from repro.core.constraints import Eq, Gen, Inst, Scheme
from repro.core.errors import GIError
from repro.core.generate import Generator
from repro.core.names import NameSupply
from repro.core.rewrite import rewrite_solve
from repro.core.solver import Solver
from repro.core.sorts import Sort
from repro.core.types import (
    BOOL,
    INT,
    TVar,
    UVar,
    alpha_equal,
    forall,
    fun,
    fuv,
    list_of,
    subst_uvars,
)
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.workloads import application_chain
from repro.syntax import parse_term

from repro.conformance.strategies import monotypes

RELAXED = settings(
    max_examples=60, suppress_health_check=[HealthCheck.filter_too_much], deadline=None
)

A = TVar("a")
ID = forall(["a"], fun(A, A))


def production_solve(constraints):
    solver = Solver(NameSupply("p"))
    try:
        solver.solve(list(constraints))
        return solver
    except GIError:
        return None


class TestAgainstProductionSolver:
    def check_agreement(self, constraints, probes=()):
        production = production_solve(constraints)
        outcome = rewrite_solve(constraints)
        assert (production is not None) == outcome.solved, (
            f"production={'ok' if production else 'fail'} "
            f"rewrite={'ok' if outcome.solved else 'fail'} "
            f"trace={outcome.steps}"
        )
        if production is not None:
            rewrite_subst = outcome.substitution
            for probe in probes:
                left = production.unifier.zonk(probe)
                right = probe
                # Fully apply the rewrite substitution.
                for _ in range(len(rewrite_subst) + 1):
                    right = subst_uvars(rewrite_subst, right)
                assert alpha_equal(left, right) or (
                    fuv(left) and fuv(right)
                ), f"{probe}: production {left}, rewrite {right}"

    def test_simple_equalities(self):
        alpha, beta = UVar("x", Sort.U), UVar("y", Sort.U)
        self.check_agreement(
            [Eq(alpha, list_of(beta)), Eq(beta, INT)], probes=[alpha]
        )

    def test_failure_agreement(self):
        self.check_agreement([Eq(INT, BOOL)])

    def test_occurs_agreement(self):
        alpha = UVar("x", Sort.U)
        self.check_agreement([Eq(alpha, list_of(alpha))])

    def test_sort_demotion(self):
        alpha_m, beta_u = UVar("x", Sort.M), UVar("y", Sort.U)
        self.check_agreement(
            [Eq(alpha_m, list_of(beta_u)), Eq(beta_u, INT)], probes=[alpha_m]
        )

    def test_sort_violation(self):
        alpha_m = UVar("x", Sort.M)
        self.check_agreement([Eq(alpha_m, list_of(ID))])

    def test_instantiation(self):
        head_type = forall(["p"], fun(list_of(TVar("p")), TVar("p")))
        arg = UVar("a1", Sort.U)
        res = UVar("r", Sort.T)
        self.check_agreement(
            [
                Inst(head_type, Sort.M, (Bit.GEN,), (arg,), res),
                Eq(arg, list_of(ID)),
            ],
            probes=[arg],
        )

    def test_generalisation_release(self):
        rhs = UVar("x", Sort.T)
        captured = UVar("c", Sort.M)
        scheme = Scheme((captured,), (Eq(captured, INT),), fun(captured, captured))
        self.check_agreement([Gen(scheme, rhs)], probes=[rhs])

    @RELAXED
    @given(monotypes(2), monotypes(2))
    def test_random_unification_problems(self, left, right):
        self.check_agreement([Eq(left, right)])

    @RELAXED
    @given(monotypes(2), monotypes(2), monotypes(2))
    def test_random_conjunction(self, t1, t2, t3):
        alpha = UVar("probe", Sort.U)
        self.check_agreement([Eq(alpha, t1), Eq(t2, t3)])


class TestGeneratedNestedTerms:
    """Generator output for nested applications through both engines.

    Each scheme captures only the variables created directly under it;
    the literal Figure 8 engine releases nested schemes with no
    refreshing at all, so agreement on solvability and on the result
    type checks that the owned captures lose no constraint."""

    ENV = figure2_env()

    def check(self, term, expected):
        result, constraints = Generator().gen(self.ENV, term)
        production = production_solve(constraints)
        outcome = rewrite_solve(constraints)
        assert (production is not None) == outcome.solved == (expected is not None)
        if expected is None:
            return
        assert str(production.unifier.zonk(result)) == expected
        rewritten = result
        for _ in range(len(outcome.substitution) + 1):
            rewritten = subst_uvars(outcome.substitution, rewritten)
        assert str(rewritten) == expected

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_application_chain(self, depth):
        self.check(application_chain(depth), "Int")

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("pair (inc 1) (inc (inc 2))", "(Int, Int)"),
            ("pair (inc (inc 1)) (pair 1 (inc 2))", "(Int, (Int, Int))"),
            ("inc (inc (inc (inc 1)))", "Int"),
            ("pair (pair (inc 1) (inc 2)) (pair (inc 3) (inc (inc 4)))", "((Int, Int), (Int, Int))"),
            ("inc (inc (pair 1 2))", None),
            ("pair (inc (inc True)) 1", None),
        ],
    )
    def test_nested_pair_and_inc(self, source, expected):
        self.check(parse_term(source), expected)


class TestRewriteEngineDirect:
    def test_trace_records_rules(self):
        alpha = UVar("x", Sort.U)
        outcome = rewrite_solve([Eq(list_of(alpha), list_of(INT))])
        assert "eqmono" in outcome.steps
        assert outcome.solved

    def test_inst_rules_in_trace(self):
        res = UVar("r", Sort.T)
        outcome = rewrite_solve([Inst(forall(["a"], fun(A, A)), Sort.M, (), (), res)])
        assert "inst∀l" in outcome.steps and "instϵ" in outcome.steps
        assert outcome.solved

    def test_stuck_problem_reports_residual(self):
        outcome = rewrite_solve([Eq(INT, BOOL)])
        assert not outcome.solved
        assert outcome.residual

    def test_solved_form_is_idempotent(self):
        alpha, beta = UVar("x", Sort.U), UVar("y", Sort.U)
        outcome = rewrite_solve([Eq(alpha, list_of(beta)), Eq(beta, INT)])
        assert outcome.solved
        for image in outcome.substitution.values():
            assert not any(v in outcome.substitution for v in fuv(image))
