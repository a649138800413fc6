"""Direct tests of the constraint solver (Figure 8/10/14 rules)."""

import pytest

from repro.core import Inferencer
from repro.core.constraints import ClassC, Eq, Gen, Inst, Quant, Scheme
from repro.core.classify import Bit
from repro.core.errors import (
    MissingInstanceError,
    SkolemEscapeError,
    StuckConstraintError,
    UnificationError,
)
from repro.core.names import NameSupply
from repro.core.solver import InstanceEnv, Solver
from repro.core.sorts import Sort
from repro.core.types import (
    BOOL,
    INT,
    TVar,
    UVar,
    forall,
    fun,
    fuv,
    list_of,
)
from repro.evalsuite.figure2 import figure2_env
from repro.syntax import parse_term


def make_solver(instances=None):
    return Solver(NameSupply("s"), instances=instances)


A = TVar("a")
ID = forall(["a"], fun(A, A))


class TestEqualities:
    def test_simple_equality(self):
        solver = make_solver()
        alpha = UVar("x", Sort.U)
        solver.solve([Eq(alpha, INT)])
        assert solver.unifier.zonk(alpha) == INT

    def test_inconsistent_equality(self):
        with pytest.raises(UnificationError):
            make_solver().solve([Eq(INT, BOOL)])

    def test_order_insensitive(self):
        # eqsubst propagates regardless of constraint order.
        for order in (0, 1):
            solver = make_solver()
            alpha, beta = UVar("x", Sort.U), UVar("y", Sort.U)
            constraints = [Eq(alpha, list_of(beta)), Eq(beta, INT)]
            if order:
                constraints.reverse()
            solver.solve(constraints)
            assert solver.unifier.zonk(alpha) == list_of(INT)


class TestInstantiation:
    def test_inst_epsilon_unifies(self):
        # instϵ: µ ⩽ϵ ϵ;η becomes µ ~ η.
        solver = make_solver()
        beta = UVar("r", Sort.T)
        solver.solve([Inst(INT, Sort.M, (), (), beta)])
        assert solver.unifier.zonk(beta) == INT

    def test_inst_forall_freshens_monomorphically_when_nullary(self):
        # A lone variable instantiates fully monomorphically (§3.3).
        solver = make_solver()
        beta = UVar("r", Sort.T)
        solver.solve([Inst(ID, Sort.M, (), (), beta)])
        resolved = solver.unifier.zonk(beta)
        from repro.core.types import fuv

        variables = fuv(resolved)
        assert variables and all(v.sort is Sort.M for v in variables)

    def test_inst_arrow_consumes_arguments(self):
        solver = make_solver()
        arg = UVar("a1", Sort.U)
        res = UVar("r", Sort.T)
        solver.solve([Inst(fun(INT, BOOL), Sort.M, (Bit.GEN,), (arg,), res)])
        assert solver.unifier.zonk(arg) == INT
        assert solver.unifier.zonk(res) == BOOL

    def test_inst_guarded_variable_goes_unrestricted(self):
        # head-like type: the binder under [·] may take a polytype.
        head_type = forall(["p"], fun(list_of(TVar("p")), TVar("p")))
        solver = make_solver()
        arg = UVar("a1", Sort.U)
        res = UVar("r", Sort.T)
        solver.solve(
            [
                Inst(head_type, Sort.M, (Bit.GEN,), (arg,), res),
                Eq(arg, list_of(ID)),
            ]
        )
        # The deferred result instantiation re-instantiates ∀a.a→a fully
        # monomorphically (α → α); top-level generalisation would then
        # recover ∀a. a → a.
        resolved = solver.unifier.zonk(res)
        from repro.core.types import arrow_parts, is_arrow

        assert is_arrow(resolved)
        left, right = arrow_parts(resolved)
        assert left == right and isinstance(left, UVar)

    def test_deferred_inst_wakes_up(self):
        # βᵘ ⩽ϵ ϵ;r is stuck until β is bound to a polytype.
        solver = make_solver()
        beta = UVar("b", Sort.U)
        res = UVar("r", Sort.T)
        solver.solve([Inst(beta, Sort.M, (), (), res), Eq(beta, ID)])
        from repro.core.types import fuv, is_fully_monomorphic

        resolved = solver.unifier.zonk(res)
        # ∀a.a→a instantiated fully monomorphically: α → α.
        assert is_fully_monomorphic(resolved)

    def test_defaulting_resolves_unconstrained(self):
        # A generalisation against an unconstrained unrestricted variable
        # defaults rather than getting stuck.
        solver = make_solver()
        rhs = UVar("x", Sort.U)
        scheme = Scheme((), (), INT)
        solver.solve([Gen(scheme, rhs)])
        assert solver.unifier.zonk(rhs) == INT


class TestInstArrow:
    """Rule inst→ on a known arrow hands its codomain to the next step
    without a store write, unless a variable at the constraint's level
    could not stand for the codomain: then a fresh ``rest`` is bound to it,
    which promotes deeper variables and rejects deeper skolems."""

    def test_known_arrow_writes_nothing_itself(self):
        solver = make_solver()
        arg, res = UVar("a1", Sort.U), UVar("r", Sort.T)
        solver.solve([Inst(fun(INT, BOOL), Sort.M, (Bit.GEN,), (arg,), res)])
        assert solver.unifier.zonk(arg) == INT
        assert solver.unifier.zonk(res) == BOOL
        # Only the argument and the result are written; no name is drawn.
        assert solver.unifier.bindings == 2
        assert solver.steps == 2
        assert solver.unifier.supply.fresh() == "s0"

    def test_deeper_variable_in_codomain_is_promoted(self):
        solver = make_solver()
        inner = UVar("i", Sort.M, 1)
        arg, res = UVar("a1", Sort.U), UVar("r", Sort.T)
        solver.solve(
            [Inst(fun(INT, list_of(inner)), Sort.M, (Bit.GEN,), (arg,), res)]
        )
        promoted = solver.unifier.zonk(inner)
        assert isinstance(promoted, UVar) and promoted.level == 0
        assert solver.unifier.zonk(res) == list_of(promoted)
        assert (solver.unifier.bindings, solver.steps) == (4, 2)

    def test_deeper_variable_as_codomain_is_promoted(self):
        solver = make_solver()
        inner = UVar("i", Sort.U, 1)
        arg, res = UVar("a1", Sort.U), UVar("r", Sort.T)
        solver.solve([Inst(fun(INT, inner), Sort.M, (Bit.GEN,), (arg,), res)])
        resolved = solver.unifier.zonk(res)
        assert isinstance(resolved, UVar) and resolved.level == 0
        assert solver.unifier.zonk(inner) == resolved
        assert (solver.unifier.bindings, solver.steps) == (4, 3)

    def test_codomain_is_read_through_solved_variables(self):
        # ``v`` stands for a type with a deeper variable, as a refreshed
        # existential can: the check sees it, and it is promoted.
        solver = make_solver()
        v, inner = UVar("v", Sort.U), UVar("i", Sort.M, 1)
        solver.unifier.assign(v, list_of(inner))
        arg, res = UVar("a1", Sort.U), UVar("r", Sort.T)
        solver.solve([Inst(fun(INT, v), Sort.M, (Bit.GEN,), (arg,), res)])
        promoted = solver.unifier.zonk(inner)
        assert isinstance(promoted, UVar) and promoted.level == 0
        assert solver.unifier.zonk(res) == list_of(promoted)
        assert (solver.unifier.bindings, solver.steps) == (5, 2)

    def test_deeper_skolem_in_codomain_escapes(self):
        from repro.core.errors import SkolemEscapeError

        solver = make_solver()
        solver.unifier.skolem_levels["sk"] = 1
        arg, res = UVar("a1", Sort.U), UVar("r", Sort.T)
        with pytest.raises(SkolemEscapeError) as info:
            solver.solve(
                [Inst(fun(INT, fun(BOOL, TVar("sk"))), Sort.M, (Bit.GEN,), (arg,), res)]
            )
        assert str(info.value) == (
            "rigid type variable `sk` would escape its scope via `Bool -> sk`"
        )
        assert (solver.unifier.bindings, solver.steps) == (1, 1)

    def test_monomorphic_head_draws_its_rest_monomorphic(self):
        # Rule eqfully would demote a `u` rest; it is drawn at `m` instead.
        solver = make_solver()
        head = UVar("h", Sort.M)
        arg, res = UVar("a1", Sort.U), UVar("r", Sort.T)
        solver.solve([Inst(head, Sort.M, (Bit.GEN,), (arg,), res)])
        resolved = solver.unifier.zonk(head)
        assert all(v.sort is Sort.M for v in fuv(resolved))
        assert (solver.unifier.bindings, solver.steps) == (3, 2)


class TestGeneralisation:
    def test_release_against_mono(self):
        solver = make_solver()
        rhs = UVar("x", Sort.T)
        captured = UVar("c", Sort.M)
        scheme = Scheme((captured,), (Eq(captured, INT),), fun(captured, captured))
        solver.solve([Gen(scheme, rhs)])
        assert solver.unifier.zonk(rhs) == fun(INT, INT)

    def test_skolemise_against_poly(self):
        # (⨅{α}. ⊤ ⇒ α → α) ⪯ ∀p. p → p  must solve α := p.
        solver = make_solver()
        captured = UVar("c", Sort.M)
        scheme = Scheme((captured,), (), fun(captured, captured))
        solver.solve([Gen(scheme, ID)])  # no exception

    def test_skolem_escape_detected(self):
        # (⨅{}. ⊤ ⇒ αᵐ) ⪯ ∀p. p → p: α is outer, p escapes.
        solver = make_solver()
        outer = UVar("o", Sort.M)
        scheme = Scheme((), (), fun(outer, outer))
        from repro.core.errors import SkolemEscapeError

        with pytest.raises(SkolemEscapeError):
            solver.solve([Gen(scheme, ID), Eq(outer, outer)])


class TestReleaseInPlace:
    """Rule inst⨅l floats a scheme's captured variables into the scope it
    is released in.  A variable already at that level is released in
    place: each scheme is released once, so refreshing it would only
    rename it."""

    def test_level_zero_release_draws_and_writes_nothing(self):
        solver = make_solver()
        rhs = UVar("x", Sort.T)
        captured = UVar("c", Sort.M)
        scheme = Scheme((captured,), (Eq(captured, INT),), fun(captured, captured))
        solver.solve([Gen(scheme, rhs)])
        assert solver.unifier.zonk(rhs) == fun(INT, INT)
        # ``c := Int`` and ``x := Int -> Int``; the release itself writes
        # nothing, and no name is drawn.
        assert solver.unifier.bindings == 2
        assert solver.unifier.supply.fresh() == "s0"

    def test_level_zero_release_keeps_the_captured_variable(self):
        solver = make_solver()
        rhs = UVar("x", Sort.T)
        captured = UVar("c", Sort.M)
        solver.solve([Gen(Scheme((captured,), (), fun(captured, captured)), rhs)])
        assert solver.unifier.zonk(rhs) == fun(captured, captured)
        assert solver.unifier.bindings == 1

    def test_release_under_inst_forall_r_floats_one_level_deeper(self):
        # (⨅{αᵐ}. ⊤ ⇒ α → α) ⪯ ∀p. p → p: the release is at level 1, so α
        # is refreshed there and may hold the skolem; bound in place at
        # level 0, it would let the skolem escape.
        solver = make_solver()
        captured = UVar("c", Sort.M)
        solver.solve([Gen(Scheme((captured,), (), fun(captured, captured)), ID)])
        solved = solver.unifier.zonk(captured)
        assert isinstance(solved, TVar)
        assert solver.unifier.skolem_level(solved.name) == 1
        assert solver.unifier.bindings == 2

    def test_poly_of_identity_is_accepted(self):
        result = Inferencer(figure2_env()).infer(parse_term(r"poly (\x -> x)"))
        assert str(result.type_) == "(Int, Bool)"
        assert result.solver.unifier.bindings == 6

    @pytest.mark.parametrize(
        "source, skolem",
        [(r"\y -> poly (\x -> y)", "a_5"), (r"\f -> poly (\x -> f x)", "a_7")],
    )
    def test_outer_variables_still_cannot_hold_the_skolem(self, source, skolem):
        with pytest.raises(SkolemEscapeError) as info:
            Inferencer(figure2_env()).infer(parse_term(source))
        assert str(info.value) == (
            f"rigid type variable `{skolem}` would escape its scope via `{skolem}`"
        )


class TestQuantification:
    def test_skolems_are_rigid_inside(self):
        solver = make_solver()
        quant = Quant(("sk",), (), (), (Eq(TVar("sk"), INT),))
        with pytest.raises(UnificationError):
            solver.solve([quant])

    def test_existentials_are_refreshed_deeper(self):
        solver = make_solver()
        ex = UVar("e", Sort.U)
        quant = Quant(("sk",), (ex,), (), (Eq(ex, TVar("sk")),))
        solver.solve([quant])  # inner variable may hold the inner skolem

    def test_outer_variable_cannot_hold_skolem(self):
        from repro.core.errors import SkolemEscapeError

        solver = make_solver()
        outer = UVar("o", Sort.U)
        quant = Quant(("sk",), (), (), (Eq(outer, TVar("sk")),))
        with pytest.raises(SkolemEscapeError):
            solver.solve([quant])

    def test_float_with_promotion(self):
        # An outer variable equated (inside the scope) with a type built
        # from inner existentials: the inner ones are promoted out.
        solver = make_solver()
        outer = UVar("o", Sort.U)
        inner = UVar("i", Sort.U)
        quant = Quant(("sk",), (inner,), (), (Eq(outer, list_of(inner)),))
        solver.solve([quant])
        resolved = solver.unifier.zonk(outer)
        assert isinstance(resolved, type(list_of(INT)))
        element = resolved.args[0]
        assert isinstance(element, UVar) and element.level == 0


class TestClassConstraints:
    def test_instance_discharge(self):
        instances = InstanceEnv()
        instances.add_instance(ClassC("Eq", (INT,)))
        solver = make_solver(instances)
        solver.solve([ClassC("Eq", (INT,))])

    def test_missing_instance(self):
        with pytest.raises(MissingInstanceError):
            make_solver().solve([ClassC("Eq", (BOOL,))])

    def test_instance_with_context(self):
        instances = InstanceEnv()
        instances.add_instance(ClassC("Eq", (INT,)))
        instances.add_instance(
            ClassC("Eq", (list_of(TVar("a")),)),
            context=(ClassC("Eq", (TVar("a"),)),),
            variables=("a",),
        )
        solver = make_solver(instances)
        solver.solve([ClassC("Eq", (list_of(list_of(INT)),))])
        with pytest.raises(MissingInstanceError):
            make_solver(instances).solve([ClassC("Eq", (list_of(BOOL),))])

    def test_given_discharges_wanted(self):
        solver = make_solver()
        quant = Quant(
            ("sk",),
            (),
            (ClassC("Eq", (TVar("sk"),)),),
            (ClassC("Eq", (TVar("sk"),)),),
        )
        solver.solve([quant])

    def test_residual_class_constraint_reported(self):
        solver = make_solver()
        alpha = UVar("x", Sort.M)
        residual = solver.solve([ClassC("Eq", (alpha,))])
        assert len(residual) == 1
