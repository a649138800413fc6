"""Constraint generation — the ``Γ ⊢ e : σ ⇝ C`` judgement (Figures 7, 12, 13).

The generator walks the term once, producing a type (usually containing
fresh unification variables) and a conjunction of constraints for the
solver.  Three ancillary judgements from the paper appear as methods:

* :meth:`Generator.gen_fun` — ``⊢fun``: the head of an application;
* :meth:`Generator.gen_arg` — ``⊢arg``: an argument, deciding between
  rule VarGen (bare variable with a closed rank-1 type, bit ``⋆``) and
  rule ArgGen (anything else, bit ``•``);
* :meth:`Generator.gen` — the main judgement.

Two configuration switches support the ablation benchmarks:
``use_vargen`` disables rule VarGen (losing e.g. ``choose [] ids``), and
``nary_apps=False`` types applications one argument at a time, destroying
the guardedness information that multi-argument treatment provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.classify import Bit
from repro.core.constraints import ClassC, Constraint, Eq, Gen, Inst, Quant, Scheme
from repro.core.env import Environment
from repro.core.errors import GIError
from repro.core.evidence import EvidenceStore, Path
from repro.core.names import NameSupply
from repro.core.policy import DEFAULT_POLICY, InstantiationPolicy
from repro.core.sorts import Sort
from repro.core.terms import (
    Ann,
    AnnLam,
    App,
    Case,
    Lam,
    Let,
    Lit,
    Term,
    Var,
    subst_type_vars_in_term,
)
from repro.core.types import (
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    ftv,
    fun,
    fuv,
    is_rank1,
    open_forall,
    strip_forall,
    subst_tvars,
)

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.observability.tracer import TracerLike


@dataclass
class GenOptions:
    """Switches for the generator (ablation support) plus the
    instantiation policy (:mod:`repro.core.policy`)."""

    use_vargen: bool = True
    nary_apps: bool = True
    policy: InstantiationPolicy = DEFAULT_POLICY


class Generator:
    """One constraint-generation run.

    Tracks every unification variable it creates (in creation order) so
    that rule ArgGen can capture "the variables created while processing
    this argument" — which coincides with the paper's
    ``υ' = fuv(ϕ, C) − υ`` because names are globally fresh.
    """

    def __init__(
        self,
        supply: NameSupply | None = None,
        evidence: EvidenceStore | None = None,
        options: GenOptions | None = None,
        tracer: "TracerLike | None" = None,
    ) -> None:
        self.supply = supply or NameSupply("u")
        self.skolem_supply = NameSupply("sk")
        self.evidence = evidence or EvidenceStore()
        self.options = options or GenOptions()
        self.tracer = tracer
        self.created: list[UVar] = []

    def fresh(self, sort: Sort) -> UVar:
        variable = UVar(self.supply.fresh(), sort)
        self.created.append(variable)
        return variable

    def fresh_skolem(self, hint: str) -> str:
        return self.skolem_supply.fresh(hint + "_")

    # ------------------------------------------------------------------
    # Main judgement  Γ ⊢ e : σ ⇝ C
    # ------------------------------------------------------------------

    def gen(self, env: Environment, term: Term, path: Path = ()) -> tuple[Type, list[Constraint]]:
        if isinstance(term, Var):
            # A lone variable is a nullary application (Section 3.1).
            return self.gen_app(env, term, (), path)
        if isinstance(term, Lit):
            return term.type_, []
        if isinstance(term, App):
            return self.gen_app(env, term.head, term.args, path)
        if isinstance(term, Lam):
            binder = self.fresh(Sort.M)
            self.evidence.lam_binders[path] = binder
            body_type, constraints = self.gen(
                env.extended(term.var, binder), term.body, path + (0,)
            )
            return fun(binder, body_type), constraints
        if isinstance(term, AnnLam):
            body_type, constraints = self.gen(
                env.extended(term.var, term.annotation), term.body, path + (0,)
            )
            return fun(term.annotation, body_type), constraints
        if isinstance(term, Ann):
            return self.gen_ann(env, term, path)
        if isinstance(term, Let):
            if (
                self.options.policy.lazy
                and isinstance(term.bound, Var)
                and term.bound.name in env
            ):
                # Lazy instantiation: a let-bound *variable* aliases its
                # environment polytype verbatim instead of being pushed
                # through a nullary instantiation spine.  Since GI does
                # not re-generalise lets (Section 3.5), this is the one
                # site where eager vs lazy is observable — aliasing makes
                # let-inlining of a variable type-preserving.
                bound_type = env.lookup(term.bound.name)
                self.evidence.let_types[path] = bound_type
                body_type, body_constraints = self.gen(
                    env.extended(term.var, bound_type), term.body, path + (1,)
                )
                return body_type, body_constraints
            bound_type, bound_constraints = self.gen(env, term.bound, path + (0,))
            self.evidence.let_types[path] = bound_type
            body_type, body_constraints = self.gen(
                env.extended(term.var, bound_type), term.body, path + (1,)
            )
            return body_type, bound_constraints + body_constraints
        if isinstance(term, Case):
            return self.gen_case(env, term, path)
        raise TypeError(f"unknown term node: {term!r}")

    # ------------------------------------------------------------------
    # Applications (rule App)
    # ------------------------------------------------------------------

    def gen_app(
        self, env: Environment, head: Term, args: tuple[Term, ...], path: Path
    ) -> tuple[Type, list[Constraint]]:
        if not self.options.nary_apps and len(args) > 1:
            return self._gen_app_binary(env, head, args, path)
        head_type, head_constraints = self.gen_fun(env, head, path + (0,))
        expected = tuple(self.fresh(Sort.U) for _ in args)
        result = self.fresh(Sort.T)
        bits: list[Bit] = []
        arg_constraints: list[Constraint] = []
        for index, argument in enumerate(args):
            bit, constraints = self.gen_arg(
                env, argument, expected[index], path + (index + 1,)
            )
            bits.append(bit)
            arg_constraints.extend(constraints)
        inst = Inst(head_type, Sort.M, tuple(bits), expected, result, evidence=path)
        return result, head_constraints + [inst] + arg_constraints

    def _gen_app_binary(
        self, env: Environment, head: Term, args: tuple[Term, ...], path: Path
    ) -> tuple[Type, list[Constraint]]:
        """Ablation mode: type ``e0 e1 ... en`` as ``(...(e0 e1)...) en``.

        Each step sees only one argument, so guardedness can only ever be
        justified by that single argument — the paper's motivation for the
        n-ary treatment.  Evidence is not recorded in this mode.
        """
        current_type, constraints = self.gen_fun(env, head, path + (0,))
        for index, argument in enumerate(args):
            expected = self.fresh(Sort.U)
            result = self.fresh(Sort.T)
            bit, arg_constraints = self.gen_arg(
                env, argument, expected, path + (index + 1,)
            )
            constraints.append(
                Inst(current_type, Sort.M, (bit,), (expected,), result)
            )
            constraints.extend(arg_constraints)
            current_type = result
        return current_type, constraints

    # ------------------------------------------------------------------
    # Heads (⊢fun)
    # ------------------------------------------------------------------

    def gen_fun(self, env: Environment, head: Term, path: Path) -> tuple[Type, list[Constraint]]:
        if isinstance(head, Var):
            # Rule VarHead: the environment type, uninstantiated.
            return env.lookup(head.name), []
        if isinstance(head, App):
            raise GIError("application heads are flattened by construction")
        # Rule ExprHead.
        return self.gen(env, head, path)

    # ------------------------------------------------------------------
    # Arguments (⊢arg): VarGen vs ArgGen
    # ------------------------------------------------------------------

    def gen_arg(
        self, env: Environment, argument: Term, expected: Type, path: Path
    ) -> tuple[Bit, list[Constraint]]:
        tracing = self.tracer is not None and self.tracer.enabled
        if (
            self.options.use_vargen
            and isinstance(argument, Var)
            and argument.name in env
        ):
            var_type = env.lookup(argument.name)
            if self._vargen_applicable(var_type):
                if tracing:
                    self.tracer.inc("gen.args.star")
                    self.tracer.event(
                        "gen.arg",
                        bit=str(Bit.STAR),
                        rule="VarGen",
                        var=argument.name,
                        type=str(var_type),
                    )
                return Bit.STAR, self._vargen(var_type, expected, path)
        # Rule ArgGen: type the argument as an expression and capture
        # every variable created along the way in a generalisation scheme.
        snapshot = len(self.created)
        arg_type, constraints = self.gen(env, argument, path)
        captured = tuple(self.created[snapshot:])
        scheme = Scheme(captured, tuple(constraints), arg_type)
        if tracing:
            self.tracer.inc("gen.args.gen")
            self.tracer.event(
                "gen.arg",
                bit=str(Bit.GEN),
                rule="ArgGen",
                captured=len(captured),
                type=str(arg_type),
            )
        return Bit.GEN, [Gen(scheme, expected, star=False, evidence=path)]

    @staticmethod
    def _vargen_applicable(var_type: Type) -> bool:
        """Rule VarGen needs a *closed* rank-1 type ``∀p̄. τ``."""
        return is_rank1(var_type) and not ftv(var_type) and not fuv(var_type)

    def _vargen(self, var_type: Type, expected: Type, path: Path) -> list[Constraint]:
        binders, _ = strip_forall(var_type)
        alphas = [self.fresh(Sort.U) for _ in binders]
        # A qualified rank-1 type is fine: its instantiated context becomes
        # wanted constraints in the scheme.
        context, instantiated = open_forall(var_type, alphas)
        wanted: list[Constraint] = [
            ClassC(predicate.class_name, predicate.args) for predicate in context
        ]
        info = self.evidence.gen_info(path)
        info.star = True
        info.star_type_args = list(alphas)
        scheme = Scheme(tuple(alphas), tuple(wanted), instantiated)
        return [Gen(scheme, expected, star=True, evidence=path)]

    # ------------------------------------------------------------------
    # Annotated applications (rule AnnApp)
    # ------------------------------------------------------------------

    def gen_ann(self, env: Environment, term: Ann, path: Path) -> tuple[Type, list[Constraint]]:
        annotation = term.annotation
        binders, _ = strip_forall(annotation)

        # Rename the annotation's binders to fresh skolems for the inner
        # constraint, so nested annotations with the same binder names do
        # not collide.
        skolems = tuple(self.fresh_skolem(name) for name in binders)
        images = [TVar(skolem) for skolem in skolems]
        context, inner_body = open_forall(annotation, images)
        # Lexically scoped type variables: the binders scope over the
        # annotated expression, including its nested annotations.
        scoped_expr = subst_type_vars_in_term(dict(zip(binders, images)), term.expr)
        if isinstance(scoped_expr, App):
            head, args = scoped_expr.head, scoped_expr.args
        else:
            head, args = scoped_expr, ()
        givens = tuple(ClassC(predicate.class_name, predicate.args) for predicate in context)

        snapshot = len(self.created)
        head_type, head_constraints = self.gen_fun(env, head, path + (0,))
        expected = tuple(self.fresh(Sort.U) for _ in args)
        bits: list[Bit] = []
        arg_constraints: list[Constraint] = []
        for index, argument in enumerate(args):
            bit, constraints = self.gen_arg(
                env, argument, expected[index], path + (index + 1,)
            )
            bits.append(bit)
            arg_constraints.extend(constraints)
        inst = Inst(head_type, Sort.U, tuple(bits), expected, inner_body, evidence=path)
        existentials = tuple(self.created[snapshot:])
        wanteds = tuple(head_constraints + [inst] + arg_constraints)
        quant = Quant(skolems, existentials, givens, wanteds, evidence=path)
        info = self.evidence.gen_info(("ann",) + path)
        info.skolems = list(skolems)
        return annotation, [quant]

    # ------------------------------------------------------------------
    # Case expressions (Figure 12 / Figure 13)
    # ------------------------------------------------------------------

    def gen_case(self, env: Environment, term: Case, path: Path) -> tuple[Type, list[Constraint]]:
        scrutinee_type, constraints = self.gen(env, term.scrutinee, path + (0,))
        first = env.lookup_datacon(term.alts[0].constructor)
        tycon = first.result_con
        alphas = tuple(self.fresh(Sort.U) for _ in first.universals)
        case_info = self.evidence.case_info(path)
        case_info.tycon_args = list(alphas)
        result = self.fresh(Sort.U)
        constraints.append(
            Inst(scrutinee_type, Sort.M, (), (), TCon(tycon, alphas))
        )
        for index, alt in enumerate(term.alts, start=1):
            datacon = env.lookup_datacon(alt.constructor)
            if datacon.result_con != tycon:
                raise GIError(
                    f"constructor {alt.constructor} belongs to {datacon.result_con}, "
                    f"not {tycon}"
                )
            if len(alt.binders) != datacon.arity:
                raise GIError(
                    f"constructor {alt.constructor} has arity {datacon.arity}, "
                    f"pattern binds {len(alt.binders)}"
                )
            if len(datacon.universals) != len(alphas):
                raise GIError(
                    f"constructor {alt.constructor} disagrees on the arity of {tycon}"
                )
            mapping: dict[str, Type] = dict(zip(datacon.universals, alphas))
            skolems = tuple(self.fresh_skolem(name) for name in datacon.existentials)
            mapping.update(
                {name: TVar(skolem) for name, skolem in zip(datacon.existentials, skolems)}
            )
            field_types = [subst_tvars(mapping, field) for field in datacon.fields]
            case_info.alt_skolems.append(list(skolems))
            case_info.field_types.append(list(field_types))
            branch_env = env.extended_many(dict(zip(alt.binders, field_types)))
            givens = tuple(
                _subst_given(mapping, given) for given in datacon.givens
            )
            snapshot = len(self.created)
            rhs_type, rhs_constraints = self.gen(branch_env, alt.rhs, path + (index,))
            branch_wanteds = tuple(rhs_constraints + [Eq(result, rhs_type)])
            if skolems or givens:
                existentials = tuple(self.created[snapshot:])
                constraints.append(Quant(skolems, existentials, givens, branch_wanteds))
            else:
                constraints.extend(branch_wanteds)
        return result, constraints


def _subst_given(mapping: dict[str, Type], given) -> Constraint:
    """Instantiate a data constructor's stored given constraint."""
    if isinstance(given, Pred):
        return ClassC(
            given.class_name,
            tuple(subst_tvars(mapping, argument) for argument in given.args),
        )
    if isinstance(given, tuple) and len(given) == 2:
        left, right = given
        return Eq(subst_tvars(mapping, left), subst_tvars(mapping, right))
    raise TypeError(f"unsupported given constraint on data constructor: {given!r}")
