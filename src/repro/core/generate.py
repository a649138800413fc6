"""Constraint generation — the ``Γ ⊢ e : σ ⇝ C`` judgement (Figures 7, 12, 13).

The generator walks the term once, producing a type (usually containing
fresh unification variables) and a conjunction of constraints for the
solver.  Three ancillary judgements from the paper appear as methods:

* ``⊢fun`` — the head of an application, in :meth:`Generator._spine`;
* ``⊢arg`` — an argument, deciding between rule VarGen (bare variable
  with a closed rank-1 type, bit ``⋆``, :meth:`Generator._vargen`) and
  rule ArgGen (anything else, bit ``•``, :meth:`Generator._arggen`);
* :meth:`Generator.gen` — the main judgement.

Two configuration switches support the ablation (``results/ablation.txt``):
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
from repro.core.evidence import ROOT, EvidenceStore, Key
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
    drive,
    scoped,
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
class InferOptions:
    """Configuration for one inference run.

    ``use_vargen`` / ``nary_apps`` switch off rule VarGen and n-ary
    applications for the ablation (``results/ablation.txt``);
    ``defaulting=False`` makes the solver fail deterministically with
    :class:`StuckConstraintError` on underdetermined programs instead of
    defaulting the blocked variables (Section 4.3.2); ``policy`` selects
    the instantiation discipline (:mod:`repro.core.policy`) — the default
    ``eager-shallow`` is the paper's system, every other value is an
    experimental eager/lazy × deep/shallow variant.
    """

    use_vargen: bool = True
    nary_apps: bool = True
    defaulting: bool = True
    policy: InstantiationPolicy = DEFAULT_POLICY


class Generator:
    """One constraint-generation run.

    Tracks the unification variables it creates (in creation order) so
    that rule ArgGen can capture "the variables created while processing
    this argument" — which coincides with the paper's
    ``υ' = fuv(ϕ, C) − υ`` because names are globally fresh.

    Each variable has exactly one owner: the innermost scheme or
    implication it was created under, which takes it out of ``created``
    (:meth:`_take_created`).  Its owner's release floats it into the
    release's scope, so an enclosing release need not, and nested
    application costs linear rather than quadratic work.

    The walk runs on :func:`~repro.core.terms.drive`: each rule below is
    a generator that ``yield``s the walk of a subterm, and a variable or
    literal is answered without one.  The term variables bound inside the
    term live in one scope, ``local``, over the environment.
    """

    def __init__(
        self,
        supply: NameSupply | None = None,
        evidence: EvidenceStore | None = None,
        options: InferOptions | None = None,
        tracer: "TracerLike | None" = None,
    ) -> None:
        self.supply = supply or NameSupply("u")
        self.skolem_supply = NameSupply("sk")
        self.evidence = evidence or EvidenceStore()
        self.options = options or InferOptions()
        self.tracer = tracer
        self.created: list[UVar] = []
        self.env = Environment()
        self.local: dict[str, Type] = {}

    def fresh(self, sort: Sort) -> UVar:
        variable = UVar(self.supply.fresh(), sort)
        self.created.append(variable)
        return variable

    def fresh_skolem(self, hint: str) -> str:
        return self.skolem_supply.fresh(hint + "_")

    def _take_created(self, snapshot: int) -> tuple[UVar, ...]:
        """Hand the variables created since ``snapshot`` to a new owner
        and drop them from ``created``, so no enclosing owner captures
        them again."""
        owned = tuple(self.created[snapshot:])
        del self.created[snapshot:]
        return owned

    def _lookup(self, name: str) -> Type:
        found = self.local.get(name)
        return found if found is not None else self.env.lookup(name)

    def _in_scope(self, name: str) -> bool:
        return name in self.local or name in self.env

    # ------------------------------------------------------------------
    # Main judgement  Γ ⊢ e : σ ⇝ C
    # ------------------------------------------------------------------

    def gen(self, env: Environment, term: Term) -> tuple[Type, list[Constraint]]:
        """Generate the type and constraints of a whole term under ``env``."""
        self.env, self.local = env, {}
        return drive(self._gen(term, ROOT))

    def _gen(self, term: Term, key: Key):
        kind = term.__class__
        if kind is Var:
            # A lone variable is a nullary application (Section 3.1).
            head_type = self._lookup(term.name)
            result = self.fresh(Sort.T)
            return result, [Inst(head_type, Sort.M, (), (), result, evidence=key)]
        if kind is Lit:
            return term.type_, []
        if kind is App:
            return self._spine(term.head, term.args, key)
        if kind is Lam or kind is AnnLam:
            return self._gen_lam(term, key)
        if kind is Ann:
            return self._gen_ann(term, key)
        if kind is Let:
            return self._gen_let(term, key)
        if kind is Case:
            return self._gen_case(term, key)
        raise TypeError(f"unknown term node: {term!r}")

    def _gen_lam(self, term: Lam | AnnLam, key: Key):
        if term.__class__ is Lam:
            binder = self.fresh(Sort.M)
            self.evidence.lam_binders[key] = binder
        else:
            binder = term.annotation
        body_key = self.evidence.child(key, 0)
        body_type, constraints = yield scoped(
            self.local, (term.var,), (binder,), self._gen, term.body, body_key
        )
        return fun(binder, body_type), constraints

    def _gen_let(self, term: Let, key: Key):
        if (
            self.options.policy.lazy
            and term.bound.__class__ is Var
            and self._in_scope(term.bound.name)
        ):
            # Lazy instantiation: a let-bound *variable* aliases its
            # environment polytype verbatim instead of being pushed
            # through a nullary instantiation spine.  Since GI does
            # not re-generalise lets (Section 3.5), this is the one
            # site where eager vs lazy is observable — aliasing makes
            # let-inlining of a variable type-preserving.
            bound_type, constraints = self._lookup(term.bound.name), None
        else:
            bound_type, constraints = yield self._gen(
                term.bound, self.evidence.child(key, 0)
            )
        self.evidence.let_types[key] = bound_type
        body_key = self.evidence.child(key, 1)
        body_type, body_constraints = yield scoped(
            self.local, (term.var,), (bound_type,), self._gen, term.body, body_key
        )
        if constraints is None:
            return body_type, body_constraints
        constraints.extend(body_constraints)
        return body_type, constraints

    # ------------------------------------------------------------------
    # Application spines (rules App and AnnApp)
    # ------------------------------------------------------------------

    def _spine(
        self,
        head: Term,
        args: tuple[Term, ...],
        key: Key,
        sort: Sort = Sort.M,
        target: Type | None = None,
    ):
        """The loop rules App and AnnApp share: the head's type by ``⊢fun``
        (rule VarHead for a variable, ExprHead otherwise), then one
        instantiation constraint at fresh expected argument types, each
        argument checked against its own by ``⊢arg``.

        ``target`` is the result type of an annotated spine (rule AnnApp,
        sort ``U``); a plain spine's result is a fresh variable.  The
        ablation's binary mode (``nary_apps=False``) types ``e0 e1 … en``
        as ``(…(e0 e1)…) en``: each argument gets its own constraint, so
        guardedness can only ever be justified by that one argument — the
        paper's motivation for the n-ary treatment — and no evidence.
        """
        if head.__class__ is Var:
            current = self._lookup(head.name)
            constraints: list[Constraint] = []
        elif head.__class__ is App:
            raise GIError("application heads are flattened by construction")
        else:
            current, constraints = yield self._gen(head, self.evidence.child(key, 0))
        binary = target is None and not self.options.nary_apps and len(args) > 1
        groups = [(argument,) for argument in args] if binary else [args]
        position = 0
        for group in groups:
            expected = tuple(self.fresh(Sort.U) for _ in group)
            result = self.fresh(Sort.T) if target is None else target
            bits: list[Bit] = []
            arg_constraints: list[Constraint] = []
            for argument, argument_type in zip(group, expected):
                position += 1
                arg_key = self.evidence.child(key, position)
                found = self._vargen(argument, argument_type, arg_key)
                if found is None:
                    # Rule ArgGen: type the argument as an expression and
                    # capture the variables created along the way that no
                    # nested scheme owns.
                    snapshot = len(self.created)
                    arg_type, inner = yield self._gen(argument, arg_key)
                    found = self._arggen(snapshot, arg_type, inner, argument_type, arg_key)
                bits.append(Bit.STAR if found.star else Bit.GEN)
                arg_constraints.append(found)
            evidence = None if binary else key
            constraints.append(Inst(current, sort, tuple(bits), expected, result, evidence))
            constraints.extend(arg_constraints)
            current = result
        return current, constraints

    # ------------------------------------------------------------------
    # Arguments (⊢arg): VarGen vs ArgGen
    # ------------------------------------------------------------------

    def _vargen(self, argument: Term, expected: Type, key: Key) -> Gen | None:
        """Rule VarGen, for a bare variable with a *closed* rank-1 type
        ``∀p̄. τ``; ``None`` where it does not apply."""
        if not (
            self.options.use_vargen
            and argument.__class__ is Var
            and self._in_scope(argument.name)
        ):
            return None
        var_type = self._lookup(argument.name)
        if not (is_rank1(var_type) and not ftv(var_type) and not fuv(var_type)):
            return None
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.inc("gen.args.star")
            self.tracer.event(
                "gen.arg",
                bit=str(Bit.STAR),
                rule="VarGen",
                var=argument.name,
                type=str(var_type),
            )
        binders, _ = strip_forall(var_type)
        snapshot = len(self.created)
        alphas = [self.fresh(Sort.U) for _ in binders]
        # A qualified rank-1 type is fine: its instantiated context becomes
        # wanted constraints in the scheme.
        context, instantiated = open_forall(var_type, alphas)
        wanted: list[Constraint] = [
            ClassC(predicate.class_name, predicate.args) for predicate in context
        ]
        info = self.evidence.gen_info(key)
        info.star = True
        info.star_type_args = list(alphas)
        scheme = Scheme(self._take_created(snapshot), tuple(wanted), instantiated)
        return Gen(scheme, expected, star=True, evidence=key)

    def _arggen(
        self,
        snapshot: int,
        arg_type: Type,
        constraints: list[Constraint],
        expected: Type,
        key: Key,
    ) -> Gen:
        """Rule ArgGen: the scheme of an argument typed as an expression."""
        captured = self._take_created(snapshot)
        scheme = Scheme(captured, tuple(constraints), arg_type)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.inc("gen.args.gen")
            self.tracer.event(
                "gen.arg",
                bit=str(Bit.GEN),
                rule="ArgGen",
                captured=len(captured),
                type=str(arg_type),
            )
        return Gen(scheme, expected, star=False, evidence=key)

    # ------------------------------------------------------------------
    # Annotated applications (rule AnnApp)
    # ------------------------------------------------------------------

    def _gen_ann(self, term: Ann, key: Key):
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
        if scoped_expr.__class__ is App:
            head, args = scoped_expr.head, scoped_expr.args
        else:
            head, args = scoped_expr, ()
        givens = tuple(ClassC(predicate.class_name, predicate.args) for predicate in context)

        snapshot = len(self.created)
        _, wanteds = yield from self._spine(head, args, key, Sort.U, inner_body)
        existentials = self._take_created(snapshot)
        quant = Quant(skolems, existentials, givens, tuple(wanteds), evidence=key)
        self.evidence.ann_skolems[key] = list(skolems)
        return annotation, [quant]

    # ------------------------------------------------------------------
    # Case expressions (Figure 12 / Figure 13)
    # ------------------------------------------------------------------

    def _gen_case(self, term: Case, key: Key):
        scrutinee_type, constraints = yield self._gen(
            term.scrutinee, self.evidence.child(key, 0)
        )
        first = self.env.lookup_datacon(term.alts[0].constructor)
        tycon = first.result_con
        alphas = tuple(self.fresh(Sort.U) for _ in first.universals)
        case_info = self.evidence.case_info(key)
        case_info.tycon_args = list(alphas)
        result = self.fresh(Sort.U)
        constraints.append(
            Inst(scrutinee_type, Sort.M, (), (), TCon(tycon, alphas))
        )
        for index, alt in enumerate(term.alts, start=1):
            datacon = self.env.lookup_datacon(alt.constructor)
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
            givens = tuple(
                _subst_given(mapping, given) for given in datacon.givens
            )
            snapshot = len(self.created)
            rhs_key = self.evidence.child(key, index)
            rhs_type, rhs_constraints = yield scoped(
                self.local, alt.binders, field_types, self._gen, alt.rhs, rhs_key
            )
            branch_wanteds = tuple(rhs_constraints + [Eq(result, rhs_type)])
            if skolems or givens:
                existentials = self._take_created(snapshot)
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
