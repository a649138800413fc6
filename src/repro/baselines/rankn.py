"""Predicative arbitrary-rank bidirectional inference.

The system of *Practical type inference for arbitrary-rank types*
(Peyton Jones, Vytiniotis, Weirich, Shields — JFP 2007), cited as [13] in
the paper and the basis of GHC's pre-Quick-Look higher-rank inference.
It is the natural "lower bound" baseline for GI: it handles higher-rank
*annotations* (``poly (λx. x)`` checks) but forbids all impredicative
instantiation — every example of Figure 2 that needs a type variable to
become a polytype is rejected.

Architecture, following the JFP paper:

* bidirectional: ``infer`` synthesises a ρ-type, ``check`` pushes an
  expected ρ-type into the term;
* ``σ``-generalisation at inference points, deep skolemisation in the
  subsumption check ``σ1 ⊑ σ2``;
* unification variables range over *monotypes only* (predicativity): the
  occurs-checked binder refuses any type containing a quantifier.
"""

from __future__ import annotations

from repro.baselines.kernel import Kernel
from repro.core.env import DataCon, Environment
from repro.core.errors import SkolemEscapeError, TypeError_, UnificationError
from repro.core.terms import Ann, AnnLam, App, Case, Lam, Term, Var, scoped
from repro.core.types import (
    Forall,
    Type,
    UVar,
    ftv,
    fun,
    is_arrow,
    mentions_forall,
)


class RankNError(TypeError_):
    """A predicative higher-rank type error."""


class RankNInferencer(Kernel):
    """Bidirectional predicative arbitrary-rank inference.

    ``policy`` (an :class:`~repro.core.policy.InstantiationPolicy`, or
    ``None`` for the system's reference configuration) selects the
    instantiation discipline.  The JFP 2007 system is *eager-deep*:
    variables instantiate on mention and subsumption deep-skolemises.
    ``depth="shallow"`` stops skolemisation at the top-level binders
    (GHC 9's simplified subsumption); ``speed="lazy"`` keeps a
    variable's polytype at its occurrence until an elimination context
    forces instantiation (GHC 9's lazy instantiation).
    """

    PREFIX = "r"
    Error = RankNError

    def __init__(self, env: Environment, budget=None, policy=None) -> None:
        super().__init__(env, budget)
        self.policy = policy
        self._lazy = policy is not None and policy.lazy
        self._deep = policy is None or policy.deep

    def admit(self, variable: UVar, type_: Type) -> None:
        if mentions_forall(type_):
            raise RankNError(
                f"predicativity violation: `{variable}` cannot stand for the "
                f"polymorphic type `{type_}`"
            )

    def _match_polytypes(self, left: Forall, right: Forall, depth: int) -> list[tuple]:
        """The JFP 2007 unifier never looks inside a polytype: two
        quantified types unify only when syntactically equal."""
        raise UnificationError(left, right)

    def _subsume_rho(self, offered: Type, expected_rho: Type) -> None:
        """``offered ⊑ ρ``: instantiate the offered side, contravariant
        in arrow arguments and covariant in results."""
        while True:
            offered = self._head(offered)
            expected_rho = self._head(expected_rho)
            if isinstance(offered, Forall):
                offered = self.instantiate(offered)
            elif is_arrow(offered) and is_arrow(expected_rho):
                self.subsume(expected_rho.args[0], offered.args[0])
                offered, expected_rho = offered.args[1], expected_rho.args[1]
            else:
                self.unify(offered, expected_rho)
                return

    # -- inference ----------------------------------------------------------

    def _infer_var(self, term: Var, local: dict[str, Type]) -> Type:
        if self._lazy:
            # Lazy instantiation: keep the polytype; elimination contexts
            # (application heads, case scrutinees) force it.
            return self.zonk(self._lookup(term.name, local))
        return super()._infer_var(term, local)

    def _infer_app(self, term: App, local: dict[str, Type]):
        fn_rho = yield self._infer(term.head, local)
        for argument in term.args:
            fn_rho = self._head(fn_rho)
            if isinstance(fn_rho, Forall):
                fn_rho = self.instantiate(fn_rho)
            if isinstance(fn_rho, UVar):
                parameter, result = self.fresh(), self.fresh()
                self.unify(fn_rho, fun(parameter, result))
            elif is_arrow(fn_rho):
                parameter, result = fn_rho.args
            else:
                raise RankNError(f"too many arguments for `{self.zonk(fn_rho)}`")
            yield self._check_arg(argument, parameter, local)
            fn_rho = result
        return self.zonk(fn_rho)

    def _infer_ann(self, term: Ann, local: dict[str, Type]):
        # Annotations switch to checking mode (the whole point of the
        # bidirectional system).
        yield self._check_sigma(term.expr, term.annotation, local)
        if self._lazy:
            return self.zonk(term.annotation)
        return self.instantiate(term.annotation)

    def _check_arg(self, argument: Term, parameter: Type, local: dict[str, Type]):
        parameter = self._head(parameter)
        if isinstance(parameter, Forall):
            # Checking mode: push the polymorphic expected type inwards.
            yield self._check_sigma(argument, parameter, local)
            return
        if isinstance(argument, Lam) and is_arrow(parameter):
            binder, result = parameter.args
            yield scoped(
                local, (argument.var,), (binder,), self._check_arg, argument.body, result, local
            )
            return
        # Inference mode: the argument's σ-type must cover the parameter.
        offered = self.generalize(local.values(), (yield self._infer(argument, local)))
        self.subsume(offered, parameter, local)

    def _check_sigma(self, term: Term, expected: Type, local: dict[str, Type]):
        # Skolemise first, as in ``Kernel.subsume``: without skolems
        # nothing can escape, and the environment is not walked.
        skolems, rho = self.skolemise(expected)
        if not skolems:
            yield self._check_rho(term, rho, local)
            return
        outer = self._free_uvars(local.values())
        yield self._check_rho(term, rho, local)
        self._check_escape(skolems, outer)
        # A skolem appearing rigidly in the environment types themselves
        # (not through a unification variable) also escapes.
        env_free: set[str] = set()
        for type_ in local.values():
            env_free.update(ftv(self.zonk(type_)))
        leaked = set(skolems) & env_free
        if leaked:
            raise SkolemEscapeError(sorted(leaked)[0])

    def _check_rho(self, term: Term, expected_rho: Type, local: dict[str, Type]):
        expected_rho = self._head(expected_rho)
        if term.__class__ is AnnLam and is_arrow(expected_rho):
            self.subsume(expected_rho.args[0], term.annotation, local)
            binder: Type = term.annotation
        elif term.__class__ is Lam and is_arrow(expected_rho):
            binder = expected_rho.args[0]
        else:
            offered = yield self._infer(term, local)
            self._subsume_rho(self.generalize(local.values(), offered), expected_rho)
            return
        result = expected_rho.args[1]
        yield scoped(local, (term.var,), (binder,), self._check_rho, term.body, result, local)

    def _open_case(self, term: Case, scrutinee: Type) -> tuple[DataCon, dict[str, Type]]:
        # Under a lazy policy the scrutinee may be ∀-headed: matching
        # forces instantiation.
        return super()._open_case(term, self.instantiate(scrutinee))

    def _join_branch(self, result: Type, rhs: Type) -> None:
        """Unify one case branch's type into the case's result."""
        if isinstance(self._head(rhs), Forall):
            rhs = self.instantiate(rhs)
        self.unify(result, rhs)


def rankn_infer(term: Term, env: Environment) -> Type:
    """Convenience wrapper."""
    return RankNInferencer(env).infer(term)
