"""Hindley–Milner rank-1 inference (Algorithm W).

The predicative baseline used by Theorem 3.1 (compatibility with rank-1
polymorphism): every expression this system accepts, GI accepts with the
same type.  The implementation is deliberately classic — monotypes plus
top-level ``∀`` schemes, let-generalisation, sound occurs-checked
unification — and completely independent of the GI machinery.
"""

from __future__ import annotations

from repro.baselines.kernel import Kernel
from repro.core.env import Environment
from repro.core.errors import TypeError_
from repro.core.terms import Ann, AnnLam, Case, Lam, Term, scoped
from repro.core.types import (
    Forall,
    TVar,
    Type,
    ftv,
    is_fully_monomorphic,
    strip_forall,
    subst_tvars,
)


class HMError(TypeError_):
    """A rank-1 type error."""


class HMInferencer(Kernel):
    """Algorithm W over the shared term/type ASTs.

    Environment entries must be rank-1 (``∀ā.τ``); looking up a binding
    with nested polymorphism raises, keeping the baseline honest about its
    own expressiveness.  Every binding is admitted: no type it unifies
    contains a quantifier.
    """

    PREFIX = "w"
    Error = HMError

    def instantiate(self, scheme: Type) -> Type:
        binders, body = strip_forall(scheme)
        if isinstance(scheme, Forall) and scheme.context:
            raise HMError("class contexts are outside the HM baseline")
        if not is_fully_monomorphic(body):
            raise HMError(
                f"environment type `{scheme}` is not rank-1; outside the "
                f"Hindley-Milner fragment"
            )
        return super().instantiate(scheme)

    # -- inference --------------------------------------------------------

    def _infer_lam(self, term: Lam | AnnLam, local: dict[str, Type]):
        if term.__class__ is AnnLam and not is_fully_monomorphic(term.annotation):
            raise HMError("polymorphic lambda annotations are outside HM")
        return super()._infer_lam(term, local)

    def _infer_ann(self, term: Ann, local: dict[str, Type]):
        inferred = yield self._infer(term.expr, local)
        binders, body = strip_forall(term.annotation)
        if not is_fully_monomorphic(body):
            raise HMError("higher-rank annotations are outside HM")
        # Rank-1 signatures are checked by instantiating the signature
        # with fresh *rigid* variables and unifying; the rigids must
        # not leak into the environment.
        mapping = {name: TVar(self.supply.fresh(name + "_rigid")) for name in binders}
        rigids = {variable.name for variable in mapping.values()}
        self.unify(inferred, subst_tvars(mapping, body))
        for env_type in local.values():
            if rigids & ftv(self.zonk(env_type)):
                raise HMError("signature variable would escape its scope")
        # The expression now has the declared (rank-1) scheme; uses of
        # it instantiate freshly.
        return self.instantiate(term.annotation)

    def _infer_case(self, term: Case, local: dict[str, Type]):
        scrutinee = yield self._infer(term.scrutinee, local)
        if self.env.lookup_datacon(term.alts[0].constructor).existentials:
            raise HMError("existential data constructors are outside HM")
        first, alphas = self._open_case(term, scrutinee)
        result = self.fresh()
        for alt in term.alts:
            datacon = self.env.lookup_datacon(alt.constructor)
            if datacon.result_con != first.result_con:
                raise HMError("mixed constructors in case")
            fields = [subst_tvars(alphas, field) for field in datacon.fields]
            if any(not is_fully_monomorphic(self.zonk(field)) for field in fields):
                raise HMError("polymorphic fields are outside HM")
            rhs = yield scoped(local, alt.binders, fields, self._infer, alt.rhs, local)
            self.unify(result, rhs)
        return result


def hm_infer(term: Term, env: Environment) -> Type:
    """Convenience wrapper."""
    return HMInferencer(env).infer(term)
