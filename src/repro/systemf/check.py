"""A type checker for System F.

This is the executable form of Theorem 4.2 (soundness): a GI-inferred
program, elaborated by :mod:`repro.systemf.elaborate`, must check here at
(an α-equivalent of) its inferred type.  The checker is completely
independent of the inference machinery — deliberately so, to serve as an
oracle: it performs no unification, only α-equality comparisons.
"""

from __future__ import annotations

from repro.core.env import DataCon, Environment
from repro.core.errors import SystemFTypeError
from repro.core.types import (
    BOOL,
    CHAR,
    INT,
    STRING,
    Forall,
    TCon,
    TVar,
    Type,
    alpha_equal,
    arrow_parts,
    forall,
    ftv,
    fuv,
    is_arrow,
    strip_forall,
    subst_tvars,
)
from repro.systemf.ast import (
    FAlt,
    FApp,
    FCase,
    FLam,
    FLet,
    FLit,
    FTerm,
    FTyApp,
    FTyLam,
    FVar,
)


class FChecker:
    """Checks System F terms against an environment of (F) types."""

    def __init__(self, env: Environment) -> None:
        self.env = env

    def typecheck(self, term: FTerm) -> Type:
        """The type of a System F term; raises :class:`SystemFTypeError`."""
        return self._check(term, self.env, set())

    def _check(self, term: FTerm, env: Environment, in_scope: set[str]) -> Type:
        if isinstance(term, FVar):
            try:
                return env.lookup(term.name)
            except Exception as error:
                raise SystemFTypeError(str(error)) from None
        if isinstance(term, FLit):
            return _literal_type(term.value)
        if isinstance(term, FLam):
            _ensure_closed(term.annotation)
            body_type = self._check(
                term.body, env.extended(term.var, term.annotation), in_scope
            )
            return TCon("->", (term.annotation, body_type))
        if isinstance(term, FTyLam):
            clash = set(term.binders) & in_scope
            if clash:
                raise SystemFTypeError(
                    f"type binder shadows an in-scope type variable: {sorted(clash)}"
                )
            body_type = self._check(term.body, env, in_scope | set(term.binders))
            return forall(term.binders, body_type)
        if isinstance(term, FApp):
            fn_type = self._check(term.fn, env, in_scope)
            arg_type = self._check(term.arg, env, in_scope)
            if not is_arrow(fn_type):
                raise SystemFTypeError(
                    f"application of a non-function: `{term.fn}` has type `{fn_type}`"
                )
            parameter, result = arrow_parts(fn_type)
            if not alpha_equal(parameter, arg_type):
                raise SystemFTypeError(
                    f"argument type mismatch: function `{term.fn}` expects "
                    f"`{parameter}` but argument has type `{arg_type}`"
                )
            return result
        if isinstance(term, FTyApp):
            fn_type = self._check(term.fn, env, in_scope)
            binders, body = strip_forall(fn_type)
            if isinstance(fn_type, Forall) and fn_type.context:
                raise SystemFTypeError(
                    "type application to a qualified type (class contexts are "
                    "erased before System F elaboration)"
                )
            if len(term.types) > len(binders):
                raise SystemFTypeError(
                    f"too many type arguments: `{fn_type}` takes {len(binders)}, "
                    f"got {len(term.types)}"
                )
            for type_argument in term.types:
                _ensure_closed(type_argument)
            used = binders[: len(term.types)]
            rest = binders[len(term.types):]
            mapping = dict(zip(used, term.types))
            return forall(rest, subst_tvars(mapping, body))
        if isinstance(term, FLet):
            bound_type = self._check(term.bound, env, in_scope)
            if not alpha_equal(bound_type, term.annotation):
                raise SystemFTypeError(
                    f"let annotation mismatch: declared `{term.annotation}`, "
                    f"bound expression has `{bound_type}`"
                )
            return self._check(term.body, env.extended(term.var, bound_type), in_scope)
        if isinstance(term, FCase):
            return self._check_case(term, env, in_scope)
        raise TypeError(f"unknown System F term: {term!r}")

    def _check_case(self, term: FCase, env: Environment, in_scope: set[str]) -> Type:
        scrutinee_type = self._check(term.scrutinee, env, in_scope)
        if not isinstance(scrutinee_type, TCon):
            raise SystemFTypeError(
                f"case scrutinee must have a data type, got `{scrutinee_type}`"
            )
        result_type: Type | None = None
        for alt in term.alts:
            datacon = self._datacon(env, alt.constructor)
            if datacon.result_con != scrutinee_type.name:
                raise SystemFTypeError(
                    f"constructor {alt.constructor} does not build `{scrutinee_type}`"
                )
            if len(datacon.universals) != len(scrutinee_type.args):
                raise SystemFTypeError(
                    f"wrong arity for data type `{scrutinee_type.name}`"
                )
            if len(alt.type_binders) != len(datacon.existentials):
                raise SystemFTypeError(
                    f"constructor {alt.constructor} binds "
                    f"{len(datacon.existentials)} existential(s)"
                )
            if len(alt.binders) != datacon.arity:
                raise SystemFTypeError(
                    f"constructor {alt.constructor} has arity {datacon.arity}"
                )
            mapping: dict[str, Type] = dict(
                zip(datacon.universals, scrutinee_type.args)
            )
            mapping.update(
                {
                    old: TVar(new)
                    for old, new in zip(datacon.existentials, alt.type_binders)
                }
            )
            fields = [subst_tvars(mapping, field) for field in datacon.fields]
            alt_env = env.extended_many(dict(zip(alt.binders, fields)))
            alt_type = self._check(alt.rhs, alt_env, in_scope | set(alt.type_binders))
            if set(alt.type_binders) & ftv(alt_type):
                raise SystemFTypeError(
                    f"existential type variable escapes from branch "
                    f"{alt.constructor}: `{alt_type}`"
                )
            if result_type is None:
                result_type = alt_type
            elif not alpha_equal(result_type, alt_type):
                raise SystemFTypeError(
                    f"case branches disagree: `{result_type}` vs `{alt_type}`"
                )
        assert result_type is not None
        return result_type

    @staticmethod
    def _datacon(env: Environment, name: str) -> DataCon:
        try:
            return env.lookup_datacon(name)
        except Exception as error:
            raise SystemFTypeError(str(error)) from None


def _literal_type(value: object) -> Type:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, str) and len(value) == 1:
        return CHAR
    if isinstance(value, str):
        return STRING
    raise SystemFTypeError(f"unsupported literal: {value!r}")


def _ensure_closed(type_: Type) -> None:
    leaked = next(iter(fuv(type_)), None)
    if leaked is not None:
        raise SystemFTypeError(
            f"unification variable `{leaked}` leaked into a System F type"
        )


def typecheck(term: FTerm, env: Environment) -> Type:
    """Convenience wrapper over :class:`FChecker`."""
    return FChecker(env).typecheck(term)
