"""A type checker for System F.

This is the executable form of Theorem 4.2 (soundness): a GI-inferred
program, elaborated by :mod:`repro.systemf.elaborate`, must check here at
(an α-equivalent of) its inferred type.  The checker is completely
independent of the inference machinery — deliberately so, to serve as an
oracle: it performs no unification, only α-equality comparisons.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.env import DataCon, Environment
from repro.core.errors import SystemFTypeError
from repro.core.terms import drive, scoped
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
    """Checks System F terms against an environment of (F) types.

    The check is a walk on :func:`~repro.core.terms.drive`; the term and
    type variables bound inside the term live in one scope per run.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env

    def typecheck(self, term: FTerm, local: dict[str, Type] | None = None) -> Type:
        """The type of a System F term under the environment extended by
        ``local``; raises :class:`SystemFTypeError`."""
        return drive(self._check(term, {} if local is None else local, set()))

    def _check(self, term: FTerm, local: dict[str, Type], in_scope: set[str]):
        if isinstance(term, FVar):
            found = local.get(term.name)
            if found is not None:
                return found
            try:
                return self.env.lookup(term.name)
            except Exception as error:
                raise SystemFTypeError(str(error)) from None
        if isinstance(term, FLit):
            return _literal_type(term.value)
        return self._check_node(term, local, in_scope)

    def _check_node(self, term: FTerm, local: dict[str, Type], in_scope: set[str]):
        if isinstance(term, FLam):
            _ensure_closed(term.annotation)
            body_type = yield scoped(
                local, (term.var,), (term.annotation,), self._check, term.body, local, in_scope
            )
            return TCon("->", (term.annotation, body_type))
        if isinstance(term, FTyLam):
            clash = set(term.binders) & in_scope
            if clash:
                raise SystemFTypeError(
                    f"type binder shadows an in-scope type variable: {sorted(clash)}"
                )
            in_scope.update(term.binders)
            try:
                body_type = yield self._check(term.body, local, in_scope)
            finally:
                in_scope.difference_update(term.binders)
            return forall(term.binders, body_type)
        if isinstance(term, FApp):
            fn_type = yield self._check(term.fn, local, in_scope)
            arg_type = yield self._check(term.arg, local, in_scope)
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
            fn_type = yield self._check(term.fn, local, in_scope)
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
            bound_type = yield self._check(term.bound, local, in_scope)
            if not alpha_equal(bound_type, term.annotation):
                raise SystemFTypeError(
                    f"let annotation mismatch: declared `{term.annotation}`, "
                    f"bound expression has `{bound_type}`"
                )
            return (
                yield scoped(
                    local, (term.var,), (bound_type,), self._check, term.body, local, in_scope
                )
            )
        if isinstance(term, FCase):
            return (yield from self._check_case(term, local, in_scope))
        raise TypeError(f"unknown System F term: {term!r}")

    def _check_case(self, term: FCase, local: dict[str, Type], in_scope: set[str]):
        scrutinee_type = yield self._check(term.scrutinee, local, in_scope)
        if not isinstance(scrutinee_type, TCon):
            raise SystemFTypeError(
                f"case scrutinee must have a data type, got `{scrutinee_type}`"
            )
        result_type: Type | None = None
        for alt in term.alts:
            datacon = self._datacon(alt.constructor)
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
            fields = alt_field_types(datacon, scrutinee_type.args, alt.type_binders)
            opened = set(alt.type_binders) - in_scope
            in_scope.update(opened)
            try:
                alt_type = yield scoped(
                    local, alt.binders, fields, self._check, alt.rhs, local, in_scope
                )
            finally:
                in_scope.difference_update(opened)
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

    def _datacon(self, name: str) -> DataCon:
        try:
            return self.env.lookup_datacon(name)
        except Exception as error:
            raise SystemFTypeError(str(error)) from None


def alt_field_types(
    datacon: DataCon, tycon_args: Sequence[Type], type_binders: Sequence[str]
) -> list[Type]:
    """The field types of a case alternative over ``datacon``: the
    universals at the scrutinee's type arguments, the existentials at the
    alternative's type binders."""
    mapping: dict[str, Type] = dict(zip(datacon.universals, tycon_args))
    mapping.update(
        {old: TVar(new) for old, new in zip(datacon.existentials, type_binders)}
    )
    return [subst_tvars(mapping, field) for field in datacon.fields]


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
