"""Embedding System F into GI (Figure 15, Theorem C.1).

Every System F program has a GI counterpart with the same type; the
translation inserts annotations wherever guardedness alone would not
justify the instantiations the F term performs:

* type abstractions ``Λā. e`` become annotated expressions ``(e :: ∀ā.σ)``;
* every application spine is annotated with its (checked) result type, so
  variables reaching the result may be instantiated without restriction;
* every argument is annotated with its checked type, pinning polymorphic
  argument types exactly;
* lambdas become annotated lambdas.

Variables that occur only naked in argument positions and not in the
result may end up *less* polymorphically instantiated than in the source
F term (GI's ⊢arg re-instantiates the annotated argument), but such
instantiations cannot influence the final type — which is all Theorem C.1
claims.
"""

from __future__ import annotations

from repro.core.env import Environment
from repro.core.terms import Ann, AnnLam, Case, CaseAlt, Let, Term, Var, app
from repro.core.terms import Lit
from repro.core.types import Type, is_fully_monomorphic, strip_forall
from repro.systemf.ast import (
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
from repro.systemf.check import FChecker


class Embedder:
    """Translates checked System F terms into annotated GI terms."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.checker = FChecker(env)

    def embed(self, term: FTerm) -> tuple[Term, Type]:
        """The GI translation of a well-typed F term, with its type."""
        type_ = self.checker.typecheck(term)
        return self._go(term, self.env, type_), type_

    # ------------------------------------------------------------------

    def _go(self, term: FTerm, env: Environment, type_: Type) -> Term:
        if isinstance(term, FVar):
            return Var(term.name)
        if isinstance(term, FLit):
            return Lit(term.value)
        if isinstance(term, FLam):
            inner_env = env.extended(term.var, term.annotation)
            inner_type = FChecker(inner_env).typecheck(term.body)
            return AnnLam(
                term.var,
                term.annotation,
                self._result_annotated(term.body, inner_env, inner_type),
            )
        if isinstance(term, FTyLam):
            inner_type = FChecker(env).typecheck(term)  # ∀binders. σ
            body_f_type = FChecker(env).typecheck(term.body)
            inner = self._go(term.body, env, body_f_type)
            return Ann(_strip_ann(inner), inner_type)
        if isinstance(term, (FApp, FTyApp)):
            return self._embed_spine(term, env, type_)
        if isinstance(term, FLet):
            bound = self._go(term.bound, env, term.annotation)
            inner_env = env.extended(term.var, term.annotation)
            body_type = FChecker(inner_env).typecheck(term.body)
            return Let(
                term.var,
                Ann(_strip_ann(bound), term.annotation),
                self._go(term.body, inner_env, body_type),
            )
        if isinstance(term, FCase):
            return self._embed_case(term, env, type_)
        raise TypeError(f"unknown System F term: {term!r}")

    def _embed_spine(self, term: FTerm, env: Environment, type_: Type) -> Term:
        """Translate an application spine, annotating with its result type."""
        head, arguments = _spine(term)
        checker = FChecker(env)
        head_gi = self._head(head, env, checker)
        args_gi = []
        for argument in arguments:
            arg_type = checker.typecheck(argument)
            arg_gi = self._go(argument, env, arg_type)
            args_gi.append(self._pin(arg_gi, arg_type))
        result = app(head_gi, *args_gi) if args_gi else head_gi
        if not args_gi and is_fully_monomorphic(type_):
            # A bare head used monomorphically needs no annotation.
            return result
        if isinstance(result, Ann) and result.annotation == type_:
            return result
        return Ann(_strip_ann(result), type_)

    def _head(self, head: FTerm, env: Environment, checker: FChecker) -> Term:
        if isinstance(head, FVar):
            return Var(head.name)
        head_type = checker.typecheck(head)
        return self._go(head, env, head_type)

    def _pin(self, argument: Term, arg_type: Type) -> Term:
        """Annotate an argument with its exact F type (unless trivial)."""
        if isinstance(argument, Var) and is_fully_monomorphic(arg_type):
            return argument
        if isinstance(argument, Lit):
            return argument
        if isinstance(argument, Ann):
            return argument
        return Ann(argument, arg_type)

    def _result_annotated(self, body: FTerm, env: Environment, type_: Type) -> Term:
        """A lambda body, annotated when its type is polymorphic (GI's
        un-annotated application results are top-level monomorphic)."""
        inner = self._go(body, env, type_)
        binders, _ = strip_forall(type_)
        if binders and not isinstance(inner, Ann):
            return Ann(_strip_ann(inner), type_)
        return inner

    def _embed_case(self, term: FCase, env: Environment, type_: Type) -> Term:
        checker = FChecker(env)
        scrutinee_type = checker.typecheck(term.scrutinee)
        scrutinee = self._go(term.scrutinee, env, scrutinee_type)
        alts = []
        for alt in term.alts:
            datacon = env.lookup_datacon(alt.constructor)
            from repro.core.types import TVar, subst_tvars

            mapping: dict[str, Type] = dict(
                zip(datacon.universals, getattr(scrutinee_type, "args", ()))
            )
            mapping.update(
                {
                    old: TVar(new)
                    for old, new in zip(datacon.existentials, alt.type_binders)
                }
            )
            fields = [subst_tvars(mapping, field) for field in datacon.fields]
            alt_env = env.extended_many(dict(zip(alt.binders, fields)))
            rhs_type = FChecker(alt_env).typecheck(alt.rhs)
            alts.append(
                CaseAlt(alt.constructor, alt.binders, self._go(alt.rhs, alt_env, rhs_type))
            )
        case = Case(scrutinee, tuple(alts))
        return Ann(case, type_)


def _spine(term: FTerm) -> tuple[FTerm, list[FTerm]]:
    """Head and term arguments of an application chain (type applications
    are dropped — GI re-infers instantiations)."""
    arguments: list[FTerm] = []
    while True:
        if isinstance(term, FApp):
            arguments.append(term.arg)
            term = term.fn
        elif isinstance(term, FTyApp):
            term = term.fn
        else:
            break
    arguments.reverse()
    return term, arguments


def _strip_ann(term: Term) -> Term:
    return term.expr if isinstance(term, Ann) else term


def embed(term: FTerm, env: Environment) -> tuple[Term, Type]:
    """Convenience wrapper over :class:`Embedder`."""
    return Embedder(env).embed(term)
