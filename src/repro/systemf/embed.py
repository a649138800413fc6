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
from repro.core.terms import Ann, AnnLam, Case, CaseAlt, Let, Lit, Term, Var, app
from repro.core.terms import drive, scoped
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
from repro.systemf.check import FChecker, alt_field_types


class Embedder:
    """Translates checked System F terms into annotated GI terms.

    The translation is a walk on :func:`~repro.core.terms.drive`; the
    variables bound inside the term live in one scope, ``local``, over the
    environment, and the checker types each subterm under it.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.checker = FChecker(env)
        self.local: dict[str, Type] = {}

    def embed(self, term: FTerm) -> tuple[Term, Type]:
        """The GI translation of a well-typed F term, with its type."""
        self.local = {}
        type_ = self._type_of(term)
        return drive(self._go(term, type_)), type_

    def _type_of(self, term: FTerm) -> Type:
        return self.checker.typecheck(term, self.local)

    # ------------------------------------------------------------------

    def _go(self, term: FTerm, type_: Type):
        if isinstance(term, FVar):
            return Var(term.name)
        if isinstance(term, FLit):
            return Lit(term.value)
        return self._go_node(term, type_)

    def _go_node(self, term: FTerm, type_: Type):
        if isinstance(term, FLam):
            body = yield scoped(
                self.local, (term.var,), (term.annotation,), self._result_annotated, term.body
            )
            return AnnLam(term.var, term.annotation, body)
        if isinstance(term, FTyLam):
            inner_type = self._type_of(term)  # ∀binders. σ
            inner = yield self._typed(term.body)
            return Ann(_strip_ann(inner), inner_type)
        if isinstance(term, (FApp, FTyApp)):
            return (yield from self._embed_spine(term, type_))
        if isinstance(term, FLet):
            bound = yield self._go(term.bound, term.annotation)
            binder = (term.annotation,)
            body = yield scoped(self.local, (term.var,), binder, self._typed, term.body)
            return Let(term.var, Ann(_strip_ann(bound), term.annotation), body)
        if isinstance(term, FCase):
            return (yield from self._embed_case(term, type_))
        raise TypeError(f"unknown System F term: {term!r}")

    def _embed_spine(self, term: FTerm, type_: Type):
        """Translate an application spine, annotating with its result type."""
        head, arguments = _spine(term)
        if isinstance(head, FVar):
            head_gi: Term = Var(head.name)
        else:
            head_gi = yield self._go(head, self._type_of(head))
        args_gi = []
        for argument in arguments:
            arg_type = self._type_of(argument)
            arg_gi = yield self._go(argument, arg_type)
            args_gi.append(self._pin(arg_gi, arg_type))
        result = app(head_gi, *args_gi) if args_gi else head_gi
        if not args_gi and is_fully_monomorphic(type_):
            # A bare head used monomorphically needs no annotation.
            return result
        if isinstance(result, Ann) and result.annotation == type_:
            return result
        return Ann(_strip_ann(result), type_)

    def _pin(self, argument: Term, arg_type: Type) -> Term:
        """Annotate an argument with its exact F type (unless trivial)."""
        if isinstance(argument, Var) and is_fully_monomorphic(arg_type):
            return argument
        if isinstance(argument, Lit):
            return argument
        if isinstance(argument, Ann):
            return argument
        return Ann(argument, arg_type)

    def _typed(self, term: FTerm):
        """The translation of ``term`` at its type under the scope."""
        return self._go(term, self._type_of(term))

    def _result_annotated(self, body: FTerm):
        """A lambda body, annotated when its type is polymorphic (GI's
        un-annotated application results are top-level monomorphic)."""
        type_ = self._type_of(body)
        inner = yield self._go(body, type_)
        binders, _ = strip_forall(type_)
        if binders and not isinstance(inner, Ann):
            return Ann(_strip_ann(inner), type_)
        return inner

    def _embed_case(self, term: FCase, type_: Type):
        scrutinee_type = self._type_of(term.scrutinee)
        scrutinee = yield self._go(term.scrutinee, scrutinee_type)
        alts = []
        for alt in term.alts:
            datacon = self.env.lookup_datacon(alt.constructor)
            fields = alt_field_types(
                datacon, getattr(scrutinee_type, "args", ()), alt.type_binders
            )
            rhs = yield scoped(self.local, alt.binders, fields, self._typed, alt.rhs)
            alts.append(CaseAlt(alt.constructor, alt.binders, rhs))
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
