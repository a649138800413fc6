"""HMF-style inference (after Leijen, ICFP 2008) — an executable baseline.

HMF is the system the paper compares against most closely (Section 6):
like GI it infers System F types with no new type-language features, but
it makes *local, eager* decisions at each application instead of deferring
them through constraints.  This implementation follows the published
algorithm's architecture:

* full System F types; unification may bind variables to polytypes;
* quantified types unify only modulo α-renaming (invariant constructors);
* λ-binders without annotations are fully monomorphic;
* function application instantiates the function type eagerly and matches
  arguments **left to right**; an argument matched against a bare
  unification variable is instantiated first (the predicative preference
  that gives ``choose id : (a → a) → a → a``);
* arguments matched against a quantified expected type are *subsumed*:
  the expected type is skolemised and the argument's generalised type must
  cover it (with a skolem-escape check — this is what rejects
  ``λxs. poly (head xs)``);
* results of applications and lambdas are generalised.

Leijen's paper also sketches an n-ary extension that postpones arguments
facing a bare variable and iterates until a round fixes no further types;
``HMFInferencer(nary=True)`` implements it (it accepts ``id : ids`` and
``revapp argST runST``, which plain left-to-right HMF does not).

Where this reconstruction is known to diverge from the published Figure 2
column is measured and documented in EXPERIMENTS.md rather than patched
over: Leijen's *minimal polymorphic weight* condition (the side condition
that rejects ``choose id auto``) is only partially reproduced, via the
rule that an inferred (generalised) quantifier is never instantiated
impredicatively — declared quantifiers from the environment may be.
"""

from __future__ import annotations

from repro.baselines.kernel import Kernel
from repro.core.env import Environment
from repro.core.terms import Ann, AnnLam, App, Lam, Term, Var
from repro.core.errors import TypeError_
from repro.core.sorts import Sort
from repro.core.types import (
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    fun,
    is_arrow,
    mentions_forall,
    rename_canonical,
    strip_forall,
    subst_tvars,
)


class HMFError(TypeError_):
    """An HMF type error."""


# Unification-variable flavours, encoded in the shared UVar sort field:
#   Sort.M — a λ-binder: must stay fully monomorphic (no ∀ anywhere);
#   Sort.T — an *inferred* quantifier re-instantiated: never ∀-headed
#            (the minimal-weight approximation);
#   Sort.U — a declared quantifier's instantiation: unrestricted.


class HMFInferencer(Kernel):
    """One HMF inference engine over the shared ASTs.

    Skolemisation is shallow; the quantifiers :meth:`generalize`
    introduces carry a ``%`` mark, which is how re-instantiation tells an
    inferred quantifier from a declared one.
    """

    PREFIX = "h"
    FRESH_SORT = Sort.U
    QUANTIFIER_MARK = "%"
    Error = HMFError

    def __init__(self, env: Environment, nary: bool = False, budget=None) -> None:
        super().__init__(env, budget)
        self.nary = nary

    def admit(self, variable: UVar, type_: Type) -> None:
        if variable.sort is Sort.M and mentions_forall(type_):
            raise HMFError(
                f"monomorphic variable `{variable}` cannot be `{type_}` "
                f"(annotate the lambda binder)"
            )
        if variable.sort is Sort.T and isinstance(type_, Forall):
            raise HMFError(
                f"ambiguous impredicative instantiation: inferred quantifier "
                f"`{variable}` would become `{type_}` (minimal instantiation "
                f"chooses the monomorphic alternative)"
            )

    def instantiate(self, scheme: Type, predicative: bool = False) -> Type:
        """Strip the top quantifiers with fresh variables.

        With ``predicative=True`` the fresh variables are restricted (never
        ∀-headed): this is the *minimal polymorphic weight* preference —
        an instantiation taken because nothing demanded polymorphism must
        not later be forced polymorphic (rejects ``choose id auto``).
        """
        scheme = self.zonk(scheme)
        binders, body = strip_forall(scheme)
        if not binders:
            return scheme
        mapping = {}
        arrow_vars = _vars_under_arrow(body) if predicative else set()
        for name in binders:
            if name.endswith(self.QUANTIFIER_MARK) or name in arrow_vars:
                sort = Sort.T
            else:
                sort = Sort.U
            mapping[name] = self.fresh(sort)
        return subst_tvars(mapping, body)

    def infer(self, term: Term) -> Type:
        """The HMF type of a term (generalised, canonically renamed)."""
        return rename_canonical(_strip_marks(self._infer_closed(term)))

    def _infer_var(self, term: Var, local: dict[str, Type]) -> Type:
        """A variable keeps its σ; its use site decides on instantiation."""
        return self._lookup(term.name, local)

    def _infer_lam(self, term: Lam | AnnLam, local: dict[str, Type]):
        """A λ's body type instantiates, then the λ's type generalises."""
        binder, body = (yield from super()._infer_lam(term, local)).args
        return self.generalize(local.values(), fun(binder, self.instantiate(body)))

    def _infer_ann(self, term: Ann, local: dict[str, Type]):
        offered = yield self._infer(term.expr, local)
        self.subsume(offered, term.annotation)
        return term.annotation

    def _infer_app(
        self, term: App, local: dict[str, Type], expected: Type | None = None
    ):
        fn_type = self.instantiate((yield self._infer(term.head, local)))
        params: list[Type] = []
        current = fn_type
        for _ in term.args:
            current = self._head(current)
            if isinstance(current, Forall):
                current = self.instantiate(current)
            if isinstance(current, UVar):
                parameter, result = self.fresh(), self.fresh()
                self.unify(current, fun(parameter, result))
                current = result
            elif is_arrow(current):
                parameter, current = current.args
            else:
                raise HMFError(f"too many arguments for type `{self.zonk(current)}`")
            params.append(parameter)
        if expected is not None:
            # Type propagation: the expected type fixes the result before
            # the arguments are matched, so impredicative instantiations
            # demanded by the context are available to them (map poly
            # (single id) needs this to type-check in HMF).
            inner = self._head(current)
            if isinstance(inner, Forall):
                inner = self.instantiate(inner)
            self.unify(inner, expected)
            current = inner
        order = list(range(len(term.args)))
        if self.nary:
            order = self._argument_order(params)
        for index in order:
            yield self._check_arg(term.args[index], params[index], local)
        if expected is not None:
            return self.zonk(current)
        return self.generalize(list(local.values()), self.instantiate(current))

    def _argument_order(self, params: list[Type]) -> list[int]:
        """Leijen's n-ary extension: arguments facing a bare variable are
        postponed behind the others, each group in source order."""
        return sorted(
            range(len(params)),
            key=lambda index: isinstance(self._head(params[index]), UVar),
        )

    def _check_arg(self, argument: Term, parameter: Type, local: dict[str, Type]):
        parameter = self._head(parameter)
        if (
            isinstance(argument, App)
            and not isinstance(parameter, UVar)
            and not isinstance(parameter, Forall)
        ):
            yield self._infer_app(argument, local, expected=parameter)
            return
        offered = yield self._infer(argument, local)
        if not isinstance(argument, Var):
            offered = self.generalize(list(local.values()), self.instantiate(offered))
        if isinstance(parameter, Forall):
            self.subsume(offered, parameter)
        elif isinstance(parameter, UVar):
            # Predicative preference: a bare expected variable takes the
            # *instantiated* argument type at restricted variables
            # (choose id : (a→a)→a→a, and choose id auto is rejected).
            self.unify(parameter, self.instantiate(offered, predicative=True))
        else:
            self.unify(self.instantiate(offered), parameter)

    def _join_branch(self, result: Type, rhs: Type) -> None:
        self.unify(result, self.instantiate(rhs))


def _vars_under_arrow(type_: Type) -> set[str]:
    """Variables whose nearest enclosing constructor is the function arrow.

    The minimal-instantiation restriction only bites at function-typed
    positions: predicatively instantiating ``∀a. a → a`` to ``β → β`` and
    later finding ``β := ∀c. σ`` reveals a genuine ambiguity (the argument
    could have been kept polymorphic, with a smaller polymorphic weight),
    whereas a variable under a *data* constructor — ``∀p. [p]`` becoming
    ``[γ]`` — admits no alternative shape, so a later polymorphic ``γ`` is
    forced, not guessed (``choose [] ids`` is accepted, ``choose id auto``
    is not).
    """
    result: set[str] = set()
    stack: list[tuple[Type, bool, frozenset[str]]] = [(type_, False, frozenset())]
    while stack:
        node, under_arrow, bound = stack.pop()
        if isinstance(node, TVar):
            if under_arrow and node.name not in bound:
                result.add(node.name)
        elif isinstance(node, TCon):
            is_fun = node.name == "->"
            stack.extend((argument, is_fun, bound) for argument in node.args)
        elif isinstance(node, Forall):
            stack.append((node.body, under_arrow, bound | frozenset(node.binders)))
    return result

def _strip_marks(type_: Type) -> Type:
    """Remove the ``%`` inferred-quantifier marks before display
    (iteratively; unmarked subtrees are returned as they are)."""
    done: list[Type] = []
    stack: list[tuple[Type, bool]] = [(type_, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, TVar):
            done.append(TVar(node.name.rstrip("%")) if node.name.endswith("%") else node)
        elif isinstance(node, TCon) and node.args:
            if not ready:
                stack.append((node, True))
                stack.extend((argument, False) for argument in reversed(node.args))
                continue
            args = tuple(done[-len(node.args):])
            del done[-len(node.args):]
            changed = any(new is not old for new, old in zip(args, node.args))
            done.append(TCon(node.name, args) if changed else node)
        elif isinstance(node, Forall):
            if not ready:
                stack.append((node, True))
                stack.append((node.body, False))
                continue
            body = done.pop()
            binders = tuple(name.rstrip("%") for name in node.binders)
            changed = body is not node.body or binders != node.binders
            done.append(Forall(binders, body, node.context) if changed else node)
        else:
            done.append(node)
    return done[0]


def hmf_infer(term: Term, env: Environment, nary: bool = False) -> Type:
    """Convenience wrapper."""
    return HMFInferencer(env, nary=nary).infer(term)
