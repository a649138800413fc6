"""Metamorphic transforms: small, meaning-preserving program edits that
must not change what GI infers.

This is the property class "Seeking Stability by being Lazy and Shallow"
(Bottu & Eisenberg, Haskell 2021) argues for testing mechanically:
inference should be *stable* under eta-expansion of an application head,
adding the inferred type as a redundant annotation, let-floating an
argument, swapping independent let bindings, and inlining or extracting a
``let`` of a variable.  Each transform takes the original term, its
:class:`~repro.core.infer.InferenceResult`, the active
:class:`~repro.core.policy.InstantiationPolicy` and the environment, and
returns the transformed term, or ``None`` when its applicability guard
fails.  The guards encode exactly where each point of the eager/lazy ×
deep/shallow grid promises stability — e.g. eta-expansion is only
type-preserving when the function's domain is fully monomorphic, because
an unannotated lambda binder is monomorphic by the Lambda Rule, and
let-inlining only under lazy instantiation.

The fuzzer's ``metamorphic`` oracle asserts that every applicable
transform preserves typeability and the inferred type up to
alpha-equivalence.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.env import Environment
from repro.core.evidence import ROOT
from repro.core.infer import InferenceResult
from repro.core.policy import InstantiationPolicy, has_nested_forall
from repro.core.terms import (
    Ann,
    App,
    Lam,
    Let,
    Term,
    Var,
    app,
    free_vars,
    subst_term,
    term_binders,
    walk_terms,
)
from repro.core.types import Forall, is_fully_monomorphic, split_arrows

Transform = Callable[
    [Term, InferenceResult, InstantiationPolicy, Environment], Optional[Term]
]


def eta_expand(
    term: Term, result: InferenceResult, policy: InstantiationPolicy, env: Environment
) -> Term | None:
    """``e`` at ``σ1 → σ2``  ⇒  ``\\v. e v``  (fresh ``v``).

    Guard: the principal type must be an unquantified arrow with a fully
    monomorphic domain (the fresh binder is a plain ``Lam``, and the
    Lambda Rule makes unannotated binders monomorphic), and the result
    context must be empty so the type is the whole story.  Under a
    **deep** policy nested quantifiers are hoisted to a prenex on both
    sides, so that is all.  Under a **shallow** policy no quantifier may
    hide to the right of an arrow: ``e : Int → ∀a. a → a`` keeps its
    nested quantifier where ``\\v. e v`` instantiates it and
    re-generalises to the prenex ``∀a. Int → a → a`` (the stability
    paper's motivating instability).
    """
    type_ = result.type_
    if isinstance(type_, Forall) or getattr(result, "context", ()):
        return None
    if not policy.deep and has_nested_forall(type_):
        return None
    domains, _ = split_arrows(type_)
    if not domains or not is_fully_monomorphic(domains[0]):
        return None
    fresh = _fresh_name(term)
    return Lam(fresh, app(term, Var(fresh)))


def annotate_inferred(
    term: Term, result: InferenceResult, policy: InstantiationPolicy, env: Environment
) -> Term | None:
    """``e`` at ``σ``  ⇒  ``(e :: σ)`` — redundant-signature insertion.

    Checking a term against its own principal type must succeed — this is
    the inferred type being *realisable* as an annotation (and exercises
    the checking direction of every syntax node the term contains), the
    stability paper's §4.4 claim.  Guard: empty residual context, and skip
    terms already annotated at the top (the transform would be the
    identity).  Under **deep** policies a signature containing a nested
    ``forall`` is rewritten by deep instantiation at the check site (the
    GHC ≤8.10 deep-subsumption instability the paper opens with), so those
    signatures are excluded rather than asserted.
    """
    if getattr(result, "context", ()):
        return None
    if policy.deep and has_nested_forall(result.type_):
        return None
    if isinstance(term, Ann) and term.annotation == result.type_:
        return None
    return Ann(term, result.type_)


def let_float_argument(
    term: Term, result: InferenceResult, policy: InstantiationPolicy, env: Environment
) -> Term | None:
    """``f e1 … en``  ⇒  ``let v = ei in f e1 … v … en``.

    Floating an argument into a ``let`` must preserve the result because
    GI's ``let`` does **not** generalise (§3.5): the binding gets exactly
    the argument's inferred type, so the application sees the same type
    through the variable.  Guard: the argument must be in *inference*
    mode — lambdas are excluded because their binder types come from the
    expected type at the application site (``poly (\\x -> x)`` checks the
    lambda against ``∀a. a → a``; floated out, the Lambda Rule gives it a
    monomorphic binder and the skolem escapes).  Variables and literals
    are skipped as no-ops.  Arguments the run *checked against a σ* are
    excluded too — the solver's evidence records skolems at the
    argument's key exactly when rule ArgGen generalised it (e.g.
    ``head ids`` checked against ``∀a. a → a`` in ``cons (head ids)
    (tail ids)``); floated out, the binding is typed in inference mode,
    eager instantiation gives it a monotype, and the σ is lost — the
    let-extraction instability the stability paper opens with, faithful
    GI behaviour rather than a bug.  The first eligible argument is
    chosen so the oracle is deterministic.
    """
    if not isinstance(term, App) or not term.args:
        return None
    for position, argument in enumerate(term.args):
        if argument.__class__.__name__ in ("Var", "Lit", "Lam", "AnnLam"):
            continue
        gen_info = result.evidence.gen_infos.get(result.evidence.child(ROOT, position + 1))
        if gen_info is not None and gen_info.skolems:
            continue
        fresh = _fresh_name(term)
        new_args = list(term.args)
        new_args[position] = Var(fresh)
        return Let(fresh, argument, App(term.head, tuple(new_args)))
    return None


def let_swap(
    term: Term, result: InferenceResult, policy: InstantiationPolicy, env: Environment
) -> Term | None:
    """``let x = e1 in let y = e2 in e``  ⇒  swap the two bindings.

    Guard: the bindings must be independent — ``x`` not free in ``e2``,
    ``y`` not free in ``e1`` (vacuously true since ``y`` is bound later),
    and distinct names so the swap does not change shadowing.
    """
    if not isinstance(term, Let) or not isinstance(term.body, Let):
        return None
    outer, inner = term, term.body
    if outer.var == inner.var:
        return None
    if outer.var in free_vars(inner.bound):
        return None
    if inner.var in free_vars(outer.bound):
        return None
    return Let(inner.var, inner.bound, Let(outer.var, outer.bound, inner.body))


def let_inline(
    term: Term, result: InferenceResult, policy: InstantiationPolicy, env: Environment
) -> Term | None:
    """``let x = y in e``  ⇒  ``e[x := y]`` — the stability paper's
    let-inlining of a *variable*.

    Only a **lazy** claim: under lazy instantiation the binding aliases
    ``y``'s polytype, so inlining is the identity on typing.  Under eager
    instantiation the binding holds an instantiated (monomorphised) copy
    and inlining can *gain* typeability (``let f = id in (f :: ∀a. a→a)``
    is the canonical flip), so no claim is made.  Guards: the bound term
    is a bare environment variable, distinct from the binder, and not
    rebound inside the body (the inlined occurrence must keep referring
    to the same binding).
    """
    if not policy.lazy:
        return None
    if not isinstance(term, Let) or not isinstance(term.bound, Var):
        return None
    alias = term.bound.name
    if alias == term.var or alias not in env:
        return None
    if any(alias in names for node in walk_terms(term.body) for names in term_binders(node)):
        return None
    return subst_term(term.body, term.var, Var(alias))


def let_extract(
    term: Term, result: InferenceResult, policy: InstantiationPolicy, env: Environment
) -> Term | None:
    """``e``  ⇒  ``let v = y in e[y := v]`` for an environment variable
    ``y`` free in ``e`` — let-extraction, the inverse of inlining.

    The same lazy-only claim as :func:`let_inline`, applied in the
    direction that fires on almost every generated term (any free
    environment variable will do), which is what gives the oracle its
    fuzz coverage.  The first free variable in sorted order keeps the
    transform deterministic.
    """
    if not policy.lazy:
        return None
    candidates = sorted(name for name in free_vars(term) if name in env)
    if not candidates:
        return None
    alias = candidates[0]
    fresh = _fresh_name(term, prefix="sv")
    return Let(fresh, Var(alias), subst_term(term, alias, Var(fresh)))


#: The battery, in deterministic order; the fuzzer applies every
#: transform whose guard passes.
TRANSFORMS: tuple[tuple[str, Transform], ...] = (
    ("eta", eta_expand),
    ("annotate", annotate_inferred),
    ("let-float", let_float_argument),
    ("let-swap", let_swap),
    ("let-inline", let_inline),
    ("let-extract", let_extract),
)


def _fresh_name(term: Term, prefix: str = "mv") -> str:
    used = free_vars(term)
    for node in walk_terms(term):
        for names in term_binders(node):
            used.update(names)
    index = 1
    while f"{prefix}{index}" in used:
        index += 1
    return f"{prefix}{index}"
