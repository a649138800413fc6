"""FreezeML-style inference (after Emrich et al., PLDI 2020) — a baseline.

FreezeML recovers *principal types by construction* for first-class
polymorphism by making every instantiation decision syntactically
explicit: a plain variable occurrence instantiates eagerly exactly as in
ML, while a frozen occurrence ``⌈x⌉`` suppresses instantiation and hands
the polytype over verbatim.  Unification variables may be solved to
polytypes (that is how ``single ⌈id⌉ : [∀a.a→a]`` works), quantified
types unify only up to α-renaming, λ-binders stay monomorphic, and
``let`` generalises in the classic ML way.

Reconstruction notes (our term language has no ``⌈·⌉`` syntax):

* **Annotations are the freeze stand-in.**  ``(e :: σ)`` checks ``e``'s
  generalised type against ``σ`` and returns ``σ`` *without*
  instantiating it — the same "hand the polytype over verbatim" role the
  freeze marker plays in the paper.  ``single (id :: forall a. a -> a)``
  types at ``[∀a.a→a]`` exactly like ``single ⌈id⌉``.
* Because plain variables always instantiate, Figure-2 rows that need a
  marker in FreezeML (``poly id``, ``id : ids``, ``runST argST``, the D
  column…) are *rejected* here without one — measured and recorded as
  the expected FreezeML column in ``tests/test_figure2_matrix.py`` and
  EXPERIMENTS.md, with the annotated repairs accepted.
* Impredicativity still flows through unification: ``choose [] ids``
  needs no marker because the flexible variable for ``choose``'s
  quantifier is solved to ``[∀a.a→a]`` by unification, and FreezeML's
  variables range over polytypes.
"""

from __future__ import annotations

from repro.baselines.kernel import Kernel
from repro.core.env import Environment
from repro.core.errors import TypeError_
from repro.core.sorts import Sort
from repro.core.terms import Ann, Term
from repro.core.types import Type, UVar, fuv, mentions_forall


class FreezeMLError(TypeError_):
    """A FreezeML type error."""


# UVar sorts:
#   Sort.M — a λ-binder: must stay fully monomorphic (no ∀ anywhere);
#   Sort.U — everything else: may be solved to a polytype (FreezeML's
#            unification variables range over System F types).


class FreezeMLInferencer(Kernel):
    """Algorithm-W-shaped inference with polytype-ranging variables.

    Skolemisation (for the annotation rule) is shallow: FreezeML's
    instance relation is top-level only.
    """

    PREFIX = "fz"
    FRESH_SORT = Sort.U
    Error = FreezeMLError

    def admit(self, variable: UVar, type_: Type) -> None:
        if not mentions_forall(type_):
            return
        if variable.sort is Sort.M:
            raise FreezeMLError(
                f"monomorphic λ-binder variable `{variable}` cannot be "
                f"`{type_}` (annotate the lambda binder)"
            )
        # The restriction propagates: a flexible variable reachable
        # from a λ-binder's image is itself mono-restricted (FreezeML
        # demotes such variables; this rejects `λxs. poly (head xs)`).
        for mono, image in list(self.subst.items()):
            if mono.sort is Sort.M and variable in fuv(self.zonk(image)):
                raise FreezeMLError(
                    f"λ-binder `{mono}` would become polymorphic through "
                    f"`{variable} := {type_}` (annotate the lambda binder)"
                )

    def _infer_ann(self, term: Ann, local: dict[str, Type]):
        # The freeze marker stand-in: the expression's *generalised*
        # (principal) type must instantiate to the signature, and the
        # signature is returned verbatim — no eager instantiation.
        offered = yield self._infer(term.expr, local)
        offered_sigma = self.generalize(local.values(), offered)
        self.subsume(offered_sigma, term.annotation)
        return term.annotation


def freezeml_infer(term: Term, env: Environment) -> Type:
    """Convenience wrapper."""
    return FreezeMLInferencer(env).infer(term)
