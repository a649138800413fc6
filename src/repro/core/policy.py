"""Instantiation policies — the eager/lazy × deep/shallow design space.

The paper fixes one instantiation discipline: guarded instantiation at
application spines, with *shallow* skolemisation (rule inst∀r opens only
the top-level binders) and *eager* instantiation of nullary variable
occurrences.  "Seeking Stability by being Lazy and Shallow" (Bottu &
Eisenberg, Haskell 2021) observes that this is a **policy**, one point in
a 2×2 grid, and that each axis has testable stability consequences:

* ``speed`` — *eager* instantiates a variable's quantifiers the moment it
  is mentioned; *lazy* keeps the polytype until an elimination context
  forces instantiation.  GI's constraint generator is already lazy at
  application heads and arguments (``⊢fun`` and rule ArgGen carry σ
  verbatim); the one remaining eager site whose effect survives
  generalisation is the ``let`` rule, because GI deliberately does *not*
  re-generalise let bindings (Section 3.5).  ``speed="lazy"`` therefore
  makes a let-bound *variable* an alias for its environment polytype,
  which is exactly what makes let-inlining and let-extraction of a
  variable type-preserving (the stability paper's §4.2).
* ``depth`` — *shallow* instantiates/skolemises only top-level
  quantifiers; *deep* first hoists quantifiers buried to the right of
  arrows into a prenex (GHC ≤ 8.10's ``deeplyInstantiate`` /
  ``deeplySkolemise``, resurrected as ``-XDeepSubsumption``).  Deep
  makes eta-expansion type-preserving even for types like
  ``Int -> ∀a. a -> a``, at the cost of breaking η-irrelevance of
  runtime semantics and stability under signature inlining.

The named policies:

=================  ==============================================
``eager-shallow``  the paper's system and this repo's default —
                   also GHC 9.0+ (simplified subsumption)
``eager-deep``     GHC ≤ 8.10 (deep subsumption)
``lazy-shallow``   the stability paper's recommendation
``lazy-deep``      the remaining corner, for completeness
=================  ==============================================

``DEFAULT_POLICY`` (eager-shallow) is bit-for-bit the behaviour the rest
of the code base had before this knob existed; every other value is an
experimental variant measured descriptively by the evalsuite matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import (
    Forall,
    Pred,
    TVar,
    Type,
    arrow_parts,
    forall,
    ftv,
    fun,
    is_arrow,
    open_forall,
)

SPEEDS = ("eager", "lazy")
DEPTHS = ("shallow", "deep")


@dataclass(frozen=True)
class InstantiationPolicy:
    """One point in the eager/lazy × deep/shallow grid."""

    speed: str
    depth: str

    def __post_init__(self) -> None:
        if self.speed not in SPEEDS:
            raise ValueError(f"speed must be one of {SPEEDS}, got {self.speed!r}")
        if self.depth not in DEPTHS:
            raise ValueError(f"depth must be one of {DEPTHS}, got {self.depth!r}")

    @property
    def name(self) -> str:
        return f"{self.speed}-{self.depth}"

    @property
    def lazy(self) -> bool:
        return self.speed == "lazy"

    @property
    def deep(self) -> bool:
        return self.depth == "deep"

    def __str__(self) -> str:
        return self.name


EAGER_SHALLOW = InstantiationPolicy("eager", "shallow")
EAGER_DEEP = InstantiationPolicy("eager", "deep")
LAZY_SHALLOW = InstantiationPolicy("lazy", "shallow")
LAZY_DEEP = InstantiationPolicy("lazy", "deep")

DEFAULT_POLICY = EAGER_SHALLOW
"""The reference configuration — identical to pre-knob behaviour."""

POLICIES: tuple[InstantiationPolicy, ...] = (
    EAGER_SHALLOW,
    EAGER_DEEP,
    LAZY_SHALLOW,
    LAZY_DEEP,
)

POLICY_NAMES: tuple[str, ...] = tuple(policy.name for policy in POLICIES)

_BY_NAME = {policy.name: policy for policy in POLICIES}


def parse_policy(name: str) -> InstantiationPolicy:
    """Look up a policy by its ``speed-depth`` name.

    Raises :class:`ValueError` listing the valid names — callers (CLI,
    REPL, serve) reuse the message verbatim.
    """
    policy = _BY_NAME.get(name)
    if policy is None:
        raise ValueError(
            f"unknown policy {name!r} (available: {', '.join(POLICY_NAMES)})"
        )
    return policy


# ----------------------------------------------------------------------
# Deep skolemisation/instantiation support
# ----------------------------------------------------------------------


def has_nested_forall(type_: Type) -> bool:
    """Whether quantifiers hide to the right of arrows (so
    :func:`deep_prenex` would change the type)."""
    seen_top = False
    current = type_
    while True:
        if isinstance(current, Forall):
            if seen_top:
                return True
            current = current.body
        elif is_arrow(current):
            seen_top = True
            _, current = arrow_parts(current)
        else:
            return False


def deep_prenex(type_: Type, intern=None) -> Type:
    """Hoist quantifiers (and their contexts) buried to the right of
    arrows into a single prenex — GHC's ``deeplySkolemise`` shape.

    Only *result* positions of arrows are walked: quantifiers inside
    argument types or under other constructors stay put (they bound
    higher-rank arguments, which deep subsumption never opens).  Hoisted
    binders are freshened against every name already in scope so the
    rewrite is capture-avoiding; when nothing needs hoisting the input is
    returned unchanged (object identity), keeping the eager paths free of
    re-allocation.

    The fixed point is detected *by identity* (``deep_prenex(t) is t``),
    so a reconstructed result must itself be canonical: pass the run's
    ``intern`` table (:class:`~repro.core.types.InternTable`) and the
    rebuilt prenex is re-interned, keeping
    object identity equal to structural identity even when the same type
    is hoisted again through a second, fresh-but-shared table (the serve
    multi-session case).  Without a table the rebuild is returned as
    constructed — correct, but a fresh object per call.
    """
    if not has_nested_forall(type_):
        return type_
    used = set(ftv(type_))
    binders: list[str] = []
    context: list[Pred] = []
    spine: list[Type] = []
    current = type_
    while True:
        if isinstance(current, Forall):
            images: list[Type] = []
            for binder in current.binders:
                name = binder
                if name in used:
                    suffix = 1
                    while f"{binder}{suffix}" in used:
                        suffix += 1
                    name = f"{binder}{suffix}"
                used.add(name)
                binders.append(name)
                images.append(TVar(name))
            opened, current = open_forall(current, images)
            context.extend(opened)
        elif is_arrow(current):
            argument, result = arrow_parts(current)
            spine.append(argument)
            current = result
        else:
            break
    body = current
    for argument in reversed(spine):
        body = fun(argument, body)
    result = forall(binders, body, tuple(context))
    return intern.intern(result) if intern is not None else result
