"""The constraint language of the inference algorithm (Figures 6 and 13).

Constraints::

    C ::= ⊤                              (represented as the empty list)
        | C1 ∧ C2                        (lists of constraints)
        | σ ~ ϕ                          equality            (:class:`Eq`)
        | σ ⩽s_ω σ̄ ; µ                   instantiation       (:class:`Inst`)
        | g ⪯ σ                          generalisation      (:class:`Gen`)
        | ∀ā. ∃ῡ. (Q ⊃ C)                quantification /
                                          implication         (:class:`Quant`)
        | D σ1 ... σn                     type class          (:class:`ClassC`)

A *generalisation scheme* ``g = ⨅{ῡ}. C ⇒ σ`` packages the constraints of
an argument whose generalisation decision must be deferred to the solver
(Section 4.1).  Rule VarGen produces a degenerate scheme with no captured
constraints whose type mentions fresh unrestricted variables.

Every :class:`Inst` and :class:`Gen` carries an optional *evidence id*
linking it to the term node it came from, so the solver can record the
instantiations and skolemisations needed to elaborate into System F.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classify import Bit
from repro.core.sorts import Sort
from repro.core.types import Type, UVar, fuv, subst_uvars


@dataclass(frozen=True)
class Constraint:
    """Base class of all constraint forms."""


@dataclass(frozen=True)
class Eq(Constraint):
    """An equality constraint ``left ~ right``."""

    left: Type
    right: Type

    def __str__(self) -> str:
        return f"{self.left} ~ {self.right}"


@dataclass(frozen=True)
class Inst(Constraint):
    """An instantiation constraint ``lhs ⩽s_ω args ; result``.

    ``lhs`` is the (function) type being instantiated, ``bits`` the vector
    ``ω``, ``args`` the expected argument types (one per bit) and
    ``result`` the type the remainder must take.  ``sort`` is the parameter
    ``s``: ``M`` for ordinary applications, ``U`` for annotated ones.
    """

    lhs: Type
    sort: Sort
    bits: tuple[Bit, ...]
    args: tuple[Type, ...]
    result: Type
    evidence: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.args):
            raise ValueError("one ω bit per argument type")

    def __str__(self) -> str:
        omega = ",".join(str(bit) for bit in self.bits)
        arguments = ", ".join(str(argument) for argument in self.args)
        return f"{self.lhs} <={self.sort.symbol}[{omega}] {arguments} ; {self.result}"


@dataclass(frozen=True)
class Scheme:
    """A type with generalisation ``⨅{ῡ}. C ⇒ σ`` (Figure 6)."""

    captured: tuple[UVar, ...]
    constraints: tuple[Constraint, ...]
    type_: Type

    def __str__(self) -> str:
        variables = " ".join(str(variable) for variable in self.captured)
        inner = " /\\ ".join(str(constraint) for constraint in self.constraints) or "T"
        return f"(gen {{{variables}}}. {inner} => {self.type_})"


@dataclass(frozen=True)
class Gen(Constraint):
    """A generalisation constraint ``scheme ⪯ rhs``.

    ``star`` is ``True`` for constraints produced by rule VarGen (bare
    variable arguments with closed rank-1 types), ``False`` for rule
    ArgGen.  The distinction only matters for evidence recording — the
    solver treats both uniformly via rules inst⨅l / inst∀r.
    """

    scheme: Scheme
    rhs: Type
    star: bool = False
    evidence: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.scheme} <~ {self.rhs}"


@dataclass(frozen=True)
class ClassC(Constraint):
    """A type-class constraint ``D σ1 ... σn`` (Appendix B)."""

    class_name: str
    args: tuple[Type, ...]

    def __str__(self) -> str:
        rendered = " ".join(f"({argument})" for argument in self.args)
        return f"{self.class_name} {rendered}"


@dataclass(frozen=True)
class Quant(Constraint):
    """A quantification / implication constraint ``∀ā. ∃ῡ. (Q ⊃ C)``.

    ``skolems`` are the rigid variables bound by the constraint,
    ``existentials`` the unification variables local to it, ``givens`` the
    assumed simple constraints (type classes and equalities, Appendix B)
    and ``wanteds`` the constraints to solve under those assumptions.
    """

    skolems: tuple[str, ...]
    existentials: tuple[UVar, ...]
    givens: tuple[Constraint, ...]
    wanteds: tuple[Constraint, ...]
    evidence: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        quantified = " ".join(self.skolems)
        local = " ".join(str(variable) for variable in self.existentials)
        inner = " /\\ ".join(str(w) for w in self.wanteds) or "T"
        given = " /\\ ".join(str(g) for g in self.givens)
        implication = f"{given} => {inner}" if given else inner
        return f"(forall {quantified}. exists {{{local}}}. {implication})"


def constraint_fuv(constraint: Constraint) -> set[UVar]:
    """Free unification variables of a constraint."""
    result: set[UVar] = set()
    _collect(constraint, result)
    return result


def _collect(constraint: Constraint, out: set[UVar]) -> None:
    if isinstance(constraint, Eq):
        out.update(fuv(constraint.left))
        out.update(fuv(constraint.right))
    elif isinstance(constraint, Inst):
        out.update(fuv(constraint.lhs))
        for argument in constraint.args:
            out.update(fuv(argument))
        out.update(fuv(constraint.result))
    elif isinstance(constraint, Gen):
        out.update(fuv(constraint.scheme.type_))
        out.update(fuv(constraint.rhs))
        out |= set(constraint.scheme.captured)
        for inner in constraint.scheme.constraints:
            _collect(inner, out)
    elif isinstance(constraint, ClassC):
        for argument in constraint.args:
            out.update(fuv(argument))
    elif isinstance(constraint, Quant):
        out |= set(constraint.existentials)
        for given in constraint.givens:
            _collect(given, out)
        for wanted in constraint.wanteds:
            _collect(wanted, out)
    else:
        raise TypeError(f"unknown constraint: {constraint!r}")


def subst_constraint(mapping: dict[UVar, Type], constraint: Constraint) -> Constraint:
    """Apply a unification-variable substitution throughout a constraint.

    Captured scheme variables and quantifier existentials that are
    themselves substituted *by a variable* are renamed; this is how the
    solver refreshes a scheme's captured variables into an inner scope.
    """
    if not mapping:
        return constraint
    if isinstance(constraint, Eq):
        return Eq(subst_uvars(mapping, constraint.left), subst_uvars(mapping, constraint.right))
    if isinstance(constraint, Inst):
        return Inst(
            subst_uvars(mapping, constraint.lhs),
            constraint.sort,
            constraint.bits,
            tuple(subst_uvars(mapping, argument) for argument in constraint.args),
            subst_uvars(mapping, constraint.result),
            constraint.evidence,
        )
    if isinstance(constraint, Gen):
        scheme = constraint.scheme
        new_captured = tuple(_rename_var(mapping, variable) for variable in scheme.captured)
        new_scheme = Scheme(
            new_captured,
            tuple(subst_constraint(mapping, inner) for inner in scheme.constraints),
            subst_uvars(mapping, scheme.type_),
        )
        return Gen(new_scheme, subst_uvars(mapping, constraint.rhs), constraint.star, constraint.evidence)
    if isinstance(constraint, ClassC):
        return ClassC(constraint.class_name, tuple(subst_uvars(mapping, argument) for argument in constraint.args))
    if isinstance(constraint, Quant):
        return Quant(
            constraint.skolems,
            tuple(_rename_var(mapping, variable) for variable in constraint.existentials),
            tuple(subst_constraint(mapping, given) for given in constraint.givens),
            tuple(subst_constraint(mapping, wanted) for wanted in constraint.wanteds),
            constraint.evidence,
        )
    raise TypeError(f"unknown constraint: {constraint!r}")


def _rename_var(mapping: dict[UVar, Type], variable: UVar) -> UVar:
    image = mapping.get(variable)
    if image is None:
        return variable
    if isinstance(image, UVar):
        return image
    raise ValueError(
        f"cannot substitute bound unification variable {variable} by non-variable {image}"
    )
