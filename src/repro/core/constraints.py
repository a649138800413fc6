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

Every :class:`Inst` and :class:`Gen` carries an optional *evidence key*
(:mod:`repro.core.evidence`) linking it to the term node it came from,
so the solver can record the instantiations and skolemisations needed to
elaborate into System F.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classify import Bit
from repro.core.sorts import Sort
from repro.core.terms import drive
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
        return render_constraint(self)


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
        return render_constraint(self)


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
        return render_constraint(self)


def render_constraint(constraint: Constraint | Scheme) -> str:
    """The text of a constraint or scheme.

    Schemes and implications nest as deeply as the term, so the text is
    written piece by piece from an explicit stack and joined once."""
    pieces: list[str] = []
    stack: list = [constraint]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            pieces.append(item)
        elif isinstance(item, Scheme):
            variables = " ".join(str(variable) for variable in item.captured)
            stack.append(f" => {item.type_})")
            stack.extend(reversed(_conjunction(item.constraints)))
            stack.append(f"(gen {{{variables}}}. ")
        elif isinstance(item, Gen):
            stack.append(f" <~ {item.rhs}")
            stack.append(item.scheme)
        elif isinstance(item, Quant):
            quantified = " ".join(item.skolems)
            local = " ".join(str(variable) for variable in item.existentials)
            stack.append(")")
            stack.extend(reversed(_conjunction(item.wanteds)))
            if item.givens:
                stack.append(" => ")
                stack.extend(reversed(_conjunction(item.givens)))
            stack.append(f"(forall {quantified}. exists {{{local}}}. ")
        else:
            pieces.append(str(item))
    return "".join(pieces)


def _conjunction(constraints: tuple[Constraint, ...]) -> list:
    """``C1 /\\ C2 /\\ …``, or ``T`` for none, as pieces to render."""
    if not constraints:
        return ["T"]
    pieces: list = [constraints[0]]
    for constraint in constraints[1:]:
        pieces.extend((" /\\ ", constraint))
    return pieces


def constraint_fuv(constraint: Constraint) -> set[UVar]:
    """Free unification variables of a constraint (schemes and
    implications nest as deeply as the term, so on an explicit stack)."""
    out: set[UVar] = set()
    stack = [constraint]
    while stack:
        constraint = stack.pop()
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
            stack.extend(constraint.scheme.constraints)
        elif isinstance(constraint, ClassC):
            for argument in constraint.args:
                out.update(fuv(argument))
        elif isinstance(constraint, Quant):
            out |= set(constraint.existentials)
            stack.extend(constraint.givens)
            stack.extend(constraint.wanteds)
        else:
            raise TypeError(f"unknown constraint: {constraint!r}")
    return out


def subst_constraint(mapping: dict[UVar, Type], constraint: Constraint) -> Constraint:
    """Apply a unification-variable substitution throughout a constraint.

    Captured scheme variables and quantifier existentials that are
    themselves substituted *by a variable* are renamed; this is how the
    solver refreshes a scheme's captured variables into an inner scope.
    """
    if not mapping:
        return constraint
    return drive(_subst(mapping, constraint))


def _subst(mapping: dict[UVar, Type], constraint: Constraint):
    """:func:`subst_constraint` as a walk: simple constraints are answered
    at once, schemes and implications walk their constraints."""
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
    if isinstance(constraint, ClassC):
        arguments = tuple(subst_uvars(mapping, argument) for argument in constraint.args)
        return ClassC(constraint.class_name, arguments)
    if isinstance(constraint, (Gen, Quant)):
        return _subst_nested(mapping, constraint)
    raise TypeError(f"unknown constraint: {constraint!r}")


def _subst_nested(mapping: dict[UVar, Type], constraint: Gen | Quant):
    if isinstance(constraint, Gen):
        scheme = constraint.scheme
        new_captured = tuple(_rename_var(mapping, variable) for variable in scheme.captured)
        inner = []
        for nested in scheme.constraints:
            inner.append((yield _subst(mapping, nested)))
        new_scheme = Scheme(new_captured, tuple(inner), subst_uvars(mapping, scheme.type_))
        return Gen(new_scheme, subst_uvars(mapping, constraint.rhs), constraint.star, constraint.evidence)
    existentials = tuple(_rename_var(mapping, variable) for variable in constraint.existentials)
    givens = []
    for given in constraint.givens:
        givens.append((yield _subst(mapping, given)))
    wanteds = []
    for wanted in constraint.wanteds:
        wanteds.append((yield _subst(mapping, wanted)))
    return Quant(
        constraint.skolems, existentials, tuple(givens), tuple(wanteds), constraint.evidence
    )


def _rename_var(mapping: dict[UVar, Type], variable: UVar) -> UVar:
    image = mapping.get(variable)
    if image is None:
        return variable
    if isinstance(image, UVar):
        return image
    raise ValueError(
        f"cannot substitute bound unification variable {variable} by non-variable {image}"
    )
