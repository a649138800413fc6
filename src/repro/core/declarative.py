"""The declarative instantiation judgement, as a *checkable* relation.

The declarative system (Figure 4) is not syntax-directed — it guesses a
``∆``-respecting substitution θ in rule InstPoly.  This module provides
the judgement with the guesses made explicit, so it can *verify* them:

    ``σ ⩽s_ω σ1 … σn ; µ``  holds with witness blocks ψ1, ψ2, …

where each ψ lists the types substituted for one quantifier group (the
same shape the solver records as elaboration evidence).  The function
:func:`verify_inference` replays a finished inference run: every
instantiation the solver performed is re-checked against the declarative
rules — InstPoly's sort discipline included — giving an executable bridge
between Section 3 and Section 4 (the content of Theorem 4.2 on the
instantiation side, checked per constraint rather than per derivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.classify import Bit, classified_binders
from repro.core.constraints import Constraint, Gen, Inst, Quant
from repro.core.evidence import release_key
from repro.core.infer import InferenceResult
from repro.core.sorts import Sort
from repro.core.types import (
    Forall,
    Type,
    alpha_equal,
    arrow_parts,
    is_arrow,
    respects,
    subst_tvars,
)


@dataclass
class SpecFailure:
    """One place where the algorithm's choice is not derivable."""

    constraint: Inst
    reason: str


@dataclass
class SpecReport:
    """Outcome of replaying a run against the declarative rules."""

    checked: int = 0
    failures: list[SpecFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_instantiation(
    sigma: Type,
    sort: Sort,
    bits: Sequence[Bit],
    arg_types: Sequence[Type],
    result: Type,
    witness_blocks: Sequence[Sequence[Type]],
) -> str | None:
    """Does ``σ ⩽s_ω σ̄;µ`` hold with the given InstPoly witnesses?

    Returns ``None`` on success, or a human-readable reason on failure.
    Mirrors rules InstMono / InstArrow / InstPoly exactly:

    * InstPoly: the next witness block instantiates the binders; every
      image must respect the sort the classification ``▷s_ω`` assigns;
    * InstArrow: the type must be an arrow whose domain *equals* the next
      expected argument type (all constructors are invariant);
    * InstMono: with no arguments left, the remainder must equal ``µ``.
    """
    bits = list(bits)
    arg_types = list(arg_types)
    blocks = list(witness_blocks)
    while True:
        if not arg_types and not blocks and alpha_equal(sigma, result):
            # Remainder reached the target (including the ∀-to-the-right
            # case where the target itself is the quantified remainder).
            return None
        if isinstance(sigma, Forall):
            if not blocks:
                return f"missing a witness block for the quantifier in {sigma}"
            block = blocks.pop(0)
            if len(block) != len(sigma.binders):
                return (
                    f"witness block has {len(block)} types for "
                    f"{len(sigma.binders)} binders"
                )
            assignment = classified_binders(sigma, sort, bits)
            for binder, image in zip(sigma.binders, block):
                required = assignment.get(binder, Sort.M)
                if not respects(image, required):
                    return (
                        f"InstPoly: {binder} ↦ {image} does not respect "
                        f"sort `{required.symbol}` (the guardedness "
                        f"classification for this position)"
                    )
            sigma = subst_tvars(dict(zip(sigma.binders, block)), sigma.body)
            continue
        if arg_types:
            if not is_arrow(sigma):
                return f"InstArrow: `{sigma}` is not a function type"
            domain, sigma = arrow_parts(sigma)
            expected = arg_types.pop(0)
            bits.pop(0)
            if not alpha_equal(domain, expected):
                return (
                    f"InstArrow: argument type `{domain}` differs from the "
                    f"expected `{expected}`"
                )
            continue
        if blocks:
            return "unused witness blocks remain"
        if not alpha_equal(sigma, result):
            return f"InstMono: remainder `{sigma}` differs from `{result}`"
        return None


def verify_inference(result: InferenceResult) -> SpecReport:
    """Re-check every instantiation of a finished run against Figure 4.

    Walks the generated constraint tree (including constraints captured
    in generalisation schemes and quantification bodies), zonks each
    instantiation constraint through the final solver substitution, and
    validates it with :func:`check_instantiation` using the recorded
    evidence as the InstPoly witnesses.
    """
    zonk = result.solver.unifier.zonk
    report = SpecReport()

    def witnesses_for(evidence) -> list[list[Type]]:
        if evidence is None:
            return []
        return [
            [zonk(t) for t in block]
            for block in result.evidence.type_arg_blocks(evidence)
        ]

    def check(constraint: Inst, lhs: Type, args: list[Type], res: Type, evidence) -> None:
        reason = check_instantiation(
            lhs, constraint.sort, constraint.bits, args, res, witnesses_for(evidence)
        )
        report.checked += 1
        if reason is not None:
            report.failures.append(SpecFailure(constraint, reason))

    # Constraints nest as deeply as the term, so the tree is walked on an
    # explicit stack: a generalisation's captured constraints come before
    # the check of its own release, which a ``True`` entry marks.
    stack: list[tuple[Constraint, bool]] = [
        (constraint, False) for constraint in reversed(result.constraints)
    ]
    while stack:
        constraint, released = stack.pop()
        if isinstance(constraint, Inst):
            lhs = zonk(constraint.lhs)
            args = [zonk(argument) for argument in constraint.args]
            check(constraint, lhs, args, zonk(constraint.result), constraint.evidence)
        elif isinstance(constraint, Gen) and not released:
            stack.append((constraint, True))
            stack.extend((inner, False) for inner in reversed(constraint.scheme.constraints))
        elif isinstance(constraint, Gen):
            # The release of the scheme itself is an instantiation
            # ``σ ⩽mϵ ϵ;η``; it was checked by the solver and its witness
            # recorded under the release key of the argument — replay it.
            rhs = zonk(constraint.rhs)
            if not isinstance(rhs, Forall):
                lhs = zonk(constraint.scheme.type_)
                check(
                    Inst(lhs, Sort.M, (), (), rhs),
                    lhs,
                    [],
                    rhs,
                    None if constraint.evidence is None else release_key(constraint.evidence),
                )
        elif isinstance(constraint, Quant):
            stack.extend((wanted, False) for wanted in reversed(constraint.wanteds))
    return report
