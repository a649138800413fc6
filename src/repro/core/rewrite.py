"""Figure 8 taken literally: a small-step constraint rewriting engine.

The production solver (:mod:`repro.core.solver`) is a deterministic
worklist engine with levels standing in for rule float.  This module
implements the *paper's presentation* instead: a configuration
``C ; ῡ`` and a step function that applies the first applicable rewrite
rule — ⊤ident, eqrefl, eqmono, eqsubst, eqvar, eqfully, instϵ, inst→,
inst∀l and inst⨅l — rebuilding the entire constraint set at each step,
exactly as the rules read.

It covers the quantifier-free fragment (equalities and instantiation
constraints; generalisation constraints whose right-hand side never
becomes a ``∀``), which is enough to cross-check the production solver on
randomly generated unification and instantiation problems: both engines
must agree on *solvability*, and on solved problems their induced
substitutions must agree up to renaming (the property tests live in
``tests/test_rewrite.py``).

This is deliberately O(n²)-per-step — the point is fidelity to the
figure, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.classify import Bit
from repro.core.constraints import Constraint, Eq, Gen, Inst
from repro.core.classify import classified_binders
from repro.core.names import NameSupply
from repro.core.sorts import Sort
from repro.core.types import (
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    alpha_equal,
    contains_uvar,
    fun,
    fuv,
    respects,
    subst_tvars,
    subst_uvars,
)


@dataclass
class Configuration:
    """``C ; ῡ`` — a constraint set with its existential variables."""

    constraints: list[Constraint]
    variables: set[UVar] = field(default_factory=set)
    supply: NameSupply = field(default_factory=lambda: NameSupply("rw"))
    trace: list[str] = field(default_factory=list)

    def fresh(self, sort: Sort) -> UVar:
        variable = UVar(self.supply.fresh(), sort)
        self.variables.add(variable)
        return variable


def step(config: Configuration) -> bool:
    """Apply the first applicable rule; returns False at normal form."""
    for index, constraint in enumerate(config.constraints):
        rule = _match_rule(config, index, constraint)
        if rule is not None:
            name, apply = rule
            rest = config.constraints[:index] + config.constraints[index + 1:]
            config.constraints = apply(rest)
            config.trace.append(name)
            return True
    return False


def _match_rule(config: Configuration, index: int, constraint: Constraint):
    if isinstance(constraint, Eq):
        left, right = constraint.left, constraint.right
        # [eqrefl] — syntactic (α-) equality.
        if alpha_equal(left, right):
            return "eqrefl", lambda rest: rest
        # [eqvar] — orient variable-variable equalities by restrictiveness.
        if (
            isinstance(left, UVar)
            and isinstance(right, UVar)
            and left.sort < right.sort
        ):
            return "eqvar", lambda rest: rest + [Eq(right, left)]
        # [eqfully] — αᵐ ~ σ demotes every non-m variable of σ.
        if isinstance(left, UVar) and left.sort is Sort.M and not isinstance(right, UVar):
            loose = [v for v in fuv(right) if v.sort is not Sort.M]
            if loose:
                def demote(rest, loose=loose, keep=constraint):
                    fresh = {v: config.fresh(Sort.M) for v in loose}
                    return rest + [keep] + [Eq(v, fresh[v]) for v in loose]

                return "eqfully", demote
        if isinstance(right, UVar) and not isinstance(left, UVar):
            return "eqswap", lambda rest: rest + [Eq(right, left)]
        # [eqmono] — structural decomposition.
        if (
            isinstance(left, TCon)
            and isinstance(right, TCon)
            and left.name == right.name
            and len(left.args) == len(right.args)
        ):
            pairs = list(zip(left.args, right.args))
            return "eqmono", lambda rest: rest + [Eq(l, r) for l, r in pairs]
        # [eqsubst] — substitute a solved variable into the other
        # constraints (keeping the equality, as the figure does).
        if isinstance(left, UVar):
            if contains_uvar(right, left):
                return None  # occurs failure: stuck (reported as such)
            if not respects(right, left.sort):
                return None
            mentions = [
                other
                for other in config.constraints
                if other is not constraint and left in _constraint_fuv(other)
            ]
            if mentions:
                def substitute(rest, variable=left, image=right, keep=constraint):
                    mapping = {variable: image}
                    return [
                        _subst(mapping, other) for other in rest
                    ] + [keep]

                return "eqsubst", substitute
        return None
    if isinstance(constraint, Inst):
        lhs = constraint.lhs
        if isinstance(lhs, Forall):
            # [inst∀l] — freshen at the classified sorts.
            def freshen(rest, inst=constraint):
                assignment = classified_binders(inst.lhs, inst.sort, inst.bits)
                mapping = {
                    binder: config.fresh(assignment.get(binder, Sort.M))
                    for binder in inst.lhs.binders
                }
                body = subst_tvars(mapping, inst.lhs.body)
                return rest + [replace(inst, lhs=body)]

            return "inst∀l", freshen
        if isinstance(lhs, UVar) and lhs.sort is Sort.U:
            return None  # wait (Section 4.3.2 case 1)
        if not constraint.bits:
            # [instϵ]
            return "instϵ", lambda rest, i=constraint: rest + [Eq(i.lhs, i.result)]
        # [inst→]
        def arrow(rest, inst=constraint):
            beta = config.fresh(Sort.U)
            return rest + [
                Eq(inst.lhs, fun(inst.args[0], beta)),
                Inst(beta, inst.sort, inst.bits[1:], inst.args[1:], inst.result),
            ]

        return "inst→", arrow
    if isinstance(constraint, Gen):
        rhs = constraint.rhs
        if isinstance(rhs, UVar) and rhs.sort is Sort.U:
            return None  # wait (Section 4.3.2 case 2)
        if isinstance(rhs, Forall):
            return None  # inst∀r needs scoping; outside this fragment
        # [inst⨅l] — release the captured constraints.
        def release(rest, gen=constraint):
            config.variables.update(gen.scheme.captured)
            return (
                rest
                + list(gen.scheme.constraints)
                + [Inst(gen.scheme.type_, Sort.M, (), (), gen.rhs)]
            )

        return "inst⨅l", release
    return None


def _constraint_fuv(constraint: Constraint) -> set[UVar]:
    from repro.core.constraints import constraint_fuv

    return constraint_fuv(constraint)


def _subst(mapping: dict[UVar, Type], constraint: Constraint) -> Constraint:
    from repro.core.constraints import subst_constraint

    return subst_constraint(mapping, constraint)


@dataclass
class RewriteOutcome:
    solved: bool
    substitution: dict[UVar, Type]
    residual: list[Constraint]
    steps: list[str]


def rewrite_solve(
    constraints: list[Constraint],
    variables: set[UVar] | None = None,
    max_steps: int = 10_000,
) -> RewriteOutcome:
    """Run the rewriting engine to normal form and classify the result.

    Solved form (Figure 9, restricted to the scope-free fragment): only
    equalities ``α ~ σ`` with at most one equality per variable and an
    idempotent induced substitution.
    """
    config = Configuration(list(constraints), set(variables or set()))
    for _ in range(max_steps):
        if not step(config):
            break
    else:
        raise RuntimeError("rewriting did not terminate within the step budget")

    substitution: dict[UVar, Type] = {}
    residual: list[Constraint] = []
    solved = True
    for constraint in config.constraints:
        if (
            isinstance(constraint, Eq)
            and isinstance(constraint.left, UVar)
            and not contains_uvar(constraint.right, constraint.left)
            and respects(constraint.right, constraint.left.sort)
            and constraint.left not in substitution
        ):
            substitution[constraint.left] = constraint.right
        else:
            residual.append(constraint)
            solved = False
    # Idempotence check (rule SolvedVar): images mention only variables
    # without equalities of their own.
    if solved:
        for image in substitution.values():
            if any(v in substitution for v in fuv(image)):
                solved = False
                break
    return RewriteOutcome(solved, substitution, residual, config.trace)
