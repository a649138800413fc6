"""Elaboration of inferred GI programs into System F (Figure 16).

Constraint generation tagged every instantiation / generalisation /
annotation site with the path of its term node; the solver recorded which
type arguments each instantiation chose (interleaved with the explicit
arguments, rule by rule) and which skolems each generalisation introduced.
This module replays the source term against that evidence, emitting:

* ``ψ1 e1 ψ2 e2 ... ψr`` type/term application chains for rule App;
* ``Λb̄. eF τ̄`` for rule ArgGen and ``Λb̄. x σ̄`` for rule VarGen;
* ``Λb̄. ...`` around annotated applications (rule AnnApp);
* ``(λ(x :: ϕ). e2F) e1F``-style explicit lets;
* case alternatives with explicit existential binders.

The resulting term type-checks in plain System F
(:mod:`repro.systemf.check`) at an α-equivalent of the inferred type —
the executable content of Theorems 4.2 and C.1.
"""

from __future__ import annotations

from repro.core.errors import ElaborationError
from repro.core.evidence import EvidenceStore, Path, TakeArg, TypeArgs
from repro.core.infer import InferenceResult
from repro.core.terms import (
    Ann,
    AnnLam,
    App,
    Case,
    Lam,
    Let,
    Lit,
    Term,
    Var,
)
from repro.systemf.ast import (
    FAlt,
    FApp,
    FCase,
    FLam,
    FLet,
    FLit,
    FTerm,
    FTyApp,
    FVar,
    ftyapp,
    ftylam,
)


class Elaborator:
    """Replays a type-inferred term into System F."""

    def __init__(self, evidence: EvidenceStore) -> None:
        self.evidence = evidence

    # ------------------------------------------------------------------

    def elaborate(self, term: Term, path: Path = ()) -> FTerm:
        if isinstance(term, Var):
            return self._elaborate_app(term, (), path)
        if isinstance(term, Lit):
            return FLit(term.value)
        if isinstance(term, App):
            return self._elaborate_app(term.head, term.args, path)
        if isinstance(term, Lam):
            binder_type = self.evidence.lam_binders.get(path)
            if binder_type is None:
                raise ElaborationError(f"no binder type recorded for λ at {path}")
            return FLam(term.var, binder_type, self.elaborate(term.body, path + (0,)))
        if isinstance(term, AnnLam):
            return FLam(term.var, term.annotation, self.elaborate(term.body, path + (0,)))
        if isinstance(term, Ann):
            return self._elaborate_ann(term, path)
        if isinstance(term, Let):
            bound_type = self.evidence.let_types.get(path)
            if bound_type is None:
                raise ElaborationError(f"no bound type recorded for let at {path}")
            return FLet(
                term.var,
                bound_type,
                self.elaborate(term.bound, path + (0,)),
                self.elaborate(term.body, path + (1,)),
            )
        if isinstance(term, Case):
            return self._elaborate_case(term, path)
        raise TypeError(f"unknown term node: {term!r}")

    # ------------------------------------------------------------------

    def _elaborate_app(self, head: Term, args: tuple[Term, ...], path: Path) -> FTerm:
        current = self._elaborate_head(head, path + (0,))
        trace = self.evidence.inst_traces.get(path, [])
        next_argument = 0
        for event in trace:
            if isinstance(event, TypeArgs):
                current = ftyapp(current, event.types)
            elif isinstance(event, TakeArg):
                if next_argument >= len(args):
                    raise ElaborationError(
                        f"instantiation trace at {path} consumes more arguments "
                        f"than the application has"
                    )
                current = FApp(
                    current,
                    self._elaborate_arg(args[next_argument], path + (next_argument + 1,)),
                )
                next_argument += 1
            else:
                raise TypeError(f"unknown instantiation event: {event!r}")
        if next_argument != len(args):
            raise ElaborationError(
                f"instantiation trace at {path} consumed {next_argument} of "
                f"{len(args)} arguments"
            )
        return current

    def _elaborate_head(self, head: Term, path: Path) -> FTerm:
        if isinstance(head, Var):
            return FVar(head.name)
        return self.elaborate(head, path)

    def _elaborate_arg(self, argument: Term, path: Path) -> FTerm:
        info = self.evidence.gen_infos.get(path)
        if info is None:
            # The argument produced no generalisation evidence (can happen
            # for arguments whose Gen constraint was fully degenerate).
            return self.elaborate(argument, path)
        if info.star:
            if not isinstance(argument, Var):
                raise ElaborationError("VarGen evidence on a non-variable argument")
            inner: FTerm = ftyapp(FVar(argument.name), info.star_type_args)
        else:
            inner = self.elaborate(argument, path)
            inner = ftyapp(inner, info.release_type_args)
        return ftylam(info.skolems, inner)

    def _elaborate_ann(self, term: Ann, path: Path) -> FTerm:
        if isinstance(term.expr, App):
            head, args = term.expr.head, term.expr.args
        else:
            head, args = term.expr, ()
        info = self.evidence.gen_infos.get(("ann",) + path)
        skolems = info.skolems if info is not None else []
        current = self._elaborate_head(head, path + (0,))
        trace = self.evidence.inst_traces.get(path, [])
        next_argument = 0
        for event in trace:
            if isinstance(event, TypeArgs):
                current = ftyapp(current, event.types)
            elif isinstance(event, TakeArg):
                current = FApp(
                    current,
                    self._elaborate_arg(args[next_argument], path + (next_argument + 1,)),
                )
                next_argument += 1
        if next_argument != len(args):
            raise ElaborationError(
                f"annotated application at {path} consumed {next_argument} of "
                f"{len(args)} arguments"
            )
        return ftylam(skolems, current)

    def _elaborate_case(self, term: Case, path: Path) -> FTerm:
        info = self.evidence.case_infos.get(path)
        if info is None:
            raise ElaborationError(f"no case evidence at {path}")
        scrutinee = self.elaborate(term.scrutinee, path + (0,))
        alts = []
        for index, alt in enumerate(term.alts):
            rhs = self.elaborate(alt.rhs, path + (index + 1,))
            skolems = tuple(info.alt_skolems[index]) if index < len(info.alt_skolems) else ()
            alts.append(FAlt(alt.constructor, skolems, alt.binders, rhs))
        return FCase(scrutinee, tuple(alts))


def elaborate_result(result: InferenceResult) -> FTerm:
    """Elaborate an inference result into System F.

    Generalisation replaced every residual unification variable by a
    quantified type variable; those become the top-level ``Λ`` binders.
    """
    body = Elaborator(result.evidence).elaborate(result.term)
    return ftylam(result.generalized_binders, body)
