"""Elaboration of inferred GI programs into System F (Figure 16).

Constraint generation tagged every instantiation / generalisation /
annotation site with the key of its term node; the solver recorded which
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
from repro.core.evidence import ROOT, EvidenceStore, GenEvidence, Key, TakeArg, TypeArgs
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
    drive,
)
from repro.systemf.ast import (
    FAlt,
    FApp,
    FCase,
    FLam,
    FLet,
    FLit,
    FTerm,
    FVar,
    ftyapp,
    ftylam,
)


class Elaborator:
    """Replays a type-inferred term into System F.

    The replay is a walk on :func:`~repro.core.terms.drive` that reads
    the evidence under the same node keys constraint generation handed
    out.
    """

    def __init__(self, evidence: EvidenceStore) -> None:
        self.evidence = evidence

    def elaborate(self, term: Term, key: Key = ROOT) -> FTerm:
        return drive(self._elaborate(term, key))

    # ------------------------------------------------------------------

    def _elaborate(self, term: Term, key: Key):
        kind = term.__class__
        if kind is Lit:
            return FLit(term.value)
        if kind is Var:
            return self._spine(term, (), key)
        if kind is App:
            return self._spine(term.head, term.args, key)
        if kind is Ann:
            return self._elaborate_ann(term, key)
        return self._elaborate_node(term, key)

    def _elaborate_node(self, term: Term, key: Key):
        child = self.evidence.child
        if isinstance(term, (Lam, AnnLam)):
            if term.__class__ is AnnLam:
                binder_type = term.annotation
            else:
                binder_type = self.evidence.lam_binders.get(key)
                if binder_type is None:
                    raise ElaborationError(f"no binder type recorded for λ at node {key}")
            body = yield self._elaborate(term.body, child(key, 0))
            return FLam(term.var, binder_type, body)
        if isinstance(term, Let):
            bound_type = self.evidence.let_types.get(key)
            if bound_type is None:
                raise ElaborationError(f"no bound type recorded for let at node {key}")
            bound = yield self._elaborate(term.bound, child(key, 0))
            body = yield self._elaborate(term.body, child(key, 1))
            return FLet(term.var, bound_type, bound, body)
        if isinstance(term, Case):
            info = self.evidence.case_infos.get(key)
            if info is None:
                raise ElaborationError(f"no case evidence at node {key}")
            scrutinee = yield self._elaborate(term.scrutinee, child(key, 0))
            alts = []
            for index, alt in enumerate(term.alts):
                rhs = yield self._elaborate(alt.rhs, child(key, index + 1))
                skolems = tuple(info.alt_skolems[index]) if index < len(info.alt_skolems) else ()
                alts.append(FAlt(alt.constructor, skolems, alt.binders, rhs))
            return FCase(scrutinee, tuple(alts))
        raise TypeError(f"unknown term node: {term!r}")

    # ------------------------------------------------------------------

    def _spine(self, head: Term, args: tuple[Term, ...], key: Key):
        """Rules App and AnnApp: replay the instantiation trace at ``key``
        as ``ψ1 e1 ψ2 e2 ... ψr`` over the head."""
        if head.__class__ is Var:
            current: FTerm = FVar(head.name)
        else:
            current = yield self._elaborate(head, self.evidence.child(key, 0))
        taken = 0
        for event in self.evidence.inst_traces.get(key, ()):
            if isinstance(event, TypeArgs):
                current = ftyapp(current, event.types)
            elif not isinstance(event, TakeArg):
                raise TypeError(f"unknown instantiation event: {event!r}")
            elif taken < len(args):
                argument = yield self._elaborate_arg(
                    args[taken], self.evidence.child(key, taken + 1)
                )
                current = FApp(current, argument)
                taken += 1
            else:
                raise ElaborationError(
                    f"instantiation trace at node {key} consumes more arguments "
                    f"than the application has"
                )
        if taken != len(args):
            raise ElaborationError(
                f"instantiation trace at node {key} consumed {taken} of "
                f"{len(args)} arguments"
            )
        return current

    def _elaborate_arg(self, argument: Term, key: Key):
        info = self.evidence.gen_infos.get(key)
        if info is None:
            # The argument produced no generalisation evidence (can happen
            # for arguments whose Gen constraint was fully degenerate).
            return self._elaborate(argument, key)
        if not info.star:
            return self._generalised(argument, key, info)
        if not isinstance(argument, Var):
            raise ElaborationError("VarGen evidence on a non-variable argument")
        return ftylam(info.skolems, ftyapp(FVar(argument.name), info.star_type_args))

    def _generalised(self, argument: Term, key: Key, info: GenEvidence):
        """Rule ArgGen: ``Λb̄. eF τ̄``."""
        inner = yield self._elaborate(argument, key)
        return ftylam(info.skolems, ftyapp(inner, info.release_type_args))

    def _elaborate_ann(self, term: Ann, key: Key):
        if isinstance(term.expr, App):
            head, args = term.expr.head, term.expr.args
        else:
            head, args = term.expr, ()
        current = yield from self._spine(head, args, key)
        return ftylam(self.evidence.ann_skolems.get(key, ()), current)


def elaborate_result(result: InferenceResult) -> FTerm:
    """Elaborate an inference result into System F.

    Generalisation replaced every residual unification variable by a
    quantified type variable; those become the top-level ``Λ`` binders.
    """
    body = Elaborator(result.evidence).elaborate(result.term)
    return ftylam(result.generalized_binders, body)
