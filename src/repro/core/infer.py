"""Top-level type inference: generate constraints, solve, generalise.

This is the public entry point of the library::

    from repro.core import infer
    result = infer(term, env)
    print(result.type_)          # the principal type

Inference follows Section 4 of the paper: constraint generation
(:mod:`repro.core.generate`) followed by constraint solving
(:mod:`repro.core.solver`).  After solving, residual unification
variables in the inferred type are generalised into quantifiers — the
principal-type property (Theorem 4.3) guarantees any other valid type for
the term is a fully monomorphic substitution instance of the result.
"""

from __future__ import annotations

import traceback as _traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.constraints import ClassC, Constraint
from repro.core.env import Environment
from repro.core.errors import (
    AnnotationNeededError,
    GIError,
    InternalError,
    MissingInstanceError,
)
from repro.core.evidence import EvidenceStore
from repro.core.generate import GenOptions, Generator
from repro.core.names import NameSupply, letters
from repro.core.policy import DEFAULT_POLICY, InstantiationPolicy
from repro.core.solver import InstanceEnv, Solver
from repro.core.terms import Ann, Term
from repro.core.types import (
    Pred,
    TVar,
    Type,
    UVar,
    forall,
    ftv,
    fuv,
    rename_canonical,
)

if TYPE_CHECKING:  # pragma: no cover — keeps the core→robustness edge lazy
    from repro.observability.tracer import TracerLike
    from repro.robustness.budget import Budget
    from repro.robustness.faultinject import FaultPlan


@dataclass
class InferOptions:
    """Configuration for one inference run.

    ``use_vargen`` / ``nary_apps`` feed the ablation benchmarks;
    ``generalize`` controls whether residual variables are quantified;
    ``defaulting=False`` makes the solver fail deterministically with
    :class:`StuckConstraintError` on underdetermined programs instead of
    defaulting the blocked variables (Section 4.3.2); ``policy`` selects
    the instantiation discipline (:mod:`repro.core.policy`) — the default
    ``eager-shallow`` is the paper's system, every other value is an
    experimental eager/lazy × deep/shallow variant.
    """

    use_vargen: bool = True
    nary_apps: bool = True
    generalize: bool = True
    defaulting: bool = True
    policy: InstantiationPolicy = DEFAULT_POLICY


@dataclass
class InferenceResult:
    """Everything produced by one inference run."""

    type_: Type
    """The principal type (generalised, canonically renamed)."""

    raw_type: Type
    """The zonked solver type before generalisation (may contain residual
    unification variables if ``generalize=False``)."""

    term: Term
    constraints: list[Constraint]
    """The constraints as generated (before solving), for inspection."""

    evidence: EvidenceStore
    solver: "Solver"
    context: tuple[Pred, ...] = ()
    """Residual class constraints quantified into the type's context."""

    generalized_binders: tuple[str, ...] = ()
    """Names given to residual unification variables by generalisation (in
    quantification order) — the ``Λ`` binders of the elaborated term."""

    def __str__(self) -> str:
        return str(self.type_)


class Inferencer:
    """A reusable inference engine bound to an environment.

    ``budget`` bounds every run (solver fuel, unification depth, wall
    clock; re-armed per call), ``faults`` is the deterministic
    fault-injection hook used by the robustness test harness.  Whatever
    happens inside a run, :meth:`infer` raises :class:`GIError` or
    nothing: internal failures are converted to :class:`InternalError`
    at this boundary.
    """

    def __init__(
        self,
        env: Environment | None = None,
        instances: InstanceEnv | None = None,
        options: InferOptions | None = None,
        budget: "Budget | None" = None,
        faults: "FaultPlan | None" = None,
        tracer: "TracerLike | None" = None,
        intern=None,
    ) -> None:
        self.env = env or Environment()
        self.instances = instances or InstanceEnv()
        self.options = options or InferOptions()
        self.budget = budget
        self.faults = faults
        self.tracer = tracer
        self.intern = intern
        """Optional shared :class:`~repro.core.types.InternTable` — the
        serve daemon passes one table to every session so hash-consed
        nodes for common types are allocated once per process."""

    def _span(self, name: str, **attrs):
        if self.tracer is not None and self.tracer.enabled:
            return self.tracer.span(name, **attrs)
        return nullcontext()

    def infer(self, term: Term) -> InferenceResult:
        """Infer the principal type of a term; raises :class:`GIError`.

        This is the crash-containment boundary: any non-:class:`GIError`
        exception escaping the engine (deep recursion, an invariant
        violation, an injected fault) is converted to
        :class:`InternalError` carrying the phase it died in and a
        redacted solver-state snapshot — no raw traceback escapes.
        """
        if self.budget is not None:
            if self.tracer is not None:
                self.budget.tracer = self.tracer
            self.budget.start()
        if self.faults is not None:
            if self.tracer is not None:
                self.faults.tracer = self.tracer
            self.faults.start()
        tracing = self.tracer is not None and self.tracer.enabled
        phase = "generate"
        solver: Solver | None = None
        try:
            with self._span("infer"):
                supply = NameSupply("u")
                evidence = EvidenceStore()
                generator = Generator(
                    supply,
                    evidence,
                    GenOptions(
                        use_vargen=self.options.use_vargen,
                        nary_apps=self.options.nary_apps,
                        policy=self.options.policy,
                    ),
                    tracer=self.tracer,
                )
                with self._span("generate"):
                    result_type, constraints = generator.gen(self.env, term)
                if tracing:
                    self.tracer.inc("infer.runs")
                    self.tracer.observe("gen.constraints", len(constraints))
                phase = "solve"
                solver = Solver(
                    supply,
                    evidence,
                    self.instances,
                    budget=self.budget,
                    faults=self.faults,
                    defaulting=self.options.defaulting,
                    tracer=self.tracer,
                    intern=self.intern,
                    policy=self.options.policy,
                )
                with self._span("solve", constraints=len(constraints)):
                    residual = solver.solve(list(constraints))
                phase = "generalize"
                with self._span("generalize"):
                    zonked = solver.unifier.zonk(result_type)

                    residual_preds: list[ClassC] = []
                    for predicate, scope in residual:
                        if scope.level != 0:
                            raise MissingInstanceError(predicate)
                        residual_preds.append(
                            ClassC(
                                predicate.class_name,
                                tuple(solver.unifier.zonk(a) for a in predicate.args),
                            )
                        )

                    if not self.options.generalize:
                        evidence.zonk(solver.unifier.zonk)
                        result = InferenceResult(
                            zonked, zonked, term, list(constraints), evidence, solver
                        )
                    else:
                        principal, context, binders = self._generalize(
                            zonked, residual_preds, solver
                        )
                        self._ground_evidence(evidence, solver)
                        evidence.zonk(solver.unifier.zonk)
                        result = InferenceResult(
                            rename_canonical(principal),
                            zonked,
                            term,
                            list(constraints),
                            evidence,
                            solver,
                            context,
                            binders,
                        )
                if tracing:
                    self.tracer.event(
                        "infer.result",
                        type=str(result.type_),
                        steps=solver.steps,
                        bindings=solver.unifier.bindings,
                    )
                return result
        except GIError as error:
            if tracing:
                self.tracer.inc("infer.errors")
                self.tracer.event(
                    "infer.error",
                    error_class=type(error).__name__,
                    message=str(error),
                    phase=phase,
                )
            raise
        except Exception as error:  # noqa: BLE001 — the containment boundary
            snapshot = _solver_snapshot(solver)
            # The formatted remote traceback rides along in the snapshot
            # (never in the one-line message) so ``--json`` consumers can
            # see where a contained crash actually came from.
            snapshot["traceback"] = _traceback.format_exc()
            internal = InternalError(error, phase, snapshot)
            if tracing:
                self.tracer.inc("infer.errors")
                self.tracer.event(
                    "infer.error",
                    error_class="InternalError",
                    message=str(internal),
                    phase=phase,
                )
            raise internal from error

    def check(self, term: Term, type_: Type) -> InferenceResult:
        """Check a term against a signature (``f :: σ; f = e`` becomes the
        problem ``(e :: σ)``, Section 3.4)."""
        return self.infer(Ann(term, type_))

    def accepts(self, term: Term) -> bool:
        """Whether the term is typeable (no exception)."""
        try:
            self.infer(term)
            return True
        except GIError:
            return False

    # ------------------------------------------------------------------

    def _ground_evidence(self, evidence: EvidenceStore, solver: Solver) -> None:
        """Bind unification variables that survive solving only inside the
        elaboration evidence (e.g. the type of an unused let binding) to
        fresh rigid variables, so elaborated terms contain no unification
        variables."""
        avoid: set[str] | None = None
        supply = letters()
        for type_ in _evidence_types(evidence):
            for variable in solver.unifier.fuv_of(solver.unifier.zonk(type_)):
                if avoid is None:
                    avoid = set(self.env.free_type_vars())
                for candidate in supply:
                    name = f"{candidate}0"
                    if name not in avoid:
                        avoid.add(name)
                        solver.unifier.assign(variable, TVar(name))
                        break

    def _generalize(
        self, zonked: Type, residual_preds: list[ClassC], solver: Solver
    ) -> tuple[Type, tuple[Pred, ...], tuple[str, ...]]:
        """Quantify the residual unification variables of the type.

        Variables are bound through the solver substitution so recorded
        evidence zonks to the same quantified names.
        """
        avoid = ftv(zonked) | self.env.free_type_vars()
        supply = letters()

        def next_name() -> str:
            for candidate in supply:
                if candidate not in avoid:
                    avoid.add(candidate)
                    return candidate
            raise RuntimeError("unreachable")

        free = fuv(zonked)
        for predicate in residual_preds:
            for argument in predicate.args:
                for variable in fuv(argument):
                    if variable not in free:
                        # A constraint on a variable the type never
                        # mentions can never be discharged by any caller
                        # (Haskell's ambiguity check).
                        raise AnnotationNeededError(
                            f"the constraint `{predicate}` is ambiguous — it "
                            f"mentions a type variable that does not occur in "
                            f"the inferred type `{zonked}`; bind the "
                            f"expression with a type annotation"
                        )
        names: list[str] = []
        for variable in free:
            name = next_name()
            names.append(name)
            solver.unifier.assign(variable, TVar(name))
        body = solver.unifier.zonk(zonked)
        context = tuple(
            Pred(
                predicate.class_name,
                tuple(solver.unifier.zonk(argument) for argument in predicate.args),
            )
            for predicate in residual_preds
        )
        return forall(names, body, context), context, tuple(names)


def _solver_snapshot(solver: "Solver | None") -> dict:
    """A redacted view of solver state for :class:`InternalError` reports.

    Counts and depths only — no constraint contents, no types — so the
    snapshot is safe to log for untrusted input.
    """
    if solver is None:
        return {}
    return {
        "pending_constraints": len(solver.queue),
        "deferred_constraints": len(solver.deferred),
        "current_level": solver.current_level,
        "substitution_size": len(solver.unifier._parent) + len(solver.unifier._binding),
        "solver_steps": solver.steps,
    }


def _evidence_types(evidence: EvidenceStore):
    """Every type stored anywhere in the evidence."""
    from repro.core.evidence import TypeArgs

    for trace in evidence.inst_traces.values():
        for event in trace:
            if isinstance(event, TypeArgs):
                yield from event.types
    for info in evidence.gen_infos.values():
        yield from info.star_type_args
        yield from info.release_type_args
    yield from evidence.lam_binders.values()
    yield from evidence.let_types.values()
    for info in evidence.case_infos.values():
        yield from info.tycon_args
        for fields in info.field_types:
            yield from fields


def infer(
    term: Term,
    env: Environment | None = None,
    instances: InstanceEnv | None = None,
    options: InferOptions | None = None,
) -> InferenceResult:
    """Convenience wrapper: infer the principal type of ``term``."""
    return Inferencer(env, instances, options).infer(term)
