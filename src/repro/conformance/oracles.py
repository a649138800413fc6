"""The conformance oracle battery.

Each oracle checks one slice of the paper's metatheory on one term and
returns a :class:`Violation` (or ``None``).  All oracles are
*implications* conditioned on what GI itself says about the term, so
they hold for arbitrary input — ill-typed terms simply exercise fewer of
them:

==============  =====================================================
``crash``        GI only ever raises the :class:`GIError` taxonomy; a
                 contained :class:`InternalError` (or anything escaping
                 containment) is a bug (Section 4 / the robustness
                 layer's no-crash guarantee).
``roundtrip``    ``parse(pretty(t)) == t`` — the printer and parser are
                 inverses on every generated shape.
``declarative``  GI accepts ⇒ the declarative replay verifier accepts
                 every instantiation the solver chose (Theorem 4.2,
                 soundness direction, via :func:`verify_inference`).
``systemf``      GI accepts ⇒ the elaborated System F term type-checks
                 at an α-equivalent of the inferred type (Theorem C.1)
                 and its erasure evaluates to the same value as the
                 source term (elaboration preserves behaviour).
``hm``           the HM baseline accepts ⇒ GI accepts with an
                 α-equivalent principal type (Theorem 3.1).
``metamorphic``  the applicable type-preserving transforms of
                 :mod:`repro.conformance.metamorphic` preserve
                 typeability and the inferred type.
``differential`` cross-backend agreement over the whole system matrix,
                 phrased as the pairwise implications in
                 :data:`PAIRWISE_IMPLICATIONS` (HM accepts ⇒ every
                 generalising backend accepts at the same type; RankN
                 accepts ⇒ Quick Look accepts at the same type; GI
                 accepts ⇒ Quick Look accepts), plus crash containment
                 for every backend.  Unavailable outcomes (budget,
                 recursion depth) are vacuous, never disagreements.
==============  =====================================================

One inference run is shared by all oracles through
:class:`OracleContext` (results are cached per term), so the battery
costs roughly one ``infer`` plus the cheap replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.hm import HMInferencer
from repro.baselines.registry import SYSTEMS, Outcome, SystemOutcome
from repro.core.declarative import verify_inference
from repro.core.env import Environment
from repro.core.errors import BudgetExceededError, GIError, InternalError
from repro.core.infer import InferenceResult, Inferencer, InferOptions
from repro.core.policy import DEFAULT_POLICY, InstantiationPolicy, has_nested_forall
from repro.core.terms import Ann, AnnLam, Term, walk_terms
from repro.core.types import alpha_equal, rename_canonical
from repro.interp import evaluate, prelude_env
from repro.syntax.parser import parse_term
from repro.systemf import elaborate_result, erase, typecheck


@dataclass(frozen=True)
class Violation:
    """One oracle failure for one term."""

    oracle: str
    message: str
    error_class: str | None = None

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


class OracleContext:
    """Shared state for one oracle battery run: the environment, one
    (budgeted, optionally fault-armed) inferencer, and a per-term cache
    of inference outcomes so each term is inferred exactly once."""

    def __init__(
        self,
        env: Environment,
        budget=None,
        faults=None,
        options: InferOptions | None = None,
        systems: tuple[str, ...] | None = None,
    ) -> None:
        self.env = env
        self.budget = budget
        self.faults = faults
        self.options = options
        self.systems = tuple(systems) if systems is not None else tuple(SYSTEMS)
        self.policy: InstantiationPolicy = (
            options.policy if options is not None else DEFAULT_POLICY
        )
        # Backends receive an explicit policy only when a non-reference
        # one was requested; under the default each system runs in its
        # own published configuration (eager-deep for the bidirectional
        # baselines), which is what the differential claims are about.
        self._backend_policy = None if self.policy == DEFAULT_POLICY else self.policy
        self._outcomes: dict[Term, tuple[InferenceResult | None, GIError | None]] = {}
        self._system_outcomes: dict[tuple[str, Term], SystemOutcome] = {}

    def outcome(self, term: Term) -> tuple[InferenceResult | None, GIError | None]:
        """``(result, None)`` on acceptance, ``(None, error)`` on any
        :class:`GIError` rejection (contained internal errors included)."""
        cached = self._outcomes.get(term)
        if cached is not None:
            return cached
        inferencer = Inferencer(
            self.env, options=self.options, budget=self.budget, faults=self.faults
        )
        try:
            outcome = (inferencer.infer(term), None)
        except GIError as error:
            outcome = (None, error)
        self._outcomes[term] = outcome
        return outcome

    def system_outcome(self, name: str, term: Term) -> SystemOutcome:
        """The three-valued outcome of one registered system on one term
        (cached).  ``GI`` reuses :meth:`outcome`, so the fault-armed,
        option-carrying inference run is shared with the other oracles
        rather than repeated through the registry."""
        cached = self._system_outcomes.get((name, term))
        if cached is not None:
            return cached
        if name == "GI":
            result, error = self.outcome(term)
            if result is not None:
                outcome = SystemOutcome(Outcome.ACCEPT, type_=result.type_)
            elif isinstance(error, InternalError):
                outcome = SystemOutcome(
                    Outcome.UNAVAILABLE,
                    error=type(error).__name__,
                    detail=str(error),
                    crashed=True,
                )
            elif isinstance(error, BudgetExceededError):
                outcome = SystemOutcome(
                    Outcome.UNAVAILABLE,
                    error=type(error).__name__,
                    detail=str(error),
                )
            else:
                outcome = SystemOutcome(
                    Outcome.REJECT,
                    error=type(error).__name__,
                    detail=str(error),
                )
        else:
            outcome = SYSTEMS[name].run(
                term, self.env, budget=self.budget, policy=self._backend_policy
            )
        self._system_outcomes[(name, term)] = outcome
        return outcome


# ---------------------------------------------------------------------
# The oracles.
# ---------------------------------------------------------------------


def oracle_crash(ctx: OracleContext, term: Term) -> Violation | None:
    try:
        result, error = ctx.outcome(term)
    except BaseException as escaped:  # noqa: BLE001 — escaping = the bug
        return Violation(
            "crash",
            f"non-GIError escaped the containment boundary: {escaped}",
            type(escaped).__name__,
        )
    if isinstance(error, InternalError):
        return Violation(
            "crash",
            f"contained internal failure ({error.original_class} during "
            f"{error.phase}): {error}",
            error.original_class,
        )
    return None


def oracle_roundtrip(ctx: OracleContext, term: Term) -> Violation | None:
    source = str(term)
    try:
        reparsed = parse_term(source)
    except GIError as error:
        return Violation(
            "roundtrip",
            f"pretty-printed term does not parse back: {error}",
            type(error).__name__,
        )
    if reparsed != term:
        return Violation(
            "roundtrip",
            f"parse(pretty(t)) differs from t: `{source}` reparses as "
            f"`{reparsed}`",
        )
    return None


def oracle_declarative(ctx: OracleContext, term: Term) -> Violation | None:
    if ctx.policy != DEFAULT_POLICY:
        # Theorem 4.2 is stated for the paper's eager-shallow discipline;
        # the replay verifier implements those instantiation rules, so
        # under an experimental policy it would report honest policy
        # differences as soundness failures.
        return None
    result, _error = ctx.outcome(term)
    if result is None:
        return None
    try:
        report = verify_inference(result)
    except Exception as error:  # noqa: BLE001 — a crashing verifier is a finding
        return Violation(
            "declarative",
            f"declarative replay crashed: {error}",
            type(error).__name__,
        )
    if not report.ok:
        failure = report.failures[0]
        return Violation(
            "declarative",
            f"solver instantiation not derivable declaratively "
            f"({len(report.failures)}/{report.checked} failed): {failure.reason}",
        )
    return None


def oracle_systemf(ctx: OracleContext, term: Term) -> Violation | None:
    if ctx.policy.deep:
        # The elaborator consumes the instantiation traces of the
        # shallow rules; deep prenexing inserts hoists the evidence does
        # not record, so Theorem C.1 is out of scope for deep policies.
        return None
    result, _error = ctx.outcome(term)
    if result is None:
        return None
    try:
        fterm = elaborate_result(result)
        ftype = typecheck(fterm, ctx.env)
    except GIError as error:
        return Violation(
            "systemf",
            f"elaboration/F-checking of an accepted term failed: {error}",
            type(error).__name__,
        )
    except Exception as error:  # noqa: BLE001 — elaborator crash is a finding
        return Violation(
            "systemf",
            f"elaborator crashed on an accepted term: {error}",
            type(error).__name__,
        )
    if not alpha_equal(rename_canonical(ftype), result.type_):
        return Violation(
            "systemf",
            f"System F type `{rename_canonical(ftype)}` differs from the "
            f"inferred `{result.type_}`",
        )
    source_outcome = _evaluate_contained(term)
    erased_outcome = _evaluate_contained(erase(fterm))
    if not _outcomes_agree(source_outcome, erased_outcome):
        return Violation(
            "systemf",
            f"erasure changes behaviour: source evaluates to "
            f"{_render_outcome(source_outcome)}, erased elaboration to "
            f"{_render_outcome(erased_outcome)}",
        )
    return None


def oracle_hm(ctx: OracleContext, term: Term) -> Violation | None:
    if any(isinstance(node, (Ann, AnnLam)) for node in walk_terms(term)):
        # Theorem 3.1 quantifies over the unannotated λ→ fragment; on
        # annotated terms HM instantiates the annotation where GI keeps
        # (and scopes) its σ, so the types legitimately diverge.
        return None
    try:
        hm_type = HMInferencer(ctx.env).infer(term)
    except GIError:
        return None  # outside the λ→/HM fragment, or HM-untypeable
    except RecursionError:
        return None  # the baseline has no budget; deep terms are its limit
    result, error = ctx.outcome(term)
    if result is None:
        if isinstance(error, (BudgetExceededError, InternalError)):
            # GI established nothing about the term (the crash oracle
            # already reports internal errors); a budget blowup is not
            # a rejection and must not read as a disagreement.
            return None
        return Violation(
            "hm",
            f"HM accepts with `{hm_type}` but GI rejects: {error} "
            f"(Theorem 3.1 violated)",
            type(error).__name__ if error is not None else None,
        )
    if not alpha_equal(rename_canonical(hm_type), result.type_):
        return Violation(
            "hm",
            f"HM infers `{rename_canonical(hm_type)}` but GI infers "
            f"`{result.type_}` (Theorem 3.1 violated)",
        )
    return None


def oracle_metamorphic(ctx: OracleContext, term: Term) -> Violation | None:
    from repro.conformance.metamorphic import TRANSFORMS

    result, _error = ctx.outcome(term)
    if result is None:
        return None
    # Under deep policies a nested-forall signature is rewritten by deep
    # instantiation at the check site, so re-annotation is genuinely not
    # type-preserving there (the deep-subsumption instability); the
    # stability oracle owns that story — skip the legacy transform.
    skip_annotate = ctx.policy.deep and has_nested_forall(result.type_)
    for name, transform in TRANSFORMS:
        if name == "annotate" and skip_annotate:
            continue
        transformed = transform(term, result)
        if transformed is None:
            continue
        new_result, new_error = ctx.outcome(transformed)
        if new_result is None:
            return Violation(
                f"metamorphic:{name}",
                f"transform `{name}` loses typeability: `{transformed}` "
                f"rejected with: {new_error}",
                type(new_error).__name__ if new_error is not None else None,
            )
        if not alpha_equal(new_result.type_, result.type_):
            return Violation(
                f"metamorphic:{name}",
                f"transform `{name}` changes the type: `{result.type_}` "
                f"becomes `{new_result.type_}` on `{transformed}`",
            )
    return None


def oracle_stability(ctx: OracleContext, term: Term) -> Violation | None:
    """The stability-paper claims, as metamorphic checks conditioned on
    the active instantiation policy: let-inlining/extraction of a
    variable is type-preserving under lazy policies, redundant-signature
    insertion under every policy, and eta-expansion under the guard each
    depth admits (see :mod:`repro.conformance.metamorphic`)."""
    from repro.conformance.metamorphic import stability_transforms

    result, _error = ctx.outcome(term)
    if result is None:
        return None
    for name, transform in stability_transforms(ctx.policy, ctx.env):
        transformed = transform(term, result)
        if transformed is None:
            continue
        new_result, new_error = ctx.outcome(transformed)
        if new_result is None:
            if isinstance(new_error, (BudgetExceededError, InternalError)):
                # Nothing established (crash is the crash oracle's job).
                continue
            return Violation(
                f"stability:{name}",
                f"under policy `{ctx.policy}` transform `{name}` loses "
                f"typeability: `{transformed}` rejected with: {new_error}",
                type(new_error).__name__ if new_error is not None else None,
            )
        if not alpha_equal(new_result.type_, result.type_):
            return Violation(
                f"stability:{name}",
                f"under policy `{ctx.policy}` transform `{name}` changes "
                f"the type: `{result.type_}` becomes `{new_result.type_}` "
                f"on `{transformed}`",
            )
    return None


#: Cross-backend implications the differential oracle enforces:
#: ``(premise, conclusion, level)`` — when the premise system accepts a
#: term, the conclusion system must accept it too; at ``"type"`` level
#: the inferred σ-types must additionally be α-equivalent.
#:
#: * HM ⇒ everything that generalises ``let``: a rank-1 HM-typeable term
#:   sits in the common conservative fragment of HMF (both argument
#:   orders), predicative RankN, FreezeML, and Quick Look, and each of
#:   them infers the HM principal type.  HM ⇒ GI is deliberately *not*
#:   here: GI's ``let`` does not generalise (§3.5), so let-polymorphic
#:   HM terms are honest counterexamples — the legacy ``hm`` oracle
#:   keeps the annotated Theorem 3.1 role for that pair.
#: * RankN ⇒ QuickLook: Quick Look is RankN plus extra quick-look
#:   commits, so every RankN derivation survives verbatim.  Acceptance
#:   holds on all terms; the α-equivalence half quantifies over the
#:   annotation-free language only — an annotation is exactly where a
#:   σ-argument reaches a spine, and Quick Look commits it
#:   impredicatively (``single (id :: ∀a. a → a)`` is ``[∀a. a → a]``)
#:   where RankN instantiates (``∀a. [a → a]``).
#: * GI ⇒ QuickLook: on the *guarded* (annotation-free) fragment, every
#:   guarded instantiation GI performs is a quick-look-committable one
#:   (acceptance only — the systems pick different but equally valid
#:   σ-types on some terms).
#:
#: HMF ⇄ HMF-N appears in neither direction: the measured Figure-2
#: deviation sets show the argument orders are incomparable.
PAIRWISE_IMPLICATIONS: tuple[tuple[str, str, str], ...] = (
    ("HM", "HMF", "type"),
    ("HM", "HMF-N", "type"),
    ("HM", "RankN", "type"),
    ("HM", "FreezeML", "type"),
    ("HM", "QuickLook", "type"),
    ("RankN", "QuickLook", "type"),
    ("GI", "QuickLook", "accepts"),
)


def oracle_differential(ctx: OracleContext, term: Term) -> Violation | None:
    """Cross-backend crash containment plus the pairwise implications,
    restricted to ``ctx.systems``.  Unavailable outcomes are vacuous."""
    for name in ctx.systems:
        outcome = ctx.system_outcome(name, term)
        if outcome.crashed:
            return Violation(
                f"differential:{name}",
                f"backend `{name}` crashed instead of deciding the term: "
                f"{outcome.detail}",
                outcome.error,
            )
    if ctx.policy != DEFAULT_POLICY:
        # The pairwise implications relate the *published* systems; under
        # an experimental policy every backend with a policy axis runs a
        # variant configuration, so only crash containment is asserted.
        return None
    annotated = any(isinstance(node, (Ann, AnnLam)) for node in walk_terms(term))
    for premise, conclusion, level in PAIRWISE_IMPLICATIONS:
        if premise not in ctx.systems or conclusion not in ctx.systems:
            continue
        if premise in ("HM", "GI") and annotated:
            # The theorems behind the HM and GI implications quantify
            # over the *unannotated* language: each backend gives `::`
            # its own checking semantics (HMF skolemises where HM
            # instantiates; GI scopes annotation variables and keeps
            # the annotated σ where RankN-style systems instantiate),
            # so annotated terms are outside the implications' scope.
            continue
        premise_outcome = ctx.system_outcome(premise, term)
        if not premise_outcome.accepted:
            continue
        conclusion_outcome = ctx.system_outcome(conclusion, term)
        if not conclusion_outcome.available:
            continue
        if conclusion_outcome.rejected:
            return Violation(
                f"differential:{premise}=>{conclusion}",
                f"`{premise}` accepts with `{premise_outcome.type_}` but "
                f"`{conclusion}` rejects: {conclusion_outcome.detail}",
                conclusion_outcome.error,
            )
        if level == "type" and annotated:
            # Acceptance is settled above; the type-equality half only
            # quantifies over the annotation-free language (Quick Look
            # commits annotated σ-arguments impredicatively where the
            # predicative systems instantiate them).
            continue
        if level == "type" and not alpha_equal(
            rename_canonical(premise_outcome.type_),
            rename_canonical(conclusion_outcome.type_),
        ):
            return Violation(
                f"differential:{premise}=>{conclusion}",
                f"`{premise}` infers `{rename_canonical(premise_outcome.type_)}` "
                f"but `{conclusion}` infers "
                f"`{rename_canonical(conclusion_outcome.type_)}`",
            )
    return None


#: Registry, in battery order — cheap structural checks first, then the
#: implication oracles that need an inference result.
ORACLES: dict[str, object] = {
    "crash": oracle_crash,
    "roundtrip": oracle_roundtrip,
    "declarative": oracle_declarative,
    "systemf": oracle_systemf,
    "hm": oracle_hm,
    "metamorphic": oracle_metamorphic,
    "stability": oracle_stability,
    "differential": oracle_differential,
}

DEFAULT_ORACLES: tuple[str, ...] = tuple(ORACLES)


def run_battery(
    ctx: OracleContext, term: Term, oracles: tuple[str, ...] = DEFAULT_ORACLES
) -> Violation | None:
    """Run the selected oracles in order; the first violation wins."""
    for name in oracles:
        oracle = ORACLES.get(name)
        if oracle is None:
            raise ValueError(
                f"unknown oracle {name!r} (available: {', '.join(ORACLES)})"
            )
        violation = oracle(ctx, term)
        if violation is not None:
            return violation
    return None


# ---------------------------------------------------------------------
# Evaluation comparison for the erasure half of the systemf oracle.
# ---------------------------------------------------------------------


def _evaluate_contained(term: Term):
    """``("value", v)`` or ``("error", exception_class_name)``.

    GI-accepted terms are strongly normalising (they elaborate to System
    F), but evaluation can still fail honestly — ``head nil`` — and the
    comparison only requires the *same* failure on both sides.
    """
    try:
        return ("value", evaluate(term, prelude_env()))
    except Exception as error:  # noqa: BLE001 — runtime errors are data here
        return ("error", type(error).__name__)


def _outcomes_agree(left, right) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "error":
        return left[1] == right[1]
    return _values_agree(left[1], right[1], depth=6)


def _values_agree(left, right, depth: int) -> bool:
    """Structural agreement up to unobservable function values."""
    if depth <= 0:
        return True
    if callable(left) or callable(right):
        return callable(left) and callable(right)
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            _values_agree(l, r, depth - 1) for l, r in zip(left, right)
        )
    from repro.interp import DataValue

    if isinstance(left, DataValue) and isinstance(right, DataValue):
        return left.constructor == right.constructor and all(
            _values_agree(l, r, depth - 1)
            for l, r in zip(left.fields, right.fields)
        )
    return type(left) is type(right) and left == right


def _render_outcome(outcome) -> str:
    if outcome[0] == "error":
        return f"a runtime error ({outcome[1]})"
    value = outcome[1]
    return "a function value" if callable(value) else repr(value)
