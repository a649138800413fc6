"""The conformance fuzzer: generate → oracle battery → shrink → persist.

One :func:`run_fuzz` call is one reproducible sweep: the seed fixes the
case list (``random.Random(f"{seed}:{index}")`` per case), one serial
loop checks every case under the sweep's
:class:`~repro.robustness.budget.Budget` (re-armed per case) behind
:func:`~repro.robustness.pool.run_contained`, and any violation is
greedily shrunk and written to the corpus directory as a replayable
``.gi`` file.

Observability: with a tracer attached the sweep emits one ``fuzz.case``
event per case, ``fuzz.shrink`` per accepted shrink step and
``fuzz.counterexample`` per persisted violation, plus ``fuzz.*``
counters — all through the existing JSONL schema.

Fault injection (``fault_step`` / ``fault_depth``) arms a
:class:`~repro.robustness.faultinject.FaultPlan` for every case; the
injected non-GI crash must surface as a ``crash``-oracle violation, so
arming a fault is the built-in self-test that the battery actually
catches, shrinks and persists what it is pointed at.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.conformance.corpus import write_counterexample
from repro.conformance.generator import FuzzCase, TermGenerator
from repro.conformance.oracles import (
    DEFAULT_ORACLES,
    ORACLES,
    OracleContext,
    Violation,
)
from repro.conformance.shrink import DEFAULT_MAX_CHECKS, shrink
from repro.core.env import Environment
from repro.core.infer import InferOptions
from repro.core.policy import DEFAULT_POLICY, parse_policy
from repro.core.terms import Term, term_size
from repro.robustness.budget import Budget
from repro.robustness.faultinject import FaultPlan
from repro.robustness.pool import clone_budget, run_contained

#: Default per-case budget: generous for honest cases, finite for the
#: pathological ones the arbitrary mode occasionally produces.
DEFAULT_MAX_STEPS = 50_000
DEFAULT_MAX_DEPTH = 400
DEFAULT_TIMEOUT = 5.0


@dataclass(frozen=True)
class FuzzConfig:
    """Everything one sweep depends on (all of it serialisable)."""

    seed: int = 0
    count: int = 100
    oracles: tuple[str, ...] = DEFAULT_ORACLES
    systems: tuple[str, ...] | None = None
    policy: str = DEFAULT_POLICY.name
    corpus_dir: Path | None = None
    max_steps: int | None = DEFAULT_MAX_STEPS
    max_depth: int | None = DEFAULT_MAX_DEPTH
    timeout: float | None = DEFAULT_TIMEOUT
    fault_step: int | None = None
    fault_depth: int | None = None
    max_shrink_checks: int = DEFAULT_MAX_CHECKS

    @property
    def faulty(self) -> bool:
        return self.fault_step is not None or self.fault_depth is not None

    def infer_options(self) -> InferOptions:
        """The per-case inference options (currently: the policy)."""
        return InferOptions(policy=parse_policy(self.policy))

    def fault_plan(self) -> FaultPlan | None:
        if not self.faulty:
            return None
        return FaultPlan(
            fail_at_solver_step=self.fault_step,
            fail_at_unify_depth=self.fault_depth,
        )


@dataclass(frozen=True)
class Counterexample:
    """One violation, after shrinking and (optionally) persistence."""

    case: FuzzCase
    violation: Violation
    shrunk: Term
    shrink_steps: int
    corpus_path: Path | None

    def to_dict(self) -> dict:
        return {
            "index": self.case.index,
            "mode": self.case.mode,
            "oracle": self.violation.oracle,
            "message": self.violation.message,
            "source": self.case.source,
            "shrunk": str(self.shrunk),
            "shrink_steps": self.shrink_steps,
            "original_size": self.case.size,
            "shrunk_size": term_size(self.shrunk),
            "corpus_path": str(self.corpus_path) if self.corpus_path else None,
        }


@dataclass
class FuzzReport:
    """The sweep's outcome; ``ok`` iff every oracle held on every case."""

    seed: int
    count: int
    oracles: tuple[str, ...]
    accepted: int = 0
    rejected: int = 0
    by_mode: dict[str, int] = field(default_factory=dict)
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "oracles": list(self.oracles),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "by_mode": dict(sorted(self.by_mode.items())),
            "violations": [ce.to_dict() for ce in self.counterexamples],
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def run_fuzz(
    config: FuzzConfig,
    env: Environment | None = None,
    tracer=None,
) -> FuzzReport:
    """Run one conformance sweep; see the module docstring."""
    if env is None:
        from repro.evalsuite.figure2 import figure2_env

        env = figure2_env()
    unknown = [name for name in config.oracles if name not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {', '.join(unknown)} "
            f"(available: {', '.join(ORACLES)})"
        )
    parse_policy(config.policy)  # fail fast on a bad policy name
    started = time.monotonic()
    generator = TermGenerator(env)
    cases = generator.cases(config.seed, config.count)
    budget = Budget(
        max_solver_steps=config.max_steps,
        max_unify_depth=config.max_depth,
        wall_clock=config.timeout,
    )

    def check_case(case: FuzzCase):
        ctx = OracleContext(
            env,
            budget=budget,
            faults=config.fault_plan(),
            options=config.infer_options(),
            systems=config.systems,
        )
        violation = None
        for name in config.oracles:
            violation = ORACLES[name](ctx, case.term)
            if violation is not None:
                break
        result, _error = ctx.outcome(case.term)
        return violation, result is not None

    report = FuzzReport(seed=config.seed, count=config.count, oracles=config.oracles)
    emit = tracer is not None and tracer.enabled
    for case in cases:
        violation, accepted = run_contained(check_case, case)
        report.by_mode[case.mode] = report.by_mode.get(case.mode, 0) + 1
        if accepted:
            report.accepted += 1
        else:
            report.rejected += 1
        if emit:
            tracer.inc("fuzz.cases")
            tracer.event(
                "fuzz.case",
                index=case.index,
                mode=case.mode,
                size=case.size,
                status="violation"
                if violation is not None
                else ("accepted" if accepted else "rejected"),
            )
        if violation is None:
            continue
        report.counterexamples.append(
            _handle_violation(config, env, case, violation, tracer)
        )
    report.elapsed = time.monotonic() - started
    if emit:
        tracer.inc("fuzz.accepted", report.accepted)
        tracer.inc("fuzz.rejected", report.rejected)
        tracer.inc("fuzz.counterexamples", len(report.counterexamples))
    return report


def _handle_violation(
    config: FuzzConfig,
    env: Environment,
    case: FuzzCase,
    violation: Violation,
    tracer,
) -> Counterexample:
    """Shrink a fresh counterexample and persist the minimum."""
    oracle_name = violation.oracle.split(":", 1)[0]
    oracle = ORACLES[oracle_name]
    emit = tracer is not None and tracer.enabled

    def still_fails(candidate: Term) -> bool:
        ctx = OracleContext(
            env,
            budget=clone_budget(_shrink_budget(config)),
            faults=config.fault_plan(),
            options=config.infer_options(),
            systems=config.systems,
        )
        return oracle(ctx, candidate) is not None

    def on_step(candidate: Term) -> None:
        if emit:
            tracer.inc("fuzz.shrink_steps")
            tracer.event(
                "fuzz.shrink",
                index=case.index,
                oracle=violation.oracle,
                size=term_size(candidate),
            )

    shrunk = shrink(
        case.term, still_fails, max_checks=config.max_shrink_checks, on_step=on_step
    )
    corpus_path = None
    if config.corpus_dir is not None:
        corpus_path = write_counterexample(
            config.corpus_dir,
            shrunk.term,
            violation.oracle,
            violation.message,
            metadata={
                "seed": case.seed,
                "case": case.index,
                "mode": case.mode,
                "shrunk-from": f"{shrunk.original_size} -> {shrunk.final_size} nodes",
                **(
                    {"policy": config.policy}
                    if config.policy != DEFAULT_POLICY.name
                    else {}
                ),
                **(
                    {"fault": f"step={config.fault_step} depth={config.fault_depth}"}
                    if config.faulty
                    else {}
                ),
            },
        )
    if emit:
        tracer.inc("fuzz.counterexamples_persisted", 1 if corpus_path else 0)
        tracer.event(
            "fuzz.counterexample",
            index=case.index,
            oracle=violation.oracle,
            source=str(shrunk.term),
            corpus=str(corpus_path) if corpus_path else "",
        )
    return Counterexample(
        case=case,
        violation=violation,
        shrunk=shrunk.term,
        shrink_steps=shrunk.steps,
        corpus_path=corpus_path,
    )


def _shrink_budget(config: FuzzConfig) -> Budget:
    """Shrink checks get a tighter wall clock: candidates that hang are
    treated as not-failing rather than stalling the minimisation."""
    timeout = min(config.timeout, 1.0) if config.timeout else 1.0
    return Budget(
        max_solver_steps=config.max_steps,
        max_unify_depth=config.max_depth,
        wall_clock=timeout,
    )


def render_fuzz_text(report: FuzzReport) -> str:
    """The human-readable sweep summary for the CLI."""
    modes = ", ".join(f"{mode}: {n}" for mode, n in sorted(report.by_mode.items()))
    lines = [
        f"fuzz seed={report.seed} count={report.count} "
        f"({modes})",
        f"accepted {report.accepted}, rejected {report.rejected}, "
        f"violations {len(report.counterexamples)} "
        f"[{report.elapsed:.1f}s]",
    ]
    for ce in report.counterexamples:
        lines.append(f"  FAIL [{ce.violation.oracle}] case {ce.case.index}")
        lines.append(f"    original: {ce.case.source}")
        lines.append(f"    shrunk:   {ce.shrunk}")
        lines.append(f"    {ce.violation.message}")
        if ce.corpus_path is not None:
            lines.append(f"    saved: {ce.corpus_path}")
    lines.append("ok" if report.ok else "FAILED")
    return "\n".join(lines)
