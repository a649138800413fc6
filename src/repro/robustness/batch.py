"""Batch checking: many expressions, one budget each, never crash.

The driver behind ``python -m repro batch``.  Each expression is parsed
and inferred in isolation — under its own (re-armed) budget, behind the
crash-containment boundary — and failures become structured
:class:`Diagnostic` records instead of aborting the run.  The first bad
expression in a batch therefore costs exactly one diagnostic, never the
rest of the batch.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.env import Environment
from repro.core.errors import GIError, InternalError
from repro.core.infer import Inferencer, InferOptions
from repro.core.solver import InstanceEnv
from repro.robustness.budget import Budget
from repro.robustness.faultinject import FaultPlan
from repro.syntax.parser import parse_term

SEVERITY_ERROR = "error"
"""A well-delimited rejection: parse error, type error, budget exhausted."""

SEVERITY_INTERNAL = "internal"
"""A contained engine failure (:class:`InternalError` or a parser crash)."""


class BatchSource(str):
    """A batch expression that may carry its own instantiation policy.

    A plain ``str`` for every existing purpose (equality, rendering,
    parsing), plus an optional per-item policy override.  Corpus files
    whose verdict depends on a non-default policy (the tc211 policy-flip
    cases) declare it with a ``-- policy: NAME`` header, which
    :func:`read_batch_file` attaches here so ``repro batch tests/corpus``
    replays them under the policy they were filed against.
    """

    policy = None

    def __new__(cls, source: str, policy=None):
        self = super().__new__(cls, source)
        self.policy = policy
        return self


@dataclass
class Diagnostic:
    """One structured failure record for one batch item."""

    severity: str
    """``"error"`` or ``"internal"`` (see module constants)."""

    index: int
    """Zero-based position of the expression in the batch."""

    error_class: str
    """Name of the :class:`GIError` subclass that was raised."""

    message: str

    phase: str | None = None
    """Engine phase for budget/internal failures, when known."""

    binding: str | None = None
    """For module checking: the name of the top-level binding at fault."""

    traceback: str | None = None
    """For contained internal failures: the formatted original traceback
    (from the :class:`~repro.core.errors.InternalError` snapshot), so
    ``--json`` consumers see where a crash came from.  Never rendered
    into the one-line text report."""

    seed: int | None = None
    """For ``--seed`` fault-injection sweeps: the sweep seed that
    produced this run's fault plan, for exact reproduction."""

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "index": self.index,
            "error_class": self.error_class,
            "message": self.message,
            "phase": self.phase,
            "binding": self.binding,
            "traceback": self.traceback,
            "seed": self.seed,
        }


@dataclass
class BatchItem:
    """The outcome for one expression: a type or a diagnostic."""

    index: int
    source: str
    type_: str | None = None
    diagnostic: Diagnostic | None = None

    solver_steps: int | None = None
    """Solver steps the successful run took (``None`` when inference
    never reached the solver)."""

    @property
    def ok(self) -> bool:
        return self.diagnostic is None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "source": self.source,
            "ok": self.ok,
            "type": self.type_,
            "solver_steps": self.solver_steps,
            "diagnostic": self.diagnostic.to_dict() if self.diagnostic else None,
        }


@dataclass
class BatchResult:
    """All outcomes of one batch run, in input order."""

    items: list[BatchItem] = field(default_factory=list)

    interrupted: bool = False
    """True when the run was cancelled (SIGINT/SIGTERM under the CLI)
    before every source was checked — ``items`` then holds the results
    completed before the interrupt, still in input order."""

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items) and not self.interrupted

    @property
    def failures(self) -> list[BatchItem]:
        return [item for item in self.items if not item.ok]

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [item.diagnostic for item in self.items if item.diagnostic]

    def to_dict(self) -> dict:
        return {
            "total": len(self.items),
            "passed": len(self.items) - len(self.failures),
            "failed": len(self.failures),
            "interrupted": self.interrupted,
            "items": [item.to_dict() for item in self.items],
        }


def seeded_fault_plan(seed: int, index: int) -> FaultPlan:
    """The deterministic fault plan for batch item ``index`` of sweep
    ``seed``.

    Each item gets its own trigger, derived from ``f"{seed}:{index}"`` so
    the same seed reproduces the same plan per item regardless of batch
    size or ordering: roughly half the items are armed to fail at a
    solver step (1–64), the other half at a unification depth (1–16).
    """
    rng = random.Random(f"{seed}:{index}")
    if rng.random() < 0.5:
        return FaultPlan(fail_at_solver_step=rng.randint(1, 64))
    return FaultPlan(fail_at_unify_depth=rng.randint(1, 16))


def check_batch(
    sources: Iterable[str],
    env: Environment | None = None,
    instances: InstanceEnv | None = None,
    options: InferOptions | None = None,
    budget: Budget | None = None,
    faults: FaultPlan | None = None,
    seed: int | None = None,
    tracer=None,
    cancel=None,
) -> BatchResult:
    """Type-check every expression, isolating each under its own budget.

    The same :class:`Budget` object is re-armed (:meth:`Budget.start`)
    for every item, so a budget-busting expression cannot starve its
    neighbours.  Every failure mode — parse error, type error, exhausted
    budget, contained internal crash — yields one :class:`Diagnostic`;
    nothing stops the batch.

    Every item runs under one fault rule: the batch-wide ``faults`` plan
    (re-armed per item), or — when ``seed`` is given — a *per-item* plan
    from :func:`seeded_fault_plan` for reproducible fault sweeps, with
    the seed stamped into every resulting diagnostic.

    ``cancel`` (a :class:`threading.Event`, or anything with ``is_set``)
    makes the run interruptible: it is polled before each item, and once
    set, remaining items are dropped and the result comes back with
    ``interrupted=True`` holding the completed prefix.  This is how the
    CLI stops cleanly on SIGINT/SIGTERM.

    A source that is a :class:`BatchSource` with a non-``None`` policy is
    checked under ``options`` with that policy substituted — the per-item
    override beats the batch-wide default, so one corpus file filed
    against ``lazy-shallow`` replays correctly inside an otherwise
    default sweep.
    """
    sources = list(sources)
    tracing = tracer is not None and tracer.enabled
    batch_cm = tracer.span("batch", items=len(sources)) if tracing else nullcontext()
    result = BatchResult()
    with batch_cm as batch_span:
        for index, source in enumerate(sources):
            if cancel is not None and cancel.is_set():
                result.interrupted = True
                break
            inferencer = Inferencer(
                env,
                instances,
                _options_for_item(options, source),
                budget=budget,
                faults=faults if seed is None else seeded_fault_plan(seed, index),
                tracer=tracer,
            )
            item_cm = (
                tracer.span("batch.item", parent=batch_span, index=index)
                if tracing
                else nullcontext()
            )
            with item_cm:
                result.items.append(_check_one(inferencer, index, source, seed))
    return result


def _options_for_item(
    options: InferOptions | None, source: str
) -> InferOptions | None:
    """``options`` with a :class:`BatchSource` policy override applied."""
    policy = getattr(source, "policy", None)
    if policy is None:
        return options
    from dataclasses import replace

    return replace(options if options is not None else InferOptions(), policy=policy)


def _check_one(
    inferencer: Inferencer, index: int, source: str, seed: int | None = None
) -> BatchItem:
    item = BatchItem(index=index, source=source)
    try:
        term = _parse_contained(source)
        result = inferencer.infer(term)
        item.type_ = str(result.type_)
        item.solver_steps = result.solver.steps
    except GIError as error:
        severity = SEVERITY_INTERNAL if isinstance(error, InternalError) else SEVERITY_ERROR
        phase = getattr(error, "phase", None)
        item.diagnostic = Diagnostic(
            severity=severity,
            index=index,
            error_class=type(error).__name__,
            message=str(error),
            phase=phase,
            traceback=getattr(error, "snapshot", {}).get("traceback"),
            seed=seed,
        )
    return item


def _parse_contained(source: str):
    """Parse, converting parser crashes (not parse errors) to GI errors.

    ``Inferencer.infer`` contains internal failures of the *engine*, but
    the parser runs before it; a pathological input that blows the
    parser's recursion must still come out as a diagnostic.
    """
    try:
        return parse_term(source)
    except GIError:
        raise
    except (RecursionError, Exception) as error:  # noqa: BLE001 — containment
        raise InternalError(error, phase="parse") from error


def read_batch_file(path: str) -> list[str]:
    """Read a batch file — or a directory of ``.gi`` files — into sources.

    Blank lines and ``--`` comment lines are skipped; there is no
    multi-line expression syntax.  A directory is read as every ``*.gi``
    file under it, sorted by name — the format the conformance fuzzer's
    counterexample corpus uses, so minimized counterexamples flow
    through the same diagnostics/JSON pipeline as any batch input.

    One comment header is load-bearing: ``-- policy: NAME`` selects the
    instantiation policy for every expression after it *in that file*
    (scope resets per file), returned as :class:`BatchSource` strings so
    :func:`check_batch` replays policy-flip corpus entries under the
    policy they were filed against.  An unknown name raises
    :class:`ValueError` naming the file.
    """
    from pathlib import Path

    target = Path(path)
    if target.is_dir():
        sources: list[str] = []
        for entry in sorted(target.glob("*.gi")):
            sources.extend(read_batch_file(str(entry)))
        return sources
    sources = []
    policy = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("--"):
                body = stripped[2:].strip()
                key, _, value = body.partition(":")
                if key.strip() == "policy":
                    from repro.core.policy import parse_policy

                    try:
                        policy = parse_policy(value.strip())
                    except ValueError as error:
                        raise ValueError(f"{path}: {error}") from None
                continue
            sources.append(
                BatchSource(stripped, policy=policy) if policy is not None else stripped
            )
    return sources


def render_text(result: BatchResult) -> str:
    """The human-readable report printed by the CLI."""
    lines: list[str] = []
    for item in result.items:
        if item.ok:
            lines.append(f"#{item.index}: ok: {item.type_}")
        else:
            diagnostic = item.diagnostic
            lines.append(
                f"#{item.index}: {diagnostic.severity}"
                f" [{diagnostic.error_class}]: {diagnostic.message}"
            )
    total = len(result.items)
    failed = len(result.failures)
    tail = " (interrupted — partial results)" if result.interrupted else ""
    lines.append(f"{total - failed}/{total} passed, {failed} failed{tail}")
    return "\n".join(lines)
