"""Type-checking one binding group against an environment.

The rules mirror GHC's treatment of top-level binding groups, restricted
to what GI can justify:

* a **non-recursive** binding with a signature is checked in *check
  mode* — the definition is wrapped as ``(e :: σ)`` (Section 3.4's
  ``f :: σ; f = e`` story) and the binding enters the environment at its
  *declared* type;
* a non-recursive binding **without** a signature is inferred and
  generalised to its principal type (Theorem 4.3 makes this canonical);
* a **recursive** group (an SCC of size > 1, or a self-recursive
  binding) requires a signature on *every* member — GI has no implicit
  generalisation for recursion, and with signatures the group needs no
  fixpoint iteration: every member is checked under the assumption of
  all the declared types, which also gives polymorphic recursion for
  free.  Missing signatures raise
  :class:`~repro.core.errors.CyclicBindingError`.

Failures never escape as exceptions: every member of the group gets
either a checked type or a structured
:class:`~repro.robustness.batch.Diagnostic`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.env import Environment
from repro.core.errors import CyclicBindingError, GIError, InternalError
from repro.core.infer import Inferencer, InferOptions
from repro.core.solver import InstanceEnv
from repro.core.terms import Ann
from repro.core.types import Type
from repro.modules.graph import BindingGroup
from repro.modules.parser import Binding
from repro.robustness.batch import SEVERITY_ERROR, SEVERITY_INTERNAL, Diagnostic
from repro.robustness.budget import Budget


@dataclass
class GroupOutcome:
    """The result of checking one binding group."""

    group: BindingGroup
    types: dict[str, Type] = field(default_factory=dict)
    """Checked type per *successful* member."""

    diagnostics: dict[str, Diagnostic] = field(default_factory=dict)
    """Diagnostic per *failed* member."""

    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _diagnose(error: GIError, index: int, name: str) -> Diagnostic:
    severity = SEVERITY_INTERNAL if isinstance(error, InternalError) else SEVERITY_ERROR
    return Diagnostic(
        severity=severity,
        index=index,
        error_class=type(error).__name__,
        message=str(error),
        phase=getattr(error, "phase", None),
        binding=name,
        traceback=getattr(error, "snapshot", {}).get("traceback"),
    )


def check_group(
    group: BindingGroup,
    env: Environment,
    instances: InstanceEnv | None = None,
    options: InferOptions | None = None,
    budget: Budget | None = None,
    indices: dict[str, int] | None = None,
    tracer=None,
    parent_span=None,
) -> GroupOutcome:
    """Check every member of ``group`` under ``env``.

    ``indices`` maps binding names to their declaration positions (for
    diagnostics); it defaults to positions within the group.  When a
    ``tracer`` is given the whole group runs inside a ``group.check``
    span; ``parent_span`` parents it explicitly (the engine passes the
    span of the layer the group belongs to).
    """
    started = time.perf_counter()
    outcome = GroupOutcome(group)
    indices = indices or {b.name: i for i, b in enumerate(group.bindings)}
    span_cm = (
        tracer.span(
            "group.check",
            parent=parent_span,
            names=",".join(group.names),
            recursive=group.recursive,
        )
        if tracer is not None and tracer.enabled
        else nullcontext()
    )

    with span_cm:
        if group.recursive:
            missing = tuple(b.name for b in group.bindings if b.signature is None)
            if missing:
                error = CyclicBindingError(group.names, missing)
                for binding in group.bindings:
                    outcome.diagnostics[binding.name] = _diagnose(
                        error, indices[binding.name], binding.name
                    )
                outcome.seconds = time.perf_counter() - started
                return outcome
            # Check each member under the assumption of all declared types.
            assumptions = {b.name: b.signature for b in group.bindings}
            rec_env = env.extended_many(assumptions)
            for binding in group.bindings:
                _check_one(
                    binding, rec_env, instances, options, budget, indices, outcome, tracer
                )
        else:
            binding = group.bindings[0]
            _check_one(binding, env, instances, options, budget, indices, outcome, tracer)

    outcome.seconds = time.perf_counter() - started
    return outcome


def _check_one(
    binding: Binding,
    env: Environment,
    instances: InstanceEnv | None,
    options: InferOptions | None,
    budget: Budget | None,
    indices: dict[str, int],
    outcome: GroupOutcome,
    tracer=None,
) -> None:
    inferencer = Inferencer(env, instances, options, budget=budget, tracer=tracer)
    try:
        if binding.signature is not None:
            inferencer.infer(Ann(binding.term, binding.signature))
            outcome.types[binding.name] = binding.signature
        else:
            outcome.types[binding.name] = inferencer.infer(binding.term).type_
    except GIError as error:
        outcome.diagnostics[binding.name] = _diagnose(
            error, indices[binding.name], binding.name
        )
