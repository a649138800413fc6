"""Robustness layer: budgets, crash containment, fault injection, batch.

Three guarantees, layered over the core engine:

* **bounded** — a :class:`Budget` (solver fuel, unification depth, wall
  clock) threaded through the solver and unifier turns divergence into a
  structured :class:`~repro.core.errors.BudgetExceededError`;
* **contained** — ``Inferencer.infer`` converts any internal failure into
  an :class:`~repro.core.errors.InternalError`, so the public API raises
  :class:`~repro.core.errors.GIError` or nothing;
* **isolated** — :func:`check_batch` checks many expressions, each under
  its own budget, accumulating diagnostics instead of stopping at the
  first failure.

:mod:`repro.robustness.faultinject` provides the deterministic fault
harness the test suite uses to prove the first two guarantees hold at
every solver step and unification depth.

The serve daemon (:mod:`repro.robustness.server`) extends the same
guarantees across a process boundary: per-request containment, deadline
propagation, typed load shedding and a graceful drain — see
DESIGN.md § Serving.

The batch driver and the serve stack are imported lazily: the core
engine imports ``repro.robustness.budget`` / ``faultinject`` (which
touch nothing in core but the error classes), while ``batch`` and
``server`` import the full engine — eager re-export here would close
that loop during interpreter start-up.
"""

from repro.robustness.budget import Budget
from repro.robustness.faultinject import FaultPlan, InjectedFaultError
from repro.robustness.pool import clone_budget, run_contained

_BATCH_EXPORTS = (
    "BatchItem",
    "BatchResult",
    "BatchSource",
    "Diagnostic",
    "check_batch",
    "read_batch_file",
    "render_text",
    "seeded_fault_plan",
)

_SERVE_EXPORTS = {
    "GIServer": "server",
    "ServeConfig": "server",
    "ServerHandle": "server",
    "start_server_in_thread": "server",
    "ProtocolViolation": "serveclient",
    "ServeClient": "serveclient",
    "LoadConfig": "loadgen",
    "LoadReport": "loadgen",
    "run_load": "loadgen",
}

__all__ = [
    "Budget",
    "FaultPlan",
    "InjectedFaultError",
    "clone_budget",
    "run_contained",
    *_BATCH_EXPORTS,
    *_SERVE_EXPORTS,
]


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from repro.robustness import batch

        return getattr(batch, name)
    if name in _SERVE_EXPORTS:
        import importlib

        module = importlib.import_module(f"repro.robustness.{_SERVE_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
