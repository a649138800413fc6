"""Crash containment for the serial item loops, and budget cloning.

Module checking and the conformance fuzzer each run one plain loop over
their items (binding groups, fuzz cases) and call the per-item work
function through :func:`run_contained`, so a crash of the *driver* —
not the engine, whose failures :meth:`Inferencer.infer` already
contains — still comes out as one structured :class:`InternalError`
carrying the formatted traceback.

Inference is sequential pure-Python work, so there is no worker pool:
EXPERIMENTS.md §16 records the measurement that retired it.  The only
concurrent inference caller is the serve daemon's request executor
(:mod:`repro.robustness.server`).
"""

from __future__ import annotations

import threading
import traceback as _traceback
from typing import Callable, TypeVar

from repro.core.errors import GIError, InternalError
from repro.robustness.budget import Budget

Result = TypeVar("Result")


def clone_budget(budget: Budget | None) -> Budget | None:
    """A fresh, un-started budget with the same limits (and tracer)."""
    if budget is None:
        return None
    return Budget(
        max_solver_steps=budget.max_solver_steps,
        max_unify_depth=budget.max_unify_depth,
        wall_clock=budget.wall_clock,
        deadline_at=budget.deadline_at,
        tracer=budget.tracer,
    )


def run_contained(fn: Callable[..., Result], /, *args, **kwargs) -> Result:
    """Call ``fn(*args, **kwargs)``, containing non-GI crashes of ``fn``.

    ``fn`` is supposed to catch engine errors itself and return
    diagnostics; if it crashes anyway (a bug in the driver, not the
    engine), the exception becomes an :class:`InternalError` with
    ``phase="worker"`` whose snapshot carries the calling thread's name
    and the *formatted traceback*, so ``--json`` consumers see where the
    crash actually happened.

    ``BaseException`` is deliberate: a work function raising
    ``SystemExit`` or ``KeyboardInterrupt`` must not tear down the driver
    — a task asking the *process* to exit is a contained task failure
    like any other.  Even the fallback is guarded: if formatting the
    traceback or the error itself blows up, a bare placeholder
    ``InternalError`` still comes out, so containment cannot fail.
    """
    try:
        return fn(*args, **kwargs)
    except GIError:
        raise
    except BaseException as error:  # noqa: BLE001 — worker containment
        try:
            formatted = _traceback.format_exc()
        except Exception:  # pragma: no cover — formatting crashed
            formatted = None
        raise InternalError(
            error,
            phase="worker",
            snapshot={
                "worker": threading.current_thread().name,
                "traceback": formatted,
            },
        ) from error
