"""Resource budgets for inference runs.

A :class:`Budget` bounds one inference run along three axes:

* ``max_solver_steps`` — how many constraints the worklist solver may
  process (its fuel, in the sense of GHC's ``-fcontext-stack`` /
  ``-freduction-depth`` family of limits);
* ``max_unify_depth`` — how deeply the unifier may recurse into type
  structure, bounding both pathological types and runaway decomposition
  long before Python's own recursion limit;
* ``wall_clock`` — a deadline in seconds for the whole run.

The solver and unifier own their counters; the budget only *checks* them
(and remembers the latest values so a :class:`BudgetExceededError` can
report every counter, not just the one that tripped).  A budget is reused
across runs by calling :meth:`start` at the beginning of each run — the
batch driver does exactly that to give every expression the same fuel.

This module deliberately imports nothing from :mod:`repro.core` beyond
the error hierarchy, so the core engine can depend on it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.errors import BudgetExceededError

GAUGE_SAMPLE_EVERY = 64
"""Sample budget gauges once per this many solver steps — frequent
enough to see fuel draining in a trace, rare enough to stay cheap."""


@dataclass
class Budget:
    """Limits for one inference run; ``None`` means unlimited."""

    max_solver_steps: int | None = None
    max_unify_depth: int | None = None
    wall_clock: float | None = None
    """Deadline in seconds, measured from :meth:`start`."""

    deadline_at: float | None = None
    """Absolute deadline on the :func:`time.monotonic` clock — the serve
    daemon's deadline *propagation*: a request's deadline is fixed at
    admission, so time spent waiting in the queue consumes the same
    budget as time spent solving.  When both this and ``wall_clock`` are
    set, the earlier deadline wins."""

    tracer: object | None = field(default=None, repr=False, compare=False)
    """Optional :class:`~repro.observability.tracer.TracerLike`; when set
    and enabled, the budget samples its counters as gauges every
    :data:`GAUGE_SAMPLE_EVERY` solver steps and records a
    ``budget.exceeded`` event before raising."""

    solver_steps: int = field(default=0, init=False)
    """Steps the current run has used (updated by :meth:`check_solver_step`)."""

    solver_wakeups: int = field(default=0, init=False)
    """Deferred-constraint wake-ups the current run has performed (the
    scheduling work the wake-up queue does instead of full re-scans)."""

    peak_unify_depth: int = field(default=0, init=False)
    """Deepest unifier recursion seen in the current run."""

    _deadline_at: float | None = field(default=None, init=False, repr=False)
    _started_at: float | None = field(default=None, init=False, repr=False)

    def start(self) -> "Budget":
        """Reset the run counters and arm the wall-clock deadline."""
        self.solver_steps = 0
        self.solver_wakeups = 0
        self.peak_unify_depth = 0
        self._started_at = time.monotonic()
        relative = (
            self._started_at + self.wall_clock if self.wall_clock is not None else None
        )
        candidates = [at for at in (relative, self.deadline_at) if at is not None]
        self._deadline_at = min(candidates) if candidates else None
        return self

    # ------------------------------------------------------------------
    # Checks (called by the solver / unifier with their own counters)
    # ------------------------------------------------------------------

    def check_solver_step(self, steps: int, constraint=None, wakeups: int = 0) -> None:
        """Record ``steps`` and raise if the step or time budget is gone."""
        self.solver_steps = steps
        self.solver_wakeups = wakeups
        if (
            self.tracer is not None
            and self.tracer.enabled
            and steps % GAUGE_SAMPLE_EVERY == 0
        ):
            self.tracer.gauge("budget.solver_steps", steps)
            if self.max_solver_steps is not None:
                self.tracer.gauge(
                    "budget.solver_steps_remaining", self.max_solver_steps - steps
                )
        if self.max_solver_steps is not None and steps > self.max_solver_steps:
            self._trace_exceeded("solver", "max_solver_steps", self.max_solver_steps)
            raise BudgetExceededError(
                phase="solver",
                limit_name="max_solver_steps",
                limit=self.max_solver_steps,
                counters=self.counters(),
                constraint=constraint,
            )
        self.check_deadline(constraint)

    def check_unify_depth(self, depth: int, left=None, right=None) -> None:
        """Record ``depth`` and raise if the depth or time budget is gone."""
        if depth > self.peak_unify_depth:
            self.peak_unify_depth = depth
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.gauge("budget.peak_unify_depth", depth)
        if self.max_unify_depth is not None and depth > self.max_unify_depth:
            self._trace_exceeded("unify", "max_unify_depth", self.max_unify_depth)
            raise BudgetExceededError(
                phase="unify",
                limit_name="max_unify_depth",
                limit=self.max_unify_depth,
                counters=self.counters(),
            )
        self.check_deadline()

    def check_deadline(self, constraint=None) -> None:
        """Raise if the time budget is gone (the term walks check it once
        per node, so a walk that does superlinear work stops in time)."""
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            limit = self.wall_clock
            if limit is None and self._started_at is not None:
                limit = round(self._deadline_at - self._started_at, 6)
            self._trace_exceeded("deadline", "wall_clock", limit)
            raise BudgetExceededError(
                phase="deadline",
                limit_name="wall_clock",
                limit=limit,
                counters=self.counters(),
                constraint=constraint,
            )

    def _trace_exceeded(self, phase: str, limit_name: str, limit) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.inc("budget.exceeded")
            self.tracer.event(
                "budget.exceeded",
                phase=phase,
                limit_name=limit_name,
                limit=limit,
                counters=self.counters(),
            )

    # ------------------------------------------------------------------

    def counters(self) -> dict:
        """The run counters, for error reports and state snapshots."""
        elapsed = (
            round(time.monotonic() - self._started_at, 6)
            if self._started_at is not None
            else 0.0
        )
        return {
            "solver_steps": self.solver_steps,
            "solver_wakeups": self.solver_wakeups,
            "peak_unify_depth": self.peak_unify_depth,
            "elapsed_seconds": elapsed,
        }
