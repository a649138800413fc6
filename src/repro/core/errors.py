"""Error hierarchy for GI type inference.

Every failure mode the solver can report is a distinct exception class so
tests (and downstream tools) can assert on the *kind* of rejection, not
just on rejection itself.  All inherit from :class:`GIError`.
"""

from __future__ import annotations


def _safe_str(value) -> str:
    """``str(value)``, but a crash inside ``__str__`` yields a placeholder
    instead of propagating (containment code formats arbitrary objects)."""
    try:
        return str(value)
    except Exception:  # noqa: BLE001 — formatting must never raise
        return f"<unprintable {type(value).__name__}>"


class GIError(Exception):
    """Base class for every error raised by the library."""


class ParseError(GIError):
    """The surface syntax could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = f" at {line}:{column}" if line is not None else ""
        super().__init__(f"parse error{location}: {message}")


class TypeError_(GIError):
    """Base class for type errors (named with a trailing underscore to
    avoid shadowing the builtin)."""


class UnificationError(TypeError_):
    """Two types could not be made equal."""

    def __init__(self, left, right, reason: str = ""):
        self.left = left
        self.right = right
        detail = f" ({reason})" if reason else ""
        super().__init__(f"cannot unify `{left}` with `{right}`{detail}")


class OccursCheckError(UnificationError):
    """A unification variable occurs inside the type it is equated with
    (the infinite-type check of rule eqsubst)."""

    def __init__(self, variable, type_):
        self.variable = variable
        self.type_ = type_
        TypeError_.__init__(
            self,
            f"occurs check: cannot construct the infinite type "
            f"`{variable} ~ {type_}`",
        )
        self.left = variable
        self.right = type_


class SortError(TypeError_):
    """A unification variable was equated with a type its sort forbids.

    This is how GI rejects un-annotated impredicativity: e.g. a fully
    monomorphic variable (an un-annotated lambda binder) meeting a
    polymorphic type.
    """

    def __init__(self, variable, type_, sort):
        self.variable = variable
        self.type_ = type_
        self.sort = sort
        super().__init__(
            f"sort error: variable `{variable}` of sort `{sort.symbol}` cannot "
            f"stand for `{type_}`, which requires more polymorphism than the "
            f"sort permits (add a type annotation)"
        )


class SkolemEscapeError(TypeError_):
    """A skolem constant introduced by generalisation or a signature leaked
    into an outer scope (the failure case of rule float)."""

    def __init__(self, skolem, type_=None):
        self.skolem = skolem
        self.type_ = type_
        where = f" via `{type_}`" if type_ is not None else ""
        super().__init__(
            f"rigid type variable `{skolem}` would escape its scope{where}"
        )


class StuckConstraintError(TypeError_):
    """The solver reached a fixpoint with residual non-equality constraints
    it could not discharge (an ambiguous/underdetermined program)."""

    def __init__(self, constraints):
        self.constraints = list(constraints)
        rendered = "; ".join(str(constraint) for constraint in self.constraints)
        super().__init__(f"unsolved constraints: {rendered}")


class ScopeError(TypeError_):
    """A term variable or data constructor is not in scope."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable not in scope: `{name}`")


class AnnotationNeededError(TypeError_):
    """Raised when a construct requires a type annotation (e.g. a lambda
    binder that must be polymorphic — the Lambda Rule of Section 2.3)."""

    def __init__(self, what: str):
        super().__init__(f"type annotation needed: {what}")


class DuplicateBindingError(GIError):
    """A module defines the same top-level name twice (two definitions or
    two signatures).  Carries both source positions so tooling can point at
    the clashing declaration *and* the original."""

    def __init__(
        self,
        name: str,
        kind: str,
        line: int | None = None,
        column: int | None = None,
        first_line: int | None = None,
    ):
        self.name = name
        self.kind = kind  # "binding" or "signature"
        self.line = line
        self.column = column
        self.first_line = first_line
        location = f" at {line}:{column}" if line is not None else ""
        earlier = f" (first {kind} at line {first_line})" if first_line is not None else ""
        super().__init__(
            f"duplicate {kind} for `{name}`{location}{earlier}"
        )


class CyclicBindingError(TypeError_):
    """A recursive binding group contains members without type signatures.

    GI has no implicit generalisation inside recursion (Section 3.5 treats
    ``let`` as monomorphic), so every member of a strongly connected
    binding group must declare its type; the error names the group and the
    members that are missing signatures.
    """

    def __init__(self, group: tuple[str, ...], missing: tuple[str, ...]):
        self.group = tuple(group)
        self.missing = tuple(missing)
        members = ", ".join(f"`{name}`" for name in self.group)
        lacking = ", ".join(f"`{name}`" for name in self.missing)
        shape = "recursive binding" if len(self.group) == 1 else "recursive binding group"
        super().__init__(
            f"{shape} {{{members}}} requires a type signature on every "
            f"member; missing: {lacking}"
        )


class MissingInstanceError(TypeError_):
    """A class constraint could not be discharged from the instance
    environment or the local givens (Appendix B extension)."""

    def __init__(self, constraint):
        self.constraint = constraint
        super().__init__(f"no instance for `{constraint}`")


#: Characters of the stopped-at constraint a budget message shows.
CONSTRAINT_SHOWN = 400


class BudgetExceededError(GIError):
    """An inference run exhausted one of its resource budgets.

    Carries enough structure for callers to tell *which* limit tripped and
    where: the ``phase`` ("solver", "unify" or "deadline"), the name and
    value of the limit, a snapshot of the run counters, and — when the
    solver was mid-step — the constraint being processed (whole on
    ``constraint``; the message shows its first :data:`CONSTRAINT_SHOWN`
    characters and its full length).
    """

    def __init__(
        self,
        phase: str,
        limit_name: str,
        limit,
        counters: dict | None = None,
        constraint=None,
    ):
        self.phase = phase
        self.limit_name = limit_name
        self.limit = limit
        self.counters = dict(counters or {})
        self.constraint = constraint
        used = ", ".join(f"{key}={value}" for key, value in self.counters.items())
        at = ""
        if constraint is not None:
            # The constraint grows with the term; the message must not.
            shown = str(constraint)
            if len(shown) > CONSTRAINT_SHOWN:
                shown = f"{shown[:CONSTRAINT_SHOWN]}… ({len(shown)} chars)"
            at = f" while processing `{shown}`"
        super().__init__(
            f"budget exceeded in {phase}: {limit_name} limit of {limit} "
            f"reached ({used}){at}"
        )


class InternalError(GIError):
    """An internal failure (a bug, not a type error) contained at the
    public API boundary.

    ``Inferencer.infer`` converts any non-:class:`GIError` exception —
    ``RecursionError``, ``AssertionError``, ``KeyError``, … — into this
    class so that no raw Python traceback ever escapes the engine.  The
    original exception is chained as ``__cause__``; ``snapshot`` holds a
    redacted summary of solver state (counts only, no user types), plus
    optionally the formatted original traceback under ``"traceback"`` —
    carried for structured (``--json``) output but never rendered into
    the one-line message.
    """

    def __init__(self, original: BaseException, phase: str, snapshot: dict | None = None):
        self.original_class = type(original).__name__
        self.phase = phase
        self.snapshot = dict(snapshot or {})
        # The original exception (or a snapshot value) may itself refuse
        # to format — a crash inside __str__ must not defeat containment,
        # so every piece of the message is rendered defensively.
        detail = _safe_str(original) or "(no message)"
        if len(detail) > 200:
            detail = detail[:200] + "…"
        rendered = {
            key: _safe_str(value)
            for key, value in self.snapshot.items()
            if key != "traceback"
        }
        state = (
            " [" + ", ".join(f"{key}={value}" for key, value in rendered.items()) + "]"
            if rendered
            else ""
        )
        super().__init__(
            f"internal error during {phase} ({self.original_class}): {detail}{state}"
        )


class ElaborationError(GIError):
    """Internal invariant violation while building the System F witness."""


class SystemFTypeError(GIError):
    """The System F type checker rejected a term."""
