"""A small call-by-value interpreter for the source language.

Types never affect evaluation, so the same machine runs source programs
and (via :mod:`repro.systemf.erase`) elaborated System F programs — tests
use this to confirm elaboration preserves behaviour, and the examples use
it to actually *run* the programs whose types the paper discusses.

Values are Python objects: ints, bools, chars/strings, closures
(:class:`Closure` or any Python callable), tuples, and
:class:`DataValue` for constructor applications (lists are ``Cons``/
``Nil`` data values; :func:`from_python` / :func:`to_python` convert).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.errors import GIError
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


class EvalError(GIError):
    """A runtime error (unbound variable, bad application, match failure)."""


@dataclass
class Closure:
    """A lambda paired with its defining environment."""

    var: str
    body: Term
    env: "Env"

    def __call__(self, argument: object) -> object:
        return evaluate(self.body, self.env.extended(self.var, argument))


@dataclass(frozen=True)
class DataValue:
    """A saturated data-constructor application."""

    constructor: str
    fields: tuple = ()

    def __str__(self) -> str:
        if self.constructor in ("Cons", "Nil"):
            try:
                return str([_show(value) for value in to_python(self)]).replace("'", "")
            except EvalError:
                pass
        if not self.fields:
            return self.constructor
        inner = " ".join(_show(field) for field in self.fields)
        return f"({self.constructor} {inner})"


class Env:
    """A persistent evaluation environment."""

    def __init__(self, bindings: Mapping[str, object] | None = None) -> None:
        self._bindings = dict(bindings or {})

    def lookup(self, name: str) -> object:
        try:
            return self._bindings[name]
        except KeyError:
            raise EvalError(f"unbound variable at runtime: `{name}`") from None

    def extended(self, name: str, value: object) -> "Env":
        child = Env(self._bindings)
        child._bindings[name] = value
        return child


def evaluate(term: Term, env: Env) -> object:
    """Evaluate a term to a value.

    The evaluation is a walk on :func:`~repro.core.terms.drive`, and so
    is the application of a :class:`Closure` inside it: neither the term's
    depth nor a chain of closure applications is bounded by Python's
    recursion limit (a prelude function that calls a closure still
    nests).
    """
    return drive(_eval(term, env))


def _eval(term: Term, env: Env):
    if isinstance(term, Var):
        return env.lookup(term.name)
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, (Lam, AnnLam)):
        return Closure(term.var, term.body, env)
    return _eval_node(term, env)


def _eval_node(term: Term, env: Env):
    if isinstance(term, Ann):
        return (yield _eval(term.expr, env))
    if isinstance(term, App):
        value = yield _eval(term.head, env)
        for argument in term.args:
            arg_value = yield _eval(argument, env)
            if not callable(value):
                raise EvalError(f"applying a non-function value: {_show(value)}")
            if value.__class__ is Closure:
                value = yield _eval(value.body, value.env.extended(value.var, arg_value))
            else:
                value = value(arg_value)
        return value
    if isinstance(term, Let):
        bound = yield _eval(term.bound, env)
        return (yield _eval(term.body, env.extended(term.var, bound)))
    if isinstance(term, Case):
        scrutinee = yield _eval(term.scrutinee, env)
        data = _as_data(scrutinee)
        for alt in term.alts:
            if alt.constructor == data.constructor:
                branch_env = env
                for name, field in zip(alt.binders, data.fields):
                    branch_env = branch_env.extended(name, field)
                return (yield _eval(alt.rhs, branch_env))
        raise EvalError(f"non-exhaustive patterns: no case for {data.constructor}")
    raise TypeError(f"unknown term node: {term!r}")


def _as_data(value: object) -> DataValue:
    if isinstance(value, DataValue):
        return value
    raise EvalError(f"case on a non-data value: {_show(value)}")


# ----------------------------------------------------------------------
# Lists and tuples
# ----------------------------------------------------------------------

NIL = DataValue("Nil")


def cons(head: object, tail: object) -> DataValue:
    return DataValue("Cons", (head, tail))


def from_python(values) -> DataValue:
    """A Python iterable as a ``Cons``/``Nil`` list value."""
    result = NIL
    for value in reversed(list(values)):
        result = cons(value, result)
    return result


def to_python(value: object) -> list:
    """A ``Cons``/``Nil`` list value as a Python list."""
    result = []
    while isinstance(value, DataValue) and value.constructor == "Cons":
        result.append(value.fields[0])
        value = value.fields[1]
    if not (isinstance(value, DataValue) and value.constructor == "Nil"):
        raise EvalError("improper list")
    return result


def _show(value: object) -> str:
    if isinstance(value, Closure) or callable(value):
        return "<function>"
    if isinstance(value, DataValue) and value.constructor in ("Cons", "Nil"):
        try:
            return str(to_python(value))
        except EvalError:
            pass
    return str(value)


# ----------------------------------------------------------------------
# The prelude's runtime semantics (matching Figure 1's signatures)
# ----------------------------------------------------------------------


def _curry2(function: Callable) -> Callable:
    return lambda first: lambda second: function(first, second)


def _curry3(function: Callable) -> Callable:
    return lambda first: lambda second: lambda third: function(first, second, third)


def prelude_env() -> Env:
    """Runtime definitions for every Figure 1 binding.

    ``ST s a`` is modelled as a thunk (a nullary callable); ``runST``
    forces it — enough to observe the types *and* the behaviour of the
    celebrated ``runST $ argST`` example.
    """
    identity = lambda value: value
    bindings: dict[str, object] = {
        "id": identity,
        "inc": lambda value: value + 1,
        "not": lambda value: not value,
        "even": lambda value: value % 2 == 0,
        "plus": _curry2(lambda a, b: a + b),
        "choose": _curry2(lambda a, _b: a),
        "poly": lambda f: (f(0) + 1, f(True) and True),
        "auto": identity,
        "auto'": _curry2(lambda f, y: f(y)),
        "head": lambda xs: to_python(xs)[0],
        "tail": lambda xs: from_python(to_python(xs)[1:]),
        "nil": NIL,
        "cons": _curry2(cons),
        "single": lambda value: from_python([value]),
        "append": _curry2(lambda xs, ys: from_python(to_python(xs) + to_python(ys))),
        "length": lambda xs: len(to_python(xs)),
        "ids": from_python([identity, identity]),
        "map": _curry2(lambda f, xs: from_python([f(x) for x in to_python(xs)])),
        "app": _curry2(lambda f, x: f(x)),
        "$": _curry2(lambda f, x: f(x)),
        "revapp": _curry2(lambda x, f: f(x)),
        "flip": _curry3(lambda f, b, a: f(a)(b)),
        # ST s a ≈ a thunk; runST forces it.
        "runST": lambda action: action(),
        "argST": lambda: 42,
        "pair": _curry2(lambda a, b: (a, b)),
        "fst": lambda pair: pair[0],
        "snd": lambda pair: pair[1],
        "const": _curry2(lambda a, _b: a),
        "undefined": _Undefined(),
        "k": _curry2(lambda x, _xs: x),
        "h": lambda _n: identity,
        "lst": from_python([_curry2(lambda _n, x: x)]),
        "f": _curry2(lambda g, xs: g(to_python(xs)[0]) if to_python(xs) else g),
        "g": _curry2(lambda xs, _ys: to_python(xs)[0]),
        "g23": lambda f: len(str(f(identity))),
        "r": lambda f: 0,
        "Nothing": DataValue("Nothing"),
        "Just": lambda value: DataValue("Just", (value,)),
    }
    return Env(bindings)


class _Undefined:
    """``undefined :: ∀a. a`` — explodes when forced or applied."""

    def __call__(self, *_args: object) -> object:
        raise EvalError("undefined")

    def __str__(self) -> str:  # pragma: no cover
        return "undefined"


def run(term: Term, env: Env | None = None) -> object:
    """Evaluate a term in the prelude environment."""
    return evaluate(term, env or prelude_env())
