"""Synthetic workload generators for the scaling benchmarks.

The paper's evaluation is qualitative (Figure 2, Section 5); these
workloads supply the quantitative side: how the constraint-based
implementation scales with program size, and how much the deferred
(constraint) machinery costs relative to plain Hindley-Milner programs.
"""

from __future__ import annotations

import random

from repro.core.terms import App, Lam, Let, Lit, Term, Var, app
from repro.syntax.parser import parse_term


def application_chain(depth: int) -> Term:
    """``inc (inc (... (inc 0)))`` — a pure instantiation/unification load."""
    term: Term = Lit(0)
    for _ in range(depth):
        term = app(Var("inc"), term)
    return term


def wide_application(width: int) -> Term:
    """``plusN x1 ... xN`` via nested pairs — one n-ary application with
    many arguments, stressing the classification and ω bookkeeping."""
    term: Term = Lit(1)
    for _ in range(width):
        term = app(Var("pair"), Lit(1), term)
    return term


def let_chain(depth: int) -> Term:
    """``let x1 = inc 0 in let x2 = inc x1 in ...`` — environment growth."""
    body: Term = Var(f"x{depth}") if depth else Lit(0)
    term = body
    for index in range(depth, 0, -1):
        previous = Var(f"x{index - 1}") if index > 1 else Lit(0)
        term = Let(f"x{index}", app(Var("inc"), previous), term)
    return term


def lambda_tower(depth: int) -> Term:
    """``λx1 ... xN. x1`` applied to N literals — binder pressure."""
    body: Term = Var("x1")
    term: Term = body
    for index in range(depth, 0, -1):
        term = Lam(f"x{index}", term)
    return app(term, *[Lit(i) for i in range(depth)])


def impredicative_pipeline(depth: int) -> Term:
    """``tail (tail (... ids))`` — every step re-solves a guarded
    impredicative instantiation against ``[∀a. a → a]``."""
    term: Term = Var("ids")
    for _ in range(depth):
        term = app(Var("tail"), term)
    return term


def deep_chain_term(depth: int) -> Term:
    """``λf. f 1 1 ... 1`` — one n-ary application whose result chain
    builds a deeply right-nested arrow type, stressing zonk/fuv depth and
    the occurs check on a single long spine."""
    body: Term = Var("f")
    for _ in range(depth):
        body = app(body, Lit(1))
    return Lam("f", body)


def defaulting_fan(width: int) -> Term:
    """``λh1 ... hM. pair (h1 0) (pair (h2 0) (... ))`` — every ``hi 0``
    defers an instantiation constraint on a distinct guarded variable
    until the enclosing lambda pins it down, producing a steady stream of
    defer/wake cycles (two per binder) without ever getting stuck."""
    body: Term = app(Var(f"h{width}"), Lit(0))
    for index in range(width - 1, 0, -1):
        body = app(Var("pair"), app(Var(f"h{index}"), Lit(0)), body)
    term: Term = body
    for index in range(width, 0, -1):
        term = Lam(f"h{index}", term)
    return term


def gen_chain_constraints(length: int):
    """A dependency chain of ``length`` deferred generalisation
    constraints, for the solver scheduling benchmark.

    The queue is ``[Gen_1, ..., Gen_N, u1 ~ Int]`` where ``Gen_i`` is
    blocked on the unrestricted variable ``u_i`` and releasing it emits
    ``u_{i+1} ~ Int`` — so exactly one deferred constraint becomes
    runnable at a time, in queue order.  A re-scanning solver revisits
    every still-blocked constraint per round (O(N²) pops); the
    variable-indexed wake-up queue pops each constraint O(1) times.

    Returns the constraint list; solve it with a fresh
    :class:`~repro.core.solver.Solver`.
    """
    from repro.core.constraints import Eq, Gen, Scheme
    from repro.core.sorts import Sort
    from repro.core.types import TCon, UVar

    int_ = TCon("Int", ())
    blockers = [UVar(f"gc{index}", Sort.U) for index in range(length + 1)]
    constraints = [
        Gen(
            Scheme((), (Eq(blockers[index + 1], int_),), int_),
            blockers[index],
        )
        for index in range(length)
    ]
    constraints.append(Eq(blockers[0], int_))
    return constraints


def mixed_program(size: int, seed: int = 0) -> Term:
    """A random but deterministic program mixing all constructs."""
    rng = random.Random(seed)
    fragments = [
        "inc 0",
        "single id",
        "head ids",
        "poly (\\x -> x)",
        "runST argST",
        "length (tail ids)",
        "(single id :: [forall a. a -> a])",
    ]
    source = rng.choice(fragments)
    term = parse_term(source)
    for _ in range(size):
        choice = rng.randrange(3)
        if choice == 0:
            term = Let(f"v{rng.randrange(10**6)}", term, parse_term(rng.choice(fragments)))
        elif choice == 1:
            term = app(Var("pair"), term, parse_term(rng.choice(fragments)))
        else:
            term = app(Var("snd"), app(Var("pair"), Lit(0), term))
    return term
