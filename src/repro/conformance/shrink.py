"""Greedy structural shrinking of counterexample terms.

Given a term and a predicate "still fails its oracle", repeatedly try
strictly smaller variants and keep the first that still fails, until no
candidate does.  Properties the tests pin down:

* **soundness** — the shrunk term still satisfies the predicate (it is
  only ever replaced by a failing candidate);
* **termination** — every accepted candidate is strictly smaller under
  :func:`~repro.core.terms.term_size`, and a global check budget caps
  pathological predicates;
* **determinism** — candidates are generated in a fixed structural
  order, so the same input shrinks to the same output.

Candidates are (a) proper subterms hoisted to the top and (b) one-node
simplifications (drop an annotation, drop arguments, inline a ``let``,
collapse a ``case`` to an alternative body), each applied at every
position; only strictly smaller variants are offered, which is what
makes the termination argument one line.  Only *closed* candidates are offered —
hoisting a lambda body would leak its binder — so the predicate always
sees a term the fuzzer could have generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

from repro.core.terms import (
    Ann,
    AnnLam,
    App,
    Case,
    Lam,
    Let,
    Term,
    Var,
    rebuild_term,
    term_binders,
    term_children,
    term_size,
    walk_terms,
)

#: Hard cap on predicate evaluations per shrink run.
DEFAULT_MAX_CHECKS = 2000


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink run."""

    term: Term
    original_size: int
    final_size: int
    steps: int
    checks: int


def shrink(
    term: Term,
    still_fails: Callable[[Term], bool],
    max_checks: int = DEFAULT_MAX_CHECKS,
    on_step: Callable[[Term], None] | None = None,
) -> ShrinkResult:
    """Greedily minimise ``term`` while ``still_fails`` holds.

    ``still_fails`` must be true of ``term`` itself (the caller found the
    counterexample); it is never re-checked on the input.  ``on_step``
    observes each accepted shrink (the runner emits ``fuzz.shrink``
    tracer events from it).
    """
    current = term
    steps = 0
    checks = 0
    progress = True
    while progress and checks < max_checks:
        progress = False
        for candidate in candidates(current):
            if checks >= max_checks:
                break
            checks += 1
            try:
                failing = still_fails(candidate)
            except Exception:  # noqa: BLE001 — a crashing predicate ends the walk
                failing = False
            if failing:
                current = candidate
                steps += 1
                if on_step is not None:
                    on_step(candidate)
                progress = True
                break
    return ShrinkResult(
        term=current,
        original_size=term_size(term),
        final_size=term_size(current),
        steps=steps,
        checks=checks,
    )


def candidates(term: Term) -> Iterator[Term]:
    """Strictly smaller closed variants of ``term``, deterministic order.

    Smallest-first within each family, so the greedy loop takes the
    biggest available jump.  Hoisted subterms of equal size keep their
    pre-order (the same as post-order, since neither contains the other).
    """
    keys: dict[Term, str] = {}
    facts = _facts(term, keys)
    size, free, _ = facts[id(term)]
    seen: set[str] = set()
    hoisted = [sub for sub in islice(walk_terms(term), 1, None) if facts[id(sub)][1] <= free]
    hoisted.sort(key=lambda sub: facts[id(sub)][0])
    for sub in hoisted:
        key = facts[id(sub)][2]
        if key not in seen:
            seen.add(key)
            yield sub
    for variant in _rewrites(term):
        variant_size, variant_free, key = _facts(variant, keys)[id(variant)]
        if variant_size < size and variant_free <= free and key not in seen:
            seen.add(key)
            yield variant


def _facts(term: Term, keys: dict[Term, str]) -> dict[int, tuple[int, frozenset[str], str]]:
    """``id(node) -> (size, free variables, key)`` for every node of
    ``term``, children before parents.

    Two nodes get the same key exactly when they are equal terms: a key
    interns the node rebuilt with its children's keys as placeholder
    variables, so no step hashes or compares a whole subtree.
    """
    facts: dict[int, tuple[int, frozenset[str], str]] = {}
    for node in reversed(list(walk_terms(term))):
        if id(node) in facts:
            continue
        size = 1
        free = {node.name} if node.__class__ is Var else set()
        placeholders = []
        for child, names in zip(term_children(node), term_binders(node)):
            child_size, child_free, child_key = facts[id(child)]
            size += child_size
            free |= child_free.difference(names)
            placeholders.append(Var(child_key))
        shallow = rebuild_term(node, placeholders)
        facts[id(node)] = (size, frozenset(free), keys.setdefault(shallow, str(len(keys))))
    return facts


def _rewrites(term: Term) -> Iterator[Term]:
    """One-node simplifications applied at every position, outside-in; an
    application's arguments are visited before its head."""
    # Frames: [node, its children, remaining child indices, index visited];
    # the frames are the path from the root to the current position.
    path: list[list] = []
    node = term
    while True:
        for variant in _local(node):
            for frame in reversed(path):
                children = list(frame[1])
                children[frame[3]] = variant
                variant = rebuild_term(frame[0], children)
            yield variant
        children = term_children(node)
        order = [*range(1, len(children)), 0] if node.__class__ is App else range(len(children))
        path.append([node, children, iter(order), None])
        while path:
            frame = path[-1]
            index = next(frame[2], None)
            if index is not None:
                frame[3] = index
                node = frame[1][index]
                break
            path.pop()
        else:
            return


def _local(term: Term) -> Iterator[Term]:
    """Simplifications of the node itself."""
    if isinstance(term, Ann):
        yield term.expr
    elif isinstance(term, AnnLam):
        yield Lam(term.var, term.body)
    elif isinstance(term, App):
        if term.args:
            yield term.head
        for count in range(len(term.args) - 1, 0, -1):
            yield App(term.head, term.args[:count])
        for index in range(len(term.args)):
            args = term.args[:index] + term.args[index + 1 :]
            yield App(term.head, args) if args else term.head
    elif isinstance(term, Let):
        yield term.body
        yield term.bound
    elif isinstance(term, Lam):
        yield term.body
    elif isinstance(term, Case):
        yield term.scrutinee
        for alt in term.alts:
            yield alt.rhs
