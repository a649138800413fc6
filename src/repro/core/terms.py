"""Term syntax of the GI source language (Figure 3, extended in Fig 11).

Expressions::

    e ::= x                        variable (a nullary application)
        | e0 e1 ... en             n-ary application
        | λx. e                    un-annotated lambda
        | λ(x :: σ). e             annotated lambda
        | (e0 e1 ... en :: σ)      annotated application
        | let x = e1 in e2
        | case e0 of { K x̄ -> e ; ... }
        | literal                  Int / Bool / Char / String literals

Application is *n-ary*: :class:`App` stores a head (never itself an
:class:`App`; the smart constructor :func:`app` flattens) plus a tuple of
arguments.  A lone variable is treated as a nullary application by the
typing rules, not by the syntax.

The shape of a node is described once, by three helpers:
:func:`term_children` (the immediate subterms), :func:`term_binders` (the
term names bound over each child) and :func:`rebuild_term` (the node with
new children, the node itself when none changed, through :func:`app` so a
rewritten head flattens).  Two iterative walks sit on them: the pre-order
:func:`walk_terms` and a scoped, identity-preserving rebuild behind
:func:`free_vars`, :func:`subst_term` and :func:`subst_type_vars_in_term`.

Every other term walk — the constraint generator, the backends' kernel,
elaboration, the printers, the System F translation and the interpreter —
is a generator run by :func:`drive`: it ``yield``s the walk of a child and
receives the child's result, and one loop keeps the open walks on an
explicit stack.  A walk keeps its term variables in one scope per run,
which :func:`scoped` extends for the walk under a binder and restores on
the way out.  Equality, hashing and ``repr`` of terms are iterative too, so term
depth is bounded by memory (or by a budget), never by Python's recursion
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_, is_not
from types import GeneratorType
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

from repro.core.types import BOOL, CHAR, INT, STRING, Forall, Type, subst_tvars


@dataclass(frozen=True, eq=False, repr=False)
class Term:
    """Base class of all term forms.

    Equality, hashing and ``repr`` are structural, as the dataclass ones
    would be, but iterative; hashes are cached on the node, as for types.
    """

    def __str__(self) -> str:
        from repro.syntax.pretty import pretty_term

        return pretty_term(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return _terms_equal(self, other)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        return cached if cached is not None else _hash_term(self)

    def __repr__(self) -> str:
        return drive(_repr(self))


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    """A term variable occurrence."""

    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Lit(Term):
    """A literal with a built-in type."""

    value: object

    @property
    def type_(self) -> Type:
        if isinstance(self.value, bool):
            return BOOL
        if isinstance(self.value, int):
            return INT
        if isinstance(self.value, str) and len(self.value) == 1:
            return CHAR
        if isinstance(self.value, str):
            return STRING
        raise TypeError(f"unsupported literal: {self.value!r}")


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    """An n-ary application ``e0 e1 ... en`` (n ≥ 1).

    The head is never an :class:`App`: we always take as many arguments as
    possible, maximising the opportunities for guardedness (Section 3.2).
    """

    head: Term
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("App requires at least one argument; use the head alone")
        if isinstance(self.head, App):
            raise ValueError("App head must not itself be an App; use app()")


def app(head: Term, *arguments: Term) -> Term:
    """Build an application, flattening nested heads into one n-ary node."""
    if not arguments:
        return head
    if isinstance(head, App):
        return App(head.head, head.args + tuple(arguments))
    return App(head, tuple(arguments))


@dataclass(frozen=True, eq=False, repr=False)
class Lam(Term):
    """An un-annotated lambda ``λx. e``; the binder gets a fully
    monomorphic type (the Lambda Rule, Section 2.3)."""

    var: str
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class AnnLam(Term):
    """An annotated lambda ``λ(x :: σ). e``."""

    var: str
    annotation: Type
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class Ann(Term):
    """An annotated (possibly nullary) application ``(e :: σ)``."""

    expr: Term
    annotation: Type


@dataclass(frozen=True, eq=False, repr=False)
class Let(Term):
    """``let x = e1 in e2`` — no implicit generalisation (Section 3.5)."""

    var: str
    bound: Term
    body: Term


@dataclass(frozen=True)
class CaseAlt:
    """One alternative ``K x1 ... xn -> e`` of a case expression."""

    constructor: str
    binders: tuple[str, ...]
    rhs: Term

    def __post_init__(self) -> None:
        if not isinstance(self.binders, tuple):
            object.__setattr__(self, "binders", tuple(self.binders))


@dataclass(frozen=True, eq=False, repr=False)
class Case(Term):
    """``case e0 of { alts }`` (Appendix A)."""

    scrutinee: Term
    alts: tuple[CaseAlt, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.alts, tuple):
            object.__setattr__(self, "alts", tuple(self.alts))
        if not self.alts:
            raise ValueError("case expression needs at least one alternative")


def lam(*binders_and_body) -> Term:
    """Convenience: ``lam('x', 'y', body)`` builds nested lambdas."""
    *binders, body = binders_and_body
    if not binders:
        raise ValueError("lam() needs at least one binder")
    result = body
    for binder in reversed(binders):
        if isinstance(binder, tuple):
            name, annotation = binder
            result = AnnLam(name, annotation, result)
        else:
            result = Lam(binder, result)
    return result


# ---------------------------------------------------------------------
# The term shape, written once: each node's children, the term names bound
# over each child, and a rebuild from new children.  Every structural walk
# below (and the conformance shrinker) goes through these three.
# ---------------------------------------------------------------------


def term_children(term: Term) -> tuple[Term, ...]:
    """The immediate subterms, in source order (an application's head
    first, a case's scrutinee before its right-hand sides)."""
    kind = term.__class__
    if kind is App:
        return (term.head, *term.args)
    if kind is Var or kind is Lit:
        return ()
    if kind is Lam or kind is AnnLam:
        return (term.body,)
    if kind is Let:
        return (term.bound, term.body)
    if kind is Ann:
        return (term.expr,)
    if kind is Case:
        return (term.scrutinee, *[alt.rhs for alt in term.alts])
    raise TypeError(f"unknown term node: {term!r}")


def term_binders(term: Term) -> tuple[tuple[str, ...], ...]:
    """The term names bound over each child, aligned with
    :func:`term_children`: a λ binds over its body, ``let`` over its body
    only, and a case alternative over its right-hand side."""
    kind = term.__class__
    if kind is App:
        return ((),) * (1 + len(term.args))
    if kind is Var or kind is Lit:
        return ()
    if kind is Lam or kind is AnnLam:
        return ((term.var,),)
    if kind is Let:
        return ((), (term.var,))
    if kind is Ann:
        return ((),)
    if kind is Case:
        return ((), *[alt.binders for alt in term.alts])
    raise TypeError(f"unknown term node: {term!r}")


def rebuild_term(term: Term, children: Sequence[Term]) -> Term:
    """``term`` with its children (as :func:`term_children` lists them)
    replaced; ``term`` itself when every child is the same object.

    An application is rebuilt through :func:`app`, so a head that became an
    application flattens into the node.
    """
    if all(map(is_, children, term_children(term))):
        return term
    kind = term.__class__
    if kind is App:
        return app(*children)
    if kind is Lam:
        return Lam(term.var, children[0])
    if kind is AnnLam:
        return AnnLam(term.var, term.annotation, children[0])
    if kind is Ann:
        return Ann(children[0], term.annotation)
    if kind is Let:
        return Let(term.var, children[0], children[1])
    return Case(
        children[0],
        tuple(
            alt if rhs is alt.rhs else CaseAlt(alt.constructor, alt.binders, rhs)
            for alt, rhs in zip(term.alts, children[1:])
        ),
    )


# ---------------------------------------------------------------------
# The driver every recursive term walk runs on, and the one scope per run
# its binder rules share.
# ---------------------------------------------------------------------

def drive(walk: Any) -> Any:
    """Run a walk to its result on an explicit stack.

    A walk is a generator that ``yield``s the walk of a child and receives
    the child's result; the child's exception is raised at that ``yield``
    instead, so a parent's ``try`` sees it as it would a recursive call's.
    A walk function answers a leaf directly, without creating a generator:
    a yielded value that is not a generator is a result already and goes
    straight back, and so does a ``walk`` that is not one.
    """
    if walk.__class__ is not GeneratorType:
        return walk
    stack: list = []
    value = error = None
    while True:
        try:
            child = walk.send(value) if error is None else walk.throw(error)
        except StopIteration as stop:
            if not stack:
                return stop.value
            walk, value, error = stack.pop(), stop.value, None
            continue
        except BaseException as exc:
            if not stack:
                raise
            walk, error = stack.pop(), exc
            continue
        error = None
        if child.__class__ is GeneratorType:
            stack.append(walk)
            walk, value = child, None
        else:
            value = child


_UNBOUND = object()


def scoped(scope: dict, names: Sequence[str], values: Sequence, walk: Callable, *args):
    """The walk ``walk(*args)`` with ``names`` bound to ``values`` in a
    run's one scope, which is restored on the way out, normally or not.

    A rebound name keeps its place in the scope's order and a new one goes
    last, as in a copy of the scope extended with the names, so
    ``scope.values()`` reads as it would from such a copy."""
    saved = [(name, scope.get(name, _UNBOUND)) for name in names]
    scope.update(zip(names, values))
    try:
        return (yield walk(*args))
    finally:
        for name, old in reversed(saved):
            if old is _UNBOUND:
                scope.pop(name, None)
            else:
                scope[name] = old


# ---------------------------------------------------------------------
# Structural equality, hashing and repr, without recursion.
# ---------------------------------------------------------------------


def _label(term: Term) -> object:
    """What a node holds besides its children: two nodes of one class are
    equal when their labels and their children are.  A literal's label
    carries the value's type, since ``True == 1`` in Python but the two
    literals have different types (found by the conformance fuzzer)."""
    kind = term.__class__
    if kind is Var:
        return term.name
    if kind is Lit:
        return (type(term.value), term.value)
    if kind is App:
        return len(term.args)
    if kind is Lam or kind is Let:
        return term.var
    if kind is AnnLam:
        return (term.var, term.annotation)
    if kind is Ann:
        return term.annotation
    if kind is Case:
        return tuple((alt.constructor, alt.binders) for alt in term.alts)
    raise TypeError(f"unknown term node: {term!r}")


def _terms_equal(left: Term, right: Term) -> bool:
    stack = [(left, right)]
    while stack:
        l, r = stack.pop()
        if l is r:
            continue
        if l.__class__ is not r.__class__:
            return False
        left_hash = l.__dict__.get("_hash")
        if left_hash is not None:
            right_hash = r.__dict__.get("_hash")
            if right_hash is not None and left_hash != right_hash:
                return False
        if _label(l) != _label(r):
            return False
        stack.extend(zip(term_children(l), term_children(r)))
    return True


def _hash_term(root: Term) -> int:
    """Compute (and cache) the structural hash of ``root`` bottom-up."""
    stack = [root]
    while stack:
        node = stack[-1]
        if "_hash" in node.__dict__:
            stack.pop()
            continue
        children = term_children(node)
        pending = [child for child in children if "_hash" not in child.__dict__]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        label = _label(node)
        if node.__class__ is Lit:
            label = (label[0].__name__, label[1])
        value = hash((node.__class__.__name__, label, tuple(map(hash, children))))
        object.__setattr__(node, "_hash", value)
    return root.__dict__["_hash"]


def _repr(term: Term):
    """The dataclass ``repr`` of a term, as a walk."""
    kind = term.__class__
    if kind is Var:
        return f"Var(name={term.name!r})"
    if kind is Lit:
        return f"Lit(value={term.value!r})"
    return _repr_node(term)


def _repr_node(term: Term):
    parts = []
    for child in term_children(term):
        parts.append((yield _repr(child)))
    kind = term.__class__
    if kind is App:
        return f"App(head={parts[0]}, args={_tuple_repr(parts[1:])})"
    if kind is Lam:
        return f"Lam(var={term.var!r}, body={parts[0]})"
    if kind is AnnLam:
        return f"AnnLam(var={term.var!r}, annotation={term.annotation!r}, body={parts[0]})"
    if kind is Ann:
        return f"Ann(expr={parts[0]}, annotation={term.annotation!r})"
    if kind is Let:
        return f"Let(var={term.var!r}, bound={parts[0]}, body={parts[1]})"
    alts = [
        f"CaseAlt(constructor={alt.constructor!r}, binders={alt.binders!r}, rhs={rhs})"
        for alt, rhs in zip(term.alts, parts[1:])
    ]
    return f"Case(scrutinee={parts[0]}, alts={_tuple_repr(alts)})"


def _tuple_repr(parts: Sequence[str]) -> str:
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


# ---------------------------------------------------------------------
# The two walks.  Neither recurses in Python, so term depth is bounded by
# memory, not by the interpreter's recursion limit.
# ---------------------------------------------------------------------


def walk_terms(term: Term) -> Iterator[Term]:
    """Pre-order traversal of all term nodes."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        children = term_children(node)
        if children:
            stack.extend(reversed(children))


S = TypeVar("S")

#: ``visit(node, scope)`` for :func:`_rebuild`: either ``(finished, None)``
#: for a node that is not descended into, or ``(node, scopes)`` with one
#: scope per child (``None`` keeps that child as is); ``node`` may be a copy
#: of the input with a rewritten annotation, but has the input's children.
Visit = Callable[[Term, S], tuple[Term, Sequence[S | None] | None]]


def _rebuild(term: Term, scope: S, visit: Visit) -> Term:
    """The scoped rebuild behind :func:`free_vars`, :func:`subst_term` and
    :func:`subst_type_vars_in_term`, which differ only in ``visit``.

    Iterative, with one children iterator per open node (as in
    :func:`repro.core.types._rebuild`); a node whose children come back
    unchanged is returned as is.
    """
    node, scopes = visit(term, scope)
    if not scopes:
        return node
    children = term_children(node)
    # Frames: [node, its children, iterator over (child, child scope),
    # rebuilt children].
    stack: list[list] = [[node, children, zip(children, scopes), []]]
    while True:
        frame = stack[-1]
        built = frame[3]
        for child, child_scope in frame[2]:
            if child_scope is None:
                built.append(child)
                continue
            node, scopes = visit(child, child_scope)
            if not scopes:
                built.append(node)
                continue
            children = term_children(node)
            stack.append([node, children, zip(children, scopes), []])
            break
        else:
            stack.pop()
            node = frame[0]
            if any(map(is_not, built, frame[1])):
                node = rebuild_term(node, built)
            if not stack:
                return node
            stack[-1][3].append(node)


def free_vars(term: Term) -> set[str]:
    """Free term variables of an expression.

    The rebuild visits nodes in pre-order, so a child's scope need only be
    its depth and the names bound over it: a binder stays open until the
    walk visits a node at its depth or above, which is where its subtree
    ends.  One shared count per name then makes the walk linear in the
    term, however deeply its binders nest.
    """
    free: set[str] = set()
    counts: dict[str, int] = {}
    opened: list[tuple[int, tuple[str, ...]]] = []

    def visit(node: Term, scope: tuple[int, tuple[str, ...]]):
        depth, names = scope
        while opened and opened[-1][0] >= depth:
            for name in opened.pop()[1]:
                counts[name] -= 1
        if names:
            opened.append(scope)
            for name in names:
                counts[name] = counts.get(name, 0) + 1
        if node.__class__ is Var:
            if not counts.get(node.name):
                free.add(node.name)
            return node, None
        return node, [(depth + 1, names) for names in term_binders(node)]

    _rebuild(term, (0, ()), visit)
    return free


def term_size(term: Term) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in walk_terms(term))


def subst_type_vars_in_term(mapping: Mapping[str, Type], term: Term) -> Term:
    """Rename free (skolem) type variables inside every annotation of a term.

    Used by rule AnnApp: the binders of a type annotation scope over the
    annotated expression (lexically scoped type variables), so when the
    generator freshens them to unique skolems it must apply the same
    renaming to nested annotations.
    """

    def visit(node: Term, mapping: Mapping[str, Type]):
        kind = node.__class__
        if kind is Ann:
            # A nested `forall` annotation re-binds its variables for the
            # expression it annotates, shadowing the outer scoped variables —
            # the same discipline subst_tvars applies to types (found by the
            # conformance fuzzer: without this, the outer skolem leaks into
            # open annotations under the inner quantifier).
            inner = mapping
            if node.annotation.__class__ is Forall and node.annotation.binders:
                binders = node.annotation.binders
                inner = {name: image for name, image in mapping.items() if name not in binders}
            annotation = subst_tvars(mapping, node.annotation)
            if annotation is not node.annotation:
                node = Ann(node.expr, annotation)
            return node, [inner or None]
        if kind is AnnLam:
            annotation = subst_tvars(mapping, node.annotation)
            if annotation is not node.annotation:
                node = AnnLam(node.var, annotation, node.body)
        return node, [mapping] * len(term_children(node))

    if not mapping:
        return term
    return _rebuild(term, mapping, visit)


def subst_term(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding-enough substitution ``e[x := u]``.

    Used by the metatheory tests (Theorem 3.4) and the stability
    transforms; we assume, as their callers arrange, that the
    replacement's free variables are not captured.
    """

    def visit(node: Term, _: bool):
        if node.__class__ is Var:
            return (replacement if node.name == name else node), None
        return node, [None if name in names else True for names in term_binders(node)]

    return _rebuild(term, True, visit)
