"""Type syntax of GI (Figures 3 and 6 of the paper).

The grammar, stratified by sorts::

    fully monomorphic   τ ::= a | αᵐ | T τ̄
    top-level mono      µ ::= a | αᵐ | αᵗ | T σ̄
    polymorphic         σ ::= αᵘ | ∀ā. µ        (ā possibly empty)

We represent all three layers with one AST and check membership with
:func:`respects`.  The function arrow is an ordinary binary constructor
``->`` (all constructors in GI are invariant, including functions), lists
are the unary constructor ``[]``, and tuples are ``(,)``/``(,,)``.

Unification variables (:class:`UVar`) carry a *sort* restricting what they
may stand for, and a *level* used by the solver to implement floating with
promotion (rule float of Figure 10) and skolem-escape checking.  Skolem
(rigid) variables are :class:`TVar`; bound occurrences inside a
:class:`Forall` use the same constructor.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.core.names import letters
from repro.core.sorts import Sort

ARROW = "->"
LIST_CON = "[]"
TOP_LEVEL = 0

_T = TypeVar("_T")


class OrderedSet(AbstractSet, Generic[_T]):
    """A set that iterates in insertion order.

    Free-variable collectors return these so that any code iterating the
    result (promotion, demotion, generalisation) behaves identically in
    every process, independent of ``PYTHONHASHSEED``.  The ``Set`` mixin
    supplies comparisons and the boolean operators, all interoperable
    with built-in sets (``ftv(t) == {"a"}``, ``{"a"} | ftv(t)``), and
    ``_from_iterable`` keeps derived sets insertion-ordered too.
    """

    __slots__ = ("_items",)

    def __init__(self, iterable: Iterable[_T] = ()) -> None:
        self._items: dict[_T, None] = dict.fromkeys(iterable)

    @classmethod
    def _from_iterable(cls, iterable: Iterable[_T]) -> "OrderedSet[_T]":
        return cls(iterable)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __iter__(self) -> Iterator[_T]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: _T) -> None:
        self._items[item] = None

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"OrderedSet({list(self._items)!r})"


@dataclass(frozen=True, eq=False)
class Type:
    """Base class of all type forms.

    Equality and hashing are structural but *iterative* (a recursive
    ``__eq__`` would overflow the interpreter stack on deep types long
    before any budget check fires), and hashes are cached on the node, so
    repeated hashing of a shared subtree is O(1).
    """

    def __str__(self) -> str:
        return render_type(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented
        return _types_equal(self, other)  # type: ignore[arg-type]

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is not None:
            return cached
        return _hash_type(self)


@dataclass(frozen=True, eq=False)
class TVar(Type):
    """A skolem / rigid type variable, or a ``Forall``-bound occurrence."""

    name: str

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not TVar:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(("TVar", self.name))
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True, eq=False)
class UVar(Type):
    """A unification variable ``α^s`` with its sort and scope level.

    The sort is part of the variable's identity: the solver never mutates a
    variable's sort in place, it binds the variable to a fresh one of the
    required sort (rule eqvar).  The level records the quantification depth
    at which the variable was created; binding an outer variable to a type
    mentioning deeper variables triggers promotion.
    """

    name: str
    sort: Sort = Sort.U
    level: int = TOP_LEVEL

    def __str__(self) -> str:
        return f"{self.name}^{self.sort.symbol}"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not UVar:
            return NotImplemented
        return (
            self.name == other.name
            and self.sort is other.sort
            and self.level == other.level
        )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(("UVar", self.name, self.sort, self.level))
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True, eq=False)
class TCon(Type):
    """A saturated type-constructor application ``T σ1 ... σn``."""

    name: str
    args: tuple[Type, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, eq=False)
class Forall(Type):
    """A polymorphic type ``∀ a1 ... an. Q ⇒ µ`` (Figure 3 / Figure 13).

    ``context`` is the (possibly empty) list of simple class constraints
    ``Q`` of the Appendix B extension; each element is a pair
    ``(class_name, argument_types)``.  Invariants (enforced by the
    :func:`forall` smart constructor): every binder occurs free in the body
    or the context, and the body has no top-level ``Forall``.  A
    quantifier-free qualified type ``Q ⇒ µ`` is represented with an empty
    binder tuple.
    """

    binders: tuple[str, ...]
    body: Type
    context: tuple["Pred", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.binders, tuple):
            object.__setattr__(self, "binders", tuple(self.binders))
        if not isinstance(self.context, tuple):
            object.__setattr__(self, "context", tuple(self.context))


@dataclass(frozen=True)
class Pred:
    """A class predicate ``D σ1 ... σn`` appearing in a type context."""

    class_name: str
    args: tuple[Type, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        rendered = " ".join(render_type(argument, 3) for argument in self.args)
        return f"{self.class_name} {rendered}"


def _composite_children(node: Type) -> Iterator[Type]:
    """Direct sub-*types* of a composite node (context args before body)."""
    if isinstance(node, TCon):
        yield from node.args
    elif isinstance(node, Forall):
        for predicate in node.context:
            yield from predicate.args
        yield node.body


def _hash_type(root: Type) -> int:
    """Compute (and cache) the structural hash of ``root`` iteratively."""
    stack = [root]
    while stack:
        node = stack[-1]
        if "_hash" in node.__dict__ or not isinstance(node, (TCon, Forall)):
            stack.pop()
            continue
        pending = [
            child
            for child in _composite_children(node)
            if isinstance(child, (TCon, Forall)) and "_hash" not in child.__dict__
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, TCon):
            value = hash(("TCon", node.name, tuple(map(hash, node.args))))
        else:
            context_key = tuple(
                (predicate.class_name, tuple(map(hash, predicate.args)))
                for predicate in node.context
            )
            value = hash(("Forall", node.binders, context_key, hash(node.body)))
        object.__setattr__(node, "_hash", value)
    cached = root.__dict__.get("_hash")
    return cached if cached is not None else hash(root)


def _types_equal(left: Type, right: Type) -> bool:
    """Structural equality without recursion (same classes assumed at the
    root; checked per node below)."""
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
        if isinstance(l, TVar):
            if l.name != r.name:
                return False
        elif isinstance(l, UVar):
            if l.name != r.name or l.sort is not r.sort or l.level != r.level:
                return False
        elif isinstance(l, TCon):
            if l.name != r.name or len(l.args) != len(r.args):
                return False
            stack.extend(zip(l.args, r.args))
        elif isinstance(l, Forall):
            if l.binders != r.binders or len(l.context) != len(r.context):
                return False
            for lp, rp in zip(l.context, r.context):
                if lp.class_name != rp.class_name or len(lp.args) != len(rp.args):
                    return False
                stack.extend(zip(lp.args, rp.args))
            stack.append((l.body, r.body))
        else:
            return False
    return True


class InternTable:
    """Hash-consing table: structurally equal types share one node.

    The unifier interns the types it rebuilds while zonking, so repeated
    zonks of the same variable return the *identical* object and the
    per-unifier free-variable caches hit on identity instead of paying a
    structural comparison.

    A table may be *shared* across many inference runs (the serve daemon
    hands one table to every session so common prelude types are stored
    once per process).  Sharing is safe under concurrent interning: a
    lost race stores a structurally equal duplicate, which only costs a
    cache miss, never a wrong answer.  ``capacity`` bounds a long-lived
    shared table — once full, :meth:`intern` stops storing new nodes and
    simply returns its argument, so a daemon's memory cannot grow without
    bound with request traffic.

    That degradation is silent from the caller's perspective — the
    un-interned object is structurally correct, it just stops hitting
    identity-keyed caches — so the table counts it: ``full_events``
    (``intern`` calls that hit the bound), plus ``hits``/``misses`` so a
    daemon's cache hit rate stays observable after capacity is reached.
    Attach a tracer (:meth:`attach_tracer`) to also emit each full event
    as a ``types.intern.full`` counter.
    """

    __slots__ = ("_table", "capacity", "hits", "misses", "full_events", "tracer")

    def __init__(self, capacity: int | None = None) -> None:
        self._table: dict[Type, Type] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.full_events = 0
        self.tracer = None

    def attach_tracer(self, tracer) -> None:
        """Emit ``types.intern.full`` on the tracer when the bound is hit."""
        self.tracer = tracer

    def intern(self, type_: Type) -> Type:
        cached = self._table.get(type_)
        if cached is not None:
            self.hits += 1
            return cached
        if self.capacity is not None and len(self._table) >= self.capacity:
            self.full_events += 1
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.inc("types.intern.full")
            return type_
        self.misses += 1
        self._table[type_] = type_
        return type_

    def stats(self) -> dict[str, int]:
        """Observable counters for daemon ``stats`` surfaces."""
        return {
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "full_events": self.full_events,
        }

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


def forall(
    binders: Sequence[str], body: Type, context: Sequence["Pred"] = ()
) -> Type:
    """Build ``∀ binders. context ⇒ body``, normalising to the grammar.

    Collapses nested quantifiers (merging contexts), drops binders that
    occur neither in the body nor in the context, and returns the body
    unchanged when no binder and no context survive.
    """
    context = tuple(context)
    if isinstance(body, Forall):
        binders = tuple(binders) + body.binders
        context = context + body.context
        body = body.body
    free = ftv(body)
    for predicate in context:
        for argument in predicate.args:
            free |= ftv(argument)
    kept = []
    seen: set[str] = set()
    for name in binders:
        if name in free and name not in seen:
            kept.append(name)
            seen.add(name)
    if not kept and not context:
        return body
    return Forall(tuple(kept), body, context)


def fun(*types: Type) -> Type:
    """Right-nested function type ``t1 -> t2 -> ... -> tn``."""
    if not types:
        raise ValueError("fun() needs at least one type")
    result = types[-1]
    for argument in reversed(types[:-1]):
        result = TCon(ARROW, (argument, result))
    return result


def list_of(element: Type) -> Type:
    """The list type ``[element]``."""
    return TCon(LIST_CON, (element,))


def tuple_of(*elements: Type) -> Type:
    """The tuple type ``(e1, ..., en)``."""
    if len(elements) < 2:
        raise ValueError("tuples have at least two components")
    return TCon("(" + "," * (len(elements) - 1) + ")", tuple(elements))


INT = TCon("Int")
BOOL = TCon("Bool")
CHAR = TCon("Char")
STRING = TCon("String")
UNIT = TCon("()")


def is_arrow(type_: Type) -> bool:
    """Whether the type is a function type ``σ1 -> σ2``."""
    return isinstance(type_, TCon) and type_.name == ARROW and len(type_.args) == 2


def arrow_parts(type_: Type) -> tuple[Type, Type]:
    """Split ``σ1 -> σ2`` into ``(σ1, σ2)``; raises if not an arrow."""
    if not is_arrow(type_):
        raise ValueError(f"not a function type: {type_}")
    assert isinstance(type_, TCon)
    return type_.args[0], type_.args[1]


def split_arrows(type_: Type, limit: int | None = None) -> tuple[list[Type], Type]:
    """Split off up to ``limit`` argument types (all of them if ``None``)."""
    arguments: list[Type] = []
    while is_arrow(type_) and (limit is None or len(arguments) < limit):
        argument, type_ = arrow_parts(type_)
        arguments.append(argument)
    return arguments, type_


def strip_forall(type_: Type) -> tuple[tuple[str, ...], Type]:
    """Split a type into its top-level binders and its body."""
    if isinstance(type_, Forall):
        return type_.binders, type_.body
    return (), type_


def ftv(type_: Type) -> OrderedSet[str]:
    """Free (skolem) type variables, in first-occurrence pre-order.

    The insertion order makes every iteration over the result (skolem
    checks, generalisation) deterministic across processes regardless of
    the hash seed; membership and the set operators behave like a set.
    A composite node shared in a DAG adds nothing the second time it is
    reached under the same binders, so it is walked once per scope.
    """
    result: OrderedSet[str] = OrderedSet()
    found = result._items
    seen: set[object] = set()  # id(node), or (id(node), bound) under binders
    # One iterator over the children per open node: leaves are consumed
    # in the ``for`` loop, a composite child suspends its parent.
    stack: list[tuple[Iterator[Type], frozenset[str]]] = [(iter((type_,)), frozenset())]
    while stack:
        children, bound = stack[-1]
        for node in children:
            kind = node.__class__
            if kind is TVar:
                if node.name not in bound:
                    found[node.name] = None
            elif kind is TCon:
                if node.args:
                    key = (id(node), bound) if bound else id(node)
                    if key not in seen:
                        seen.add(key)
                        stack.append((iter(node.args), bound))
                        break
            elif kind is Forall:
                key = (id(node), bound) if bound else id(node)
                if key not in seen:
                    seen.add(key)
                    inner = bound | frozenset(node.binders) if node.binders else bound
                    stack.append((_forall_children(node), inner))
                    break
        else:
            stack.pop()
    return result


def _forall_children(node: Forall) -> Iterator[Type]:
    """The context arguments, then the body, of a ``Forall`` — what
    :func:`_composite_children` yields, as a plain iterator, which is
    cheaper than a generator on the free-variable walks' hot path."""
    if not node.context:
        return iter((node.body,))
    children = [argument for predicate in node.context for argument in predicate.args]
    children.append(node.body)
    return iter(children)


def fuv(type_: Type) -> OrderedSet[UVar]:
    """Free unification variables, in first-occurrence pre-order (all
    unification variables are free; binders only ever bind skolems).  A
    composite node shared in a DAG is walked once."""
    result: OrderedSet[UVar] = OrderedSet()
    found = result._items
    seen: set[int] = set()
    stack: list[Iterator[Type]] = [iter((type_,))]  # as in :func:`ftv`
    while stack:
        for node in stack[-1]:
            kind = node.__class__
            if kind is UVar:
                found[node] = None
            elif kind is TCon:
                if node.args and id(node) not in seen:
                    seen.add(id(node))
                    stack.append(iter(node.args))
                    break
            elif kind is Forall and id(node) not in seen:
                seen.add(id(node))
                stack.append(_forall_children(node))
                break
        else:
            stack.pop()
    return result


def subst_tvars(mapping: Mapping[str, Type], type_: Type) -> Type:
    """Capture-avoiding substitution of skolem variables ``[a ↦ σ]``."""
    if not mapping:
        return type_
    if isinstance(type_, TVar):
        return mapping.get(type_.name, type_)
    if isinstance(type_, UVar):
        return type_
    if isinstance(type_, TCon):
        return TCon(type_.name, tuple(subst_tvars(mapping, a) for a in type_.args))
    if isinstance(type_, Forall):
        relevant = {
            name: image
            for name, image in mapping.items()
            if name not in type_.binders
        }
        if not relevant:
            return type_
        image_ftvs: set[str] = set()
        for image in relevant.values():
            image_ftvs |= ftv(image)
        binders = list(type_.binders)
        body = type_.body
        clashing = [name for name in binders if name in image_ftvs]
        if clashing:
            avoid = image_ftvs | ftv(body) | set(binders)
            renaming: dict[str, Type] = {}
            for name in clashing:
                fresh_name = _fresh_tvar_name(name, avoid)
                avoid.add(fresh_name)
                renaming[name] = TVar(fresh_name)
                binders[binders.index(name)] = fresh_name
            body = subst_tvars(renaming, body)
        context = tuple(
            _subst_pred(renaming, predicate) for predicate in type_.context
        ) if clashing else type_.context
        return Forall(
            tuple(binders),
            subst_tvars(relevant, body),
            tuple(_subst_pred(relevant, predicate) for predicate in context),
        )
    raise TypeError(f"unknown type node: {type_!r}")


def _subst_pred(mapping: Mapping[str, Type], predicate: "Pred") -> "Pred":
    return Pred(
        predicate.class_name,
        tuple(subst_tvars(mapping, argument) for argument in predicate.args),
    )


def _fresh_tvar_name(base: str, avoid: set[str]) -> str:
    base = base.rstrip("0123456789")
    index = 1
    while f"{base}{index}" in avoid:
        index += 1
    return f"{base}{index}"


def _rebuild_uvars(function: Callable[[UVar], Type], type_: Type) -> Type:
    """Iterative post-order rebuild replacing every :class:`UVar` via
    ``function``; unchanged subtrees are returned identically (no fresh
    allocation), so a no-op substitution is cheap and preserves sharing."""
    results: list[Type] = []
    stack: list[tuple[Type, bool]] = [(type_, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            if isinstance(node, UVar):
                results.append(function(node))
            elif isinstance(node, TVar):
                results.append(node)
            elif isinstance(node, TCon):
                stack.append((node, True))
                for argument in reversed(node.args):
                    stack.append((argument, False))
            elif isinstance(node, Forall):
                stack.append((node, True))
                stack.append((node.body, False))
                for predicate in reversed(node.context):
                    for argument in reversed(predicate.args):
                        stack.append((argument, False))
            else:
                raise TypeError(f"unknown type node: {node!r}")
        elif isinstance(node, TCon):
            count = len(node.args)
            if count:
                args = tuple(results[-count:])
                del results[-count:]
                if all(a is b for a, b in zip(args, node.args)):
                    results.append(node)
                else:
                    results.append(TCon(node.name, args))
            else:
                results.append(node)
        else:  # Forall
            body = results.pop()
            count = sum(len(predicate.args) for predicate in node.context)
            flat = results[-count:] if count else []
            if count:
                del results[-count:]
            changed = body is not node.body
            context: list[Pred] = []
            index = 0
            for predicate in node.context:
                width = len(predicate.args)
                new_args = tuple(flat[index : index + width])
                index += width
                if all(a is b for a, b in zip(new_args, predicate.args)):
                    context.append(predicate)
                else:
                    context.append(Pred(predicate.class_name, new_args))
                    changed = True
            if changed:
                results.append(Forall(node.binders, body, tuple(context)))
            else:
                results.append(node)
    return results[0]


def subst_uvars(mapping: Mapping[UVar, Type], type_: Type) -> Type:
    """Substitution of unification variables (zonking one step)."""
    if not mapping:
        return type_
    return _rebuild_uvars(lambda variable: mapping.get(variable, variable), type_)


def respects(type_: Type, sort: Sort) -> bool:
    """Whether a type respects a sort (Figure 4, top-left judgement).

    * every type respects ``U``;
    * a type respects ``T`` when it has no top-level quantifier and is not
      an unrestricted unification variable;
    * a type respects ``M`` when it contains no quantifier anywhere and all
      its unification variables have sort ``M``.
    """
    if sort is Sort.U:
        return True
    if sort is Sort.T:
        if isinstance(type_, Forall):
            return False
        if isinstance(type_, UVar):
            return type_.sort <= Sort.T
        return True
    # Sort.M: fully monomorphic.
    if isinstance(type_, Forall):
        return False
    if isinstance(type_, UVar):
        return type_.sort is Sort.M
    if isinstance(type_, TVar):
        return True
    if isinstance(type_, TCon):
        return all(respects(argument, Sort.M) for argument in type_.args)
    raise TypeError(f"unknown type node: {type_!r}")


def sort_of(type_: Type) -> Sort:
    """The most restrictive sort the type respects."""
    if respects(type_, Sort.M):
        return Sort.M
    if respects(type_, Sort.T):
        return Sort.T
    return Sort.U


def is_fully_monomorphic(type_: Type) -> bool:
    """``True`` when the type has no trace of polymorphism (sort ``m``)."""
    return respects(type_, Sort.M)


def is_rank1(type_: Type) -> bool:
    """Whether the type is rank-1: ``∀ p̄. τ`` with a fully monomorphic body.

    Rule VarGen (Figure 5) only applies to variables with closed rank-1
    types.
    """
    _, body = strip_forall(type_)
    return is_fully_monomorphic(body)


def alpha_equal(left: Type, right: Type) -> bool:
    """Alpha-equality of types (the equality used by rule eqrefl).

    Quantifier *order matters* in GI: ``∀a b. a -> b -> b`` is **not**
    alpha-equal to ``∀b a. a -> b -> b`` (Section 2.4 of the paper);
    alpha-equality only ignores the names of binders, not their order.
    """
    counter = 0
    # Explicit stack (no recursion): frames carry the binder environments
    # in scope at that node, extended by copy at each quantifier.
    stack: list[tuple[Type, Type, dict[str, int], dict[str, int]]] = [
        (left, right, {}, {})
    ]
    while stack:
        left, right, left_env, right_env = stack.pop()
        if isinstance(left, TVar) and isinstance(right, TVar):
            left_index = left_env.get(left.name)
            right_index = right_env.get(right.name)
            if left_index is None and right_index is None:
                if left.name != right.name:
                    return False
                continue
            if left_index is None or left_index != right_index:
                return False
            continue
        if isinstance(left, UVar) and isinstance(right, UVar):
            if left != right:
                return False
            continue
        if isinstance(left, TCon) and isinstance(right, TCon):
            if left.name != right.name or len(left.args) != len(right.args):
                return False
            for l, r in zip(reversed(left.args), reversed(right.args)):
                stack.append((l, r, left_env, right_env))
            continue
        if isinstance(left, Forall) and isinstance(right, Forall):
            if len(left.binders) != len(right.binders):
                return False
            if len(left.context) != len(right.context):
                return False
            left_env = dict(left_env)
            right_env = dict(right_env)
            for left_name, right_name in zip(left.binders, right.binders):
                counter += 1
                left_env[left_name] = counter
                right_env[right_name] = counter
            for left_pred, right_pred in zip(left.context, right.context):
                if left_pred.class_name != right_pred.class_name:
                    return False
                if len(left_pred.args) != len(right_pred.args):
                    return False
            stack.append((left.body, right.body, left_env, right_env))
            for left_pred, right_pred in zip(
                reversed(left.context), reversed(right.context)
            ):
                for l, r in zip(reversed(left_pred.args), reversed(right_pred.args)):
                    stack.append((l, r, left_env, right_env))
            continue
        return False
    return True


def rename_canonical(type_: Type) -> Type:
    """Rename all quantified variables to a canonical ``a, b, c, ...`` scheme.

    Useful for displaying principal types and for structural comparisons in
    tests.  Free variables are left untouched.  Names are drawn in
    pre-order, and every ``Forall`` occurrence draws fresh ones even when
    the node is shared.  The walk is iterative and keeps DAG sharing: a
    subtree in which nothing is renamed is returned as is, and a
    quantifier-free subtree is rebuilt once per scope it occurs in.
    """
    supply = letters()
    used = set(ftv(type_))

    def next_name() -> str:
        for candidate in supply:
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise RuntimeError("unreachable")

    # A scope maps each binder in force to its renamed occurrence.  A
    # result is memoised per (node, scope) only when it is quantifier-free;
    # ``scopes`` keeps every scope alive so its id is never reused.
    # Frames are (node, scope, None) on entry and (node, scope, binders)
    # once the children are queued; ``results`` holds (type, quantified).
    top: dict[str, TVar] = {}
    scopes = [top]
    memo: dict[tuple[int, int], Type] = {}
    results: list[tuple[Type, bool]] = []
    stack: list[tuple[Type, dict[str, TVar], tuple[str, ...] | None]] = [
        (type_, top, None)
    ]
    while stack:
        node, scope, binders = stack.pop()
        kind = node.__class__
        if binders is None:
            if kind is TVar:
                replaced = scope.get(node.name)
                if replaced is None or replaced.name == node.name:
                    results.append((node, False))
                else:
                    results.append((replaced, False))
            elif kind is TCon:
                if not node.args:
                    results.append((node, False))
                    continue
                cached = memo.get((id(node), id(scope)))
                if cached is not None:
                    results.append((cached, False))
                    continue
                stack.append((node, scope, ()))
                for argument in reversed(node.args):
                    stack.append((argument, scope, None))
            elif kind is Forall:
                inner = dict(scope)
                fresh = []
                for binder in node.binders:
                    name = next_name()
                    fresh.append(name)
                    inner[binder] = TVar(name)
                scopes.append(inner)
                stack.append((node, inner, tuple(fresh)))
                stack.append((node.body, inner, None))
                for predicate in reversed(node.context):
                    for argument in reversed(predicate.args):
                        stack.append((argument, inner, None))
            elif kind is UVar:
                results.append((node, False))
            else:
                raise TypeError(f"unknown type node: {node!r}")
        elif kind is TCon:
            count = len(node.args)
            children = results[-count:]
            del results[-count:]
            has_forall = False
            changed = False
            for (new, quantified), old in zip(children, node.args):
                has_forall = has_forall or quantified
                changed = changed or new is not old
            if changed:
                built: Type = TCon(node.name, tuple(new for new, _ in children))
            else:
                built = node
            if not has_forall:
                memo[(id(node), id(scope))] = built
            results.append((built, has_forall))
        else:  # Forall: the context arguments, then the body
            body = results.pop()[0]
            changed = binders != node.binders or body is not node.body
            context = node.context
            count = sum(len(predicate.args) for predicate in context)
            if count:
                flat = [new for new, _ in results[-count:]]
                del results[-count:]
                renamed: list[Pred] = []
                for predicate in context:
                    width = len(predicate.args)
                    args, flat = tuple(flat[:width]), flat[width:]
                    if any(a is not b for a, b in zip(args, predicate.args)):
                        predicate = Pred(predicate.class_name, args)
                        changed = True
                    renamed.append(predicate)
                context = tuple(renamed)
            built = Forall(binders, body, context) if changed else node
            results.append((built, True))
    return results[0][0]


def type_size(type_: Type) -> int:
    """Number of AST nodes; used by benchmarks and fuzzers."""
    if isinstance(type_, (TVar, UVar)):
        return 1
    if isinstance(type_, TCon):
        return 1 + sum(type_size(argument) for argument in type_.args)
    if isinstance(type_, Forall):
        extra = sum(
            type_size(argument)
            for predicate in type_.context
            for argument in predicate.args
        )
        return 1 + extra + type_size(type_.body)
    raise TypeError(f"unknown type node: {type_!r}")


def mentions_forall(type_: Type) -> bool:
    """Whether a quantifier occurs anywhere in the type (iterative)."""
    stack: list[Type] = [type_]
    while stack:
        node = stack.pop()
        if isinstance(node, Forall):
            return True
        if isinstance(node, TCon):
            stack.extend(node.args)
    return False


def contains_uvar(type_: Type, variable: UVar) -> bool:
    """Occurs check helper (iterative — deep types must not overflow)."""
    stack: list[Type] = [type_]
    while stack:
        node = stack.pop()
        if isinstance(node, UVar):
            if node == variable:
                return True
        elif isinstance(node, TCon):
            stack.extend(node.args)
        elif isinstance(node, Forall):
            stack.append(node.body)
            for predicate in node.context:
                stack.extend(predicate.args)
    return False


def walk(type_: Type) -> Iterator[Type]:
    """Pre-order traversal of all type nodes."""
    yield type_
    if isinstance(type_, TCon):
        for argument in type_.args:
            yield from walk(argument)
    elif isinstance(type_, Forall):
        yield from walk(type_.body)


def map_uvars(function: Callable[[UVar], Type], type_: Type) -> Type:
    """Rebuild the type, replacing every unification variable via ``function``."""
    return _rebuild_uvars(function, type_)


def render_type(type_: Type, precedence: int = 0) -> str:
    """A small built-in renderer (the full pretty printer lives in
    ``repro.syntax.pretty``; this one keeps ``__str__`` dependency-free)."""
    if isinstance(type_, TVar):
        return type_.name
    if isinstance(type_, UVar):
        return f"{type_.name}^{type_.sort.symbol}"
    if isinstance(type_, Forall):
        body = render_type(type_.body, 0)
        context = ""
        if type_.context:
            preds = ", ".join(str(predicate) for predicate in type_.context)
            wrapped = f"({preds})" if len(type_.context) > 1 else preds
            context = f"{wrapped} => "
        quantifier = f"forall {' '.join(type_.binders)}. " if type_.binders else ""
        rendered = f"{quantifier}{context}{body}"
        return f"({rendered})" if precedence > 0 else rendered
    if isinstance(type_, TCon):
        if type_.name == ARROW and len(type_.args) == 2:
            # Flatten the right spine so an n-ary function type costs n
            # stack frames fewer — ``a -> (b -> c)`` renders as one run.
            parts: list[str] = []
            node: Type = type_
            while isinstance(node, TCon) and node.name == ARROW and len(node.args) == 2:
                parts.append(render_type(node.args[0], 2))
                node = node.args[1]
            parts.append(render_type(node, 1))
            rendered = " -> ".join(parts)
            return f"({rendered})" if precedence > 1 else rendered
        if type_.name == LIST_CON and len(type_.args) == 1:
            return f"[{render_type(type_.args[0], 0)}]"
        if type_.name.startswith("(,") or type_.name == "(,)":
            inner = ", ".join(render_type(argument, 0) for argument in type_.args)
            return f"({inner})"
        if not type_.args:
            return type_.name
        pieces = [type_.name] + [render_type(argument, 3) for argument in type_.args]
        rendered = " ".join(pieces)
        return f"({rendered})" if precedence > 2 else rendered
    raise TypeError(f"unknown type node: {type_!r}")


def free_uvar_names(types: Iterable[Type]) -> set[str]:
    """Names of unification variables free in any of the given types."""
    result: set[str] = set()
    for type_ in types:
        result |= {variable.name for variable in fuv(type_)}
    return result
