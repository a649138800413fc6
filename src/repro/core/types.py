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
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import is_not
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


def _forall_children(node: Forall) -> Iterator[Type]:
    """The context arguments, then the body, of a ``Forall`` — a plain
    iterator, which is cheaper than a generator on the hot walks."""
    if not node.context:
        return iter((node.body,))
    children = [argument for predicate in node.context for argument in predicate.args]
    children.append(node.body)
    return iter(children)


def _hash_type(root: Type) -> int:
    """Compute (and cache) the structural hash of ``root`` iteratively."""
    stack = [root]
    while stack:
        node = stack[-1]
        if "_hash" in node.__dict__ or not isinstance(node, (TCon, Forall)):
            stack.pop()
            continue
        children = node.args if isinstance(node, TCon) else _forall_children(node)
        pending = [
            child
            for child in children
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

    The result remembers its free variables, so :func:`ftv` — and with
    it a ``forall`` over a body containing this one — never walks it
    again: quantifiers nested under constructors cost linear work.
    """
    context = tuple(context)
    if isinstance(body, Forall):
        binders = tuple(binders) + body.binders
        context = context + body.context
        body = body.body
    free = ftv(Forall((), body, context) if context else body)
    kept = tuple(dict.fromkeys(name for name in binders if name in free))
    if not kept and not context:
        return body
    result = Forall(kept, body, context)
    bound = set(kept)
    object.__setattr__(result, "_ftv", tuple(name for name in free if name not in bound))
    return result


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
                    summary = node.__dict__.get("_ftv")  # set by :func:`forall`
                    if summary is not None:
                        found.update((name, None) for name in summary if name not in bound)
                        continue
                    inner = bound | frozenset(node.binders) if node.binders else bound
                    stack.append((_forall_children(node), inner))
                    break
        else:
            stack.pop()
    return result


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


# A scope maps what a walk replaces (a ``TVar`` by name, a ``UVar`` by
# itself) to its image.  At each ``Forall`` the walk's one hook returns the
# node's new binders and the scope under them, or ``None`` to keep the node.
Scope = Mapping[object, Type]
Opened = tuple[tuple[str, ...], Scope] | None
OpenForall = Callable[[Forall, Scope], Opened]


def _rebuild(type_: Type, scope: Scope, open_forall: OpenForall) -> Type:
    """The substitution walk behind :func:`subst_tvars`, :func:`subst_uvars`
    and :func:`rename_canonical`, which differ only in ``open_forall``.

    The walk is iterative, with one children iterator per open node (as in
    :func:`ftv`).  A node whose children come back unchanged is returned as
    is, and a quantifier-free composite subtree is rebuilt once per scope
    it occurs in, so DAG sharing survives.  A subtree with a quantifier is
    rebuilt at every occurrence: the hook may draw fresh names each time.
    """
    # Frames: [node (None above a leaf or ``Forall`` root), scope, memo
    # (id(node) -> result under that scope), children, rebuilt, quantified, binders].
    if type_.__class__ is TCon:
        stack: list[list] = [[type_, scope, {}, iter(type_.args), [], False, None]]
    else:
        stack = [[None, scope, {}, iter((type_,)), [], False, None]]
    while True:
        frame = stack[-1]
        scope = frame[1]
        memo = frame[2]
        built = frame[4]
        for node in frame[3]:
            kind = node.__class__
            if kind is TVar:
                built.append(scope.get(node.name, node))
            elif kind is TCon:
                if not node.args:
                    built.append(node)
                    continue
                cached = memo.get(id(node))
                if cached is not None:
                    built.append(cached)
                    continue
                stack.append([node, scope, memo, iter(node.args), [], False, None])
                break
            elif kind is Forall:
                frame[5] = True
                opened = open_forall(node, scope)
                if opened is None:
                    built.append(node)
                    continue
                binders, inner = opened
                inner_memo = memo if inner is scope else {}
                children = _forall_children(node)
                stack.append([node, inner, inner_memo, children, [], True, binders])
                break
            elif kind is UVar:
                built.append(scope.get(node, node))
            else:
                raise TypeError(f"unknown type node: {node!r}")
        else:
            stack.pop()
            node = frame[0]
            if node is None:
                return built[0]
            if node.__class__ is TCon:
                changed = any(map(is_not, built, node.args))
                result: Type = TCon(node.name, tuple(built)) if changed else node
                if not frame[5]:
                    memo[id(node)] = result
            else:  # Forall: the context arguments, then the body
                body = built.pop()
                flat = iter(built)
                context = tuple(
                    Pred(predicate.class_name, tuple(islice(flat, len(predicate.args))))
                    for predicate in node.context
                )
                same = body is node.body and context == node.context
                if same and frame[6] == node.binders:
                    result = node
                else:
                    result = Forall(frame[6], body, context)
            if not stack:
                return result
            parent = stack[-1]
            parent[4].append(result)
            parent[5] = parent[5] or frame[5]


def subst_tvars(mapping: Mapping[str, Type], type_: Type) -> Type:
    """Capture-avoiding, simultaneous substitution of skolem variables
    ``[ā ↦ σ̄]``.

    Under a ``Forall`` the names it binds drop out of the mapping, and a
    binder free in one of the remaining images is renamed apart.
    """
    if not mapping:
        return type_
    kind = type_.__class__
    if kind is TVar:
        return mapping.get(type_.name, type_)
    if kind is UVar:
        return type_
    return _rebuild(type_, mapping, _open_avoiding_capture)


def _open_avoiding_capture(node: Forall, scope: Scope) -> Opened:
    binders = node.binders
    if not binders:  # shadows and captures nothing
        return binders, scope
    inner = {name: image for name, image in scope.items() if name not in binders}
    if not inner:
        return None
    image_ftvs: set[str] = set()
    for image in inner.values():
        image_ftvs |= ftv(image)
    if not any(name in image_ftvs for name in binders):
        return binders, inner
    avoid = image_ftvs | ftv(node) | set(binders)
    renamed = list(binders)
    for index, name in enumerate(binders):
        if name in image_ftvs:
            fresh_name = _fresh_tvar_name(name, avoid)
            avoid.add(fresh_name)
            inner[name] = TVar(fresh_name)
            renamed[index] = fresh_name
    return tuple(renamed), inner


def _fresh_tvar_name(base: str, avoid: set[str]) -> str:
    base = base.rstrip("0123456789")
    index = 1
    while f"{base}{index}" in avoid:
        index += 1
    return f"{base}{index}"


def subst_uvars(mapping: Mapping[UVar, Type], type_: Type) -> Type:
    """Substitution of unification variables (zonking one step); binders
    are kept as they are."""
    if not mapping:
        return type_
    return _rebuild(type_, mapping, lambda node, scope: (node.binders, scope))


def open_forall(type_: Type, images: Sequence[Type]) -> tuple[tuple[Pred, ...], Type]:
    """Open ``∀ā. Q ⇒ µ`` at ``images`` (one per binder): ``(Q, µ)`` with
    ``ā ↦ images`` substituted in both, in one walk.  A type without a
    quantifier opens to ``((), type_)``."""
    if not isinstance(type_, Forall):
        return (), type_
    mapping = dict(zip(type_.binders, images))
    if not type_.context:
        return (), subst_tvars(mapping, type_.body)
    opened = subst_tvars(mapping, Forall((), type_.body, type_.context))
    return opened.context, opened.body  # type: ignore[attr-defined]


def respects(type_: Type, sort: Sort) -> bool:
    """Whether a type respects a sort (Figure 4, top-left judgement).

    * every type respects ``U``;
    * a type respects ``T`` when it has no top-level quantifier and is not
      an unrestricted unification variable;
    * a type respects ``M`` when it contains no quantifier anywhere and all
      its unification variables have sort ``M``.

    The ``M`` walk visits a constructor application shared in a DAG once.
    """
    if sort is Sort.U:
        return True
    kind = type_.__class__
    if kind is UVar:
        return type_.sort <= sort
    if kind is Forall:
        return False
    if kind is TVar:
        return True
    if kind is not TCon:
        raise TypeError(f"unknown type node: {type_!r}")
    if sort is not Sort.M:  # sort T looks at the top node only
        return True
    # The root is never reached again, so a type whose arguments are
    # leaves touches no visited set.
    seen: set[int] = set()
    stack = list(type_.args)
    while stack:
        node = stack.pop()
        kind = node.__class__
        if kind is TCon:
            if node.args and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.args)
        elif kind is UVar:
            if node.sort is not Sort.M:
                return False
        elif kind is Forall:
            return False
        elif kind is not TVar:
            raise TypeError(f"unknown type node: {node!r}")
    return True


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

    def draw(node: Forall, scope: Scope) -> tuple[tuple[str, ...], Scope]:
        inner = dict(scope)
        fresh = []
        for binder in node.binders:
            name = next(candidate for candidate in supply if candidate not in used)
            used.add(name)
            fresh.append(name)
            if name == binder:
                inner.pop(binder, None)
            else:
                inner[binder] = TVar(name)
        return tuple(fresh), inner

    return _rebuild(type_, {}, draw)


def type_size(type_: Type) -> int:
    """Number of AST nodes; used by benchmarks and fuzzers."""
    size = 0
    stack = [type_]
    while stack:
        node = stack.pop()
        size += 1
        if isinstance(node, TCon):
            stack.extend(node.args)
        elif isinstance(node, Forall):
            stack.extend(_forall_children(node))
    return size


def mentions_forall(type_: Type) -> bool:
    """Whether a quantifier occurs anywhere in the type (iterative; a
    constructor application shared in a DAG is visited once)."""
    if type_.__class__ is not TCon:
        return type_.__class__ is Forall
    seen: set[int] = set()
    stack: list[Type] = list(type_.args)
    while stack:
        node = stack.pop()
        kind = node.__class__
        if kind is Forall:
            return True
        if kind is TCon and node.args and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.args)
    return False


def contains_uvar(type_: Type, variable: UVar) -> bool:
    """Occurs check helper (iterative — deep types must not overflow; a
    composite node shared in a DAG is visited once)."""
    kind = type_.__class__
    if kind is TCon:
        stack: list[Type] = list(type_.args)
    elif kind is Forall:
        stack = list(_forall_children(type_))
    else:
        return type_ == variable
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        kind = node.__class__
        if kind is UVar:
            if node == variable:
                return True
        elif kind is TCon:
            if node.args and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.args)
        elif kind is Forall and id(node) not in seen:
            seen.add(id(node))
            stack.extend(_forall_children(node))
    return False


# A constructor application's form: the precedence above which it is
# parenthesised, the text before each argument, each argument's
# precedence, and the text after the last argument.
_ARROW_FORM = (1, ("", " -> "), (2, 1), "")
_LIST_FORM = (3, ("[",), (0,), "]")


def _form(node: TCon) -> tuple[int, Iterable[str], Iterable[int], str]:
    """The form of a constructor application with arguments; reads only
    the number of arguments."""
    name = node.name
    arity = len(node.args)
    if name == ARROW and arity == 2:
        return _ARROW_FORM
    if name == LIST_CON and arity == 1:
        return _LIST_FORM
    if name.startswith("(,"):
        return 3, chain(("(",), repeat(", ")), repeat(0), ")"
    return 2, chain((name + " ",), repeat(" ")), repeat(3), ""


def _forall_layout(node: Forall) -> Iterator[tuple[str, Type, int]]:
    """``forall ā. (Q) => µ`` as (text before, child, precedence) for the
    context arguments, then the body."""
    text = f"forall {' '.join(node.binders)}. " if node.binders else ""
    if not node.context:
        return zip((text,), (node.body,), (0,))
    several = len(node.context) > 1
    if several:
        text += "("
    layout: list[tuple[str, Type, int]] = []
    for index, predicate in enumerate(node.context):
        text += f"{', ' if index else ''}{predicate.class_name} "
        for position, argument in enumerate(predicate.args):
            layout.append((" " + text if position else text, argument, 3))
            text = ""
    layout.append((text + (") => " if several else " => "), node.body, 0))
    return iter(layout)


def render_type(type_: Type, precedence: int = 0) -> str:
    """A small built-in renderer (the full pretty printer lives in
    ``repro.syntax.pretty``; this one keeps ``__str__`` dependency-free).

    ``precedence`` is the context: 0 anywhere, 1 right of an arrow, 2 left
    of an arrow, 3 a constructor argument; a ``∀`` is parenthesised above
    0, an arrow above 1, any other application with arguments above 2.
    The walk is iterative, with one children iterator per open node (as in
    :func:`ftv`), and writes the output as a list of pieces.  A composite
    node shared in a DAG is walked once per call: rendering renames no
    binder, so its text is the same at every occurrence, and later
    occurrences copy it.
    """
    kind = type_.__class__
    if kind is TVar:
        return type_.name
    if kind is UVar:
        return f"{type_.name}^{type_.sort.symbol}"
    if kind is TCon and not type_.args:
        return "()" if type_.name.startswith("(,") else type_.name
    pieces: list[str] = []
    # id(node) -> where its text (without parentheses) is in ``pieces``,
    # or the text itself once a second occurrence has joined it.
    done: dict[int, tuple[int, int] | str] = {}
    # Open nodes: (node, children, first piece, text after the children, ")" or "").
    stack: list[tuple[Type, Iterator[tuple[str, Type, int]], int, str, str]] = []
    node = type_
    while True:
        # Open ``node``: a composite at ``precedence``, not rendered before.
        if node.__class__ is TCon:
            above, texts, precedences, after = _form(node)
            children = zip(texts, node.args, precedences)
        else:
            above, children, after = 0, _forall_layout(node), ""
        close = ")" if precedence > above else ""
        if close:
            pieces.append("(")
        stack.append((node, children, len(pieces), after, close))
        while stack:
            frame = stack[-1]
            for text, node, precedence in frame[1]:
                if text:
                    pieces.append(text)
                kind = node.__class__
                if kind is TVar:
                    pieces.append(node.name)
                elif kind is UVar:
                    pieces.append(f"{node.name}^{node.sort.symbol}")
                elif kind is TCon and not node.args:
                    pieces.append("()" if node.name.startswith("(,") else node.name)
                elif kind is not TCon and kind is not Forall:
                    raise TypeError(f"unknown type node: {node!r}")
                else:
                    known = done.get(id(node))
                    if known is None:
                        break  # open it
                    if known.__class__ is tuple:
                        known = done[id(node)] = "".join(pieces[known[0] : known[1]])
                    above = 0 if kind is Forall else _form(node)[0]
                    pieces.append(f"({known})" if precedence > above else known)
            else:
                stack.pop()
                if frame[3]:
                    pieces.append(frame[3])
                done[id(frame[0])] = (frame[2], len(pieces))
                if frame[4]:
                    pieces.append(frame[4])
                continue
            break
        else:
            return "".join(pieces)
