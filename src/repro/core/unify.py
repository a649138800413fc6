"""Sort- and level-aware unification (the equality rules of Figure 8).

This module implements the equality fragment of the solver:

* **eqrefl / eqmono** — structural decomposition; two quantified types
  must be equal modulo α-renaming of their binders (quantifier order
  matters, Section 2.4), though unification variables occurring *inside*
  matched bodies may still be solved.
* **eqsubst** — binding a variable applies everywhere.  The substitution
  is a *union-find store*: variable-to-variable bindings are parent
  pointers (union by rank, iterative find with path compression) and
  each representative carries at most one non-variable binding, so
  resolving a variable is amortised near-constant instead of walking a
  dict chain.
* **eqvar** — when two variables of different sorts meet, the less
  restrictive one is bound to the more restrictive one.
* **eqfully** — equating a type with a fully monomorphic variable demotes
  every unification variable in the type to sort ``m``.

Floating with promotion (rule float of Figure 10) is realised with
*levels*: every unification variable and skolem records the depth of the
quantification scope it belongs to.  Binding an outer variable to a type
that mentions deeper unification variables *promotes* those variables
(binds them to fresh outer ones); mentioning a deeper skolem is a skolem
escape, reported as such.

Both :meth:`Unifier.unify` and :meth:`Unifier.zonk` run on explicit
worklists — a deep type exhausts the budget (or fails honestly), never
the interpreter stack — and the unifier memoises free-variable queries
per hash-consed type node, so occurs checks, promotion sweeps and
zonk-cleanliness tests cost one cache lookup on repeated types.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.errors import (
    OccursCheckError,
    SkolemEscapeError,
    SortError,
    UnificationError,
)
from repro.core.names import NameSupply
from repro.core.sorts import Sort
from repro.core.types import (
    Forall,
    InternTable,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    ftv,
    fuv,
    mentions_forall,
    subst_tvars,
    subst_uvars,
)

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.observability.tracer import TracerLike
    from repro.robustness.budget import Budget
    from repro.robustness.faultinject import FaultPlan

TVarResolver = Callable[[str], Type | None]


class _PruneSkolems:
    """Worklist sentinel: discard the skolems a ``∀``/``∀`` equation
    introduced once its sub-equations are solved (or the call fails), so
    ``skolem_levels`` does not grow monotonically on long-lived unifiers."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names


class SubstitutionView:
    """Mapping-like facade over the union-find store.

    Kept for backward compatibility with the old ``subst`` dict: ``len``,
    truthiness, membership, lookup of a variable's immediate image, and
    item assignment (which routes through :meth:`Unifier.assign` so
    wake-up callbacks still fire).
    """

    __slots__ = ("_unifier",)

    def __init__(self, unifier: "Unifier") -> None:
        self._unifier = unifier

    def __len__(self) -> int:
        unifier = self._unifier
        return len(unifier._parent) + len(unifier._binding)

    def __bool__(self) -> bool:
        unifier = self._unifier
        return bool(unifier._parent) or bool(unifier._binding)

    def __contains__(self, variable: object) -> bool:
        unifier = self._unifier
        return variable in unifier._parent or variable in unifier._binding

    def __iter__(self) -> Iterator[UVar]:
        unifier = self._unifier
        yield from unifier._parent
        yield from unifier._binding

    def get(self, variable: UVar, default: Type | None = None) -> Type | None:
        unifier = self._unifier
        parent = unifier._parent.get(variable)
        if parent is not None:
            return parent
        bound = unifier._binding.get(variable)
        return bound if bound is not None else default

    def __getitem__(self, variable: UVar) -> Type:
        image = self.get(variable)
        if image is None:
            raise KeyError(variable)
        return image

    def __setitem__(self, variable: UVar, image: Type) -> None:
        self._unifier.assign(variable, image)

    def items(self) -> Iterator[tuple[UVar, Type]]:
        for variable in self:
            yield variable, self[variable]


class Unifier:
    """Mutable unification state: union-find substitution, fresh supply,
    skolem levels.

    ``budget`` bounds the structural depth of :meth:`unify` (and enforces
    the run's wall-clock deadline); ``faults`` is the deterministic
    fault-injection hook; ``tracer`` records variable bindings as trace
    events.  All three are optional and cost one attribute check per
    worklist frame (binding) when absent or disabled.  ``on_bind`` is the
    solver's wake-up hook: it is invoked with every variable that gets
    bound or united away, after the store is updated.
    """

    def __init__(
        self,
        supply: NameSupply | None = None,
        budget: "Budget | None" = None,
        faults: "FaultPlan | None" = None,
        tracer: "TracerLike | None" = None,
        intern: InternTable | None = None,
    ) -> None:
        self.supply = supply or NameSupply("v")
        self._parent: dict[UVar, UVar] = {}
        """Union-find parent pointers for variables united into another."""
        self._rank: dict[UVar, int] = {}
        """Union-by-rank bookkeeping (absent entries have rank 0)."""
        self._binding: dict[UVar, Type] = {}
        """Representative → bound (non-variable) type."""
        self.skolem_levels: dict[str, int] = {}
        self.bindings = 0
        self.budget = budget
        self.faults = faults
        self.tracer = tracer
        self.depth = 0
        """Current structural depth of :meth:`unify` (0 when idle)."""
        self.on_bind: Callable[[UVar], None] | None = None
        """Solver wake-up callback, fired after any variable is solved."""
        self._fuv_cache: dict[Type, tuple[UVar, ...]] = {}
        self._ftv_cache: dict[Type, tuple[str, ...]] = {}
        self._intern = intern if intern is not None else InternTable()
        self.subst = SubstitutionView(self)

    # -- fresh variables and skolems -----------------------------------

    def fresh(self, sort: Sort, level: int) -> UVar:
        return UVar(self.supply.fresh(), sort, level)

    def fresh_skolem(self, hint: str, level: int) -> str:
        name = self.supply.fresh(hint + "_")
        self.skolem_levels[name] = level
        return name

    def skolem_level(self, name: str) -> int:
        """Level of a skolem; unknown names are ambient (level 0)."""
        return self.skolem_levels.get(name, 0)

    def prune_skolems(self, names: Iterable[str]) -> None:
        """Forget skolems whose scope is closed (see :class:`_PruneSkolems`)."""
        for name in names:
            self.skolem_levels.pop(name, None)

    # -- memoized free-variable queries ---------------------------------

    def fuv_of(self, type_: Type) -> tuple[UVar, ...]:
        """Free unification variables, first-occurrence order, memoized."""
        if isinstance(type_, UVar):
            return (type_,)
        if isinstance(type_, TVar):
            return ()
        cached = self._fuv_cache.get(type_)
        if cached is None:
            cached = tuple(fuv(type_))
            self._fuv_cache[type_] = cached
        return cached

    def ftv_of(self, type_: Type) -> tuple[str, ...]:
        """Free rigid variables, first-occurrence order, memoized."""
        if isinstance(type_, TVar):
            return (type_.name,)
        if isinstance(type_, UVar):
            return ()
        cached = self._ftv_cache.get(type_)
        if cached is None:
            cached = tuple(ftv(type_))
            self._ftv_cache[type_] = cached
        return cached

    # -- substitution ---------------------------------------------------

    def _find(self, variable: UVar) -> UVar:
        """Representative of ``variable``, compressing the path walked."""
        parent = self._parent
        step = parent.get(variable)
        if step is None:
            return variable
        root = step
        while True:
            step = parent.get(root)
            if step is None:
                break
            root = step
        current = variable
        while True:
            step = parent[current]
            if step == root:
                break
            parent[current] = root
            current = step
        return root

    def _is_clean(self, type_: Type) -> bool:
        """Whether the substitution has nothing to say about ``type_``."""
        parent = self._parent
        binding = self._binding
        for variable in self.fuv_of(type_):
            if variable in parent or variable in binding:
                return False
        return True

    def zonk(self, type_: Type) -> Type:
        """Fully apply the current substitution to a type."""
        if isinstance(type_, UVar):
            root = self._find(type_)
            bound = self._binding.get(root)
            if bound is None:
                return root
            if self._is_clean(bound):
                return bound
            expanded = self._zonk_rebuild(bound)
            # Memoise the expansion so repeated zonks are cheap.
            self._binding[root] = expanded
            return expanded
        if isinstance(type_, TVar):
            return type_
        if self._is_clean(type_):
            return type_
        return self._zonk_rebuild(type_)

    def _zonk_rebuild(self, type_: Type) -> Type:
        """Iterative zonking rebuild with expansion memoisation.

        Frames: ``("visit", node)`` dispatches on a node, ``("build",
        node)`` reassembles a composite from its children's results, and
        ``("memo", root)`` writes a representative's expansion back into
        the store so the work is never repeated.
        """
        intern = self._intern.intern
        binding = self._binding
        results: list[Type] = []
        stack: list[tuple[str, Type]] = [("visit", type_)]
        while stack:
            tag, node = stack.pop()
            if tag == "visit":
                if isinstance(node, UVar):
                    root = self._find(node)
                    bound = binding.get(root)
                    if bound is None:
                        results.append(root)
                    elif self._is_clean(bound):
                        results.append(bound)
                    else:
                        stack.append(("memo", root))
                        stack.append(("visit", bound))
                elif isinstance(node, TVar):
                    results.append(node)
                elif isinstance(node, TCon):
                    stack.append(("build", node))
                    for argument in reversed(node.args):
                        stack.append(("visit", argument))
                elif isinstance(node, Forall):
                    stack.append(("build", node))
                    stack.append(("visit", node.body))
                    for predicate in reversed(node.context):
                        for argument in reversed(predicate.args):
                            stack.append(("visit", argument))
                else:
                    raise TypeError(f"unknown type node: {node!r}")
            elif tag == "build":
                if isinstance(node, TCon):
                    count = len(node.args)
                    if count:
                        args = tuple(results[-count:])
                        del results[-count:]
                        if all(a is b for a, b in zip(args, node.args)):
                            results.append(node)
                        else:
                            results.append(intern(TCon(node.name, args)))
                    else:
                        results.append(node)
                else:  # Forall
                    body = results.pop()
                    count = sum(len(p.args) for p in node.context)
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
                        results.append(
                            intern(Forall(node.binders, body, tuple(context)))
                        )
                    else:
                        results.append(node)
            else:  # memo
                expansion = results[-1]
                binding[node] = expansion
        return results[0]

    def zonk_head(self, type_: Type) -> Type:
        """Resolve only a top-level variable (one find + one lookup —
        bound representatives never point at another variable)."""
        if not isinstance(type_, UVar):
            return type_
        root = self._find(type_)
        bound = self._binding.get(root)
        return root if bound is None else bound

    # -- unification ----------------------------------------------------

    def unify(
        self,
        left: Type,
        right: Type,
        level: int = 0,
        resolver: TVarResolver | None = None,
    ) -> None:
        """Make ``left`` and ``right`` equal or raise a type error.

        ``level`` is the current scope depth (used when opening quantified
        types); ``resolver`` optionally rewrites rigid variables using
        local given equalities (the GADT extension of Appendix B).

        The traversal is an explicit depth-first worklist: each frame
        carries its structural depth, so budget and fault-injection hooks
        observe exactly the depths the old recursive engine reported.
        """
        base = self.depth
        budget = self.budget
        faults = self.faults
        stack: list = [(left, right, level, base + 1)]
        try:
            while stack:
                frame = stack.pop()
                if frame.__class__ is _PruneSkolems:
                    self.prune_skolems(frame.names)
                    continue
                l, r, lvl, depth = frame
                self.depth = depth
                if budget is not None:
                    budget.check_unify_depth(depth, l, r)
                if faults is not None:
                    faults.unify_depth(depth)
                if (
                    depth == 1
                    and self.tracer is not None
                    and self.tracer.enabled
                ):
                    self.tracer.inc("unify.calls")
                # Head resolution and shallow comparisons only:
                # decomposition re-resolves each child at its own frame,
                # so fully zonking — or deep-comparing — here would walk
                # every subtree once per ancestor (quadratic on deep
                # spines).  ``bind`` zonks its image itself, and equal
                # composites fall through to decomposition, which
                # discharges them in one frame per node.
                l = self.zonk_head(l)
                r = self.zonk_head(r)
                if l is r:
                    continue
                if isinstance(l, UVar):
                    self.bind(l, r, resolver)
                    continue
                if isinstance(r, UVar):
                    self.bind(r, l, resolver)
                    continue
                if isinstance(l, TVar) and isinstance(r, TVar):
                    if l.name == r.name:
                        continue
                if isinstance(l, TVar) or isinstance(r, TVar):
                    # Rigid variables match only themselves, modulo local
                    # givens; a rewrite continues one level deeper.
                    if resolver is not None:
                        if isinstance(l, TVar):
                            rewritten = resolver(l.name)
                            if rewritten is not None:
                                stack.append((rewritten, r, lvl, depth + 1))
                                continue
                        if isinstance(r, TVar):
                            rewritten = resolver(r.name)
                            if rewritten is not None:
                                stack.append((l, rewritten, lvl, depth + 1))
                                continue
                    raise UnificationError(l, r, "rigid type variable")
                if isinstance(l, TCon) and isinstance(r, TCon):
                    if l.name != r.name or len(l.args) != len(r.args):
                        raise UnificationError(l, r, "different type constructors")
                    for la, ra in zip(reversed(l.args), reversed(r.args)):
                        stack.append((la, ra, lvl, depth + 1))
                    continue
                if isinstance(l, Forall) and isinstance(r, Forall):
                    self._push_forall(stack, l, r, lvl, depth)
                    continue
                if isinstance(l, Forall) or isinstance(r, Forall):
                    raise UnificationError(
                        l,
                        r,
                        "a polymorphic type can only equal another polymorphic type; "
                        "all constructors in GI are invariant",
                    )
                raise UnificationError(l, r)
        except BaseException:
            # The call failed: none of the pending forall scopes will be
            # closed by the loop, so drop their skolems here.
            for frame in stack:
                if frame.__class__ is _PruneSkolems:
                    self.prune_skolems(frame.names)
            raise
        finally:
            self.depth = base

    def _push_forall(
        self, stack: list, left: Forall, right: Forall, level: int, depth: int
    ) -> None:
        """Equate two quantified types (eqrefl modulo α).

        Binders are matched positionally — quantifier order is significant
        — by renaming both bodies to shared fresh skolems one level deeper
        than the current scope, so that any attempt to leak a bound
        variable into an outer unification variable fails the escape
        check.  A sentinel frame below the sub-equations prunes the
        skolems again once they are solved.
        """
        if len(left.binders) != len(right.binders):
            raise UnificationError(left, right, "different numbers of quantifiers")
        if len(left.context) != len(right.context):
            raise UnificationError(left, right, "different class contexts")
        inner = level + 1
        shared = [self.fresh_skolem(name, inner) for name in left.binders]
        left_map = {name: TVar(skolem) for name, skolem in zip(left.binders, shared)}
        right_map = {name: TVar(skolem) for name, skolem in zip(right.binders, shared)}
        pairs: list[tuple[Type, Type]] = []
        try:
            for left_pred, right_pred in zip(left.context, right.context):
                if left_pred.class_name != right_pred.class_name or len(
                    left_pred.args
                ) != len(right_pred.args):
                    raise UnificationError(left, right, "different class contexts")
                for left_argument, right_argument in zip(
                    left_pred.args, right_pred.args
                ):
                    pairs.append(
                        (
                            subst_tvars(left_map, left_argument),
                            subst_tvars(right_map, right_argument),
                        )
                    )
            pairs.append(
                (
                    subst_tvars(left_map, left.body),
                    subst_tvars(right_map, right.body),
                )
            )
        except BaseException:
            self.prune_skolems(shared)
            raise
        stack.append(_PruneSkolems(tuple(shared)))
        for pair_left, pair_right in reversed(pairs):
            stack.append((pair_left, pair_right, inner, depth + 1))

    # -- variable binding -----------------------------------------------

    def bind(self, variable: UVar, type_: Type, resolver: TVarResolver | None = None) -> None:
        """Bind a unification variable, enforcing sorts and levels."""
        root = self._find(variable)
        type_ = self.zonk(type_)
        if type_ == root:
            return
        if isinstance(type_, UVar):
            self._bind_var_var(root, type_)
            return
        if root in self.fuv_of(type_):
            raise OccursCheckError(root, type_)
        type_ = self._enforce_sort(root, type_)
        type_ = self._promote(root, type_)
        self._check_skolems(root, type_)
        self._binding[root] = type_
        self.bindings += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.inc("unify.binds")
            self.tracer.event(
                "unify.bind",
                var=str(root),
                type=str(type_),
                sort=root.sort.symbol,
                level=root.level,
            )
        self._notify(root)

    def assign(self, variable: UVar, image: Type) -> None:
        """Record ``variable := image`` *without* the sort/level/occurs
        checks of :meth:`bind` — the solver's defaulting, refreshing and
        generalisation steps construct images that are correct by
        construction.  Still counts as a binding and fires ``on_bind``.
        """
        root = self._find(variable)
        if isinstance(image, UVar):
            target = self._find(image)
            if target == root:
                return
            self._union(root, target)
            return
        self._binding[root] = image
        self.bindings += 1
        self._notify(root)

    def _union(self, eliminated: UVar, kept: UVar) -> None:
        """Point ``eliminated`` at ``kept``; rank stays a height bound."""
        self._parent[eliminated] = kept
        rank = self._rank
        kept_rank = rank.get(kept, 0)
        eliminated_rank = rank.get(eliminated, 0)
        if kept_rank <= eliminated_rank:
            rank[kept] = eliminated_rank + 1
        self.bindings += 1
        self._notify(eliminated)

    def _notify(self, variable: UVar) -> None:
        callback = self.on_bind
        if callback is not None:
            callback(variable)

    def _bind_var_var(self, left: UVar, right: UVar) -> None:
        """Rule eqvar: the less restrictive variable is substituted away;
        among equal sorts, the deeper one (to avoid needless promotion).
        On a full sort-and-level tie the choice is semantically free, so
        union by rank keeps the find trees shallow."""
        if left.sort < right.sort:
            left, right = right, left
        elif left.sort == right.sort and left.level < right.level:
            left, right = right, left
        # ``left`` is now the variable to eliminate.
        if right.level > left.level:
            # Equal sorts cannot reach here (ordering above); a more
            # restrictive but deeper variable must be promoted first.
            promoted = self.fresh(right.sort, left.level)
            self._union(right, promoted)
            right = promoted
        if left.sort is right.sort and left.level == right.level:
            if self._rank.get(right, 0) < self._rank.get(left, 0):
                left, right = right, left
        self._union(left, right)

    def _enforce_sort(self, variable: UVar, type_: Type) -> Type:
        """Rules eqvar/eqfully: make the type respect the variable's sort."""
        if variable.sort is Sort.U:
            return type_
        if isinstance(type_, Forall):
            raise SortError(variable, type_, variable.sort)
        if variable.sort is Sort.T:
            return type_
        # Sort.M — demote every unification variable in the type (eqfully)
        # and reject any quantifier hiding under a constructor.
        if mentions_forall(type_):
            raise SortError(variable, type_, Sort.M)
        mapping: dict[UVar, Type] = {}
        for inner in self.fuv_of(type_):
            if inner.sort is not Sort.M:
                demoted = self.fresh(Sort.M, inner.level)
                self._union(inner, demoted)
                mapping[inner] = demoted
        return subst_uvars(mapping, type_) if mapping else type_

    def _promote(self, variable: UVar, type_: Type) -> Type:
        """Rule float: deeper unification variables in the image of an
        outer variable are replaced by fresh outer ones."""
        mapping: dict[UVar, Type] = {}
        for inner in self.fuv_of(type_):
            if inner.level > variable.level:
                promoted = self.fresh(inner.sort, variable.level)
                self._union(inner, promoted)
                mapping[inner] = promoted
        return subst_uvars(mapping, type_) if mapping else type_

    def _check_skolems(self, variable: UVar, type_: Type) -> None:
        for name in self.ftv_of(type_):
            if self.skolem_level(name) > variable.level:
                raise SkolemEscapeError(name, type_)
