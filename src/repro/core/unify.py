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
  dict chain.  The store keys its tables by variable *name* (one name,
  one variable per unifier), and a variable whose name is not in the
  solved set resolves to itself with that one set lookup.
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
the interpreter stack.  The unifier *summarises* each type node once:
its free unification variables (by name, first-occurrence order), their
maximum level and its free rigid names, built from its children's
summaries.  A new node on top of already-summarised suffixes costs one
merge of its children's name tuples, not a walk of the whole type.  The
checks of :meth:`Unifier.bind` read the summary: cleanliness is one
disjointness test against the set of solved names, the occurs check is
a name lookup, promotion is skipped when the maximum level allows it,
and the skolem check iterates the cached rigid names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.errors import (
    InternalError,
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
    mentions_forall,
    open_forall,
    subst_uvars,
)

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.observability.tracer import TracerLike
    from repro.robustness.budget import Budget
    from repro.robustness.faultinject import FaultPlan

TVarResolver = Callable[[str], Type | None]

# A node's summary: ``(node, names, level, rigid)``.  ``names`` are the
# names of its free unification variables and ``rigid`` its free rigid
# names, both in first-occurrence pre-order; ``level`` is the deepest
# level of a variable in ``names`` (-1 when there is none).  The node is
# kept so that its ``id`` — the table key — cannot be reused.
Summary = tuple[Type, tuple[str, ...], int, tuple[str, ...]]


def _merged(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    """Ordered union of two name tuples, reusing ``left`` when it already
    holds every name of ``right``."""
    if not left:
        return right
    if len(right) == 1:
        return left if right[0] in left else left + right
    merged = tuple(dict.fromkeys(left + right))
    return left if len(merged) == len(left) else merged


class _PruneSkolems:
    """Worklist sentinel: discard the skolems a ``∀``/``∀`` equation
    introduced once its sub-equations are solved (or the call fails), so
    ``skolem_levels`` does not grow monotonically on long-lived unifiers."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names


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
        self._parent: dict[str, UVar] = {}
        """Union-find parent pointers, by name, for variables united into
        another."""
        self._rank: dict[str, int] = {}
        """Union-by-rank bookkeeping by name (absent entries have rank 0)."""
        self._binding: dict[str, Type] = {}
        """Representative name → bound (non-variable) type."""
        self.skolem_levels: dict[str, int] = {}
        self.bindings = 0
        self.budget = budget
        self.faults = faults
        self.tracer = tracer
        self.depth = 0
        """Current structural depth of :meth:`unify` (0 when idle)."""
        self.on_bind: Callable[[UVar], None] | None = None
        """Solver wake-up callback, fired after any variable is solved."""
        self._solved: set[str] = set()
        """Names of the variables in ``_parent`` or ``_binding``."""
        self._summaries: dict[int, Summary] = {}
        """Summary of every node seen, keyed by ``id`` (see :data:`Summary`)."""
        self._variables: dict[str, UVar] = {}
        """The one variable each summarised or stored name stands for."""
        self._zonked: dict[int, tuple[Type, Type]] = {}
        """``id(node) → (node, zonked node)``, valid while ``bindings``
        equals ``_zonked_at``."""
        self._zonked_at = 0
        self._intern = intern if intern is not None else InternTable()

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

    # -- node summaries -------------------------------------------------

    def fuv_of(self, type_: Type) -> tuple[UVar, ...]:
        """Free unification variables, first-occurrence order."""
        if isinstance(type_, UVar):
            return (type_,)
        if isinstance(type_, TVar):
            return ()
        return tuple(map(self._variables.__getitem__, self._summary(type_)[1]))

    def ftv_of(self, type_: Type) -> tuple[str, ...]:
        """Free rigid variables, first-occurrence order."""
        if isinstance(type_, TVar):
            return (type_.name,)
        if isinstance(type_, UVar):
            return ()
        return self._summary(type_)[3]

    def _summary(self, type_: Type) -> Summary:
        """The summary of ``type_``, summarising each node not yet seen
        in one iterative post-order walk."""
        table = self._summaries
        summary = table.get(id(type_))
        if summary is not None:
            return summary
        stack = [type_]
        while stack:
            node = stack[-1]
            if id(node) in table:
                stack.pop()
                continue
            kind = node.__class__
            if kind is TCon:
                children = node.args
            elif kind is Forall:
                children = (
                    *(argument for predicate in node.context for argument in predicate.args),
                    node.body,
                )
            else:
                stack.pop()
                table[id(node)] = self._leaf(node)
                continue
            pending = [child for child in children if id(child) not in table]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            names: tuple[str, ...] = ()
            level = -1
            rigid: tuple[str, ...] = ()
            for child in children:
                _, child_names, child_level, child_rigid = table[id(child)]
                if child_names:
                    names = _merged(names, child_names)
                    if child_level > level:
                        level = child_level
                if child_rigid:
                    rigid = _merged(rigid, child_rigid)
            if kind is Forall and rigid:
                binders = node.binders
                if not set(binders).isdisjoint(rigid):
                    rigid = tuple(name for name in rigid if name not in binders)
            table[id(node)] = (node, names, level, rigid)
        return table[id(type_)]

    def _leaf(self, node: Type) -> Summary:
        if isinstance(node, TVar):
            return (node, (), -1, (node.name,))
        if not isinstance(node, UVar):
            raise TypeError(f"unknown type node: {node!r}")
        self._register(node)
        return (node, (node.name,), node.level, ())

    def _register(self, variable: UVar) -> None:
        """Record the variable a name stands for.  The store, the solved
        set and the summaries key variables by name, which is sound only
        while a name denotes one variable per unifier."""
        known = self._variables.setdefault(variable.name, variable)
        if known is not variable and known != variable:
            raise InternalError(
                ValueError(
                    f"two unification variables named {variable.name}: {known}, {variable}"
                ),
                "unify",
            )

    # -- substitution ---------------------------------------------------

    def _find(self, variable: UVar) -> UVar:
        """Representative of ``variable``, compressing the path walked."""
        parent = self._parent
        step = parent.get(variable.name)
        if step is None:
            return variable
        root = step
        while True:
            step = parent.get(root.name)
            if step is None:
                break
            root = step
        current = variable.name
        while True:
            step = parent[current]
            if step is root:
                break
            parent[current] = root
            current = step.name
        return root

    def _is_clean(self, type_: Type) -> bool:
        """Whether the substitution has nothing to say about ``type_``."""
        solved = self._solved
        return not solved or solved.isdisjoint(self._summary(type_)[1])

    def zonk(self, type_: Type) -> Type:
        """Fully apply the current substitution to a type."""
        if isinstance(type_, UVar):
            if type_.name not in self._solved:
                return type_
            root = self._find(type_)
            bound = self._binding.get(root.name)
            if bound is None:
                return root
            if self._is_clean(bound):
                return bound
            expanded = self._zonk_rebuild(bound)
            # Memoise the expansion so repeated zonks are cheap.
            self._binding[root.name] = expanded
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
        the store so the work is never repeated.  Each composite's result
        is also remembered until the store next changes (``bindings``
        moves), so a node shared by many zonked types is rebuilt once.
        """
        intern = self._intern.intern
        binding = self._binding
        solved = self._solved
        zonked = self._zonked
        if self._zonked_at != self.bindings:
            zonked.clear()
            self._zonked_at = self.bindings
        results: list[Type] = []
        stack: list[tuple[str, Type]] = [("visit", type_)]
        while stack:
            tag, node = stack.pop()
            if tag == "visit":
                if isinstance(node, UVar):
                    if node.name not in solved:
                        results.append(node)
                        continue
                    root = self._find(node)
                    bound = binding.get(root.name)
                    if bound is None:
                        results.append(root)
                    elif self._is_clean(bound):
                        results.append(bound)
                    else:
                        stack.append(("memo", root))
                        stack.append(("visit", bound))
                elif isinstance(node, TVar):
                    results.append(node)
                elif id(node) in zonked:
                    results.append(zonked[id(node)][1])
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
                zonked[id(node)] = (node, results[-1])
            else:  # memo
                binding[node.name] = results[-1]
        return results[0]

    def zonk_head(self, type_: Type) -> Type:
        """Resolve only a top-level variable: one set lookup when it is
        unsolved, else one find and one lookup (bound representatives
        never point at another variable)."""
        if not isinstance(type_, UVar) or type_.name not in self._solved:
            return type_
        root = self._find(type_)
        bound = self._binding.get(root.name)
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
                    raise self._mismatch(l, r, "rigid type variable")
                if isinstance(l, TCon) and isinstance(r, TCon):
                    if l.name != r.name or len(l.args) != len(r.args):
                        raise self._mismatch(l, r, "different type constructors")
                    for la, ra in zip(reversed(l.args), reversed(r.args)):
                        stack.append((la, ra, lvl, depth + 1))
                    continue
                if isinstance(l, Forall) and isinstance(r, Forall):
                    self._push_forall(stack, l, r, lvl, depth)
                    continue
                if isinstance(l, Forall) or isinstance(r, Forall):
                    raise self._mismatch(
                        l,
                        r,
                        "a polymorphic type can only equal another polymorphic type; "
                        "all constructors in GI are invariant",
                    )
                raise self._mismatch(l, r)
        except BaseException:
            # The call failed: none of the pending forall scopes will be
            # closed by the loop, so drop their skolems here.
            for frame in stack:
                if frame.__class__ is _PruneSkolems:
                    self.prune_skolems(frame.names)
            raise
        finally:
            self.depth = base

    def _mismatch(self, left: Type, right: Type, reason: str = "") -> UnificationError:
        """The error for two types that cannot be made equal.  Frames
        resolve only their heads, so both sides are zonked for the
        message."""
        return UnificationError(self.zonk(left), self.zonk(right), reason)

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
            raise self._mismatch(left, right, "different numbers of quantifiers")
        if len(left.context) != len(right.context):
            raise self._mismatch(left, right, "different class contexts")
        inner = level + 1
        shared = [self.fresh_skolem(name, inner) for name in left.binders]
        images = [TVar(skolem) for skolem in shared]
        pairs: list[tuple[Type, Type]] = []
        try:
            left_context, left_body = open_forall(left, images)
            right_context, right_body = open_forall(right, images)
            for left_pred, right_pred in zip(left_context, right_context):
                if left_pred.class_name != right_pred.class_name or len(
                    left_pred.args
                ) != len(right_pred.args):
                    raise self._mismatch(left, right, "different class contexts")
                pairs.extend(zip(left_pred.args, right_pred.args))
            pairs.append((left_body, right_body))
        except BaseException:
            self.prune_skolems(shared)
            raise
        stack.append(_PruneSkolems(tuple(shared)))
        for pair_left, pair_right in reversed(pairs):
            stack.append((pair_left, pair_right, inner, depth + 1))

    # -- variable binding -----------------------------------------------

    def bind(self, variable: UVar, type_: Type, resolver: TVarResolver | None = None) -> None:
        """Bind a unification variable, enforcing sorts and levels."""
        self._register(variable)
        root = self._find(variable)
        type_ = self.zonk(type_)
        if type_ == root:
            return
        if isinstance(type_, UVar):
            self._bind_var_var(root, type_)
            return
        if root.name in self._summary(type_)[1]:
            raise OccursCheckError(root, type_)
        type_ = self._enforce_sort(root, type_)
        type_ = self._promote(root, type_)
        self._check_skolems(root, type_)
        self._binding[root.name] = type_
        self._solved.add(root.name)
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
        self._register(variable)
        root = self._find(variable)
        if isinstance(image, UVar):
            target = self._find(image)
            if target == root:
                return
            self._union(root, target)
            return
        self._binding[root.name] = image
        self._solved.add(root.name)
        self.bindings += 1
        self._notify(root)

    def _union(self, eliminated: UVar, kept: UVar) -> None:
        """Point ``eliminated`` at ``kept``; rank stays a height bound."""
        self._register(eliminated)
        self._register(kept)
        self._parent[eliminated.name] = kept
        self._solved.add(eliminated.name)
        rank = self._rank
        kept_rank = rank.get(kept.name, 0)
        eliminated_rank = rank.get(eliminated.name, 0)
        if kept_rank <= eliminated_rank:
            rank[kept.name] = eliminated_rank + 1
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
            if self._rank.get(right.name, 0) < self._rank.get(left.name, 0):
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
        _, names, level, _ = self._summary(type_)
        if level <= variable.level:
            return type_
        mapping: dict[UVar, Type] = {}
        for inner in map(self._variables.__getitem__, names):
            if inner.level > variable.level:
                promoted = self.fresh(inner.sort, variable.level)
                self._union(inner, promoted)
                mapping[inner] = promoted
        return subst_uvars(mapping, type_) if mapping else type_

    def _check_skolems(self, variable: UVar, type_: Type) -> None:
        for name in self._summary(type_)[3]:
            if self.skolem_level(name) > variable.level:
                raise SkolemEscapeError(name, type_)
