"""The substitution kernel shared by the hand-written backends.

HM, HMF, RankN, Quick Look and FreezeML are one machine.  This module is
that machine: a dict substitution, a name supply, zonking, unification
(with α-equivalent ``∀``/``∀`` unification under shared skolems),
instantiation, generalisation, deep or shallow skolemisation, the
skolem-escape check, and the term walk.  :meth:`Kernel._infer` dispatches
every term node to one rule and owns the rules the systems share
(a variable instantiates its scheme, a λ-binder is a fresh monomorphic
variable or its annotation, ``let`` generalises, ``case`` unifies its
branches); a backend overrides only the rules it types differently.  The
systems also differ in where a unification variable may be bound, and
that is the other hook: :meth:`Kernel.admit`, called by
:meth:`Kernel._bind` after the occurs check.  It raises to refuse a
binding:

* HM accepts every binding (its types never contain a ``∀``);
* RankN refuses polytypes (predicativity; Quick Look inherits this and
  commits its polytypes outside unification);
* HMF refuses a ``∀`` anywhere for λ-binder variables and a ``∀`` at the
  top for re-instantiated inferred quantifiers;
* FreezeML refuses a ``∀`` for λ-binder variables and for any variable
  reachable from a λ-binder's image.

Every traversal here is iterative: the type walks keep explicit stacks,
and the term walk and its rules are generators run by
:func:`~repro.core.terms.drive`, with one scope per run.  So type and term
depth are bounded by memory and by the
:class:`~repro.robustness.budget.Budget`, not by Python's recursion
limit.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_not
from typing import Iterable, Iterator

from repro.core.env import DataCon, Environment
from repro.core.errors import (
    GIError,
    OccursCheckError,
    SkolemEscapeError,
    TypeError_,
    UnificationError,
)
from repro.core.names import NameSupply, letters
from repro.core.sorts import Sort
from repro.core.terms import Ann, AnnLam, App, Case, CaseAlt, Lam, Let, Lit, Term, Var
from repro.core.terms import drive, scoped
from repro.core.types import (
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    alpha_equal,
    contains_uvar,
    forall,
    ftv,
    fun,
    fuv,
    is_arrow,
    rename_canonical,
    strip_forall,
    subst_tvars,
)

_ESCAPE = object()
"""Marks a unification work item that runs a ``∀`` escape check."""


class Kernel:
    """Substitution, unification and generalisation for one backend.

    Subclasses set the class attributes, implement :meth:`_infer_ann`,
    override the term rules they type differently and :meth:`admit`.
    ``_deep`` selects deep skolemisation (to the right of arrows) in
    :meth:`skolemise`.
    """

    PREFIX = "k"
    """Name-supply prefix of the backend's unification variables."""
    FRESH_SORT = Sort.M
    """Sort of a variable from :meth:`fresh` when none is given."""
    QUANTIFIER_MARK = ""
    """Suffix on the names :meth:`generalize` quantifies."""
    Error: type[TypeError_] = TypeError_
    """The backend's own type-error class."""

    def __init__(self, env: Environment, budget=None) -> None:
        self.env = env
        self.budget = budget
        self.supply = NameSupply(self.PREFIX)
        self.subst: dict[UVar, Type] = {}
        """Each unification variable's image, written only by
        :meth:`_assign`."""
        self._zonked: dict[int, tuple[Type, Type]] = {}
        """``id(node) → (node, zonked node)`` for the composite nodes
        zonked since the last write into ``subst``."""
        self._deep = False

    # -- entry points -------------------------------------------------------

    def infer(self, term: Term) -> Type:
        """The generalised, canonically renamed type of a closed term."""
        return rename_canonical(self._infer_closed(term))

    def _infer_closed(self, term: Term) -> Type:
        if self.budget is not None:
            self.budget.start()
        self.subst = {}
        self._zonked = {}
        return self.generalize((), drive(self._infer(term, {})))

    def accepts(self, term: Term) -> bool:
        try:
            self.infer(term)
            return True
        except GIError:
            return False

    def _lookup(self, name: str, local: dict[str, Type]) -> Type:
        if name in local:
            return local[name]
        return self.env.lookup(name)

    # -- the term walk ------------------------------------------------------

    def _infer(self, term: Term, local: dict[str, Type]):
        """The type of ``term`` under ``local``: one rule per node class,
        tested by identity, variables first (they are most of the nodes).

        A variable's or literal's rule answers at once; every other rule
        is a walk for :func:`~repro.core.terms.drive`, which ``yield``s
        the walks of the subterms it types.  ``local`` is the run's one
        scope, which a binder rule extends through
        :func:`~repro.core.terms.scoped`.  Each walked node checks the
        budget's deadline, so a backend whose work grows faster than the
        term stops at its wall clock.
        """
        kind = term.__class__
        if kind is Var:
            return self._infer_var(term, local)
        if kind is Lit:
            return term.type_
        self._check_deadline()
        if kind is App:
            return self._infer_app(term, local)
        if kind is Lam or kind is AnnLam:
            return self._infer_lam(term, local)
        if kind is Let:
            return self._infer_let(term, local)
        if kind is Case:
            return self._infer_case(term, local)
        if kind is Ann:
            return self._infer_ann(term, local)
        raise TypeError(f"unknown term node: {term!r}")

    def _infer_var(self, term: Var, local: dict[str, Type]):
        """A variable instantiates its scheme."""
        return self.instantiate(self._lookup(term.name, local))

    def _infer_app(self, term: App, local: dict[str, Type]):
        """ML application: each argument's type unifies with the function
        type's parameter, a ∀-headed function type instantiating first."""
        result = yield self._infer(term.head, local)
        for argument in term.args:
            result = self.zonk(result)
            if result.__class__ is Forall:
                result = self.instantiate(result)
            arg_type = yield self._infer(argument, local)
            fresh = self.fresh()
            self.unify(result, fun(arg_type, fresh))
            result = fresh
        return self.zonk(result)

    def _infer_lam(self, term: Lam | AnnLam, local: dict[str, Type]):
        """An unannotated binder is a fresh fully monomorphic variable; an
        annotated one takes its annotation."""
        binder = term.annotation if term.__class__ is AnnLam else self.fresh(Sort.M)
        body = yield scoped(local, (term.var,), (binder,), self._infer, term.body, local)
        return fun(binder, body)

    def _infer_let(self, term: Let, local: dict[str, Type]):
        """``let`` generalises the bound expression over the local scope."""
        scheme = self.generalize(local.values(), (yield self._infer(term.bound, local)))
        return (yield scoped(local, (term.var,), (scheme,), self._infer, term.body, local))

    def _infer_case(self, term: Case, local: dict[str, Type]):
        """Open the scrutinee at the first constructor, then join every
        alternative's type into one result."""
        scrutinee = yield self._infer(term.scrutinee, local)
        first, alphas = self._open_case(term, scrutinee)
        result = self.fresh()
        for alt in term.alts:
            fields = self._alt_fields(alt, first, alphas)
            rhs = yield scoped(local, alt.binders, fields, self._infer, alt.rhs, local)
            self._join_branch(result, rhs)
        return self.zonk(result)

    def _join_branch(self, result: Type, rhs: Type) -> None:
        """Unify one case branch's type into the case's result."""
        self.unify(result, rhs)

    def _infer_ann(self, term: Ann, local: dict[str, Type]):
        """The annotation rule, which every backend writes its own way."""
        raise NotImplementedError

    # -- the substitution ---------------------------------------------------

    def _check_deadline(self) -> None:
        if self.budget is not None:
            self.budget.check_deadline()

    def fresh(self, sort: Sort | None = None) -> UVar:
        return UVar(self.supply.fresh(), self.FRESH_SORT if sort is None else sort)

    def _fresh_skolem(self, hint: str) -> str:
        return self.supply.fresh(hint + "_sk")

    def _assign(self, variable: UVar, type_: Type) -> None:
        """Write ``variable := type_``: the one write into the
        substitution.  ``variable`` has no image yet (every caller binds
        a variable it has just resolved), so nothing is overwritten or
        deleted.  The write can change the zonk of any node that mentions
        ``variable``, so the zonk memo is dropped."""
        self.subst[variable] = type_
        if self._zonked:
            self._zonked.clear()

    def zonk(self, type_: Type) -> Type:
        """Apply the substitution exhaustively.

        An empty substitution changes nothing.  Variable chains are
        resolved inline and leaves are returned as they are.  A composite
        node zonked since the last write is answered from the memo;
        otherwise :meth:`_zonk_walk` rebuilds it.
        """
        subst = self.subst
        if not subst:
            return type_
        while type_.__class__ is UVar:
            bound = subst.get(type_)
            if bound is None:
                return type_
            type_ = bound
        if type_.__class__ is TCon:
            if not type_.args:
                return type_
        elif type_.__class__ is not Forall:
            return type_
        known = self._zonked.get(id(type_))
        if known is not None:
            return known[1]
        zonked = self._zonk_walk(type_)
        self._zonked[id(type_)] = (type_, zonked)
        return zonked

    def _zonk_walk(self, type_: TCon | Forall) -> Type:
        """Zonk a composite node on an explicit stack.  A node none of
        whose children changed is returned by identity, so zonking a
        solved type allocates nothing."""
        subst = self.subst
        if type_.__class__ is TCon:
            children = iter(type_.args)
        else:
            children = iter((type_.body,))
        # The open composite nodes above ``node``, each with its children
        # still to visit and its zonked children so far.
        stack: list[tuple[Type, Iterator[Type], list[Type]]] = []
        node, done = type_, []
        while True:
            for child in children:
                while child.__class__ is UVar:
                    bound = subst.get(child)
                    if bound is None:
                        break
                    child = bound
                if child.__class__ is TCon and child.args:
                    stack.append((node, children, done))
                    node, children, done = child, iter(child.args), []
                    break
                if child.__class__ is Forall:
                    stack.append((node, children, done))
                    node, children, done = child, iter((child.body,)), []
                    break
                done.append(child)
            else:
                if node.__class__ is TCon:
                    if any(map(is_not, done, node.args)):
                        node = TCon(node.name, tuple(done))
                elif done[0] is not node.body:
                    node = Forall(node.binders, done[0], node.context)
                if not stack:
                    return node
                parent, children, done = stack.pop()
                done.append(node)
                node = parent

    def _free_uvars(self, types: Iterable[Type]) -> dict[UVar, None]:
        """The free unification variables of the zonked types, in order.

        The walk is as long as the local scope, so it checks the budget's
        deadline: a term that nests binders makes these walks add up to
        more than linear work."""
        self._check_deadline()
        found: dict[UVar, None] = {}
        for type_ in types:
            found.update(dict.fromkeys(fuv(self.zonk(type_))))
        return found

    # -- unification --------------------------------------------------------

    def unify(self, left: Type, right: Type, depth: int = 0) -> None:
        """Make two types equal, depth-first and left to right.

        Every pair is budget-checked at its depth.  A frame resolves only
        the heads of its two sides, so unifying two spines walks each
        node once; a side is zonked in full only where all of it is
        read: the image a variable is bound to through :meth:`_bind`,
        two quantified types before :meth:`_match_polytypes` (which
        compares and renames them whole), and the two sides of a
        :class:`UnificationError`.
        """
        budget = self.budget
        subst = self.subst
        work: list[tuple] = [(left, right, depth)]
        while work:
            item = work.pop()
            if item[0] is _ESCAPE:
                self._check_forall_escape(item[1], item[2])
                continue
            left, right, depth = item
            if budget is not None:
                budget.check_unify_depth(depth, left, right)
            while left.__class__ is UVar:
                bound = subst.get(left)
                if bound is None:
                    break
                left = bound
            while right.__class__ is UVar:
                bound = subst.get(right)
                if bound is None:
                    break
                right = bound
            if left is right:
                continue
            if left.__class__ is UVar:
                if left != right:
                    self._bind(left, self.zonk(right))
            elif right.__class__ is UVar:
                self._bind(right, self.zonk(left))
            elif (
                left.__class__ is TCon
                and right.__class__ is TCon
                and left.name == right.name
                and len(left.args) == len(right.args)
            ):
                pairs = zip(reversed(left.args), reversed(right.args), repeat(depth + 1))
                work.extend(pairs)
            elif left.__class__ is Forall and right.__class__ is Forall:
                left, right = self.zonk(left), self.zonk(right)
                if left != right:
                    work.extend(self._match_polytypes(left, right, depth))
            elif left != right:
                raise UnificationError(self.zonk(left), self.zonk(right))

    def _match_polytypes(self, left: Forall, right: Forall, depth: int) -> list[tuple]:
        """The unification work for two quantified types: equal up to
        α-renaming, so their bodies unify one level deeper under shared
        fresh skolems, which must not leak out afterwards."""
        if alpha_equal(left, right):
            return []
        if len(left.binders) != len(right.binders):
            raise UnificationError(left, right, "different numbers of quantifiers")
        shared = [self._fresh_skolem(name) for name in left.binders]
        left_map = {n: TVar(s) for n, s in zip(left.binders, shared)}
        right_map = {n: TVar(s) for n, s in zip(right.binders, shared)}
        bodies = (subst_tvars(left_map, left.body), subst_tvars(right_map, right.body))
        return [(_ESCAPE, shared, left), (*bodies, depth + 1)]

    def _check_forall_escape(self, shared: list[str], left: Forall) -> None:
        """The shared skolems of a ``∀``/``∀`` unification must not reach
        the image of any variable that is not free in the ``∀`` itself.

        One pass over the substitution finds, for each skolem, the first
        variable it escapes into; the first skolem in ``shared`` order
        that escapes is reported, with that variable's image."""
        skolems = set(shared)
        inside = None
        escapes: dict[str, Type] = {}
        for variable, image in self.subst.items():
            image = self.zonk(image)
            reached = skolems.intersection(ftv(image))
            if not reached:
                continue
            if inside is None:
                inside = fuv(self.zonk(left))
            if variable not in inside:
                for skolem in reached:
                    escapes.setdefault(skolem, image)
        for skolem in shared:
            if skolem in escapes:
                raise SkolemEscapeError(skolem, escapes[skolem])

    def _bind(self, variable: UVar, type_: Type) -> None:
        if contains_uvar(type_, variable):
            raise OccursCheckError(variable, type_)
        self.admit(variable, type_)
        self._assign(variable, type_)

    def admit(self, variable: UVar, type_: Type) -> None:
        """Raise unless ``variable := type_`` is allowed (the occurs check
        has passed).  The default admits every binding."""

    # -- instantiation, generalisation, skolemisation -----------------------

    def instantiate(self, scheme: Type) -> Type:
        """Strip the top quantifiers with fresh variables."""
        scheme = self.zonk(scheme)
        binders, body = strip_forall(scheme)
        if not binders:
            return scheme
        return subst_tvars({name: self.fresh() for name in binders}, body)

    def generalize(self, env_types: Iterable[Type], type_: Type) -> Type:
        """Quantify the variables of ``type_`` not free in ``env_types``,
        in order of first occurrence, as ``a, b, …`` avoiding its rigid
        variables."""
        type_ = self.zonk(type_)
        variables = fuv(type_)
        if not variables:
            # Nothing to quantify: the zonked type is its own scheme.
            return type_
        env_vars = self._free_uvars(env_types)
        names: list[str] = []
        used = set(ftv(type_))
        supply = letters()
        for variable in variables:
            if variable in env_vars:
                continue
            for candidate in supply:
                name = candidate + self.QUANTIFIER_MARK
                if name not in used:
                    used.add(name)
                    names.append(name)
                    self._assign(variable, TVar(name))
                    break
        return forall(names, self.zonk(type_))

    def skolemise(self, scheme: Type) -> tuple[list[str], Type]:
        """Replace the top quantifiers by fresh skolems — and, when
        ``_deep``, those to the right of arrows too.  Returns the skolems
        and the ρ-type."""
        body = self.zonk(scheme)
        skolems: list[str] = []
        arguments: list[Type] = []
        while True:
            binders, body = strip_forall(body)
            mapping = {name: TVar(self._fresh_skolem(name)) for name in binders}
            skolems.extend(variable.name for variable in mapping.values())
            body = subst_tvars(mapping, body)
            if not (self._deep and is_arrow(body)):
                break
            arguments.append(body.args[0])
            body = body.args[1]
        for argument in reversed(arguments):
            body = fun(argument, body)
        return skolems, body

    def subsume(
        self, offered: Type, expected: Type, local: dict[str, Type] | None = None
    ) -> None:
        """``offered ⊑ expected``: skolemise the expected side, check the
        offered type against its ρ-type, and let no skolem escape into a
        variable of ``offered`` or ``local``.

        Skolemising binds no variable, so the escape candidates are
        collected after it, and only when there are skolems: a ρ-typed
        ``expected`` (every argument of a long spine) costs no walk of
        ``local``."""
        skolems, expected_rho = self.skolemise(expected)
        outer = self._free_uvars([*(local or {}).values(), offered]) if skolems else ()
        self._subsume_rho(offered, expected_rho)
        self._check_escape(skolems, outer)

    def _subsume_rho(self, offered: Type, expected_rho: Type) -> None:
        self.unify(self.instantiate(offered), expected_rho)

    def _check_escape(self, skolems: list[str], outer: Iterable[UVar]) -> None:
        """No skolem may leak into a variable visible outside its scope;
        the first leaking variable names its least skolem."""
        if not skolems:
            return
        for variable in outer:
            image = self.zonk(variable)
            leaked = set(skolems) & ftv(image)
            if leaked:
                raise SkolemEscapeError(sorted(leaked)[0], image)

    # -- case ---------------------------------------------------------------

    def _open_case(self, term: Case, scrutinee: Type) -> tuple[DataCon, dict[str, Type]]:
        """Unify the scrutinee with the first constructor's result type at
        fresh universals; returns that constructor and the universals."""
        first = self.env.lookup_datacon(term.alts[0].constructor)
        alphas = {name: self.fresh() for name in first.universals}
        self.unify(
            self.instantiate(scrutinee),
            TCon(first.result_con, tuple(alphas[n] for n in first.universals)),
        )
        return first, alphas

    def _alt_fields(
        self, alt: CaseAlt, first: DataCon, alphas: dict[str, Type]
    ) -> list[Type]:
        """The types one alternative binds: the constructor's field types,
        existentials as fresh skolems."""
        datacon = self.env.lookup_datacon(alt.constructor)
        if datacon.result_con != first.result_con:
            raise self.Error("mixed constructors in case")
        mapping: dict[str, Type] = dict(alphas)
        mapping.update(
            {name: TVar(self._fresh_skolem(name)) for name in datacon.existentials}
        )
        return [subst_tvars(mapping, field) for field in datacon.fields]
