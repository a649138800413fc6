"""Quick-Look impredicativity (after Serrano et al., ICFP 2020) — a baseline.

Quick Look is GHC's production answer to the same design problem GI
solves (shared authors, one paper generation apart): keep inference
predicative by default, but run a cheap *quick look* over each n-ary
application spine first, structurally matching the quick-lookable
arguments (variables, literals, annotated terms, and nested application
spines of those) against the instantiated parameter types.  Matches that
force an instantiation variable to a *polytype* are committed before
ordinary — predicative — unification and subsumption check the spine for
real.  A polytype commit ``κ := σ`` is taken when

* ``σ`` is not ∀-headed (the polymorphism sits under a type constructor,
  so no predicative solution exists anyway), or
* ``κ`` appears *guarded* — under at least one type constructor,
  arrows included — in the instantiated parameter/result types (the
  paper's guardedness condition, deliberately the same word the GI
  paper uses for its own occurrence condition).

Everything around the quick look is the predicative arbitrary-rank
bidirectional system of :mod:`repro.baselines.rankn` (deep
skolemisation, σ-generalisation at inference points, skolem-escape
checks), which is exactly the architecture Quick Look extends in GHC.
By construction every RankN-accepted term is accepted here with the
same type — one of the differential-fuzz implications in
:mod:`repro.conformance.oracles`.

Known reconstruction divergences are measured, not patched over: the
quick look also descends into *nested* spines (``map poly (single
id)``), and checking mode propagates the expected type into a spine's
own quick look, so e.g. ``choose [] ids`` commits ``κ := [∀a.a→a]``
while checking ``[]``.  The measured Figure-2 column lives in
``tests/test_figure2_matrix.py`` and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.baselines.kernel import Kernel
from repro.baselines.rankn import RankNInferencer
from repro.core.env import Environment
from repro.core.errors import GIError, OccursCheckError, TypeError_
from repro.core.sorts import Sort
from repro.core.terms import Ann, App, Lit, Term, Var
from repro.core.types import (
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    contains_uvar,
    fun,
    is_arrow,
    mentions_forall,
    subst_tvars,
)


class QuickLookError(TypeError_):
    """A Quick-Look type error."""


class _Looked(NamedTuple):
    """A nested spine's finished quick look, kept for its real check as
    GHC keeps an ``EValArgQL``: the head's instantiation — parameter
    types, result type and instantiation variables — and the saved look
    of each of its own arguments.  Checking the spine reuses it instead
    of instantiating the head and quick-looking the arguments again."""

    params: list[Type]
    result: Type
    spine_vars: set[UVar]
    args: list["_Looked | None"]


# UVar sorts:
#   Sort.M — ordinary unification variables (λ-binders, plain fresh
#            variables): predicative, like RankN;
#   Sort.U — *instantiation* variables of an application spine: still
#            predicative in ordinary unification, but the quick look may
#            commit them to polytypes before unification runs.


class QuickLookInferencer(RankNInferencer):
    """RankN plus the quick-look spine pass.

    ``policy`` (an :class:`~repro.core.policy.InstantiationPolicy`, or
    ``None`` for the reference configuration) selects the instantiation
    discipline.  The published Quick Look sits on an *eager-deep*
    substrate; ``depth="shallow"`` stops skolemisation at top-level
    binders and ``speed="lazy"`` keeps ∀-headed spine results
    uninstantiated (GHC 9's actual configuration).  Ordinary unification
    stays predicative; polytypes reach instantiation variables only
    through quick-look commits, which write into ``subst`` without
    :meth:`admit`.
    """

    PREFIX = "q"
    Error = QuickLookError
    # Committed polytypes meet each other invariantly: equal up to
    # α-renaming, checked by unifying under shared skolems.
    _match_polytypes = Kernel._match_polytypes

    def admit(self, variable: UVar, type_: Type) -> None:
        if mentions_forall(type_):
            raise QuickLookError(
                f"predicativity violation: `{variable}` cannot stand for the "
                f"polymorphic type `{type_}` without a quick-look commit"
            )

    def _instantiate_spine(self, scheme: Forall, spine_vars: set[UVar]) -> Type:
        """Instantiate with *instantiation* variables the quick look may
        commit to polytypes.  As :meth:`instantiate` does, the scheme is
        zonked first, so the renaming reaches the images of its
        variables."""
        scheme = self.zonk(scheme)
        mapping = {name: self.fresh(Sort.U) for name in scheme.binders}
        spine_vars.update(mapping.values())
        return subst_tvars(mapping, scheme.body)

    def _subsume_rho(
        self, offered: Type, expected_rho: Type, spine_result: bool = False
    ) -> None:
        """RankN's ``offered ⊑ ρ``, except that polytypes meet each other
        invariantly and a spine's ∀-headed result may fill the enclosing
        spine's instantiation variable."""
        while True:
            offered = self._head(offered)
            expected_rho = self._head(expected_rho)
            if isinstance(offered, Forall) and not isinstance(expected_rho, Forall):
                if (
                    spine_result
                    and isinstance(expected_rho, UVar)
                    and expected_rho.sort is Sort.U
                ):
                    # The spine's committed polytype result fills the
                    # enclosing spine's instantiation variable — the
                    # result-type side of the quick look.  This is what
                    # types `map head (single ids)` at `[∀a.a→a]` instead
                    # of instantiating `head`'s result away.  Only trusted
                    # spine results flow here; generalisation artifacts
                    # from checking fall through `subsume` (no flag) and
                    # instantiate predicatively, keeping RankN-accepted
                    # terms at their RankN types.
                    offered = self.zonk(offered)
                    if contains_uvar(offered, expected_rho):
                        raise OccursCheckError(expected_rho, offered)
                    self.subst[expected_rho] = offered
                    return
                offered = self.instantiate(offered)
            elif is_arrow(offered) and is_arrow(expected_rho):
                self.subsume(expected_rho.args[0], offered.args[0])
                offered, expected_rho = offered.args[1], expected_rho.args[1]
            else:
                self.unify(offered, expected_rho)
                return

    # -- the quick look ----------------------------------------------------

    def _quick_args(
        self,
        args: tuple[Term, ...],
        params: list[Type],
        spine_vars: set[UVar],
        local: dict[str, Type],
    ):
        """Quick-look each argument against its parameter type: returns
        the candidate commits and, per argument, its nested spine's look.

        Quick-lookable: variables, literals, annotated terms, and
        application spines of those.  Nested spines run their own quick
        look, so commits discovered inside (``single (id :: ∀a.a→a)``
        fixing its element type) are visible to the enclosing match.
        Never raises — a shape the quick look cannot see through simply
        contributes no information.
        """
        quicks: list[tuple[UVar, Type]] = []
        looks: list[_Looked | None] = []
        for argument, parameter in zip(args, params):
            look = None
            if isinstance(argument, App):
                look = yield self._quick_app(argument, local)
                quick = None if look is None else self.zonk(look.result)
            else:
                quick = self._quick_type(argument, local)
            looks.append(look)
            if quick is not None:
                self._quick_match(parameter, quick, spine_vars, quicks)
        return quicks, looks

    def _quick_type(self, term: Term, local: dict[str, Type]) -> Type | None:
        """The *rough* type of a quick-lookable leaf, or ``None``."""
        if isinstance(term, Var):
            try:
                return self.instantiate(self._lookup(term.name, local))
            except GIError:
                return None
        if isinstance(term, Lit):
            return term.type_
        if isinstance(term, Ann):
            return term.annotation
        return None

    def _quick_app(self, term: App, local: dict[str, Type]):
        try:
            return (yield from self._quick_spine(term, local))
        except GIError:
            return None

    def _quick_spine(self, term: App, local: dict[str, Type]):
        """Quick look for a *nested* spine: match its own arguments,
        commit what is eligible, and save the look for the check."""
        self._check_deadline()
        head = term.head
        if isinstance(head, Var):
            try:
                current = self._lookup(head.name, local)
            except GIError:
                return None
        elif isinstance(head, Ann):
            current = head.annotation
        else:
            return None
        spine_vars: set[UVar] = set()
        params: list[Type] = []
        for _ in term.args:
            current = self._head(current)
            if isinstance(current, Forall):
                current = self._instantiate_spine(current, spine_vars)
            if is_arrow(current):
                parameter, current = current.args
            else:
                return None
            params.append(parameter)
        quicks, looks = yield self._quick_args(term.args, params, spine_vars, local)
        self._commit_quicks(quicks, params + [current], spine_vars)
        return _Looked(params, current, spine_vars, looks)

    def _quick_match(
        self,
        spine_type: Type,
        against: Type,
        spine_vars: set[UVar],
        out: list[tuple[UVar, Type]],
    ) -> None:
        """Structurally match a spine type (containing instantiation
        variables) against an argument's rough type, collecting candidate
        bindings left to right.  Purely informative: mismatches record
        nothing — the real check reports them later."""
        pairs = [(spine_type, against)]
        while pairs:
            spine_type, against = pairs.pop()
            spine_type = self.zonk(spine_type)
            against = self.zonk(against)
            if isinstance(spine_type, UVar):
                if spine_type in spine_vars and not isinstance(against, UVar):
                    out.append((spine_type, against))
            elif (
                isinstance(spine_type, TCon)
                and isinstance(against, TCon)
                and spine_type.name == against.name
                and len(spine_type.args) == len(against.args)
            ):
                pairs.extend(zip(reversed(spine_type.args), reversed(against.args)))
            elif (
                isinstance(spine_type, Forall)
                and isinstance(against, Forall)
                and len(spine_type.binders) == len(against.binders)
            ):
                shared = [TVar(self.supply.fresh(n)) for n in spine_type.binders]
                left_map = dict(zip(spine_type.binders, shared))
                right_map = dict(zip(against.binders, shared))
                pairs.append(
                    (
                        subst_tvars(left_map, spine_type.body),
                        subst_tvars(right_map, against.body),
                    )
                )

    def _commit_quicks(
        self,
        quicks: list[tuple[UVar, Type]],
        spine_types: list[Type],
        spine_vars: set[UVar],
    ) -> None:
        """Commit the eligible polytype discoveries (first match wins)."""
        guarded: set[UVar] | None = None
        for variable, image in quicks:
            if self.subst.get(variable) is not None:
                continue
            image = self.zonk(image)
            if not mentions_forall(image):
                continue  # monotype info: ordinary unification re-derives it
            if isinstance(image, Forall):
                if guarded is None:
                    guarded = self._guarded_vars(spine_types, spine_vars)
                if variable not in guarded:
                    continue  # ∀-headed and unguarded: no commit (like GI)
            if contains_uvar(image, variable):
                continue
            self.subst[variable] = image

    def _guarded_vars(
        self, spine_types: list[Type], spine_vars: set[UVar]
    ) -> set[UVar]:
        """Instantiation variables occurring under at least one type
        constructor (arrows included) in the parameter/result types."""
        guarded: set[UVar] = set()
        stack = [(type_, False) for type_ in spine_types]
        while stack:
            node, under_con = stack.pop()
            if isinstance(node, UVar):
                bound = self.subst.get(node)
                if bound is not None:
                    stack.append((bound, under_con))
                elif under_con and node in spine_vars:
                    guarded.add(node)
            elif isinstance(node, TCon):
                stack.extend((argument, True) for argument in node.args)
            elif isinstance(node, Forall):
                stack.append((node.body, under_con))
        return guarded

    # -- inference ----------------------------------------------------------

    def _infer_app_spine(
        self,
        term: Term,
        local: dict[str, Type],
        expected: Type | None = None,
        look: _Looked | None = None,
    ):
        """Type one application spine: instantiate the head, quick-look
        the arguments (and the expected result type, when checking),
        commit, then check the arguments predicatively in order.  A spine
        the enclosing quick look already looked at (``look``) keeps that
        instantiation and those commits: looking again would redo the
        whole nested quick look once per enclosing spine."""
        if isinstance(term, App):
            head, args = term.head, term.args
        else:
            head, args = term, ()
        # The head's σ-type, *uninstantiated* so its quantifiers become
        # this spine's instantiation variables.
        if isinstance(head, Var):
            fn_sigma = self._lookup(head.name, local)
        elif isinstance(head, Ann):
            yield self._check_sigma(head.expr, head.annotation, local)
            fn_sigma = head.annotation
        else:
            fn_sigma = yield self._infer(head, local)
        if look is None:
            spine_vars: set[UVar] = set()
            params: list[Type] = []
            current = fn_sigma
            for _ in args:
                self._check_deadline()
                current = self._head(current)
                if isinstance(current, Forall):
                    current = self._instantiate_spine(current, spine_vars)
                if isinstance(current, UVar):
                    if current in spine_vars:
                        # Splitting an instantiation variable into an
                        # arrow yields instantiation variables: `id poly
                        # (λx.x)` needs the split parameter to take a
                        # quick-look commit to `∀a.a→a`.
                        parameter, result = self.fresh(Sort.U), self.fresh(Sort.U)
                        spine_vars.update((parameter, result))
                    else:
                        parameter, result = self.fresh(), self.fresh()
                    self.unify(current, fun(parameter, result))
                    current = result
                elif is_arrow(current):
                    parameter, current = current.args
                else:
                    raise QuickLookError(f"too many arguments for `{self.zonk(current)}`")
                params.append(parameter)
        else:
            params, current, spine_vars, _ = look
        current = self._head(current)
        if expected is not None and isinstance(current, Forall):
            # Checking mode: the expected ρ-type takes part in the quick
            # look, so the result's own quantifiers become instantiation
            # variables too (`[] : [∀a.a→a]` commits through this).
            current = self._instantiate_spine(current, spine_vars)
        if look is None:
            quicks, looks = yield self._quick_args(args, params, spine_vars, local)
        else:
            # The arguments' commits are made; only the expected type's
            # are left, and they never override an argument's.
            quicks, looks = [], look.args
        if expected is not None:
            self._quick_match(current, expected, spine_vars, quicks)
        self._commit_quicks(quicks, params + [current], spine_vars)
        for argument, parameter, argument_look in zip(args, params, looks):
            yield self._check_arg(argument, parameter, local, argument_look)
        current = self.zonk(current)
        if expected is not None:
            self._subsume_rho(current, expected, spine_result=True)
        elif isinstance(current, Forall) and not self._lazy:
            # No expected type to propagate the polymorphism into: the
            # ∀-headed result instantiates predicatively, exactly as
            # RankN's variable rule would (re-generalisation at the
            # nearest σ point restores the quantifiers when legitimate).
            # A lazy policy keeps the polytype instead.
            current = self.instantiate(current)
        return self.zonk(current)

    # A variable is a spine without arguments.
    _infer_var = _infer_app = _infer_app_spine

    def _check_arg(
        self,
        argument: Term,
        parameter: Type,
        local: dict[str, Type],
        look: _Looked | None = None,
    ):
        parameter = self._head(parameter)
        if isinstance(argument, (Var, App)) and not isinstance(parameter, Forall):
            return self._infer_app_spine(argument, local, parameter, look)
        # A polymorphic parameter skolemises first; the spine is then
        # checked afresh.
        return super()._check_arg(argument, parameter, local)

    def _check_rho(self, term: Term, expected_rho: Type, local: dict[str, Type]):
        if isinstance(term, (Var, App)):
            return self._infer_app_spine(term, local, expected=expected_rho)
        return super()._check_rho(term, expected_rho, local)

    def _join_branch(self, result: Type, rhs: Type) -> None:
        rhs = self.zonk(rhs)
        resolved = self._head(result)
        if isinstance(rhs, Forall) and not isinstance(resolved, Forall):
            # A ∀-headed branch meeting a mono result instantiates
            # (`case … of { _ -> inc ; _ -> id }` : Int → Int).
            rhs = self.instantiate(rhs)
        if (
            isinstance(resolved, UVar)
            and mentions_forall(rhs)
            and not contains_uvar(rhs, resolved)
        ):
            # The first branch with a polytype result fixes the
            # case's σ; later branches must α-agree through unify.
            self.subst[resolved] = rhs
        else:
            self.unify(result, rhs)


def quicklook_infer(term: Term, env: Environment) -> Type:
    """Convenience wrapper."""
    return QuickLookInferencer(env).infer(term)
