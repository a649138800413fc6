"""Seeded, size-bounded generation of closed GI terms.

Two generation modes feed the conformance fuzzer:

* **arbitrary** — random closed terms over the Figure-2 prelude names.
  Most are ill-typed; they exercise the rejection paths and the
  never-crash guarantee.
* **well-typed-by-construction** — terms grown *backward* from a goal
  type: to inhabit ``σ1 → σ2`` introduce a lambda, to inhabit ``T σ̄``
  pick a prelude function whose (rank-1) scheme instantiates to the goal
  and recurse on the instantiated argument types.  Instantiation images
  are fully monomorphic unless the production wraps the application in a
  type annotation, mirroring the paper's guardedness discipline — so the
  overwhelming majority of generated terms are GI-accepted and drive the
  declarative/System-F/HM oracles, without *guaranteeing* acceptance
  (the oracles are implications, not tautologies).

A third mode replays the Figure 2 corpus itself, seeding the metamorphic
transforms with the exact programs the paper discusses.

Everything is driven by :class:`random.Random` instances derived from
``f"{seed}:{index}"``, so the same seed reproduces the same case list
regardless of count, ordering or process (no ``hypothesis`` dependency —
the property-based strategies live in
:mod:`repro.conformance.strategies`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.env import Environment
from repro.core.terms import (
    Ann,
    AnnLam,
    Case,
    CaseAlt,
    Lam,
    Let,
    Lit,
    Term,
    Var,
    app,
    term_size,
)
from repro.core.types import (
    BOOL,
    CHAR,
    INT,
    Forall,
    TCon,
    TVar,
    Type,
    alpha_equal,
    arrow_parts,
    forall,
    fun,
    is_arrow,
    is_fully_monomorphic,
    list_of,
    split_arrows,
    strip_forall,
    subst_tvars,
    tuple_of,
)

MODE_WELL_TYPED = "well-typed"
MODE_ARBITRARY = "arbitrary"
MODE_FIGURE2 = "figure2"

_A = TVar("a")
ID_TYPE = forall(["a"], fun(_A, _A))

#: Goal types the well-typed generator grows terms for; a mix of ground
#: monotypes and the polymorphic shapes the paper's examples revolve
#: around (annotated productions make the poly goals reachable).
GOAL_POOL: tuple[Type, ...] = (
    INT,
    BOOL,
    fun(INT, INT),
    fun(INT, BOOL),
    list_of(INT),
    list_of(BOOL),
    list_of(fun(INT, INT)),
    tuple_of(INT, BOOL),
    fun(fun(INT, INT), INT),
    fun(INT, INT, INT),
    ID_TYPE,
    list_of(ID_TYPE),
    fun(ID_TYPE, ID_TYPE),
    forall(["a"], fun(list_of(_A), INT)),
    forall(["a", "b"], fun(_A, TVar("b"), TVar("b"))),
)

#: Annotation types the arbitrary generator sprinkles onto subterms.
ANNOTATION_POOL: tuple[Type, ...] = (
    INT,
    fun(INT, INT),
    list_of(INT),
    ID_TYPE,
    list_of(ID_TYPE),
    forall(["a", "b"], fun(_A, TVar("b"), TVar("b"))),
)

#: Prelude names excluded from the generator pools: ``$`` only
#: pretty-prints as a binary operator, and ``undefined`` turns every
#: evaluation comparison into an exception comparison.
EXCLUDED_NAMES = frozenset({"$", "undefined"})


@dataclass(frozen=True)
class FuzzCase:
    """One generated conformance case, reproducible from ``seed:index``."""

    index: int
    seed: int
    mode: str
    term: Term
    goal: Type | None = None

    @property
    def source(self) -> str:
        return str(self.term)

    @property
    def size(self) -> int:
        return term_size(self.term)


class _Dead(Exception):
    """Internal: no production applies for the current goal."""


class TermGenerator:
    """Deterministic term generation against one environment."""

    def __init__(self, env: Environment, max_depth: int = 4) -> None:
        self.env = env
        self.max_depth = max_depth
        self.pool: list[tuple[str, Type]] = [
            (name, env.lookup(name))
            for name in sorted(env.names())
            if name not in EXCLUDED_NAMES
        ]

    # -- public entry points -------------------------------------------

    def case(self, seed: int, index: int) -> FuzzCase:
        """The conformance case for position ``index`` of sweep ``seed``."""
        rng = random.Random(f"{seed}:{index}")
        roll = rng.random()
        if roll < 0.55:
            goal = self._pick_goal(rng)
            term = self.well_typed(rng, goal)
            return FuzzCase(index, seed, MODE_WELL_TYPED, term, goal)
        if roll < 0.85:
            return FuzzCase(index, seed, MODE_ARBITRARY, self.arbitrary(rng))
        return FuzzCase(index, seed, MODE_FIGURE2, self._figure2(rng))

    def cases(self, seed: int, count: int) -> list[FuzzCase]:
        return [self.case(seed, index) for index in range(count)]

    def well_typed(self, rng: random.Random, goal: Type) -> Term:
        """Grow a term backward from ``goal`` (biased toward acceptance)."""
        fuel = rng.randint(2, self.max_depth)
        return self._for_type(rng, goal, {}, fuel)

    def arbitrary(self, rng: random.Random) -> Term:
        """A random closed term; typeability is the luck of the draw."""
        fuel = rng.randint(1, self.max_depth)
        return self._arbitrary(rng, fuel, ())

    # -- well-typed productions ----------------------------------------

    def _pick_goal(self, rng: random.Random) -> Type:
        if rng.random() < 0.7:
            return rng.choice(GOAL_POOL)
        return self._random_mono(rng, rng.randint(0, 2))

    def _random_mono(self, rng: random.Random, depth: int) -> Type:
        if depth <= 0:
            return rng.choice((INT, BOOL, CHAR))
        roll = rng.random()
        if roll < 0.4:
            return fun(
                self._random_mono(rng, depth - 1), self._random_mono(rng, depth - 1)
            )
        if roll < 0.7:
            return list_of(self._random_mono(rng, depth - 1))
        return tuple_of(
            self._random_mono(rng, depth - 1), self._random_mono(rng, depth - 1)
        )

    def _for_type(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        if isinstance(goal, Forall) and not goal.context:
            # Quantified goals: an exact-type variable, or a term grown for
            # the body (binders rigid) wrapped in a guarding annotation —
            # the annotation pins the quantifier structure exactly, which
            # matters in argument positions (arrows are invariant).
            exact = self._alpha_vars(goal, local)
            if exact and rng.random() < 0.5:
                return Var(rng.choice(exact))
            return Ann(self._for_type(rng, goal.body, local, fuel), goal)
        productions = []
        if fuel > 0:
            if is_arrow(goal):
                productions.append(self._intro_lambda)
                productions.append(self._intro_lambda)  # weight lambdas up
            productions.append(self._intro_app)
            productions.append(self._intro_let)
            if rng.random() < 0.15:
                productions.append(self._intro_case)
            if rng.random() < 0.2:
                productions.append(self._intro_ann)
        rng.shuffle(productions)
        productions.append(self._base)
        for production in productions:
            try:
                return production(rng, goal, local, fuel)
            except _Dead:
                continue
        return self._last_resort(rng, goal, local)

    def _intro_lambda(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        if not is_arrow(goal):
            raise _Dead
        domain, codomain = arrow_parts(goal)
        name = self._fresh_var(local)
        inner = dict(local)
        inner[name] = domain
        body = self._for_type(rng, codomain, inner, fuel - 1)
        if is_fully_monomorphic(domain):
            return Lam(name, body)
        return AnnLam(name, domain, body)

    def _intro_app(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        candidates = self._app_candidates(goal, local, mono_only=True, min_args=1)
        if not candidates:
            raise _Dead
        name, arg_types = rng.choice(candidates)
        args = [self._for_type(rng, t, local, fuel - 1) for t in arg_types]
        return app(Var(name), *args)

    def _intro_ann(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        """An annotated application whose annotation *guards* impredicative
        instantiation (rule AnnApp): poly images are allowed exactly for
        binders determined by the goal."""
        candidates = self._app_candidates(goal, local, mono_only=False, min_args=0)
        if not candidates:
            raise _Dead
        name, arg_types = rng.choice(candidates)
        args = [self._for_type(rng, t, local, max(fuel - 2, 0)) for t in arg_types]
        return Ann(app(Var(name), *args), goal)

    def _intro_let(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        bound_type = self._random_mono(rng, rng.randint(0, 1))
        name = self._fresh_var(local)
        bound = self._for_type(rng, bound_type, local, fuel - 1)
        inner = dict(local)
        inner[name] = bound_type
        body = self._for_type(rng, goal, inner, fuel - 1)
        return Let(name, bound, body)

    def _intro_case(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        element = self._random_mono(rng, 0)
        if rng.random() < 0.5:
            scrutinee = self._for_type(rng, list_of(element), local, fuel - 1)
            head_name = self._fresh_var(local)
            tail_name = self._fresh_var({**local, head_name: element})
            inner = dict(local)
            inner[head_name] = element
            inner[tail_name] = list_of(element)
            return Case(
                scrutinee,
                (
                    CaseAlt(
                        "Cons",
                        (head_name, tail_name),
                        self._for_type(rng, goal, inner, fuel - 1),
                    ),
                    CaseAlt("Nil", (), self._for_type(rng, goal, local, fuel - 1)),
                ),
            )
        scrutinee = self._for_type(rng, TCon("Maybe", (element,)), local, fuel - 1)
        name = self._fresh_var(local)
        inner = dict(local)
        inner[name] = element
        return Case(
            scrutinee,
            (
                CaseAlt("Just", (name,), self._for_type(rng, goal, inner, fuel - 1)),
                CaseAlt("Nothing", (), self._for_type(rng, goal, local, fuel - 1)),
            ),
        )

    def _base(
        self, rng: random.Random, goal: Type, local: dict[str, Type], fuel: int
    ) -> Term:
        options: list[Term] = []
        if goal == INT:
            options.append(Lit(rng.randint(0, 9)))
        elif goal == BOOL:
            options.append(Lit(rng.random() < 0.5))
        elif goal == CHAR:
            options.append(Lit(rng.choice("abc")))
        options.extend(Var(name) for name in self._alpha_vars(goal, local))
        for name, arg_types in self._app_candidates(
            goal, local, mono_only=True, min_args=0, max_args=0
        ):
            options.append(Var(name))
        if not options:
            raise _Dead
        return rng.choice(options)

    def _alpha_vars(self, goal: Type, local: dict[str, Type]) -> list[str]:
        """Variables that inhabit ``goal`` verbatim (rule VarGen
        re-generalises rank-1 schemes; other types pass through)."""
        return [
            name
            for name, type_ in sorted(local.items()) + self.pool
            if alpha_equal(type_, goal)
        ]

    def _last_resort(
        self, rng: random.Random, goal: Type, local: dict[str, Type]
    ) -> Term:
        """When no production applied: an annotated nullary match (poly
        images guarded by the annotation), a zero-fuel lambda, or — truly
        out of options — a literal that is probably ill-typed."""
        for name, type_ in sorted(local.items()) + self.pool:
            if alpha_equal(type_, goal):
                return Var(name)
        candidates = self._app_candidates(goal, local, mono_only=False, min_args=0)
        for name, arg_types in candidates:
            if not arg_types:
                return Ann(Var(name), goal)
        if is_arrow(goal):
            return self._intro_lambda(rng, goal, local, 1)
        if isinstance(goal, TCon) and goal.name == "(,)" and len(goal.args) == 2:
            return app(
                Var("pair"),
                self._last_resort(rng, goal.args[0], local),
                self._last_resort(rng, goal.args[1], local),
            )
        if isinstance(goal, TCon) and goal.name == "[]" and len(goal.args) == 1:
            return Ann(Var("nil"), goal)
        return Lit(0)

    # -- scheme matching -----------------------------------------------

    def _app_candidates(
        self,
        goal: Type,
        local: dict[str, Type],
        mono_only: bool,
        min_args: int,
        max_args: int = 3,
    ) -> list[tuple[str, list[Type]]]:
        """Head variables whose scheme reaches ``goal`` after consuming
        ``k`` arguments (``min_args ≤ k ≤ max_args``), paired with the
        instantiated argument types to generate."""
        found: list[tuple[str, list[Type]]] = []
        pools = list(self.pool) + sorted(local.items())
        for name, scheme in pools:
            binders, body = strip_forall(scheme)
            if isinstance(scheme, Forall) and scheme.context:
                continue
            arg_types, _ = split_arrows(body)
            for k in range(min_args, min(len(arg_types), max_args) + 1):
                _, remainder = split_arrows(body, k)
                mapping = _match(remainder, goal, frozenset(binders), mono_only)
                if mapping is None:
                    continue
                for binder in binders:
                    # Binders the goal does not determine are filled with
                    # a plain monotype.
                    mapping.setdefault(binder, INT)
                instantiated = [
                    subst_tvars(mapping, argument) for argument in arg_types[:k]
                ]
                if mono_only and any(
                    not is_fully_monomorphic(image) for image in mapping.values()
                ):
                    continue
                if not all(
                    self._inhabitable(argument, local) for argument in instantiated
                ):
                    # e.g. ``runST`` at goal ``[Char]`` would demand an
                    # argument of type ``∀s. ST s [Char]`` — nothing in the
                    # prelude can produce one, so skip the head entirely.
                    continue
                found.append((name, instantiated))
                break  # one arity per head keeps the search cheap
        return found

    def _inhabitable(
        self, goal: Type, local: dict[str, Type], depth: int = 4
    ) -> bool:
        """A cheap sufficient check that the generator can build a term of
        ``goal`` — used to prune application candidates whose argument
        types would dead-end (conservative: ``False`` means "don't know
        how", not "uninhabited")."""
        if depth <= 0:
            return False
        if self._alpha_vars(goal, local):
            return True
        if isinstance(goal, Forall):
            return not goal.context and self._inhabitable(
                goal.body, local, depth - 1
            )
        if is_arrow(goal):
            domain, codomain = arrow_parts(goal)
            binder = f"_inhab{depth}"
            return self._inhabitable(codomain, {**local, binder: domain}, depth - 1)
        if isinstance(goal, TCon):
            if goal.name in ("Int", "Bool", "Char", "String", "[]"):
                return True
            if goal.name == "Maybe":
                return True
            if goal.name.startswith("(,"):
                return all(
                    self._inhabitable(argument, local, depth - 1)
                    for argument in goal.args
                )
        return bool(
            self._app_candidates(goal, local, mono_only=False, min_args=0, max_args=0)
        )

    # -- arbitrary terms -----------------------------------------------

    def _arbitrary(
        self, rng: random.Random, fuel: int, bound: tuple[str, ...]
    ) -> Term:
        if fuel <= 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.45 or (not bound and not self.pool):
                return Lit(
                    rng.choice((0, 1, 5, True, False, "a"))
                )
            if bound and roll < 0.7:
                return Var(rng.choice(bound))
            return Var(rng.choice(self.pool)[0])
        roll = rng.random()
        if roll < 0.35:
            head = self._arbitrary(rng, fuel - 1, bound)
            args = [
                self._arbitrary(rng, fuel - 1, bound)
                for _ in range(rng.randint(1, 2))
            ]
            return app(head, *args)
        if roll < 0.6:
            name = f"x{len(bound) + 1}"
            return Lam(name, self._arbitrary(rng, fuel - 1, bound + (name,)))
        if roll < 0.75:
            name = f"x{len(bound) + 1}"
            return Let(
                name,
                self._arbitrary(rng, fuel - 1, bound),
                self._arbitrary(rng, fuel - 1, bound + (name,)),
            )
        if roll < 0.9:
            return Ann(
                self._arbitrary(rng, fuel - 1, bound), rng.choice(ANNOTATION_POOL)
            )
        name = f"x{len(bound) + 1}"
        return AnnLam(
            name,
            rng.choice(ANNOTATION_POOL),
            self._arbitrary(rng, fuel - 1, bound + (name,)),
        )

    def _figure2(self, rng: random.Random) -> Term:
        from repro.evalsuite.figure2 import FIGURE2

        example = rng.choice(FIGURE2)
        return example.term

    @staticmethod
    def _fresh_var(local: dict[str, Type]) -> str:
        index = len(local) + 1
        while f"v{index}" in local:
            index += 1
        return f"v{index}"


# ---------------------------------------------------------------------
# First-order matching of a rank-1 scheme body against a goal type.
# ---------------------------------------------------------------------


def _match(
    pattern: Type, goal: Type, binders: frozenset[str], allow_poly: bool
) -> dict[str, Type] | None:
    """Find ``mapping`` over ``binders`` with ``pattern[mapping] = goal``.

    With ``allow_poly=False`` every image must be fully monomorphic (the
    un-annotated instantiation discipline); otherwise any image goes —
    the caller is responsible for guarding the instantiation with an
    annotation.
    """
    mapping: dict[str, Type] = {}
    if _match_into(pattern, goal, binders, mapping, allow_poly):
        return mapping
    return None


def _match_into(
    pattern: Type,
    goal: Type,
    binders: frozenset[str],
    mapping: dict[str, Type],
    allow_poly: bool,
) -> bool:
    if isinstance(pattern, TVar) and pattern.name in binders:
        if not allow_poly and not is_fully_monomorphic(goal):
            return False
        bound = mapping.get(pattern.name)
        if bound is not None:
            return alpha_equal(bound, goal)
        mapping[pattern.name] = goal
        return True
    if isinstance(pattern, TVar):
        return isinstance(goal, TVar) and goal.name == pattern.name
    if isinstance(pattern, TCon):
        if (
            not isinstance(goal, TCon)
            or goal.name != pattern.name
            or len(goal.args) != len(pattern.args)
        ):
            return False
        return all(
            _match_into(p, g, binders, mapping, allow_poly)
            for p, g in zip(pattern.args, goal.args)
        )
    if isinstance(pattern, Forall):
        # Quantified sub-patterns are matched rigidly: substitute what is
        # already decided and require alpha-equality.
        free = {name for name in binders if name not in pattern.binders}
        undecided = [name for name in free if name not in mapping]
        if undecided:
            return False
        return alpha_equal(subst_tvars(mapping, pattern), goal)
    return False
