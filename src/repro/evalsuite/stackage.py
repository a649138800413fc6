"""The Section 5 compatibility study, on a simulated Stackage corpus.

The paper modified GHC to impose GI's restrictions and rebuilt all of
Stackage: of 2,400 packages, 609 used ``RankNTypes``; 75 required manual
changes, **all of which were η-expansions**; one (``singletons``) would
need larger changes because Template Haskell generates un-η-expanded
code; two more failed for unrelated reasons.

We have neither GHC nor Stackage offline, so the corpus is *synthetic*
(seeded, deterministic) — but the **analysis is real**: every generated
declaration is type-checked with our GI implementation; rejected
declarations are mechanically repaired (η-expansion of variable
arguments, then pushing the result annotation inwards) and re-checked.
Category proportions are calibrated to the paper's scale; the *verdicts*
(which declarations fail, which repairs fix them) are measured, not
scripted — a generator bug that produced GI-compatible "variance" code
would show up as a count of zero, not silently match the paper.

Declaration patterns follow the categories the paper names:

* plain Hindley–Milner code (most declarations in most packages);
* GI-friendly rank-n code: ``runST $ …``, ``poly (λx. x)``-style calls,
  lens-like aliases stored in lists;
* SYB-style definitions with a ``∀`` to the right of an arrow, for which
  the paper added a special case (we repair by pushing the annotation
  inwards, the same transformation GHC's special case performs);
* variance-dependent call sites (``flip f`` where ``f`` has a nested
  quantifier) that genuinely need η-expansion under GI;
* a Template-Haskell-style package whose failing code is *generated*, so
  η-expansion cannot be applied at the source level;
* unrelated build failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro.core.env import Environment
from repro.core.errors import GIError
from repro.core.infer import Inferencer
from repro.core.terms import Ann, AnnLam, App, Lam, Term, Var, app, drive
from repro.core.types import Forall, Type, arrow_parts, is_arrow, strip_forall
from repro.syntax.parser import parse_term, parse_type
from repro.evalsuite.figure2 import figure2_env


class Verdict(Enum):
    """Per-package outcome of the compatibility check."""

    OK = "compiles unchanged"
    ETA = "needs η-expansion"
    LARGER = "needs larger changes"
    UNRELATED = "fails for unrelated reasons"


@dataclass(frozen=True)
class Declaration:
    """One top-level binding: ``name :: signature ; name = body``."""

    name: str
    signature: str
    body: str
    generated: bool = False
    """Template-Haskell-style: produced by a code generator, so manual
    source repairs are not applicable."""


@dataclass
class Package:
    """A synthetic package: a name, declarations, RankNTypes usage."""

    name: str
    uses_rankntypes: bool
    declarations: list[Declaration] = field(default_factory=list)
    broken_build: bool = False


@dataclass
class PackageReport:
    package: Package
    verdict: Verdict
    failed: list[str] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)


@dataclass
class StudyResult:
    """The Section 5 table."""

    total: int
    rankntypes: int
    ok: int
    eta: int
    larger: int
    unrelated: int
    reports: list[PackageReport] = field(default_factory=list)

    def rows(self) -> list[tuple[str, int]]:
        return [
            ("packages in corpus", self.total),
            ("packages using RankNTypes", self.rankntypes),
            ("RankNTypes packages compiling unchanged", self.ok),
            ("packages needing manual changes (all η-expansions)", self.eta),
            ("packages needing larger changes (TH-generated code)", self.larger),
            ("packages failing for unrelated reasons", self.unrelated),
        ]


# ----------------------------------------------------------------------
# Corpus generation
# ----------------------------------------------------------------------

_PLAIN_TEMPLATES = [
    ("length2", "forall a. [a] -> Int", r"\xs -> plus (length xs) (length xs)"),
    ("twice", "forall a. (a -> a) -> a -> a", r"\f x -> f (f x)"),
    ("compose2", "Int -> Int", r"\x -> inc (inc x)"),
    ("swap2", "forall a b. (a, b) -> (b, a)", r"\p -> pair (snd p) (fst p)"),
    ("heads", "forall a. [[a]] -> [a]", r"\xs -> map head xs"),
    ("apply1", "forall a b. (a -> b) -> a -> b", r"\f x -> f x"),
    ("constK", "forall a b. a -> b -> a", r"\x y -> x"),
]

# GI-friendly RankNTypes usage: accepted without changes.
_FRIENDLY_TEMPLATES = [
    ("runAction", "Int", "runST $ argST"),
    ("runBoth", "(Int, Int)", "pair (runST argST) (app runST argST)"),
    ("useIds", "forall a. a -> a", "head ids"),
    ("polyPair", "(Int, Bool)", r"poly (\x -> x)"),
    ("storeId", "[forall a. a -> a]", "id : ids"),
    ("allIds", "[forall a. a -> a]", "tail ids ++ ids"),
    ("applyPoly", "(Int, Bool)", "app poly id"),
    ("lensList", "[forall a. a -> a]", r"(\x -> x) : ids"),
]

# SYB style: a ∀ to the right of an arrow in a *definition* signature.
_SYB_TEMPLATES = [
    ("gmapQ", "forall a. a -> (forall b. b -> b)", r"\x y -> y"),
    ("extQ", "forall a. a -> (forall b. b -> b -> b)", r"\x u v -> v"),
]

# Variance-dependent call sites: need η-expansion under GI.  Each fails
# with a structural Forall-vs-arrow error (all constructors are invariant,
# Section 5) and is fixed by η-expanding the offending variable argument.
_ETA_TEMPLATES = [
    ("flipped", "forall b. b -> Int -> b", "flip h"),
    ("variance", "Bool", "g24 h"),
    ("chosen", "Int -> Int -> Int", "choose inc2 h"),
]


def study_env() -> Environment:
    """The study's typing environment: Figure 1 plus variance helpers.

    ``h :: Int → ∀a. a → a`` comes from Figure 2's E group; ``g24`` and
    ``inc2`` mimic consumers expecting the η-expanded shape.
    """
    env = figure2_env()
    return env.extended_many(
        {
            "g24": parse_type("(Int -> Int -> Int) -> Bool"),
            "inc2": parse_type("Int -> Int -> Int"),
        }
    )


def generate_corpus(seed: int = 2018, size: int = 2400) -> list[Package]:
    """A deterministic synthetic corpus of ``size`` packages.

    609/2400 of the packages use RankNTypes; of those, the weights put
    ~12% in the variance-dependent category (the paper found 75/609) and
    one package in the TH-generated category.
    """
    rng = random.Random(seed)
    rank_count = round(size * 609 / 2400)
    packages: list[Package] = []
    eta_target = round(rank_count * 75 / 609)
    th_target = 1 if size >= 100 else 0
    unrelated_target = 2 if size >= 100 else 0

    # Assign special categories to distinct package indices.
    rank_indices = rng.sample(range(size), rank_count)
    rank_set = set(rank_indices)
    specials = rng.sample(rank_indices, eta_target + th_target)
    eta_set = set(specials[:eta_target])
    th_set = set(specials[eta_target:])
    unrelated_set = set(
        rng.sample([i for i in range(size) if i not in rank_set], unrelated_target)
    )

    for index in range(size):
        name = f"pkg-{index:04d}"
        package = Package(name, uses_rankntypes=index in rank_set)
        count = rng.randint(3, 8)
        for decl_index in range(count):
            template, signature, body = rng.choice(_PLAIN_TEMPLATES)
            package.declarations.append(
                Declaration(f"{template}_{decl_index}", signature, body)
            )
        if index in rank_set:
            for decl_index in range(rng.randint(1, 3)):
                template, signature, body = rng.choice(_FRIENDLY_TEMPLATES)
                package.declarations.append(
                    Declaration(f"{template}_{decl_index}", signature, body)
                )
            if rng.random() < 0.5:
                template, signature, body = rng.choice(_SYB_TEMPLATES)
                package.declarations.append(Declaration(template, signature, body))
        if index in eta_set:
            template, signature, body = rng.choice(_ETA_TEMPLATES)
            package.declarations.append(Declaration(template, signature, body))
        if index in th_set:
            template, signature, body = rng.choice(_ETA_TEMPLATES)
            package.declarations.append(
                Declaration(f"th_{template}", signature, body, generated=True)
            )
        if index in unrelated_set:
            package.broken_build = True
        packages.append(package)
    return packages


# ----------------------------------------------------------------------
# The analyzer: really type-check, really repair
# ----------------------------------------------------------------------


def eta_expand_var_args(term: Term) -> Term:
    """η-expand every bare-variable argument: ``f g`` becomes
    ``f (λx. g x)`` — the repair the paper reports for all 75 packages.
    The repair goes under applications, λs and annotations, not into
    ``let`` or ``case``."""
    return drive(_eta_expand(term))


def _eta_expand(term: Term):
    if isinstance(term, (App, Lam, AnnLam, Ann)):
        return _eta_expand_node(term)
    return term


def _eta_expand_node(term: Term):
    if isinstance(term, App):
        head = yield _eta_expand(term.head)
        new_args = []
        for argument in term.args:
            if isinstance(argument, Var):
                new_args.append(Lam("eta_x", app(argument, Var("eta_x"))))
            else:
                new_args.append((yield _eta_expand(argument)))
        return app(head, *new_args)
    if isinstance(term, Lam):
        return Lam(term.var, (yield _eta_expand(term.body)))
    if isinstance(term, AnnLam):
        return AnnLam(term.var, term.annotation, (yield _eta_expand(term.body)))
    return Ann((yield _eta_expand(term.expr)), term.annotation)


def push_annotation_inward(term: Term, signature: Type) -> Term | None:
    """The paper's SYB special case: for ``f :: ∀ā. σ1 → … → ∀b̄.ρ`` with
    a matching lambda definition, annotate the lambda's body instead of
    the whole definition, so the nested quantifier is checked directly."""
    binders, body = strip_forall(signature)
    current: Term = term
    peeled: list[tuple[str, Type]] = []
    sig = body
    while isinstance(current, Lam) and is_arrow(sig):
        parameter, sig = arrow_parts(sig)
        peeled.append((current.var, parameter))
        current = current.body
    if not peeled or not isinstance(sig, Forall):
        return None
    rebuilt: Term = Ann(current, sig)
    for name, parameter in reversed(peeled):
        rebuilt = AnnLam(name, parameter, rebuilt)
    from repro.core.types import forall

    return Ann(rebuilt, forall(binders, body))


@dataclass
class Analyzer:
    """Runs the GI checker (plus mechanical repairs) over a corpus."""

    env: Environment

    def check_declaration(self, declaration: Declaration) -> tuple[bool, str | None]:
        """(accepted, repair) — repair is ``None`` (fine as-is), ``"eta"``
        or ``"special-case"``; raises ValueError if nothing helps."""
        signature = parse_type(declaration.signature)
        term = parse_term(declaration.body)
        inferencer = Inferencer(self.env)
        try:
            inferencer.infer(Ann(term, signature))
            return True, None
        except GIError:
            pass
        repaired = eta_expand_var_args(term)
        if repaired != term:
            try:
                inferencer.infer(Ann(repaired, signature))
                return False, "eta"
            except GIError:
                pass
        pushed = push_annotation_inward(term, signature)
        if pushed is not None:
            try:
                inferencer.infer(pushed)
                return False, "special-case"
            except GIError:
                pass
        raise ValueError(f"declaration {declaration.name} is unrepairable")

    def check_package(self, package: Package) -> PackageReport:
        if package.broken_build:
            return PackageReport(package, Verdict.UNRELATED)
        failed: list[str] = []
        repaired: list[str] = []
        needs_eta = False
        needs_larger = False
        for declaration in package.declarations:
            accepted, repair = self.check_declaration(declaration)
            if accepted:
                continue
            failed.append(declaration.name)
            if repair == "special-case":
                # The paper's GHC patch applies this automatically; it is
                # not a manual change.
                repaired.append(declaration.name)
                continue
            if declaration.generated:
                # η-expansion would have to happen inside generated code.
                needs_larger = True
                continue
            if repair == "eta":
                repaired.append(declaration.name)
                needs_eta = True
        if needs_larger:
            verdict = Verdict.LARGER
        elif needs_eta:
            verdict = Verdict.ETA
        else:
            verdict = Verdict.OK
        return PackageReport(package, verdict, failed, repaired)


def run_study(seed: int = 2018, size: int = 2400) -> StudyResult:
    """Generate the corpus, check every package, tabulate Section 5."""
    env = study_env()
    analyzer = Analyzer(env)
    packages = generate_corpus(seed, size)
    reports = [analyzer.check_package(package) for package in packages]
    rank = [r for r in reports if r.package.uses_rankntypes]
    return StudyResult(
        total=len(packages),
        rankntypes=len(rank),
        ok=sum(1 for r in rank if r.verdict is Verdict.OK),
        eta=sum(1 for r in rank if r.verdict is Verdict.ETA),
        larger=sum(1 for r in rank if r.verdict is Verdict.LARGER),
        unrelated=sum(1 for r in reports if r.verdict is Verdict.UNRELATED),
        reports=reports,
    )
