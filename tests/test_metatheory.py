"""Executable metatheory: the theorems of Sections 3.6 and 4.4.

* Theorem 3.1 — compatibility with rank-1 polymorphism: every term the HM
  baseline accepts, GI accepts with an α-equivalent type.
* Theorem 3.2 / 4.3 — principality: inference is deterministic, and
  checking the term against any fully monomorphic instance of the
  principal type succeeds.
* Theorem 3.4 — substitution: inlining a definition preserves typing.
* Theorem 3.5 — ``f e`` ⇔ ``app f e`` ⇔ ``revapp e f`` for predicative
  heads.
* Mild subject reduction — β-reducing a typeable term either preserves
  the type or makes the term untypeable, never changes the type.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.hm import HMInferencer
from repro.core import Inferencer
from repro.core.errors import GIError
from repro.core.terms import (
    Ann,
    App,
    Lam,
    Let,
    Lit,
    Var,
    app,
    free_vars,
    subst_term,
)
from repro.core.types import (
    INT,
    TVar,
    alpha_equal,
    forall,
    fun,
    is_fully_monomorphic,
    rename_canonical,
    strip_forall,
    subst_tvars,
)
from repro.syntax import parse_term, parse_type
from repro.evalsuite.figure2 import FIGURE2, figure2_env

from repro.conformance.strategies import hm_terms

ENV = figure2_env()
RELAXED = settings(
    max_examples=60, suppress_health_check=[HealthCheck.filter_too_much], deadline=None
)


class TestTheorem31Rank1Compatibility:
    """HM ⊆ GI, with the same principal types."""

    @RELAXED
    @given(hm_terms())
    def test_hm_typeable_implies_gi_typeable(self, term):
        if free_vars(term) - {"inc", "plus", "choose", "single", "length"}:
            # Close over locally-free variables with lambdas.
            for name in sorted(free_vars(term) - {"inc", "plus", "choose", "single", "length"}):
                term = Lam(name, term)
        hm = HMInferencer(ENV)
        try:
            hm_type = hm.infer(term)
        except GIError:
            return  # not HM-typeable; nothing to check
        gi_type = Inferencer(ENV).infer(term).type_
        assert alpha_equal(rename_canonical(hm_type), gi_type), (
            f"{term}: HM gives {hm_type}, GI gives {gi_type}"
        )

    def test_hm_corpus(self):
        sources = [
            r"\x -> x",
            r"\f g x -> f (g x)",
            r"\x y -> pair (inc x) y",
            "single (single 1)",
            "length (single inc)",
            r"let go = \xs -> length xs in go (single 1)",
            r"\f -> single (f 1)",
        ]
        for source in sources:
            term = parse_term(source)
            hm_type = HMInferencer(ENV).infer(term)
            gi_type = Inferencer(ENV).infer(term).type_
            assert alpha_equal(rename_canonical(hm_type), gi_type), source


class TestTheorem32Principality:
    """Impredicativity is never guessed; checking against monomorphic
    instances of the principal type succeeds."""

    @pytest.mark.parametrize(
        "example",
        [ex for ex in FIGURE2 if ex.expected["GI"]],
        ids=lambda ex: ex.key,
    )
    def test_inference_is_deterministic(self, example):
        first = Inferencer(ENV).infer(example.term).type_
        second = Inferencer(ENV).infer(example.term).type_
        assert alpha_equal(first, second)

    @pytest.mark.parametrize(
        "example",
        [ex for ex in FIGURE2 if ex.expected["GI"]],
        ids=lambda ex: ex.key,
    )
    def test_mono_instances_check(self, example):
        gi = Inferencer(ENV)
        principal = gi.infer(example.term).type_
        binders, body = strip_forall(principal)
        if not binders:
            return
        instance = subst_tvars({binders[0]: INT}, forall(binders[1:], body))
        # Any fully monomorphic substitution instance must be acceptable
        # as a checked signature (Theorem 4.3).
        gi.infer(Ann(example.term, instance))

    def test_instance_of_single_id(self):
        gi = Inferencer(ENV)
        gi.infer(Ann(parse_term("single id"), parse_type("[Int -> Int]")))
        gi.infer(Ann(parse_term("single id"), parse_type("[Bool -> Bool]")))
        with pytest.raises(GIError):
            # Not an instance of ∀a.[a → a] by a *monomorphic* substitution
            # — requires the impredicative reading, which needs the
            # annotation to be exactly the impredicative type (C9 note).
            gi.infer(Ann(parse_term("single id"), parse_type("[Int -> Bool]")))


class TestTheorem34Substitution:
    """If Γ ⊢ u : σ and Γ, x:σ ⊢ e[x] : ϕ then Γ ⊢ e[u] : ϕ."""

    @pytest.mark.parametrize(
        "binding, body",
        [
            ("inc", "plus (x 1) 2"),
            ("single id", "length x"),
            ("head ids", "x True"),
            (r"\y -> y", "pair (x 1) (x 2)"),
        ],
    )
    def test_inlining_preserves_typing(self, binding, body):
        bound = parse_term(binding)
        # Type the body with x : σ, the binding's principal type.  (Its raw
        # type would carry another run's unification variables, whose
        # names the body's run may reuse for different variables.)
        env_with_x = ENV.extended("x", Inferencer(ENV).infer(bound).type_)
        body_term = parse_term(body)
        with_x = Inferencer(env_with_x).infer(body_term).type_
        # ...then inline and retype.
        inlined = subst_term(body_term, "x", bound)
        direct = Inferencer(ENV).infer(inlined).type_
        assert alpha_equal(with_x, direct), (
            f"let-bound: {with_x}, inlined: {direct}"
        )


class TestTheorem35AppRevapp:
    """``f e`` ⇔ ``app f e`` ⇔ ``revapp e f`` for predicative heads."""

    PREDICATIVE = [
        ("inc", "1"),
        ("length", "ids"),
        ("single", "inc"),
        ("head", "single 1"),
        ("poly", "id"),
        ("not", "True"),
    ]

    @pytest.mark.parametrize("fn, arg", PREDICATIVE)
    def test_three_forms_agree(self, fn, arg):
        gi = Inferencer(ENV)
        direct = gi.infer(parse_term(f"{fn} ({arg})")).type_
        via_app = gi.infer(parse_term(f"app {fn} ({arg})")).type_
        via_revapp = gi.infer(parse_term(f"revapp ({arg}) {fn}")).type_
        assert alpha_equal(direct, via_app)
        assert alpha_equal(direct, via_revapp)

    def test_vargen_extends_the_theorem_to_rank1_vars(self):
        # The paper's §3.6 discussion notes that `f ids` (f : ∀a.[a]→[a])
        # cannot be rewritten to `app f ids` — in the *core* system.  With
        # the single-variable rule VarGen (Figure 5), a closed rank-1
        # variable like tail may be pre-instantiated impredicatively in
        # argument position, so the rewrite is recovered:
        gi = Inferencer(ENV)
        assert str(gi.infer(parse_term("tail ids")).type_) == "[forall a. a -> a]"
        assert str(gi.infer(parse_term("app tail ids")).type_) == "[forall a. a -> a]"

    def test_restriction_for_non_variable_heads(self):
        # ...but a syntactically larger argument gets no such help: the
        # η-wrapped head is typed through a monomorphic lambda binder and
        # the impredicative instantiation is lost.
        gi = Inferencer(ENV)
        assert gi.accepts(parse_term("tail ids"))
        assert not gi.accepts(parse_term(r"app (\xs -> tail xs) ids"))


class TestSubjectReduction:
    """Milder subject reduction: if e : σ, e →β e', and e' : ϕ, then σ = ϕ."""

    CASES = [
        (r"(\x -> inc x) 1", "inc 1"),
        (r"(\x -> x) inc", "inc"),
        (r"let y = inc 1 in plus y y", "plus (inc 1) (inc 1)"),
        (r"(\x y -> y) 1 True", "True"),
    ]

    @pytest.mark.parametrize("before, after", CASES)
    def test_reduction_preserves_type_when_typeable(self, before, after):
        gi = Inferencer(ENV)
        type_before = gi.infer(parse_term(before)).type_
        type_after = gi.infer(parse_term(after)).type_
        assert alpha_equal(type_before, type_after)

    def test_full_subject_reduction_fails(self):
        # app auto is typeable, its β-reduct λx. auto x is not (§3.6).
        gi = Inferencer(ENV)
        assert gi.accepts(parse_term("app auto"))
        assert not gi.accepts(parse_term(r"\x -> auto x"))
