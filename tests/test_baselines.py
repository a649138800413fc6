"""Tests for the executable baselines: HM (Algorithm W), HMF, RankN.

The HMF column agreement with Figure 2 is measured in test_figure2_matrix;
here we test the baselines' own behaviours directly.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines import (
    HMFInferencer,
    HMInferencer,
    RankNInferencer,
    SYSTEMS,
    get_system,
)
from repro.core import Inferencer
from repro.core.errors import GIError, SkolemEscapeError
from repro.core.terms import Lam, free_vars
from repro.core.types import alpha_equal, rename_canonical
from repro.syntax import parse_term, parse_type
from repro.evalsuite.figure2 import FIGURE2, figure2_env

from repro.conformance.strategies import hm_terms

ENV = figure2_env()


def hm_type(source: str):
    return HMInferencer(ENV).infer(parse_term(source))


def hmf_type(source: str, nary: bool = False):
    return HMFInferencer(ENV, nary=nary).infer(parse_term(source))


def rankn_type(source: str):
    return RankNInferencer(ENV).infer(parse_term(source))


class TestHM:
    def test_identity(self):
        assert str(hm_type(r"\x -> x")) == "forall a. a -> a"

    def test_let_generalises(self):
        # Classic HM let-polymorphism (unlike GI's let, §3.5).
        assert str(hm_type(r"let f = \x -> x in pair (f 1) (f True)")) == "(Int, Bool)"

    def test_lambda_monomorphic(self):
        with pytest.raises(GIError):
            hm_type(r"\f -> pair (f 1) (f True)")

    def test_rejects_impredicative_env_types(self):
        with pytest.raises(GIError):
            hm_type("head ids")
        with pytest.raises(GIError):
            hm_type("poly id")

    def test_rank1_signature(self):
        assert str(hm_type(r"(\x -> x :: forall a. a -> a)")) == "forall a. a -> a"

    def test_rejects_higher_rank_signature(self):
        with pytest.raises(GIError):
            hm_type(r"(\x -> x :: (forall a. a -> a) -> (forall a. a -> a))")

    def test_signature_cannot_over_claim(self):
        with pytest.raises(GIError):
            hm_type(r"(\x -> inc x :: forall a. a -> a)")

    def test_case(self):
        assert str(hm_type("case Just 1 of { Just x -> x ; Nothing -> 0 }")) == "Int"

    def test_occurs(self):
        with pytest.raises(GIError):
            hm_type(r"\x -> x x")

    @settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much], deadline=None)
    @given(hm_terms())
    def test_deterministic(self, term):
        for name in sorted(free_vars(term) - {"inc", "plus", "choose", "single", "length"}):
            term = Lam(name, term)
        hm = HMInferencer(ENV)
        try:
            first = hm.infer(term)
        except GIError:
            return
        second = HMInferencer(ENV).infer(term)
        assert alpha_equal(first, second)


class TestHMF:
    def test_choose_id_is_predicative(self):
        # The minimal-instantiation preference (A2's footnote).
        assert str(hmf_type("choose id")) == "forall a. (a -> a) -> a -> a"

    def test_single_id_is_predicative(self):
        assert str(hmf_type("single id")) == "forall a. [a -> a]"

    def test_impredicativity_from_actual_types(self):
        assert str(hmf_type("choose [] ids")) == "[forall a. a -> a]"
        assert str(hmf_type("head ids")) == "forall a. a -> a"

    def test_choose_id_auto_rejected(self):
        # The published system's flagship rejection (A7).
        with pytest.raises(GIError):
            hmf_type("choose id auto")

    def test_propagation_into_arguments(self):
        # C9: map poly (single id) — the expected type [∀a.a→a] reaches
        # the nested application.
        assert str(hmf_type("map poly (single id)")) == "[(Int, Bool)]"

    def test_plain_mode_fails_delayed_examples(self):
        with pytest.raises(GIError):
            hmf_type("id : ids")
        with pytest.raises(GIError):
            hmf_type("revapp argST runST")

    def test_nary_extension_recovers_them(self):
        assert str(hmf_type("id : ids", nary=True)) == "[forall a. a -> a]"
        assert str(hmf_type("revapp argST runST", nary=True)) == "Int"

    def test_lambda_binders_fully_monomorphic(self):
        with pytest.raises(GIError):
            hmf_type(r"\xs -> poly (head xs)")

    def test_annotations(self):
        assert (
            str(hmf_type(r"(\(f :: forall a. a -> a) -> f 1 :: (forall a. a -> a) -> Int)"))
            == "(forall a. a -> a) -> Int"
        )

    def test_runst(self):
        assert str(hmf_type("runST argST")) == "Int"
        assert str(hmf_type("app runST argST")) == "Int"

    def test_skolem_escape_names_least_skolem(self):
        # Two skolems leak through one variable; the message must not
        # depend on set iteration order (i.e. on PYTHONHASHSEED).
        with pytest.raises(SkolemEscapeError) as info:
            hmf_type(r"\x -> (x :: forall a b. a -> b)")
        assert info.value.skolem == "a_sk1"


class TestRankN:
    def test_higher_rank_checking(self):
        assert (
            str(rankn_type(r"(\f -> pair (f 1) (f True) :: (forall a. a -> a) -> (Int, Bool))"))
            == "(forall a. a -> a) -> (Int, Bool)"
        )

    def test_poly_lambda_argument(self):
        assert str(rankn_type(r"poly (\x -> x)")) == "(Int, Bool)"

    def test_no_impredicative_instantiation(self):
        for source in ("head ids", "single id ++ ids", "app runST argST"):
            with pytest.raises(GIError):
                rankn_type(source)

    def test_deep_skolemisation(self):
        # r (λx y. y) — E3: accepted thanks to deep skolemisation, a
        # genuine difference from GI (which rejects E3).
        assert str(rankn_type(r"r (\x y -> y)")) == "Int"
        assert not Inferencer(ENV).accepts(parse_term(r"r (\x y -> y)"))

    def test_predicative_runst(self):
        assert str(rankn_type("runST argST")) == "Int"

    def test_skolem_escape(self):
        with pytest.raises(GIError):
            rankn_type(r"\y -> (\x -> y :: forall a. a -> a)")


class TestKernel:
    """Behaviour the shared backend kernel gives all five baselines."""

    def test_mixed_constructor_case_rejected_everywhere(self):
        # Alternatives over two different data types are ill-typed in
        # every system, whichever error the scrutinee would raise later.
        term = parse_term(r"\x -> case x of { Nothing -> 1 ; Nil -> 2 }")
        for name in ("HM", "HMF", "HMF-N", "RankN", "FreezeML", "QuickLook"):
            outcome = SYSTEMS[name].run(term, ENV)
            assert outcome.rejected, name
            assert outcome.detail == "mixed constructors in case", name

    def test_rankn_unifies_polytypes_only_when_syntactically_equal(self):
        # JFP 2007's unifier never looks inside a polytype; Quick Look
        # (which commits polytypes) unifies them up to α-renaming.
        source = "(ids :: [forall b. b -> b])"
        with pytest.raises(GIError):
            rankn_type(source)
        assert str(get_system("QuickLook").infer(parse_term(source), ENV)) == (
            "[forall a. a -> a]"
        )


class TestRegistry:
    def test_all_systems_run(self):
        term = parse_term("inc 1")
        for name, system in SYSTEMS.items():
            assert system.accepts(term, ENV), name

    def test_get_system(self):
        assert get_system("GI").name == "GI"

    def test_gi_through_registry_matches_direct(self):
        term = parse_term("head ids")
        via_registry = SYSTEMS["GI"].infer(term, ENV)
        direct = Inferencer(ENV).infer(term).type_
        assert alpha_equal(via_registry, direct)

    def test_acceptance_ordering_on_figure2(self):
        """HM ⊆ RankN-ish ⊆ GI on the corpus (sanity of relative power)."""
        hm, gi = SYSTEMS["HM"], SYSTEMS["GI"]
        for example in FIGURE2:
            if hm.accepts(example.term, ENV):
                assert gi.accepts(example.term, ENV), example.key
