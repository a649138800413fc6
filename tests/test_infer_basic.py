"""Basic inference behaviour: literals, lambdas, lets, annotations,
errors.  The Figure 2 corpus has its own module (test_figure2)."""

import pytest

from repro.core import (
    Environment,
    GIError,
    Inferencer,
    InferOptions,
    infer,
)
from repro.core.errors import (
    AnnotationNeededError,
    OccursCheckError,
    ScopeError,
    SkolemEscapeError,
    SortError,
    UnificationError,
)
from repro.core.types import INT, alpha_equal, rename_canonical
from repro.syntax import parse_term, parse_type
from repro.evalsuite.figure2 import FIGURE2, figure2_env

#: The two switchable ingredients of GI (DESIGN.md): n-ary applications
#: (Section 3.2) and rule VarGen (Section 3.3), off one at a time and
#: both at once.  ``results/ablation.txt`` tabulates Figure 2 under each.
ABLATIONS = {
    "full": InferOptions(),
    "no-vargen": InferOptions(use_vargen=False),
    "binary-apps": InferOptions(nary_apps=False),
    "neither": InferOptions(use_vargen=False, nary_apps=False),
}


def ablation_accepts(env) -> dict[str, dict[str, bool]]:
    """``{configuration: {row-key: accepted}}`` over Figure 2."""
    matrix = {}
    for name, options in ABLATIONS.items():
        gi = Inferencer(env, options=options)
        matrix[name] = {ex.key: gi.accepts(ex.term) for ex in FIGURE2}
    return matrix


@pytest.fixture(scope="module")
def env():
    return figure2_env()


@pytest.fixture(scope="module")
def ablation_matrix(env):
    return ablation_accepts(env)


@pytest.fixture(scope="module")
def gi(env):
    return Inferencer(env)


def typed(gi, source: str) -> str:
    return str(gi.infer(parse_term(source)).type_)


def assert_type(gi, source: str, expected: str) -> None:
    got = gi.infer(parse_term(source)).type_
    want = rename_canonical(parse_type(expected))
    assert alpha_equal(got, want), f"{source}: got {got}, want {want}"


class TestBasics:
    def test_literal(self, gi):
        assert typed(gi, "42") == "Int"
        assert typed(gi, "True") == "Bool"
        assert typed(gi, "'c'") == "Char"

    def test_identity_lambda(self, gi):
        assert_type(gi, r"\x -> x", "forall a. a -> a")

    def test_const_lambda(self, gi):
        assert_type(gi, r"\x y -> x", "forall a b. a -> b -> a")

    def test_unbound_variable(self, gi):
        with pytest.raises(ScopeError):
            gi.infer(parse_term("missing"))

    def test_simple_application(self, gi):
        assert_type(gi, "inc 1", "Int")

    def test_too_many_arguments(self, gi):
        with pytest.raises(UnificationError):
            gi.infer(parse_term("inc 1 2"))

    def test_argument_mismatch(self, gi):
        with pytest.raises(UnificationError):
            gi.infer(parse_term("inc True"))

    def test_occurs_check(self, gi):
        with pytest.raises((OccursCheckError, GIError)):
            gi.infer(parse_term(r"\x -> x x"))

    def test_higher_order(self, gi):
        assert_type(gi, r"\f -> f 1", "forall a. (Int -> a) -> a")

    def test_deferred_instantiation(self, gi):
        # head ids True: the second instantiation of (head ids) is
        # deferred until the constraint solver knows its type (§4.1).
        assert_type(gi, "head ids True", "Bool")

    def test_nested_application_chain(self, gi):
        assert_type(gi, "inc (inc (inc 0))", "Int")

    def test_accepts_helper(self, gi):
        assert gi.accepts(parse_term("inc 1"))
        assert not gi.accepts(parse_term("inc True"))


class TestLambdaRule:
    """Section 2.3: un-annotated binders are fully monomorphic."""

    def test_polymorphic_use_rejected(self, gi):
        with pytest.raises(GIError):
            gi.infer(parse_term(r"\f -> (f 1, f True)"))

    def test_annotated_binder_accepted(self, gi):
        assert_type(
            gi,
            r"\(f :: forall a. a -> a) -> (f 1, f True)",
            "(forall a. a -> a) -> (Int, Bool)",
        )

    def test_x_x_with_annotation(self, gi):
        assert_type(
            gi,
            r"\(x :: forall a. a -> a) -> x x",
            "forall b. (forall a. a -> a) -> b -> b",
        )

    def test_return_type_needs_annotation_for_poly(self, gi):
        # λ(x :: ∀a.a→a). x x has type (∀a.a→a) → b → b; to get the
        # polymorphic return type the body must be annotated (§2.3).
        assert_type(
            gi,
            r"\(x :: forall a. a -> a) -> (x x :: forall a. a -> a)",
            "(forall a. a -> a) -> (forall a. a -> a)",
        )

    def test_binder_cannot_become_polymorphic(self, gi):
        with pytest.raises(GIError):
            gi.infer(parse_term(r"\xs -> poly (head xs)"))


class TestLet:
    def test_let_no_generalisation(self, gi):
        # Section 3.5: let does not generalise; using the binder at two
        # types fails without an annotation.
        assert not gi.accepts(parse_term(r"let f = \x -> x in (f 1, f True)"))

    def test_let_single_use(self, gi):
        assert_type(gi, r"let f = \x -> x in f 1", "Int")

    def test_let_of_bare_variable_instantiates(self, gi):
        # A bare variable on the right-hand side is a nullary application
        # and instantiates fully monomorphically, so the binder is *not*
        # polymorphic (the paper's Let puts "the type obtained from typing
        # e1" in the environment; generalisation needs an annotation).
        assert not gi.accepts(parse_term("let f = id in (f 1, f True)"))
        assert_type(
            gi,
            "let f = (id :: forall a. a -> a) in (f 1, f True)",
            "(Int, Bool)",
        )

    def test_let_preserves_polymorphic_bound_type(self, gi):
        # When the right-hand side's type is itself polymorphic under a
        # constructor, the binder keeps it without any annotation.
        assert_type(gi, "let xs = cons id ids in head xs", "forall a. a -> a")

    def test_let_generalisation_via_annotation(self, gi):
        assert_type(
            gi,
            r"let f = (\x -> x :: forall a. a -> a) in (f 1, f True)",
            "(Int, Bool)",
        )

    def test_let_impredicative_bound(self, gi):
        assert_type(gi, "let xs = id : ids in head xs", "forall a. a -> a")

    def test_let_shadowing(self, gi):
        assert_type(gi, "let inc = not in inc True", "Bool")


class TestAnnotations:
    def test_annotation_changes_result(self, gi):
        assert_type(gi, "single id", "forall a. [a -> a]")
        assert_type(gi, "(single id :: [forall a. a -> a])", "[forall a. a -> a]")

    def test_annotation_must_hold(self, gi):
        with pytest.raises(GIError):
            gi.infer(parse_term("(inc :: Bool -> Bool)"))

    def test_annotation_cannot_over_generalise(self, gi):
        with pytest.raises(GIError):
            gi.infer(parse_term(r"(\x -> inc x :: forall a. a -> a)"))

    def test_skolem_escape_reported(self, gi):
        with pytest.raises(GIError):
            gi.infer(parse_term(r"\y -> (\x -> y :: forall a. a -> a)"))

    def test_nested_annotations(self, gi):
        assert_type(
            gi,
            "((single id :: [forall a. a -> a]) :: [forall b. b -> b])",
            "[forall a. a -> a]",
        )

    def test_check_entry_point(self, gi):
        result = gi.check(
            parse_term(r"\x -> x"), parse_type("forall a. a -> a")
        )
        assert str(result.type_) == "forall a. a -> a"

    def test_quantifier_order_in_annotations(self, gi, env):
        # §2.4: nested quantifier order is compared by equality.
        gi2 = Inferencer(
            env.extended_many(
                {
                    "gq": parse_type("[forall a b. a -> b -> b] -> Int"),
                    "xsq": parse_type("[forall b a. a -> b -> b]"),
                }
            )
        )
        assert not gi2.accepts(parse_term("gq xsq"))

    def test_top_level_quantifier_order_is_flexible(self, gi, env):
        # ...but top-level quantifiers go through subsumption.
        gi2 = Inferencer(
            env.extended_many(
                {
                    "fq": parse_type("(forall a b. a -> b -> b) -> Int"),
                    "xq": parse_type("forall b a. a -> b -> b"),
                }
            )
        )
        assert gi2.accepts(parse_term("fq xq"))


class TestEnvironment:
    def test_custom_environment(self):
        env = Environment({"x": INT})
        assert str(infer(parse_term("x"), env).type_) == "Int"

    def test_empty_environment(self):
        assert str(infer(parse_term(r"\x -> x")).type_) == "forall a. a -> a"

    def test_result_exposes_constraints(self, gi):
        result = gi.infer(parse_term("head ids"))
        assert result.constraints
        assert result.evidence is not None


class TestOptions:
    def test_vargen_ablation(self, env):
        base = Inferencer(env)
        no_vargen = Inferencer(env, options=InferOptions(use_vargen=False))
        # choose [] ids (A3) and map head (single ids) (C10).
        for source in ("choose [] ids", "map head (single ids)"):
            term = parse_term(source)
            assert base.accepts(term), source
            assert not no_vargen.accepts(term), source

    def test_nary_ablation(self, env):
        # cons id ids (C5) needs both arguments considered together: the
        # binary decomposition commits ((:) id) too early and fails.
        base = Inferencer(env)
        binary = Inferencer(env, options=InferOptions(nary_apps=False))
        term = parse_term("cons id ids")
        assert base.accepts(term)
        assert not binary.accepts(term)

    @pytest.mark.parametrize("weakened", ["no-vargen", "binary-apps", "neither"])
    def test_full_configuration_dominates(self, ablation_matrix, weakened):
        gained = [
            key
            for key, accepted in ablation_matrix[weakened].items()
            if accepted and not ablation_matrix["full"][key]
        ]
        assert not gained, gained

    @pytest.mark.parametrize("config", list(ABLATIONS))
    def test_hm_rows_survive_every_configuration(self, ablation_matrix, config):
        for key in ("A1", "A2", "C4", "C7"):
            assert ablation_matrix[config][key], key

    def test_binary_mode_still_handles_hm(self, env):
        binary = Inferencer(env, options=InferOptions(nary_apps=False))
        assert binary.accepts(parse_term("inc (head (single 1))"))

    def test_no_generalize(self, env):
        lax = Inferencer(env, options=InferOptions(generalize=False))
        result = lax.infer(parse_term(r"\x -> x"))
        from repro.core.types import fuv

        assert fuv(result.raw_type)
