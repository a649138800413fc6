"""The instantiation-policy axis: parsing, deep-prenexing, the four
policy points through core inference and the policy-capable backends,
the oracle guards, and the tc211 evaluation grid.

The semantic anchors (from "Seeking Stability by being Lazy and
Shallow", Bottu & Eisenberg, Haskell 2021, transplanted onto GI):

* the **default** (eager-shallow) is bit-identical to the paper's
  published discipline — every policy-off code path must be unchanged;
* **lazy** makes a let-bound bare variable alias the environment sigma
  verbatim, so ``let f = id in (f :: forall a. a -> a)`` flips from a
  skolem escape to accepted;
* **deep** hoists nested foralls over arrow codomains at instantiation
  and generalisation sites, so Figure 2's E1 (``k h lst``) flips from
  rejected to accepted — the GHC ≤8.10 deep-subsumption behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.errors import GIError
from repro.core.infer import Inferencer, InferOptions
from repro.core.policy import (
    DEFAULT_POLICY,
    EAGER_DEEP,
    EAGER_SHALLOW,
    LAZY_DEEP,
    LAZY_SHALLOW,
    POLICIES,
    POLICY_NAMES,
    InstantiationPolicy,
    deep_prenex,
    has_nested_forall,
    parse_policy,
)
from repro.evalsuite.figure2 import figure2_env
from repro.syntax import parse_term, parse_type

ENV = figure2_env()


def _infer(source: str, policy: InstantiationPolicy):
    options = InferOptions(policy=policy)
    return Inferencer(figure2_env(), options=options).infer(parse_term(source))


def _accepts(source: str, policy: InstantiationPolicy) -> bool:
    try:
        _infer(source, policy)
        return True
    except GIError:
        return False


class TestPolicyModule:
    def test_the_grid_is_complete(self):
        assert POLICY_NAMES == (
            "eager-shallow",
            "eager-deep",
            "lazy-shallow",
            "lazy-deep",
        )
        assert len(POLICIES) == 4
        assert DEFAULT_POLICY is EAGER_SHALLOW

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_parse_roundtrips_every_name(self, name):
        assert parse_policy(name).name == name

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="available:"):
            parse_policy("deep-lazy")
        with pytest.raises(ValueError):
            parse_policy("")

    def test_constructor_validates_axes(self):
        with pytest.raises(ValueError):
            InstantiationPolicy("eager", "wide")
        with pytest.raises(ValueError):
            InstantiationPolicy("slow", "deep")

    def test_flags(self):
        assert LAZY_DEEP.lazy and LAZY_DEEP.deep
        assert not EAGER_SHALLOW.lazy and not EAGER_SHALLOW.deep
        assert str(LAZY_SHALLOW) == "lazy-shallow"


class TestDeepPrenex:
    def _roundtrip(self, source: str) -> str:
        return str(deep_prenex(parse_type(source)))

    def test_hoists_codomain_forall(self):
        assert self._roundtrip("Int -> (forall a. a -> a)") == str(
            parse_type("forall a. Int -> a -> a")
        )

    def test_prenex_types_are_fixed_points(self):
        for source in ("forall a. a -> a", "Int -> Bool", "[forall a. a -> a]"):
            type_ = parse_type(source)
            assert deep_prenex(type_) is type_

    def test_hoists_through_multiple_arrows(self):
        assert self._roundtrip("Int -> Bool -> (forall a. a)") == str(
            parse_type("forall a. Int -> Bool -> a")
        )

    def test_does_not_hoist_from_argument_positions(self):
        source = "(forall a. a -> a) -> Int"
        assert self._roundtrip(source) == str(parse_type(source))

    def test_freshens_against_capture(self):
        # The outer binder `a` must not capture the hoisted inner `a`.
        hoisted = self._roundtrip("forall a. a -> (forall a. a -> a)")
        outer, inner = parse_type(hoisted).binders[:2]
        assert outer != inner

    def test_has_nested_forall(self):
        assert has_nested_forall(parse_type("Int -> (forall a. a -> a)"))
        assert has_nested_forall(parse_type("forall a. a -> (forall b. b)"))
        assert not has_nested_forall(parse_type("forall a. a -> a"))
        assert not has_nested_forall(parse_type("Int"))
        # Nested foralls *left* of the arrow do not count: deep
        # skolemisation never touches argument positions.
        assert not has_nested_forall(parse_type("(forall a. a -> a) -> Int"))


class TestCorePolicyFlips:
    LET_ALIAS = "let f = id in (f :: forall a. a -> a)"
    E1 = "k h lst"

    def test_default_rejects_both_anchors(self):
        assert not _accepts(self.LET_ALIAS, EAGER_SHALLOW)
        assert not _accepts(self.E1, EAGER_SHALLOW)

    @pytest.mark.parametrize("policy", (LAZY_SHALLOW, LAZY_DEEP))
    def test_lazy_flips_the_let_alias(self, policy):
        result = _infer(self.LET_ALIAS, policy)
        assert str(result.type_) == "forall a. a -> a"

    @pytest.mark.parametrize("policy", (EAGER_DEEP, LAZY_DEEP))
    def test_deep_flips_e1(self, policy):
        result = _infer(self.E1, policy)
        assert str(result.type_) == "forall a. Int -> a -> a"

    def test_lazy_without_deep_does_not_flip_e1(self):
        assert not _accepts(self.E1, LAZY_SHALLOW)

    def test_deep_without_lazy_does_not_flip_the_let_alias(self):
        assert not _accepts(self.LET_ALIAS, EAGER_DEEP)

    @pytest.mark.parametrize(
        "source",
        (
            "head ids",
            "single id",
            "poly (\\x -> x)",
            "(single id :: [forall a. a -> a])",
            "runST argST",
            "\\f -> f 1 2",
        ),
    )
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_invariant_rows_agree_with_default(self, source, policy):
        from repro.core.types import alpha_equal

        reference = _infer(source, DEFAULT_POLICY).type_
        assert alpha_equal(_infer(source, policy).type_, reference)

    def test_default_options_use_the_default_policy(self):
        assert InferOptions().policy is DEFAULT_POLICY


class TestBackendPolicyAxis:
    def test_rankn_reference_is_eager_deep(self):
        from repro.baselines.rankn import RankNInferencer

        # Published RankN deep-skolemises; an explicit shallow policy
        # turns that off and `\f -> poly' f` style eta-contractions move.
        reference = RankNInferencer(figure2_env())
        assert reference._deep and not reference._lazy
        shallow = RankNInferencer(figure2_env(), policy=EAGER_SHALLOW)
        assert not shallow._deep

    def test_quicklook_lazy_keeps_annotation_sigma(self):
        from repro.baselines.quicklook import QuickLookInferencer

        from repro.core.types import alpha_equal, rename_canonical

        term = parse_term("let f = id in (f :: forall a. a -> a)")
        lazy = QuickLookInferencer(figure2_env(), policy=LAZY_SHALLOW)
        assert alpha_equal(
            rename_canonical(lazy.infer(term)),
            rename_canonical(parse_type("forall a. a -> a")),
        )

    def test_registry_passes_policy_keyword_when_requested(self):
        from repro.baselines.registry import SYSTEMS

        term = parse_term("k h lst")
        assert not SYSTEMS["GI"].run(term, ENV).accepted
        assert SYSTEMS["GI"].run(term, ENV, policy=EAGER_DEEP).accepted

    def test_policy_systems_are_registered(self):
        from repro.baselines.registry import POLICY_SYSTEMS, SYSTEMS

        assert set(POLICY_SYSTEMS) <= set(SYSTEMS)


class TestOraclePolicyGuards:
    def _ctx(self, policy: InstantiationPolicy):
        from repro.conformance import OracleContext

        return OracleContext(
            figure2_env(), options=InferOptions(policy=policy)
        )

    def test_declarative_is_default_policy_only(self):
        from repro.conformance.oracles import oracle_declarative

        term = parse_term("single id")
        assert oracle_declarative(self._ctx(LAZY_DEEP), term) is None

    def test_systemf_skips_deep_policies(self):
        from repro.conformance.oracles import oracle_systemf

        term = parse_term("single id")
        assert oracle_systemf(self._ctx(EAGER_DEEP), term) is None

    @pytest.mark.parametrize("policy", POLICIES)
    def test_stability_holds_on_anchor_terms(self, policy):
        from repro.conformance.oracles import oracle_stability

        for source in ("single id", "head ids", "inc (head (single 1))"):
            violation = oracle_stability(self._ctx(policy), parse_term(source))
            assert violation is None, f"{source} under {policy}: {violation}"

    def test_stability_runs_in_the_default_battery(self):
        from repro.conformance.oracles import DEFAULT_ORACLES

        assert "stability" in DEFAULT_ORACLES

    def test_run_battery_rejects_unknown_oracle_names(self):
        from repro.conformance import OracleContext, run_battery

        with pytest.raises(ValueError, match="available:"):
            run_battery(
                OracleContext(figure2_env()),
                parse_term("inc 0"),
                oracles=("nope",),
            )

    def test_let_float_skips_sigma_checked_arguments(self):
        from repro.conformance.metamorphic import let_float_argument

        result = Inferencer(figure2_env()).infer(
            parse_term("head ids : tail ids")
        )
        transformed = let_float_argument(result.term, result)
        # `head ids` is checked against `forall a. a -> a` (ArgGen
        # skolems in the evidence) — floating it into an ungeneralised
        # let would eagerly instantiate the sigma away, so the transform
        # must pass over it and float `tail ids` (monomorphic) instead.
        assert transformed is not None
        assert str(transformed.bound) == "tail ids"

    def test_let_float_still_fires_on_monomorphic_arguments(self):
        from repro.conformance.metamorphic import let_float_argument

        result = Inferencer(figure2_env()).infer(
            parse_term("inc (head (single 1))")
        )
        assert let_float_argument(result.term, result) is not None


class TestStabilityTransforms:
    def test_let_inline_is_lazy_only(self):
        from repro.conformance.metamorphic import stability_let_inline

        term = parse_term("let f = id in single f")
        result = _infer("let f = id in single f", LAZY_SHALLOW)
        inlined = stability_let_inline(term, result, LAZY_SHALLOW, ENV)
        assert inlined is not None and str(inlined) == "single id"
        assert stability_let_inline(term, result, EAGER_SHALLOW, ENV) is None

    def test_let_extract_is_lazy_only_and_capture_safe(self):
        from repro.conformance.metamorphic import stability_let_extract
        from repro.core.terms import Let

        term = parse_term("single id")
        result = _infer("single id", LAZY_SHALLOW)
        extracted = stability_let_extract(term, result, LAZY_SHALLOW, ENV)
        assert isinstance(extracted, Let)
        assert stability_let_extract(term, result, EAGER_SHALLOW, ENV) is None

    def test_signature_skips_nested_forall_under_deep(self):
        from repro.conformance.metamorphic import stability_signature

        # Shallow: `h : Int -> (forall a. a -> a)` re-annotates fine.
        shallow = _infer("h", EAGER_SHALLOW)
        assert (
            stability_signature(shallow.term, shallow, EAGER_SHALLOW, ENV)
            is not None
        )
        # Deep: a signature with a nested forall would be rewritten by
        # deep instantiation at the check site (the 500-case sweep's
        # counterexample family), so it is excluded, not asserted.
        source = "\\(v :: forall a. a -> a) -> (id :: forall a. a -> a)"
        deep = _infer(source, EAGER_DEEP)
        assert has_nested_forall(deep.type_)
        assert stability_signature(deep.term, deep, EAGER_DEEP, ENV) is None

    def test_legacy_eta_skips_nested_forall_codomains(self):
        from repro.conformance.metamorphic import eta_expand

        result = Inferencer(figure2_env()).infer(parse_term("h"))
        # Eta-expanding `h` would let generalisation hoist the nested
        # forall (`forall a. Int -> a -> a`) — the latent violation the
        # policy work surfaced; the guard must skip it.
        assert eta_expand(result.term, result) is None


class TestFuzzPolicySweeps:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_short_sweep_is_clean_under_every_policy(self, policy):
        from repro.conformance import FuzzConfig, run_fuzz

        report = run_fuzz(FuzzConfig(seed=11, count=25, policy=policy))
        assert report.ok, [ce.to_dict() for ce in report.counterexamples]

    def test_unknown_policy_fails_fast(self):
        from repro.conformance import FuzzConfig, run_fuzz

        with pytest.raises(ValueError, match="unknown policy"):
            run_fuzz(FuzzConfig(count=1, policy="shallow-eager"))

    def test_counterexample_metadata_records_the_policy(self, tmp_path):
        from repro.conformance import FuzzConfig, run_fuzz

        # A fault plan makes every case fail the crash oracle, so the
        # corpus write path runs and the header must carry the policy.
        report = run_fuzz(
            FuzzConfig(
                seed=1,
                count=1,
                oracles=("crash",),
                policy="lazy-deep",
                corpus_dir=tmp_path,
                fault_step=1,
            )
        )
        assert not report.ok
        contents = [p.read_text() for p in tmp_path.glob("*.gi")]
        assert any("policy: lazy-deep" in text for text in contents)


class TestPolicyMatrix:
    def test_tc211_grid_flips_exactly_where_promised(self):
        from repro.evalsuite.policies import policy_matrix

        matrix = policy_matrix(ENV)
        gi = {policy: cells["GI"] for policy, cells in matrix.items()}
        # T6 flips with the speed axis, T7 with the depth axis.
        assert not gi["eager-shallow"]["T6"].accepted
        assert not gi["eager-deep"]["T6"].accepted
        assert gi["lazy-shallow"]["T6"].accepted
        assert gi["lazy-deep"]["T6"].accepted
        assert not gi["eager-shallow"]["T7"].accepted
        assert not gi["lazy-shallow"]["T7"].accepted
        assert gi["eager-deep"]["T7"].accepted
        assert gi["lazy-deep"]["T7"].accepted
        # Every other row is policy-invariant for every system.
        for key in ("T1", "T2", "T3", "T4", "T5"):
            for system in matrix["eager-shallow"]:
                verdicts = {
                    matrix[policy][system][key].accepted for policy in gi
                }
                assert len(verdicts) == 1, (key, system)

    def test_grid_renders_every_policy(self):
        from repro.baselines.registry import POLICY_SYSTEMS
        from repro.evalsuite.policies import TC211, policy_matrix
        from repro.evalsuite.report import render_policy_matrix

        text = render_policy_matrix(policy_matrix(ENV), TC211, POLICY_SYSTEMS)
        for name in POLICY_NAMES:
            assert f"policy {name}" in text
        assert "k h lst" in text

    def test_every_grid_row_has_a_corpus_twin(self):
        from pathlib import Path

        from repro.conformance import load_corpus
        from repro.evalsuite.policies import TC211

        corpus = load_corpus(Path(__file__).parent / "corpus")
        sources = {str(entry.term) for entry in corpus}
        for example in TC211:
            assert str(example.term) in sources, (
                f"{example.key} ({example.source}) has no tests/corpus twin"
            )


class TestPolicyCLI:
    def test_infer_policy_flag_flips_the_verdict(self, capsys):
        from repro.__main__ import main

        source = "let f = id in (f :: forall a. a -> a)"
        assert main(["infer", source]) == 1
        capsys.readouterr()
        assert main(["infer", "--policy", "lazy-shallow", source]) == 0
        assert capsys.readouterr().out.strip() == "forall a. a -> a"

    def test_unknown_policy_exits_2_with_the_list(self, capsys):
        from repro.__main__ import main

        assert main(["infer", "--policy", "bogus", "id"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err and "lazy-shallow" in err

    def test_unknown_oracle_exits_2_with_the_list(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--oracle", "nope", "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown oracle" in err and "stability" in err

    def test_batch_policy_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "cases.gi"
        path.write_text("let f = id in (f :: forall a. a -> a)\n")
        assert main(["batch", str(path)]) == 1
        capsys.readouterr()
        assert main(["batch", str(path), "--policy", "lazy-deep"]) == 0

    def test_fuzz_policy_flag_runs_clean(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "3",
                    "--count",
                    "10",
                    "--policy",
                    "lazy-shallow",
                ]
            )
            == 0
        )

    def test_repl_set_policy(self, capsys, monkeypatch):
        from repro.__main__ import main

        lines = iter(
            [
                ":set policy",
                ":set policy lazy-shallow",
                "let f = id in (f :: forall a. a -> a)",
                ":set policy wat",
                ":q",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "policy: eager-shallow" in out
        assert "policy: lazy-shallow" in out
        assert "forall a. a -> a" in out
        assert "unknown policy `wat`" in out
