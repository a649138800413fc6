"""Tests for the Section 5 compatibility study (simulated Stackage)."""

import pytest

from repro.evalsuite.stackage import (
    _ETA_TEMPLATES,
    _FRIENDLY_TEMPLATES,
    _PLAIN_TEMPLATES,
    _SYB_TEMPLATES,
    Analyzer,
    Declaration,
    Verdict,
    eta_expand_var_args,
    generate_corpus,
    push_annotation_inward,
    run_study,
    study_env,
)
from repro.core.terms import Ann, Lam, Var, app
from repro.syntax import parse_term, parse_type


@pytest.fixture(scope="module")
def analyzer():
    return Analyzer(study_env())


class TestTemplates:
    """Every template category must behave as the corpus intends —
    measured with the real GI checker, not assumed."""

    @pytest.mark.parametrize("name,sig,body", _PLAIN_TEMPLATES + _FRIENDLY_TEMPLATES)
    def test_accepted_unchanged(self, analyzer, name, sig, body):
        accepted, repair = analyzer.check_declaration(Declaration(name, sig, body))
        assert accepted and repair is None

    @pytest.mark.parametrize("name,sig,body", _ETA_TEMPLATES)
    def test_eta_templates_need_eta(self, analyzer, name, sig, body):
        accepted, repair = analyzer.check_declaration(Declaration(name, sig, body))
        assert not accepted and repair == "eta"

    @pytest.mark.parametrize("name,sig,body", _SYB_TEMPLATES)
    def test_syb_templates_use_special_case(self, analyzer, name, sig, body):
        accepted, repair = analyzer.check_declaration(Declaration(name, sig, body))
        assert not accepted and repair == "special-case"


class TestRepairs:
    def test_eta_expand_var_args(self):
        term = parse_term("flip h")
        expanded = eta_expand_var_args(term)
        assert expanded == app(
            Var("flip"), Lam("eta_x", app(Var("h"), Var("eta_x")))
        )

    def test_eta_expansion_is_identity_without_apps(self):
        term = parse_term(r"\x -> x")
        assert eta_expand_var_args(term) == term

    def test_push_annotation_inward(self):
        term = parse_term(r"\x y -> y")
        signature = parse_type("forall a. a -> (forall b. b -> b)")
        pushed = push_annotation_inward(term, signature)
        assert pushed is not None
        assert isinstance(pushed, Ann)

    def test_push_annotation_requires_nested_forall(self):
        term = parse_term(r"\x -> x")
        assert push_annotation_inward(term, parse_type("Int -> Int")) is None


class TestCorpus:
    def test_deterministic(self):
        first = generate_corpus(seed=7, size=50)
        second = generate_corpus(seed=7, size=50)
        assert [p.name for p in first] == [p.name for p in second]
        assert [len(p.declarations) for p in first] == [
            len(p.declarations) for p in second
        ]

    def test_seed_changes_corpus(self):
        first = generate_corpus(seed=1, size=50)
        second = generate_corpus(seed=2, size=50)
        assert [len(p.declarations) for p in first] != [
            len(p.declarations) for p in second
        ]

    def test_rank_proportion(self):
        corpus = generate_corpus(seed=3, size=400)
        rank = sum(1 for p in corpus if p.uses_rankntypes)
        assert rank == round(400 * 609 / 2400)


class TestStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_study(seed=2018, size=240)

    def test_totals_consistent(self, study):
        assert study.total == 240
        assert study.ok + study.eta + study.larger == study.rankntypes

    def test_shape_matches_paper(self, study):
        # The paper's shape: most RankNTypes packages compile unchanged;
        # a ~12% minority needs η-expansions; TH needs more; a couple of
        # unrelated failures.
        assert study.ok > 0.8 * study.rankntypes
        assert 0 < study.eta < 0.2 * study.rankntypes
        assert study.larger == 1
        assert study.unrelated == 2

    def test_every_repair_is_an_eta_expansion(self, study):
        for report in study.reports:
            if report.verdict is Verdict.ETA:
                assert report.repaired, report.package.name

    def test_non_rank_packages_all_pass(self, study):
        for report in study.reports:
            if not report.package.uses_rankntypes and not report.package.broken_build:
                assert report.verdict is Verdict.OK

    def test_rows_render(self, study):
        rows = study.rows()
        assert rows[0][1] == 240
        assert len(rows) == 6


class TestFullStudy:
    """The study at the paper's scale: 2,400 packages, seed 2018."""

    def test_counts_match_paper(self, full_study):
        # 2,400 packages; 609 use RankNTypes; 75 need η-expansions; one
        # needs larger changes (TH-generated code); two fail for
        # unrelated reasons.  The corpus is calibrated, the verdicts are
        # measured, so the η count may drift a little.
        study = full_study
        assert study.total == 2400
        assert study.rankntypes == 609
        assert abs(study.eta - 75) <= 5
        assert study.larger == 1
        assert study.unrelated == 2
        assert study.ok == study.rankntypes - study.eta - study.larger

    def test_every_manual_change_is_an_eta_expansion(self, full_study):
        for report in full_study.reports:
            if report.verdict is Verdict.ETA:
                assert report.repaired, report.package.name
            if report.verdict is Verdict.LARGER:
                # Generated code cannot be η-expanded at source level.
                assert any(d.generated for d in report.package.declarations)
