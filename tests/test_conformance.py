"""The conformance fuzzer: generator, oracles, metamorphic transforms,
fault-injection acceptance, CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.conformance import (
    DEFAULT_ORACLES,
    MODE_WELL_TYPED,
    FuzzConfig,
    OracleContext,
    TermGenerator,
    applicable_transforms,
    load_corpus,
    run_battery,
    run_fuzz,
    write_counterexample,
)
from repro.conformance.metamorphic import (
    annotate_inferred,
    eta_expand,
    let_float_argument,
    let_swap,
)
from repro.core.errors import GIError
from repro.core.infer import Inferencer
from repro.core.terms import Ann, Lam, Let, Lit, Var, app
from repro.core.types import alpha_equal
from repro.evalsuite.figure2 import figure2_env
from repro.robustness import read_batch_file


@pytest.fixture(scope="module")
def env():
    return figure2_env()


@pytest.fixture(scope="module")
def generator(env):
    return TermGenerator(env)


# ---------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------


def test_generation_is_deterministic(generator):
    first = [case.source for case in generator.cases(42, 60)]
    second = [case.source for case in generator.cases(42, 60)]
    assert first == second


def test_case_is_independent_of_count(generator):
    """``seed:index`` derivation: case 17 is the same whether the sweep
    asks for 20 or 200 cases."""
    assert generator.case(42, 17).source == generator.cases(42, 200)[17].source


def test_different_seeds_differ(generator):
    assert [c.source for c in generator.cases(1, 40)] != [
        c.source for c in generator.cases(2, 40)
    ]


def test_well_typed_mode_is_biased_toward_acceptance(env, generator):
    cases = [c for c in generator.cases(42, 150) if c.mode == MODE_WELL_TYPED]
    assert len(cases) >= 50  # the mode split must actually produce them
    accepted = 0
    for case in cases:
        try:
            Inferencer(env).infer(case.term)
            accepted += 1
        except GIError:
            pass
    assert accepted / len(cases) >= 0.8


def test_generated_terms_are_closed(env, generator):
    from repro.core.terms import free_vars

    names = set(env.names())
    for case in generator.cases(7, 80):
        assert free_vars(case.term) <= names, case.source


# ---------------------------------------------------------------------
# Oracle battery
# ---------------------------------------------------------------------


def test_battery_clean_on_seeded_sweep(env, generator):
    ctx = OracleContext(env)
    for case in generator.cases(42, 120):
        violation = run_battery(ctx, case.term)
        assert violation is None, f"case {case.index} `{case.source}`: {violation}"


def test_run_fuzz_is_reproducible(env):
    config = FuzzConfig(seed=11, count=60)
    first = run_fuzz(config, env=env).to_dict()
    second = run_fuzz(config, env=env).to_dict()
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second
    assert first["ok"]


# ---------------------------------------------------------------------
# Fuzzer-found regressions (each has a corpus twin in tests/corpus/)
# ---------------------------------------------------------------------


def test_lit_equality_is_type_aware():
    """`True == 1` in Python must not conflate differently-typed terms."""
    assert Lit(True) != Lit(1)
    assert Lit(False) != Lit(0)
    assert hash(Lit(True)) != hash(Lit(1))
    assert Lit(1) == Lit(1)
    assert Lit(True) == Lit(True)


def test_lit_cache_confusion_regression(env):
    """Inferring `1` first must not poison a term-keyed cache for `True`."""
    ctx = OracleContext(env)
    assert str(ctx.outcome(Lit(1))[0].type_) == "Int"
    assert str(ctx.outcome(Lit(True))[0].type_) == "Bool"


def test_nested_forall_annotation_shadows_scoped_variable(env):
    """Regression: re-annotating a term whose inner annotation re-binds
    `a` must not leak the outer skolem into the open `(id :: a -> a)`."""
    from repro.syntax.parser import parse_term

    term = parse_term("((id :: a -> a) :: forall a. a -> a)")
    result = Inferencer(env).infer(term)
    again = Inferencer(env).infer(Ann(term, result.type_))
    assert alpha_equal(again.type_, result.type_)


# ---------------------------------------------------------------------
# Metamorphic transforms
# ---------------------------------------------------------------------


def _infer(env, term):
    return Inferencer(env).infer(term)


def test_eta_expand_preserves_type(env):
    term = Var("inc")
    result = _infer(env, term)
    expanded = eta_expand(term, result)
    assert expanded is not None
    assert alpha_equal(_infer(env, expanded).type_, result.type_)


def test_eta_expand_guards_poly_domain(env):
    term = Var("poly")  # (forall a. a -> a) -> (Int, Bool)
    assert eta_expand(term, _infer(env, term)) is None


def test_eta_expand_guards_non_arrow(env):
    term = Lit(3)
    assert eta_expand(term, _infer(env, term)) is None


def test_annotate_inferred_checks_principal_type(env):
    term = app(Var("single"), Var("id"))
    result = _infer(env, term)
    annotated = annotate_inferred(term, result)
    assert annotated is not None
    assert alpha_equal(_infer(env, annotated).type_, result.type_)


def test_let_float_argument_preserves_type(env):
    term = app(Var("length"), app(Var("single"), Lit(1)))
    result = _infer(env, term)
    floated = let_float_argument(term, result)
    assert isinstance(floated, Let)
    assert alpha_equal(_infer(env, floated).type_, result.type_)


def test_let_float_skips_lambdas(env):
    term = app(Var("poly"), Lam("x", Var("x")))
    result = _infer(env, term)
    assert let_float_argument(term, result) is None


def test_let_swap_independent_bindings(env):
    term = Let("x", Lit(1), Let("y", Lit(True), app(Var("plus"), Var("x"), Var("x"))))
    result = _infer(env, term)
    swapped = let_swap(term, result)
    assert swapped is not None
    assert alpha_equal(_infer(env, swapped).type_, result.type_)


def test_let_swap_guards_dependency(env):
    term = Let("x", Lit(1), Let("y", Var("x"), Var("y")))
    result = _infer(env, term)
    assert let_swap(term, result) is None


def test_applicable_transforms_accept_figure2_sample(env):
    """Every applicable transform must preserve type on a paper example."""
    from repro.syntax.parser import parse_term

    term = parse_term("length (single id)")
    result = _infer(env, term)
    transforms = applicable_transforms(term, result)
    assert transforms  # at least one applies
    for name, transformed in transforms:
        new = _infer(env, transformed)
        assert alpha_equal(new.type_, result.type_), name


# ---------------------------------------------------------------------
# Fault injection: the battery must catch, shrink and persist
# ---------------------------------------------------------------------


def test_injected_fault_is_caught_shrunk_and_persisted(env, tmp_path):
    config = FuzzConfig(seed=7, count=4, fault_step=1, corpus_dir=tmp_path)
    report = run_fuzz(config, env=env)
    assert not report.ok
    assert report.counterexamples
    for ce in report.counterexamples:
        assert ce.violation.oracle == "crash"
        assert ce.violation.error_class == "InjectedFaultError"
        from repro.core.terms import term_size

        assert term_size(ce.shrunk) <= ce.case.size
        assert ce.corpus_path is not None and ce.corpus_path.exists()
    # the persisted corpus replays through the standard loader
    entries = load_corpus(tmp_path)
    assert len(entries) == len(
        {str(ce.shrunk) for ce in report.counterexamples}
    )
    assert all(entry.metadata["oracle"] == "crash" for entry in entries)


# ---------------------------------------------------------------------
# Corpus files and batch-directory support
# ---------------------------------------------------------------------


def test_write_counterexample_is_idempotent(tmp_path):
    term = app(Var("single"), Lit(1))
    first = write_counterexample(tmp_path, term, "crash", "boom", {"seed": 1})
    second = write_counterexample(tmp_path, term, "crash", "boom again", {"seed": 2})
    assert first == second
    assert len(list(tmp_path.glob("*.gi"))) == 1


def test_corpus_roundtrip(tmp_path):
    term = app(Var("single"), Lit(1))
    write_counterexample(tmp_path, term, "metamorphic:eta", "msg", {"case": 9})
    (entry,) = load_corpus(tmp_path)
    assert entry.term == term
    assert entry.metadata["oracle"] == "metamorphic:eta"
    assert entry.metadata["case"] == "9"


def test_read_batch_file_accepts_directories(tmp_path):
    (tmp_path / "a.gi").write_text("-- oracle: crash\nsingle 1\n")
    (tmp_path / "b.gi").write_text("-- comment\n\nhead ids\n")
    (tmp_path / "ignored.txt").write_text("nope\n")
    assert read_batch_file(str(tmp_path)) == ["single 1", "head ids"]


def test_batch_cli_runs_checked_in_corpus(capsys):
    code = main(["batch", "tests/corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------


def test_fuzz_cli_clean_run(capsys):
    assert main(["fuzz", "--seed", "5", "--count", "25"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_fuzz_cli_json(capsys):
    assert main(["fuzz", "--seed", "5", "--count", "10", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["seed"] == 5
    assert report["accepted"] + report["rejected"] == 10
    assert set(report["oracles"]) == set(DEFAULT_ORACLES)


def test_fuzz_cli_rejects_unknown_oracle(capsys):
    assert main(["fuzz", "--count", "1", "--oracle", "nonsense"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_fuzz_cli_single_oracle(capsys):
    assert main(["fuzz", "--seed", "5", "--count", "10", "--oracle", "crash"]) == 0
    assert "ok" in capsys.readouterr().out


def test_fuzz_cli_fault_injection_fails_and_persists(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--seed",
            "7",
            "--count",
            "3",
            "--fault-step",
            "1",
            "--corpus",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL [crash]" in out
    assert list(tmp_path.glob("crash-*.gi"))


def test_fuzz_cli_emits_trace_events(tmp_path, capsys):
    trace = tmp_path / "fuzz.jsonl"
    assert (
        main(["fuzz", "--seed", "5", "--count", "10", "--trace", str(trace)]) == 0
    )
    capsys.readouterr()
    names = [json.loads(line).get("name") for line in trace.read_text().splitlines()]
    assert "fuzz.case" in names
