"""The backend matrix plumbing: three-valued ``SystemOutcome``, the
``repro systems`` CLI, the fuzzer's ``--systems`` selector, and the
differential oracle's crash/implication machinery (exercised against
deliberately broken fake backends)."""

import json

import pytest

from repro.baselines import SYSTEMS, Outcome, System, SystemOutcome
from repro.baselines.registry import get_system
from repro.conformance import FuzzConfig, OracleContext, run_fuzz
from repro.conformance.oracles import (
    PAIRWISE_IMPLICATIONS,
    oracle_differential,
)
from repro.core.errors import BudgetExceededError, GIError, InternalError
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.robustness import Budget
from repro.syntax import parse_term
from repro.__main__ import main

ENV = figure2_env()


class TestSystemOutcome:
    def test_accept_carries_type(self):
        outcome = SYSTEMS["GI"].run(parse_term("inc 1"), ENV)
        assert outcome.status is Outcome.ACCEPT
        assert outcome.accepted and outcome.available
        assert str(outcome.type_) == "Int"

    def test_reject_carries_detail(self):
        outcome = SYSTEMS["GI"].run(parse_term("inc True"), ENV)
        assert outcome.status is Outcome.REJECT
        assert outcome.rejected and outcome.available and not outcome.crashed
        assert outcome.detail

    def test_budget_exhaustion_is_unavailable_not_rejection(self):
        budget = Budget(max_solver_steps=1)
        deep = parse_term("single (single (single (single id)))")
        outcome = SYSTEMS["GI"].run(deep, ENV, budget=budget)
        assert outcome.status is Outcome.UNAVAILABLE
        assert not outcome.available and not outcome.crashed
        assert outcome.error == "BudgetExceededError"

    def test_internal_error_is_unavailable_and_crashed(self):
        def broken(env, budget=None, policy=None):
            def infer(term):
                raise InternalError(ValueError("boom"), phase="test")

            return infer

        system = System("Broken", "always crashes", broken)
        outcome = system.run(parse_term("inc 1"), ENV)
        assert outcome.status is Outcome.UNAVAILABLE
        assert outcome.crashed
        assert outcome.error == "InternalError"

    def test_raw_exception_is_contained_and_crashed(self):
        def broken(env, budget=None, policy=None):
            def infer(term):
                raise KeyError("no such thing")

            return infer

        outcome = System("Broken", "raw crash", broken).run(parse_term("inc 1"), ENV)
        assert outcome.crashed and not outcome.available

    def test_backcompat_infer_and_accepts(self):
        term = parse_term("head ids")
        assert str(SYSTEMS["GI"].infer(term, ENV)) == "forall a. a -> a"
        assert SYSTEMS["QuickLook"].accepts(term, ENV)
        assert not SYSTEMS["HM"].accepts(term, ENV)
        with pytest.raises(GIError):
            SYSTEMS["HM"].infer(term, ENV)

    def test_get_system_unknown(self):
        with pytest.raises(KeyError):
            get_system("MLF")


def _fake(name, exception):
    def make(env, budget=None, policy=None):
        def infer(term):
            raise exception

        return infer

    return System(name, f"fake {name}", make)


class TestDifferentialOracle:
    def test_clean_on_figure2_sample(self):
        # Every Figure-2 row: all seven backends, all pairwise implications.
        ctx = OracleContext(ENV)
        for example in FIGURE2:
            assert oracle_differential(ctx, example.term) is None, example.key

    def test_reports_backend_crash(self, monkeypatch):
        monkeypatch.setitem(
            SYSTEMS, "QuickLook", _fake("QuickLook", InternalError(ValueError("x"), phase="t"))
        )
        ctx = OracleContext(ENV)
        violation = oracle_differential(ctx, parse_term("inc 1"))
        assert violation is not None
        assert violation.oracle == "differential:QuickLook"

    def test_reports_implication_violation(self, monkeypatch):
        from repro.baselines.quicklook import QuickLookError

        monkeypatch.setitem(
            SYSTEMS, "QuickLook", _fake("QuickLook", QuickLookError("nope"))
        )
        ctx = OracleContext(ENV)
        violation = oracle_differential(ctx, parse_term("head ids"))
        assert violation is not None
        assert violation.oracle == "differential:GI=>QuickLook"

    def test_unavailable_conclusion_is_vacuous(self, monkeypatch):
        exhausted = BudgetExceededError("unify", "max_unify_depth", 1)
        monkeypatch.setitem(SYSTEMS, "QuickLook", _fake("QuickLook", exhausted))
        ctx = OracleContext(ENV)
        assert oracle_differential(ctx, parse_term("head ids")) is None

    def test_restricting_systems_skips_absent_pairs(self, monkeypatch):
        from repro.baselines.quicklook import QuickLookError

        monkeypatch.setitem(
            SYSTEMS, "QuickLook", _fake("QuickLook", QuickLookError("nope"))
        )
        ctx = OracleContext(ENV, systems=("GI", "HM", "RankN"))
        assert oracle_differential(ctx, parse_term("head ids")) is None

    def test_implication_table_names_registered_systems(self):
        for premise, conclusion, level in PAIRWISE_IMPLICATIONS:
            assert premise in SYSTEMS and conclusion in SYSTEMS
            assert level in ("type", "accepts")

    def test_fuzz_with_system_subset(self):
        report = run_fuzz(
            FuzzConfig(seed=5, count=25, systems=("GI", "HM", "QuickLook")), ENV
        )
        assert report.ok


class TestSystemsCLI:
    def test_systems_lists_all_backends(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in SYSTEMS:
            assert name in out
        assert "GI ⇒ QuickLook" in out

    def test_systems_json(self, capsys):
        assert main(["systems", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload["systems"]} == set(SYSTEMS)
        assert {
            (imp["premise"], imp["conclusion"]) for imp in payload["implications"]
        } == {(p, c) for p, c, _ in PAIRWISE_IMPLICATIONS}

    def test_fuzz_systems_flag(self, capsys):
        assert main(
            ["fuzz", "--seed", "3", "--count", "10", "--systems", "GI", "--systems", "QuickLook"]
        ) == 0

    def test_fuzz_rejects_unknown_system(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "5", "--systems", "MLF"]) == 2
        err = capsys.readouterr().err
        assert "unknown system" in err and "repro systems" in err
