"""The batch driver: many expressions, one budget each, full isolation.

The acceptance scenario: a file mixing well-typed, ill-typed and
budget-busting expressions reports one diagnostic per failing item and
still prints results for the rest.
"""

import json

import pytest

from repro.__main__ import main
from repro.core.generate import Generator
from repro.core.terms import term_size
from repro.robustness import Budget, FaultPlan, check_batch, read_batch_file
from repro.robustness.batch import render_text
from repro.evalsuite.figure2 import figure2_env

ENV = figure2_env()

WELL_TYPED = ["head ids", "runST $ argST", "single id"]
ILL_TYPED = ["inc True", "frobnicate"]
DEEP_PARENS = "(" * 800 + "head ids" + ")" * 800
"""Deeper than Python's recursion limit; the parser keeps its nesting on
an explicit stack, so this parses and checks."""

DEEP_CHAIN = "inc (" * 2000 + "0" + ")" * 2000
"""Deeper than Python's recursion limit; every term walk runs on an
explicit stack, so this type-checks at ``Int``."""

BUSY = "app (app (app id id) (app id id)) (app (app id id) (app id id))"
"""Well-typed but needs far more solver steps than the tiny test budget."""


@pytest.fixture
def engine_crash(monkeypatch):
    """Stand in for an engine crash past the parser: constraint generation
    overflows on a term over 1000 nodes, and the engine's own boundary
    contains it.  No known input crashes the engine any more."""
    real_gen = Generator.gen

    def gen(self, env, term):
        if term_size(term) > 1000:
            raise RecursionError("maximum recursion depth exceeded")
        return real_gen(self, env, term)

    monkeypatch.setattr(Generator, "gen", gen)


class TestCheckBatch:
    @pytest.mark.usefixtures("engine_crash")
    def test_mixed_batch_reports_every_item(self):
        sources = WELL_TYPED + ILL_TYPED + [DEEP_CHAIN]
        result = check_batch(sources, ENV, budget=Budget(max_solver_steps=500))
        assert len(result.items) == len(sources)
        assert [item.ok for item in result.items] == [True] * 3 + [False] * 3
        assert not result.ok

    def test_one_diagnostic_per_failure(self):
        result = check_batch(WELL_TYPED + ILL_TYPED, ENV)
        classes = [d.error_class for d in result.diagnostics]
        assert classes == ["UnificationError", "ScopeError"]
        assert [d.index for d in result.diagnostics] == [3, 4]
        assert all(d.severity == "error" for d in result.diagnostics)

    def test_budget_busting_item_is_isolated(self):
        # The busy item exhausts its budget; its neighbours (checked
        # under the same re-armed Budget object) are unaffected.
        sources = ["head ids", BUSY, "runST $ argST"]
        result = check_batch(sources, ENV, budget=Budget(max_solver_steps=40))
        assert [item.ok for item in result.items] == [True, False, True]
        diagnostic = result.items[1].diagnostic
        assert diagnostic.error_class == "BudgetExceededError"
        assert diagnostic.phase == "solver"

    def test_budget_message_stays_bounded(self):
        # The message rendered the whole stopped-at constraint, so it
        # grew with the term: 877 KB on this input.
        deep = "inc (" * 10000 + "0" + ")" * 10000
        result = check_batch([deep], ENV, budget=Budget(max_solver_steps=500))
        diagnostic = result.items[0].diagnostic
        assert diagnostic.error_class == "BudgetExceededError"
        assert len(diagnostic.message) < 1000, len(diagnostic.message)
        assert " chars)`" in diagnostic.message

    def test_parser_crash_is_contained(self, monkeypatch):
        # No known input crashes the parser any more; stand one in.
        def crash(source):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("repro.robustness.batch.parse_term", crash)
        result = check_batch(["head ids"], ENV)
        diagnostic = result.items[0].diagnostic
        assert diagnostic.severity == "internal"
        assert diagnostic.error_class == "InternalError"
        assert diagnostic.phase == "parse"

    def test_deep_parentheses_parse_and_check(self):
        result = check_batch([DEEP_PARENS], ENV)
        assert result.ok
        assert result.items[0].type_ == "forall a. a -> a"

    @pytest.mark.usefixtures("engine_crash")
    def test_deep_chain_crashes_after_parsing(self):
        diagnostic = check_batch([DEEP_CHAIN], ENV).items[0].diagnostic
        assert diagnostic.error_class == "InternalError"
        assert diagnostic.phase != "parse"

    def test_deep_chain_type_checks(self):
        result = check_batch([DEEP_CHAIN], ENV)
        assert result.ok
        assert result.items[0].type_ == "Int"

    @pytest.mark.parametrize("source", ["\u00b2", "inc \u00b2", "1\u00b2", "\u0663"])
    def test_non_ascii_digit_is_a_parse_diagnostic(self, source):
        # `str.isdigit` accepts "²" but `int` rejects it; integer literals
        # are ASCII digits, so these are parse errors, not crashes.
        diagnostic = check_batch([source], ENV).items[0].diagnostic
        assert diagnostic.severity == "error"
        assert diagnostic.error_class == "ParseError"
        assert "unexpected character" in diagnostic.message

    def test_injected_fault_is_one_internal_diagnostic(self):
        result = check_batch(
            ["head ids"], ENV, faults=FaultPlan(fail_at_solver_step=1)
        )
        diagnostic = result.items[0].diagnostic
        assert diagnostic.severity == "internal"
        assert diagnostic.error_class == "InternalError"

    def test_successes_carry_types(self):
        result = check_batch(WELL_TYPED, ENV)
        assert result.ok
        assert [item.type_ for item in result.items] == [
            "forall a. a -> a",
            "Int",
            "forall a. [a -> a]",
        ]

    def test_to_dict_shape(self):
        result = check_batch(["head ids", "inc True"], ENV)
        payload = result.to_dict()
        assert payload["total"] == 2
        assert payload["passed"] == 1
        assert payload["failed"] == 1
        assert payload["items"][0]["ok"] is True
        assert payload["items"][1]["diagnostic"]["error_class"] == "UnificationError"
        json.dumps(payload)  # must be JSON-serialisable as-is


class TestBatchFile:
    def test_read_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "exprs.gi"
        path.write_text("-- header\nhead ids\n\n  \nruncomment -- no\ninc True\n")
        assert read_batch_file(str(path)) == [
            "head ids",
            "runcomment -- no",
            "inc True",
        ]

    def test_policy_header_tags_following_sources(self, tmp_path):
        from repro.core.policy import LAZY_SHALLOW
        from repro.robustness import BatchSource

        path = tmp_path / "exprs.gi"
        path.write_text("head ids\n-- policy: lazy-shallow\ninc 1\n")
        plain, tagged = read_batch_file(str(path))
        assert plain == "head ids" and getattr(plain, "policy", None) is None
        assert isinstance(tagged, BatchSource)
        assert tagged == "inc 1" and tagged.policy is LAZY_SHALLOW

    def test_policy_header_scope_resets_per_file(self, tmp_path):
        (tmp_path / "a.gi").write_text("-- policy: lazy-deep\nhead ids\n")
        (tmp_path / "b.gi").write_text("inc 1\n")
        first, second = read_batch_file(str(tmp_path))
        assert first.policy.name == "lazy-deep"
        assert getattr(second, "policy", None) is None

    def test_unknown_policy_header_raises_with_filename(self, tmp_path):
        path = tmp_path / "exprs.gi"
        path.write_text("-- policy: eager-bogus\nhead ids\n")
        with pytest.raises(ValueError, match="eager-bogus"):
            read_batch_file(str(path))

    def test_per_item_policy_override_flips_the_verdict(self, tmp_path):
        from repro.core.policy import LAZY_SHALLOW
        from repro.robustness import BatchSource

        flip = "let f = id in (f :: forall a. a -> a)"
        default = check_batch([flip], ENV)
        assert not default.ok  # eager-shallow instantiates the let binding
        tagged = check_batch([BatchSource(flip, policy=LAZY_SHALLOW)], ENV)
        assert tagged.ok
        assert tagged.items[0].type_ == "forall a. a -> a"

    def test_policy_items_keep_the_batch_fault_plan(self):
        from repro.core.policy import DEFAULT_POLICY
        from repro.robustness import BatchSource

        # A per-item policy changes the options, never the fault rule:
        # both items run under the batch-wide plan.
        sources = ["head ids", BatchSource("head ids", policy=DEFAULT_POLICY)]
        result = check_batch(
            sources, ENV, faults=FaultPlan(fail_at_solver_step=1)
        )
        assert [item.ok for item in result.items] == [False, False]
        assert all(
            diagnostic.error_class == "InternalError"
            for diagnostic in result.diagnostics
        )


class TestBatchCLI:
    def _write(self, tmp_path, sources):
        path = tmp_path / "batch.gi"
        path.write_text("\n".join(sources) + "\n")
        return str(path)

    def test_all_pass_exits_zero(self, tmp_path, capsys):
        assert main(["batch", self._write(tmp_path, WELL_TYPED)]) == 0
        out = capsys.readouterr().out
        assert "3/3 passed, 0 failed" in out

    def test_bad_policy_header_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, ["-- policy: nope", "head ids"])
        assert main(["batch", path]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err and "eager-shallow" in err

    @pytest.mark.usefixtures("engine_crash")
    def test_failures_exit_nonzero_but_report_everything(self, tmp_path, capsys):
        path = self._write(tmp_path, WELL_TYPED + ILL_TYPED + [DEEP_CHAIN])
        assert main(["batch", path, "--max-steps", "500"]) == 1
        out = capsys.readouterr().out
        assert "#0: ok: forall a. a -> a" in out
        assert "#3: error [UnificationError]" in out
        assert "#4: error [ScopeError]" in out
        assert "#5: internal [InternalError]" in out
        assert "3/6 passed, 3 failed" in out

    def test_deep_chain_reads_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, [DEEP_CHAIN])
        assert main(["batch", path, "--max-steps", "20000"]) == 0
        out = capsys.readouterr().out
        assert "#0: ok: Int" in out
        assert "internal" not in out

    def test_json_output(self, tmp_path, capsys):
        path = self._write(tmp_path, ["head ids", "inc True"])
        assert main(["batch", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 1
        assert payload["items"][1]["diagnostic"]["severity"] == "error"

    def test_budget_flags(self, tmp_path, capsys):
        path = self._write(tmp_path, ["head ids", BUSY])
        assert main(["batch", path, "--max-steps", "40"]) == 1
        out = capsys.readouterr().out
        assert "#0: ok" in out
        assert "BudgetExceededError" in out

    def test_missing_file(self, capsys):
        assert main(["batch", "/nonexistent/exprs.gi"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_render_text_totals(self):
        result = check_batch(["head ids"], ENV)
        assert render_text(result).endswith("1/1 passed, 0 failed")


class _FlipAfter:
    """A fake cancel event that flips to set after N ``is_set`` polls —
    deterministic interruption without real signals or timing."""

    def __init__(self, after: int):
        self.after = after
        self.polls = 0

    def is_set(self) -> bool:
        self.polls += 1
        return self.polls > self.after


class TestBatchCancel:
    """Cooperative interruption: partial results, never orphaned work."""

    def test_serial_cancel_keeps_completed_prefix(self):
        sources = WELL_TYPED * 4  # 12 items
        result = check_batch(sources, ENV, cancel=_FlipAfter(5))
        assert result.interrupted
        assert len(result.items) == 5
        assert [item.index for item in result.items] == list(range(5))
        assert all(item.ok for item in result.items)
        assert not result.ok  # partial is not success
        assert result.to_dict()["interrupted"] is True

    def test_preset_cancel_checks_nothing(self):
        import threading

        cancel = threading.Event()
        cancel.set()
        result = check_batch(WELL_TYPED, ENV, cancel=cancel)
        assert result.interrupted and result.items == []

    def test_uninterrupted_run_is_not_marked(self):
        result = check_batch(WELL_TYPED, ENV, cancel=_FlipAfter(999))
        assert not result.interrupted and result.ok

    def test_cli_sigint_emits_partial_json_and_130(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        path = tmp_path / "big.gi"
        path.write_text("\n".join([BUSY] * 4000) + "\n")
        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", str(path), "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=os.getcwd(),
        )
        time.sleep(1.5)  # let it get through some prefix of the batch
        process.send_signal(signal.SIGINT)
        out, err = process.communicate(timeout=60)
        assert process.returncode == 130, err.decode()
        payload = json.loads(out)
        assert payload["interrupted"] is True
        assert 0 < len(payload["items"]) < 4000
