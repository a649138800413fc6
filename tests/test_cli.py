"""Tests for the ``python -m repro`` command-line interface."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.__main__
from repro.__main__ import main
from repro.core import Inferencer
from repro.core.errors import InternalError
from repro.core.terms import term_size


class TestCLI:
    def test_infer(self, capsys):
        assert main(["infer", "head ids"]) == 0
        assert capsys.readouterr().out.strip() == "forall a. a -> a"

    def test_infer_rejection(self, capsys):
        assert main(["infer", "k h lst"]) == 1
        assert "type error" in capsys.readouterr().err

    def test_check_ok(self, capsys):
        assert main(["check", "single id", "[Int -> Int]"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_check_fails(self, capsys):
        assert main(["check", "single id", "[Int -> Bool]"]) == 1

    def test_run(self, capsys):
        assert main(["run", "runST $ argST"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_run_rejects_ill_typed(self, capsys):
        assert main(["run", "inc True"]) == 1

    def test_elaborate(self, capsys):
        assert main(["elaborate", "head ids"]) == 0
        output = capsys.readouterr().out
        assert "term :" in output and "@(forall a. a -> a)" in output
        assert "type :" in output

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        output = capsys.readouterr().out
        assert "A1" in output and "32/32" in output

    def test_figure2_outside_a_source_checkout(self, tmp_path):
        # An installed package has no `examples/` beside it: the command
        # must not reach outside the package for the table.
        shutil.copytree(
            Path(repro.__file__).parent,
            tmp_path / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        environment = {**os.environ, "PYTHONPATH": str(tmp_path)}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "figure2"],
            cwd=tmp_path,
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Figure 2 — measured (*) vs paper (right of |)" in completed.stdout
        assert "Traceback" not in completed.stderr

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


DEEP_EXPRESSION = "inc (" * 2000 + "0" + ")" * 2000
"""Nests far past Python's recursion limit; the parser and every term walk
keep their nesting on explicit stacks, so it type-checks at ``Int``."""


class TestCrashContainment:
    """No command may ever print a raw traceback, and a crash the engine
    contained (an :class:`InternalError`, which is a ``GIError``) prints
    as ``internal error …``, never as a type error.

    The engine's containment is stood in for: the generator types terms
    this deep, so no known input crashes it.
    """

    DIAGNOSTIC = "internal error during generate (RecursionError)"

    @pytest.fixture(autouse=True)
    def contained_crash(self, monkeypatch):
        real_infer = Inferencer.infer

        def infer(self, term):
            if term_size(term) > 1000:
                overflow = RecursionError("maximum recursion depth exceeded")
                raise InternalError(overflow, phase="generate")
            return real_infer(self, term)

        monkeypatch.setattr(Inferencer, "infer", infer)

    def assert_diagnostic(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(self.DIAGNOSTIC), err
        assert err.count("\n") == 1  # a one-line diagnostic

    def test_infer_deep_expression(self, capsys):
        self.assert_diagnostic(["infer", DEEP_EXPRESSION], capsys)

    def test_run_deep_expression(self, capsys):
        self.assert_diagnostic(["run", DEEP_EXPRESSION], capsys)

    def test_check_deep_expression(self, capsys):
        self.assert_diagnostic(["check", DEEP_EXPRESSION, "Int"], capsys)

    def test_elaborate_deep_expression(self, capsys):
        self.assert_diagnostic(["elaborate", DEEP_EXPRESSION], capsys)

    def test_repl_survives_deep_expression(self, capsys, monkeypatch):
        lines = iter([DEEP_EXPRESSION, "head ids", ":q"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith(self.DIAGNOSTIC) for line in out), out
        assert "forall a. a -> a" in out[-1]  # the loop kept going


class TestParserCrashContainment:
    """A crash that is not a ``GIError`` reaches the CLI's own containment.

    No known input crashes the parser any more, so one is stood in.
    """

    CRASH = "crash"

    @pytest.fixture(autouse=True)
    def crash_parser(self, monkeypatch):
        real_parse = repro.__main__.parse_term

        def parse(source):
            if source == self.CRASH:
                raise RecursionError("maximum recursion depth exceeded")
            return real_parse(source)

        monkeypatch.setattr("repro.__main__.parse_term", parse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", CRASH],
            ["check", CRASH, "Int"],
            ["run", CRASH],
            ["elaborate", CRASH],
        ],
    )
    def test_one_line_internal_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "internal error (RecursionError)" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1  # a one-line diagnostic

    def test_repl_survives(self, capsys, monkeypatch):
        lines = iter([self.CRASH, "head ids", ":q"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "internal error (RecursionError)" in out
        assert "Traceback" not in out
        assert "forall a. a -> a" in out  # the loop kept going


MODULE_OK = """\
module Demo where

setters :: [forall a. a -> a]
setters = id : ids

pick = head setters
"""

MODULE_BAD = "good :: Int\ngood = 1\nbad = inc True\nhurt = single bad\n"


class TestModuleCLI:
    def _write(self, tmp_path, source):
        path = tmp_path / "demo.gi"
        path.write_text(source)
        return str(path)

    def test_module_ok(self, tmp_path, capsys):
        assert main(["module", self._write(tmp_path, MODULE_OK)]) == 0
        out = capsys.readouterr().out
        assert "setters :: [forall a. a -> a]" in out
        assert "pick :: forall a. a -> a" in out
        assert "2/2 bindings checked, 0 failed" in out

    def test_module_failures_exit_1(self, tmp_path, capsys):
        assert main(["module", self._write(tmp_path, MODULE_BAD)]) == 1
        out = capsys.readouterr().out
        assert "UnificationError" in out
        assert "SkippedBinding" in out
        assert "1/3 bindings checked, 2 failed" in out

    def test_module_json(self, tmp_path, capsys):
        import json

        assert main(["module", self._write(tmp_path, MODULE_BAD), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] == 1 and payload["failed"] == 2
        classes = {
            item["name"]: (item["diagnostic"] or {}).get("error_class")
            for item in payload["bindings"]
        }
        assert classes["bad"] == "UnificationError"
        assert classes["hurt"] == "SkippedBinding"
        assert "stats" not in payload

    def test_module_stats_json(self, tmp_path, capsys):
        import json

        path = self._write(tmp_path, MODULE_OK)
        assert main(["module", path, "--json", "--stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["cache_misses"] == 2
        assert payload["stats"]["groups_checked"] == 2

    def test_module_missing_file(self, capsys):
        assert main(["module", "/nonexistent/demo.gi"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_module_parse_error(self, tmp_path, capsys):
        assert main(["module", self._write(tmp_path, "x = inc )\n")]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_module_duplicate_binding(self, tmp_path, capsys):
        assert main(["module", self._write(tmp_path, "x = 1\nx = 2\n")]) == 1
        assert "duplicate binding" in capsys.readouterr().err

    def test_shipped_examples_check(self, tmp_path, capsys):
        import shutil
        from pathlib import Path

        # Checked from a copy: `repro module` writes its cache sidecar next
        # to the file, and a sidecar in examples/ would make later runs
        # read cached types instead of inferring them.
        examples = Path(__file__).resolve().parent.parent / "examples"
        before = sorted(examples.iterdir())
        for name in ("lens_library.gi", "runst_pipeline.gi"):
            copy = tmp_path / name
            shutil.copyfile(examples / name, copy)
            assert main(["module", str(copy)]) == 0, name
            out = capsys.readouterr().out
            assert "0 failed" in out and "(cached)" not in out, name
        assert sorted(examples.iterdir()) == before


class TestReplCommands:
    def _run(self, monkeypatch, lines):
        feed = iter(lines + [":q"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        return main(["repl"])

    def test_load_brings_bindings_into_scope(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "demo.gi"
        path.write_text(MODULE_OK)
        assert self._run(monkeypatch, [f":load {path}", "pick 3"]) == 0
        out = capsys.readouterr().out
        assert "loaded 2/2 bindings" in out
        assert "Int" in out

    def test_load_missing_file(self, capsys, monkeypatch):
        assert self._run(monkeypatch, [":load /nope.gi", "head ids"]) == 0
        out = capsys.readouterr().out
        assert "No such file or directory" in out
        assert "forall a. a -> a" in out  # the loop kept going

    def test_browse_marks_loaded_bindings(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "demo.gi"
        path.write_text(MODULE_OK)
        assert self._run(monkeypatch, [f":load {path}", ":browse"]) == 0
        out = capsys.readouterr().out
        assert "pick :: forall a. a -> a (loaded)" in out
        assert "tail :: forall p. [p] -> [p]" in out

    def test_unknown_command_prints_help(self, capsys, monkeypatch):
        assert self._run(monkeypatch, [":frobnicate"]) == 0
        out = capsys.readouterr().out
        assert "unknown command `:frobnicate`" in out
        assert ":load <file>" in out

    def test_help_command(self, capsys, monkeypatch):
        assert self._run(monkeypatch, [":help"]) == 0
        assert ":browse" in capsys.readouterr().out
