"""Term depth end to end: 10 000 levels through every entry point.

Every recursive term walk runs on one explicit-stack driver
(:func:`repro.core.terms.drive`), so term depth is bounded by memory or by
a :class:`~repro.robustness.budget.Budget`, never by Python's recursion
limit.  Each shape below is far deeper than that limit and goes through
inference, the batch and module commands, a serve round trip, elaboration
to System F with its check and a run, and all seven registered systems.

Every call runs under a wall clock.  It must give an answer or a
:class:`BudgetExceededError`: the backends whose work grows faster than
the term (Quick Look's nested quick looks, the σ-point scans of the
λ-towers) stop at their deadline.  No call may crash.
"""

import json
import sys

import pytest

from repro.__main__ import main
from repro.baselines.registry import SYSTEMS
from repro.core import Inferencer
from repro.core.errors import BudgetExceededError
from repro.core.types import alpha_equal
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.workloads import application_chain, lambda_tower, let_chain
from repro.interp import run
from repro.robustness.budget import Budget
from repro.robustness.server import ServeConfig, start_server_in_thread
from repro.robustness.serveclient import ServeClient
from repro.syntax import parse_term
from repro.systemf import elaborate_result, erase, typecheck

DEPTH = 10_000
assert DEPTH > sys.getrecursionlimit()

WALL = 1.0
"""Seconds per call for the backends and the text entry points."""

INFER_WALL = 3.0
"""Seconds for the inference whose result is elaborated, checked and run:
enough for GI to type the chain and the lets at this depth."""

SHAPES = {
    "application_chain": (application_chain, DEPTH),
    "let_chain": (let_chain, DEPTH),
    "lambda_tower": (lambda_tower, 0),
}
"""Each shape with the value its program computes."""

ENV = figure2_env()
TERMS = {name: build(DEPTH) for name, (build, _) in SHAPES.items()}
SOURCES = {name: str(term) for name, term in TERMS.items()}


def test_sources_parse_back():
    for name, source in SOURCES.items():
        assert parse_term(source) == TERMS[name], name


def answered(error_class: str | None) -> bool:
    return error_class in (None, "BudgetExceededError")


@pytest.mark.parametrize("name", list(SHAPES))
def test_infer_elaborate_check_run(name):
    try:
        result = Inferencer(ENV, budget=Budget(wall_clock=INFER_WALL)).infer(TERMS[name])
    except BudgetExceededError:
        return
    assert str(result.type_) == "Int"
    fterm = elaborate_result(result)
    assert alpha_equal(typecheck(fterm, ENV), result.type_)
    assert run(erase(fterm)) == SHAPES[name][1]


@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("name", list(SHAPES))
def test_every_system(name, system):
    outcome = SYSTEMS[system].run(TERMS[name], ENV, budget=Budget(wall_clock=WALL))
    summary = (outcome.status, outcome.error, (outcome.detail or "")[:200])
    assert not outcome.crashed, summary
    assert outcome.accepted or outcome.error == "BudgetExceededError", summary


def test_batch(tmp_path, capsys):
    path = tmp_path / "deep.gi"
    path.write_text("\n".join(SOURCES.values()) + "\n")
    main(["batch", str(path), "--timeout", str(WALL), "--json"])
    items = json.loads(capsys.readouterr().out)["items"]
    assert len(items) == len(SOURCES)
    for item in items:
        diagnostic = item["diagnostic"] or {}
        assert answered(diagnostic.get("error_class")), diagnostic
        assert item["ok"] == (item["type"] == "Int")


def test_module(tmp_path, capsys):
    path = tmp_path / "deep.gi"
    bindings = [f"{name} =\n  {source}\n" for name, source in SOURCES.items()]
    path.write_text("module Deep where\n\n" + "\n".join(bindings))
    main(["module", str(path), "--timeout", str(WALL), "--no-cache", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert [binding["name"] for binding in payload["bindings"]] == list(SOURCES)
    for binding in payload["bindings"]:
        diagnostic = binding["diagnostic"] or {}
        assert answered(diagnostic.get("error_class")), diagnostic
        assert binding["ok"] == (binding["type"] == "Int")


def test_serve_round_trip(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "gi.sock"), jobs=1)
    with start_server_in_thread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            for source in SOURCES.values():
                reply = client.request(
                    "infer", expr=source, timeout_ms=int(WALL * 1000)
                )
                if reply["ok"]:
                    assert reply["type"] == "Int"
                else:
                    assert reply["error"]["class"] == "BudgetExceededError", reply
