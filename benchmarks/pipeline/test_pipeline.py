"""Tests of the pipeline benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q

The end-to-end tests run the benchmark command as a subprocess with a
short run length, so the whole file takes a couple of minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.pipeline import compare
from benchmarks.pipeline.layers import per_layer_names
from benchmarks.pipeline.reference import (
    FIGURE2_MATRIX,
    MATRIX_SYSTEMS,
    TC211_GRID,
    module_types,
    same_type,
    stress_type,
)
from benchmarks.pipeline.stats import REFERENCE_S, Speedometer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SECONDS = 3
"""A short run: long enough for every workload to finish its first pass."""

sys.path.insert(0, str(ROOT / "src"))


def run_benchmark(tmp_path: Path, *arguments: str, env: dict | None = None):
    out = tmp_path / f"runs-{len(list(tmp_path.iterdir()))}.json"
    completed = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--seconds", str(SECONDS),
         "--json", str(out), *arguments],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    records = json.loads(out.read_text())["runs"] if out.exists() else []
    return completed, records


def _hash_seed_env(value: str) -> dict:
    return dict(os.environ, PYTHONHASHSEED=value)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_benchmark(tmp_path_factory.mktemp("untraced"), "--seed", "7")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_benchmark(tmp_path_factory.mktemp("traced"), "--seed", "7", "--trace")


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------


def test_seed_7_passes_every_reference_check(untraced):
    completed, records = untraced
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert [record["workload"] for record in records] == WORKLOADS
    for record in records:
        assert record["correct"] and record["failed"] == 0, record["result"].get("failures")
        assert record["attempted"] > 0
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_every_metric_is_printed_with_its_unit(mode, request):
    completed, records = request.getfixturevalue(mode)
    specs = BENCHMARK["per_layer" if mode == "traced" else "end_to_end"]
    blocks = completed.stdout.split("== ")[1:]
    assert len(blocks) == len(WORKLOADS)
    for block, record in zip(blocks, records):
        lines = block.splitlines()
        for spec in specs:
            assert any(
                line.split()[:1] == [spec["name"]] and spec["unit"] in line.split()
                for line in lines
            ), f"{record['workload']}: {spec['name']} [{spec['unit']}] not printed"
            metric = record["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(untraced):
    _, records = untraced
    for record in records:
        for name, metric in record["metrics"].items():
            assert metric["value"] > 0, (record["workload"], name)


def test_untraced_counts_repeat_across_runs_and_hash_seeds(untraced, tmp_path):
    _, first = untraced
    _, zero = run_benchmark(tmp_path, "--seed", "7", env=_hash_seed_env("0"))
    _, other = run_benchmark(tmp_path, "--seed", "7", env=_hash_seed_env("4242"))
    for records in (zero, other):
        assert [record["workload"] for record in records] == WORKLOADS
        for base, again in zip(first, records):
            assert base["result"]["counts"], base["workload"]
            assert again["result"]["counts"] == base["result"]["counts"], base["workload"]


def test_serve_daemon_drains_with_exit_0(untraced, traced):
    for _, records in (untraced, traced):
        serve = next(record for record in records if record["workload"] == "serve")
        assert serve["result"]["daemon_exit"] == 0


def test_traced_run_writes_a_valid_jsonl_trace(traced):
    from repro.observability.events import validate_line

    completed, records = traced
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    for record in records:
        trace = record["result"]["trace"]
        assert trace["valid"], record["workload"]
        lines = (ROOT / trace["path"]).read_text().splitlines()
        assert lines and all(not validate_line(line) for line in lines)
        assert record["result"]["layers"], "no per-layer table"
        assert record["metrics"]["trace_overhead"]["value"] > 0


def test_a_flipped_reference_entry_fails_the_run(tmp_path):
    completed, records = run_benchmark(
        tmp_path, "--workload", "paper", "--seed", "1", "--flip-reference", "A1"
    )
    assert completed.returncode == 1
    assert json.loads(completed.stdout.strip().splitlines()[-1])["correct"] is False
    assert any("GI A1" in failure for failure in records[0]["result"]["failures"])


def test_without_the_source_tree_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "pipeline",
        tmp_path / "benchmarks" / "pipeline",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/pipeline"]
    assert WORKLOADS == ["paper", "stress", "module", "serve"]
    assert all(set(workload) == {"name", "why"} for workload in BENCHMARK["workloads"])
    names = [spec["name"] for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(0 < spec["bound"] <= 0.25 for spec in BENCHMARK["end_to_end"])
    setup = next(spec for spec in BENCHMARK["end_to_end"] if spec["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(spec["bound"] for spec in BENCHMARK["end_to_end"])
    assert [spec["name"] for spec in BENCHMARK["per_layer"]] == per_layer_names()


def test_speedometer_scales_by_the_median_sample_nearby():
    speed = Speedometer()
    speed.times = [0.0, 0.1, 0.2, 5.0]
    speed.samples = [REFERENCE_S * 2, REFERENCE_S * 2, REFERENCE_S * 9, REFERENCE_S / 2]
    assert speed.factor(0.1) == pytest.approx(0.5)
    assert speed.scale(0.05, 0.1) == pytest.approx(0.05)
    assert speed.factor(5.1) == pytest.approx(2.0)
    assert speed.factor(2.5) == pytest.approx(2.0)  # no sample nearby: the next one
    assert speed.factor_over(0.0, 0.2) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------


def test_reference_gi_column_is_the_papers():
    from repro.evalsuite.figure2 import FIGURE2

    assert set(FIGURE2_MATRIX) == {row.key for row in FIGURE2}
    gi = MATRIX_SYSTEMS.index("GI")
    for row in FIGURE2:
        assert (FIGURE2_MATRIX[row.key][gi] == "y") == row.expected["GI"], row.key


def test_tc211_grid_covers_every_policy_and_policy_system():
    from repro.baselines.registry import POLICY_SYSTEMS
    from repro.core.policy import POLICY_NAMES

    assert set(TC211_GRID) == set(POLICY_NAMES)
    for cells in TC211_GRID.values():
        assert set(cells) == set(POLICY_SYSTEMS)


def test_same_type_is_alpha_equivalence_on_rendered_text():
    assert same_type("forall a b. a -> b -> b", "forall x y. x -> y -> y")
    assert not same_type("forall a b. a -> b -> b", "forall b a. a -> b -> b")
    assert same_type(
        "(forall a. a -> a) -> (forall b. b -> b)", "(forall a. a -> a) -> (forall a. a -> a)"
    )
    assert same_type(
        "forall a. (forall b. b -> b) -> a -> a", "forall b. (forall a. a -> a) -> b -> b"
    )
    assert not same_type("forall a. (forall b. b -> a) -> a", "forall a. (forall b. b -> b) -> a")
    assert same_type("(forall a. a, forall b. b)", "(forall b. b, forall a. a)")
    assert not same_type("[Int]", "[Bool]")


def test_stress_closed_forms():
    assert stress_type("deep_chain_term", 2) == "forall a. (Int -> Int -> a) -> a"
    assert same_type(stress_type("defaulting_fan", 3),
                     "forall a b c. (Int -> a) -> (Int -> b) -> (Int -> c) -> (a, (b, c))")
    assert stress_type("wide_application", 2) == "(Int, (Int, Int))"


def test_module_types_follow_the_step_shapes():
    source = "c0_0 :: Int\nc0_0 = 0\n\nc0_1 = single c0_0\n\nc0_2 = pair c0_1 c0_1\n\nc0_3 = choose c0_2 c0_2\n"
    assert module_types(source) == {
        "c0_0": "Int", "c0_1": "[Int]", "c0_2": "([Int], [Int])", "c0_3": "([Int], [Int])",
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _record(workload: str, seed: int, started_at: float, values: dict, counts=None) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": 0, "started_at": started_at,
        "metrics": {name: {"value": value, "unit": "u"} for name, value in values.items()},
        "result": {"counts": counts or {"solver.steps": 10}},
    }


def _runs(factor: float, shift: float = 0.0, counts=None) -> dict:
    base = {"setup_s": 1.0, "peak_rss_mb": 40.0, "items_per_s": 100.0,
            "verdict_ms_p50": 5.0, "verdict_ms_tail": 20.0}
    records = []
    for index in range(compare.MIN_PAIRS):
        jitter = 1.0 + 0.01 * (index % 3)
        values = {name: value * jitter for name, value in base.items()}
        values["verdict_ms_p50"] *= factor
        records.append(_record("paper", index, index * 10.0 + (shift if index % 2 else -shift), values, counts))
    return {"paper": records}


def _verdicts(parent, change):
    rows, problems, mismatches = compare.compare(BENCHMARK, parent, change)
    return {row["metric"]: row["verdict"] for row in rows}, problems, mismatches


def test_compare_reports_improved_worse_and_unchanged():
    parent = _runs(1.0, shift=1.0)
    verdicts, problems, mismatches = _verdicts(parent, _runs(0.5, shift=-1.0))
    assert not problems and not mismatches
    assert verdicts["verdict_ms_p50"] == "improved"
    assert verdicts["items_per_s"] == "unchanged"
    verdicts, _, _ = _verdicts(parent, _runs(2.0, shift=-1.0))
    assert verdicts["verdict_ms_p50"] == "worse"


def test_compare_flags_count_changes_and_unpaired_runs():
    parent = _runs(1.0, shift=1.0)
    _, _, mismatches = _verdicts(parent, _runs(1.0, shift=-1.0, counts={"solver.steps": 11}))
    assert len(mismatches) == compare.MIN_PAIRS
    _, problems, _ = _verdicts(parent, _runs(1.0, shift=1.0))
    assert any("alternate" in problem for problem in problems)
