"""Core-engine benchmarks: union-find substitution + wake-up scheduling.

This bench pins down the core engine's cost on its own stress shapes and
writes the numbers to ``BENCH_core.json`` at the repo root:

* ``var_chain`` — zonking every variable of a long variable-variable
  chain through the union-find store (path compression + rank).
* ``gen_chain`` — a dependency chain of deferred generalisation
  constraints (:func:`repro.evalsuite.workloads.gen_chain_constraints`).
  The variable-indexed wake-up queue pops each deferred constraint O(1)
  times, so the step count must stay linear in the chain length.
* ``figure2`` — the full Figure-2 inference sweep: the accept count and
  total solver steps are asserted stable; seconds are recorded for the
  before/after table in EXPERIMENTS.md.
* ``deep_chain_term`` / ``defaulting_fan`` — end-to-end inference on the
  synthetic stress terms, exercising iterative zonk/occurs on one deep
  spine and a long defer/wake stream respectively.

The speedups of the union-find store over the seed's dict-chain walk and
of the wake-up queue over whole-list re-scans are recorded in
EXPERIMENTS.md §6; the end-to-end pipeline benchmark
(``benchmarks/pipeline``) is the yardstick for later changes.

Runs are interleaved (one pass per workload per repeat, minimum taken)
so a machine-load spike hits all workloads alike.  Set
``REPRO_BENCH_SMOKE=1`` for the quick CI variant.  Set
``REPRO_BENCH_BASELINE=<path>`` to additionally compare against a
committed ``BENCH_core.json``: step counts must match exactly (they are
deterministic) and timings must stay within 2x.
"""

import json
import os
import time
from pathlib import Path

from repro.core.errors import GIError
from repro.core.evidence import EvidenceStore
from repro.core.infer import Inferencer
from repro.core.names import NameSupply
from repro.core.solver import InstanceEnv, Solver
from repro.core.sorts import Sort
from repro.core.types import TCon, UVar
from repro.core.unify import Unifier
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.workloads import (
    deep_chain_term,
    defaulting_fan,
    gen_chain_constraints,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 3 if SMOKE else 7
VAR_CHAIN_N = 800 if SMOKE else 3000
GEN_CHAIN_N = 150 if SMOKE else 400
DEEP_TERM_N = 150 if SMOKE else 300
FAN_N = 30 if SMOKE else 60
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

ENV = figure2_env()
INT = TCon("Int", ())


def _min_of(samples):
    return round(min(samples), 6)


# ----------------------------------------------------------------------
# Workload passes (one timed pass each; callers interleave repeats)
# ----------------------------------------------------------------------


def _var_chain(length: int) -> float:
    unifier = Unifier(NameSupply("b"))
    chain = [UVar(f"v{index}", Sort.M) for index in range(length)]
    start = time.perf_counter()
    for left, right in zip(chain, chain[1:]):
        unifier.assign(left, right)
    unifier.assign(chain[-1], INT)
    for variable in chain:
        assert unifier.zonk(variable) == INT
    return time.perf_counter() - start


def _gen_chain(length: int) -> tuple[float, int]:
    constraints = gen_chain_constraints(length)
    solver = Solver(NameSupply("b"), EvidenceStore(), InstanceEnv())
    start = time.perf_counter()
    solver.solve(constraints)
    return time.perf_counter() - start, solver.steps


def _figure2_sweep() -> tuple[float, int, int]:
    inferencer = Inferencer(ENV)
    accepted = 0
    steps = 0
    start = time.perf_counter()
    for example in FIGURE2:
        try:
            result = inferencer.infer(example.term)
        except GIError:
            continue
        accepted += 1
        steps += result.solver.steps
    return time.perf_counter() - start, accepted, steps


def _infer_term(term) -> tuple[float, int]:
    inferencer = Inferencer(ENV)
    start = time.perf_counter()
    result = inferencer.infer(term)
    return time.perf_counter() - start, result.solver.steps


# ----------------------------------------------------------------------


def test_bench_core():
    var_seconds = []
    chain_seconds = []
    fig_seconds = []
    deep_seconds, fan_seconds = [], []
    fig_meta = set()
    chain_steps = set()
    deep_steps = set()
    for _ in range(REPEATS):
        var_seconds.append(_var_chain(VAR_CHAIN_N))
        seconds, steps = _gen_chain(GEN_CHAIN_N)
        chain_seconds.append(seconds)
        chain_steps.add(steps)
        seconds, accepted, steps = _figure2_sweep()
        fig_seconds.append(seconds)
        fig_meta.add((accepted, steps))
        seconds, steps = _infer_term(deep_chain_term(DEEP_TERM_N))
        deep_seconds.append(seconds)
        deep_steps.add(steps)
        seconds, _ = _infer_term(defaulting_fan(FAN_N))
        fan_seconds.append(seconds)

    # Step counts are deterministic — identical across repeats.
    assert len(fig_meta) == 1, fig_meta
    assert len(chain_steps) == 1, chain_steps
    assert len(deep_steps) == 1, deep_steps
    accepted, fig_steps = fig_meta.pop()
    wake_steps = chain_steps.pop()

    # The paper suite must not regress: the sweep accepts exactly the
    # examples the paper marks typeable under guarded instantiation.
    assert accepted == sum(
        1 for example in FIGURE2 if example.expected["GI"]
    ), accepted

    # Wake-up scheduling is linear in the chain.
    assert wake_steps <= 5 * GEN_CHAIN_N + 5, (wake_steps, GEN_CHAIN_N)

    payload = {
        "benchmark": "core_engine",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "var_chain": {
            "length": VAR_CHAIN_N,
            "unionfind_seconds": _min_of(var_seconds),
        },
        "gen_chain": {
            "length": GEN_CHAIN_N,
            "wake_seconds": _min_of(chain_seconds),
            "wake_steps": wake_steps,
        },
        "figure2": {
            "examples": len(FIGURE2),
            "accepted": accepted,
            "solver_steps": fig_steps,
            "seconds": _min_of(fig_seconds),
        },
        "deep_chain_term": {
            "depth": DEEP_TERM_N,
            "solver_steps": deep_steps.pop(),
            "seconds": _min_of(deep_seconds),
        },
        "defaulting_fan": {
            "width": FAN_N,
            "seconds": _min_of(fan_seconds),
        },
    }
    _compare_baseline(payload)
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _compare_baseline(payload: dict) -> None:
    """CI regression gate: steps must match the committed baseline
    exactly; timings must stay within 2x (generous — CI machines vary)."""
    baseline_path = os.environ.get("REPRO_BENCH_BASELINE")
    if not baseline_path:
        return
    baseline = json.loads(Path(baseline_path).read_text())
    assert payload["figure2"]["accepted"] == baseline["figure2"]["accepted"]
    if payload["smoke"] == baseline["smoke"]:
        for section in ("figure2", "gen_chain", "deep_chain_term"):
            for key, value in baseline[section].items():
                if key.endswith("steps"):
                    assert payload[section][key] == value, (section, key)
    for section in ("var_chain", "gen_chain", "figure2", "deep_chain_term"):
        for key, value in baseline[section].items():
            if key.endswith("seconds") and value > 0:
                ratio = payload[section][key] / value
                assert ratio <= 2.0, (section, key, payload[section][key], value)
