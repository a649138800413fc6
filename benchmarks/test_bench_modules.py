"""Cold vs warm module re-checking on a ~100-binding synthetic module.

The point of the incremental engine is that a warm re-check (everything
cached) and a leaf-edit re-check (one chain dirty) cost a small fraction
of the cold check.  This bench measures all three and writes the numbers
to ``BENCH_modules.json`` at the repo root so CI and the paper notes can
quote them.

Set ``REPRO_BENCH_SMOKE=1`` to run one small repetition (used by the CI
smoke step); the timing assertion — warm strictly faster than cold —
holds in both modes.
"""

import json
import os
import time
from pathlib import Path

from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.modules import ModuleCache, ModuleEngine, parse_module

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 5
CHAINS, DEPTH = (2, 10) if SMOKE else (4, 25)
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_modules.json"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_bench_cold_vs_warm_recheck():
    source = synthetic_module_source(chains=CHAINS, depth=DEPTH)
    bindings = len(parse_module(source).bindings)
    edited = source.replace("c0_0 :: Int\nc0_0 = 0", "c0_0 :: Bool\nc0_0 = True")
    assert edited != source

    cold_times, warm_times, edit_times = [], [], []
    for _ in range(REPEATS):
        engine = ModuleEngine(figure2_env(), cache=ModuleCache())

        cold, cold_s = _timed(lambda: engine.check_source(source))
        assert cold.ok and cold.stats.cache_misses == bindings
        cold_times.append(cold_s)

        warm, warm_s = _timed(lambda: engine.check_source(source))
        assert warm.stats.cache_hits == bindings
        warm_times.append(warm_s)

        edit, edit_s = _timed(lambda: engine.check_source(edited))
        assert edit.ok and edit.stats.cache_misses == DEPTH
        edit_times.append(edit_s)

    cold_s = min(cold_times)
    warm_s = min(warm_times)
    edit_s = min(edit_times)

    # The acceptance bar: a warm re-check must be measurably faster than
    # a cold check.  (In practice it is orders of magnitude faster — the
    # warm path does no inference at all.)
    assert warm_s < cold_s, (warm_s, cold_s)

    payload = {
        "benchmark": "module_recheck",
        "smoke": SMOKE,
        "bindings": bindings,
        "chains": CHAINS,
        "depth": DEPTH,
        "repeats": REPEATS,
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "leaf_edit_seconds": round(edit_s, 6),
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "leaf_edit_speedup": round(cold_s / edit_s, 1) if edit_s else None,
        "leaf_edit_rechecked": DEPTH,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

