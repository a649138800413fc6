"""The pipeline benchmark's one command.

    python3 benchmarks/pipeline/run.py --workload paper --seed 42 --seconds 25 --trace 0
    PYTHONPATH=src python -m benchmarks.pipeline --seed 42 [--workload NAME] [--trace] [--json OUT]

Each workload run is a fresh ``python -m benchmarks.pipeline.worker``
subprocess; untraced runs first time :data:`SETUP_PROBES` separate
set-ups.  The command prints every metric by name with its unit, then,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics of ``BENCHMARK.json`` untraced,
its per-layer metrics with ``--trace``.  It exits 1 when any output
differs from the reference, 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.pipeline.stats import REFERENCE_S, SETUP_CALIBRATIONS, calibration_sample

ROOT = Path(__file__).resolve().parents[2]
OUT = Path("benchmarks/pipeline/out")
WORKLOADS = ("paper", "stress", "module", "serve")
SETUP_PROBES = 7
"""Fresh set-ups per untraced run; ``setup_s`` is their median."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _worker(arguments: list[str], timeout: float) -> tuple[float, list[str], int]:
    """Run a worker; returns (seconds to its READY line, stdout lines
    after it, exit code).  A worker still running at ``timeout`` is killed."""
    command = [sys.executable, "-m", "benchmarks.pipeline.worker", *arguments]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        ready_s = time.perf_counter() - started
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
    if ready.strip() != "READY":
        lines.insert(0, ready)
        ready_s = float("nan")
    return ready_s, lines, code


def setup_sample(workload: str) -> float:
    """One fresh set-up, in seconds at reference speed.  A worker
    calibrates itself right after set-up, on the CPU it ran on; around a
    daemon start the orchestrator calibrates before and after."""
    if workload == "serve":
        from benchmarks.pipeline.serve_load import probe_setup

        before = [calibration_sample() for _ in range(SETUP_CALIBRATIONS // 2)]
        seconds = probe_setup(ROOT / OUT)
        samples = before + [calibration_sample() for _ in range(SETUP_CALIBRATIONS // 2)]
    else:
        seconds, lines, code = _worker(["--workload", workload, "--setup-only"], timeout=120)
        if code != 0 or not lines:
            raise RuntimeError(f"{workload} set-up probe exited with {code}")
        samples = json.loads(lines[-1])["calibration"]
    return seconds * REFERENCE_S / statistics.median(samples)


def run_workload(args, workload: str, benchmark: dict) -> dict:
    """One workload run: set-up probes, then the worker; a full record."""
    started_at = time.time()
    setups = [] if args.trace else [setup_sample(workload) for _ in range(SETUP_PROBES)]
    arguments = [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT),
    ]
    if args.flip_reference:
        arguments += ["--flip-reference", args.flip_reference]
    # Bounded so a default run, set-up probes included, ends within 180 s.
    _, lines, code = _worker(arguments, timeout=2 * args.seconds + 60)
    if code != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with {code}")
    result = json.loads(lines[-1])
    if args.trace:
        values = result["per_layer"]
        specs = benchmark["per_layer"]
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        specs = benchmark["end_to_end"]
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": started_at,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs},
        "setup_samples": setups,
        "result": result,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _note(name: str, record: dict) -> str:
    """What stands behind an end-to-end figure: its statistic and sample count."""
    result = record["result"]
    if name == "setup_s":
        return f"median of {len(record['setup_samples'])} fresh set-ups"
    if name == "peak_rss_mb":
        return "repro serve VmHWM" if record["workload"] == "serve" else "worker ru_maxrss"
    if name == "items_per_s":
        if record["workload"] == "serve":
            return "closed loop, one request in flight"
        return f"{result['tail']['n']} items"
    if name == "verdict_ms_p50":
        return f"geometric mean of {result['inputs']} per-input medians"
    if name == "verdict_ms_tail":
        tail = result["tail"]
        return f"p{tail['percentile']}, {tail['beyond']} of {tail['n']} samples beyond"
    return ""


def render(record: dict) -> str:
    """Every metric by name with its unit, plus the detail behind it."""
    result = record["result"]
    mode = "traced" if record["trace"] else "untraced"
    lines = [f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s, {mode}) =="]
    for name, metric in record["metrics"].items():
        note = "" if record["trace"] else _note(name, record)
        lines.append(f"  {name:<28} {_fmt(metric['value']):>14} {metric['unit']:<10} {note}")
    lines.append(f"  {'fail_rate':<28} {record['failed']:>7}/{record['attempted']:<6} failed/attempted")
    if "speed" in result:
        speed = result["speed"]
        lines.append(
            f"  host speed: {speed['samples']} calibration samples, scale factor median "
            f"{speed['factor_median']:.3g} (range {speed['factor_min']:.3g}-{speed['factor_max']:.3g})"
        )
    for name, value in result.get("raw", {}).items():
        lines.append(f"  wall-clock {name:<17} {_fmt(value):>14}")
    for cls, summary in result.get("classes", {}).items():
        lines.append(f"  class {cls:<22} median {summary['median_ms']:.4g} ms (n={summary['n']})")
    for name, value in result.get("extras", {}).items():
        lines.append(f"  {name:<28} {_fmt(value):>14}")
    for layer in result.get("layers", []):
        lines.append(
            f"  layer {layer['layer']:<22} self {layer['self_s'] * 1000:10.4f} ms/item"
            f"  total {layer['total_s'] * 1000:10.4f} ms/item  calls {layer['calls_per_item']:.3g}/item"
        )
    if "trace" in result:
        trace = result["trace"]
        lines.append(f"  trace {trace['path']}: {trace['events']} events, valid={trace['valid']}")
    if result.get("counts"):
        lines.append("  counts " + " ".join(f"{k}={v}" for k, v in sorted(result["counts"].items())))
    for failure in result.get("failures", []):
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all four")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", metavar="OUT", default=None, help="write the full records here")
    parser.add_argument(
        "--flip-reference", metavar="ROW", default=None,
        help="self-test: invert the reference GI verdict of one Figure-2 row",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro source tree to benchmark", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.json:
        args.json = os.path.abspath(args.json)
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = paths
    # Workers and daemons inherit the source tree on their path.
    inherited = [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + inherited)
    os.chdir(ROOT)

    records = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        record = run_workload(args, workload, benchmark)
        print(render(record), flush=True)
        records.append(record)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"runs": records}, handle, indent=1)
    correct = all(record["correct"] for record in records)
    summary = {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else {
            f"{record['workload']}.{name}": metric
            for record in records for name, metric in record["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1
