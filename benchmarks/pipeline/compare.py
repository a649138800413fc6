"""Judge a change against its parent from benchmark runs.

    python -m benchmarks.pipeline.compare --parent P1.json P2.json … --change C1.json C2.json …
    python -m benchmarks.pipeline.compare --parent P1.json … [--json SUMMARY.json]

Each file is the ``--json`` output of the benchmark command.  Untraced
runs pair up per workload by seed.  For every end-to-end metric of
``BENCHMARK.json`` on every workload the verdict follows
choosing-metrics §8:

* ``improved`` — the change wins at least 9 of every 10 pairs (ties
  count for neither) and its median beats the parent's by more than the
  parent's interquartile range;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's interquartile range exceeds the bound
  (relative to its median) and not every change run beats every parent
  run;
* ``unchanged`` — otherwise.

At least :data:`MIN_PAIRS` pairs are required, alternating which side
ran first.  Every count the runs report (solver steps, constraints,
cache hits, …) must match exactly between the two runs of a pair.  The
exit code is 1 if any metric is ``worse`` or any count differs.

With ``--parent`` alone the command summarises those runs — median,
quartiles and range per metric and workload — as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from benchmarks.pipeline.cli import load_benchmark
from benchmarks.pipeline.stats import quartiles

MIN_PAIRS = 10


def load_runs(paths: list[str]) -> dict[str, list[dict]]:
    """Untraced run records per workload."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for record in json.load(handle)["runs"]:
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def _value(record: dict, name: str) -> float:
    return record["metrics"][name]["value"]


def _better(spec: dict, left: float, right: float) -> bool:
    """Whether ``left`` reads better than ``right``."""
    return left < right if spec["better"] == "lower" else left > right


def verdict(spec: dict, parent: list[float], change: list[float]) -> tuple[str, dict]:
    q1, parent_median, q3 = quartiles(parent)
    _, change_median, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if _better(spec, c, p))
    spread = q3 - q1
    worse_by = (change_median - parent_median) / parent_median
    if spec["better"] == "higher":
        worse_by = -worse_by
    detail = {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": spread,
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(parent),
    }
    if (
        wins >= 0.9 * len(parent)
        and _better(spec, change_median, parent_median)
        and abs(change_median - parent_median) > spread
    ):
        return "improved", detail
    if worse_by > spec["bound"]:
        return "worse", detail
    all_better = all(_better(spec, c, p) for c in change for p in parent)
    if spread / parent_median > spec["bound"] and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def pair_up(workload: str, parent: list[dict], change: list[dict]) -> tuple[list[tuple[dict, dict]], list[str]]:
    """Same-seed ``(parent, change)`` pairs in the order they ran, and
    what keeps them from meeting the pairing rule."""
    by_seed = {record["seed"]: record for record in change}
    pairs = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    pairs.sort(key=lambda pair: min(pair[0]["started_at"], pair[1]["started_at"]))
    problems = []
    unpaired = len(parent) + len(change) - 2 * len(pairs)
    if unpaired:
        problems.append(f"{workload}: {unpaired} runs have no same-seed partner")
    if len(pairs) < MIN_PAIRS:
        problems.append(f"{workload}: {len(pairs)} pairs, need {MIN_PAIRS}")
    order = [p["started_at"] < c["started_at"] for p, c in pairs]
    if any(first == second for first, second in zip(order, order[1:])):
        problems.append(f"{workload}: pairs do not alternate which side runs first")
    return pairs, problems


def compare(benchmark: dict, parent_runs: dict, change_runs: dict) -> tuple[list[dict], list[str], list[str]]:
    """Verdict rows, pairing problems and count mismatches."""
    rows, problems, mismatches = [], [], []
    for workload in parent_runs:
        pairs, pair_problems = pair_up(workload, parent_runs[workload], change_runs.get(workload, []))
        problems += pair_problems
        for p, c in pairs:
            if p["result"]["counts"] != c["result"]["counts"]:
                mismatches.append(
                    f"{workload} seed {p['seed']}: {p['result']['counts']} != {c['result']['counts']}"
                )
        if not pairs:
            continue
        for spec in benchmark["end_to_end"]:
            label, detail = verdict(
                spec,
                [_value(p, spec["name"]) for p, _ in pairs],
                [_value(c, spec["name"]) for _, c in pairs],
            )
            rows.append({"workload": workload, "metric": spec["name"], "unit": spec["unit"],
                         "verdict": label, **detail})
    return rows, problems, mismatches


def summarise(benchmark: dict, runs: dict) -> dict:
    """Median, quartiles and range per (workload, end-to-end metric)."""
    summary = {}
    for workload, records in runs.items():
        metrics = {}
        for spec in benchmark["end_to_end"]:
            values = [_value(record, spec["name"]) for record in records]
            q1, median, q3 = quartiles(values)
            metrics[spec["name"]] = {
                "unit": spec["unit"], "n": len(values), "median": median, "q1": q1, "q3": q3,
                "min": min(values), "max": max(values), "spread": (q3 - q1) / median,
                "bound": spec["bound"],
            }
        summary[workload] = {"seeds": [record["seed"] for record in records], "metrics": metrics}
    return summary


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline.compare")
    parser.add_argument("--parent", nargs="+", required=True, metavar="RUNS.json")
    parser.add_argument("--change", nargs="+", default=None, metavar="RUNS.json")
    parser.add_argument("--json", metavar="OUT", default=None, help="write the verdicts or summary here")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    parent_runs = load_runs(args.parent)

    if args.change is None:
        payload = {"nproc": os.cpu_count(), "cpu": _cpu(), "run_seconds": benchmark["run_seconds"],
                   "workloads": summarise(benchmark, parent_runs)}
        for workload, entry in payload["workloads"].items():
            for name, metric in entry["metrics"].items():
                print(
                    f"{workload:<7} {name:<16} median {metric['median']:<12.6g} "
                    f"q1 {metric['q1']:<12.6g} q3 {metric['q3']:<12.6g} "
                    f"spread {metric['spread']:6.1%} (bound {metric['bound']:.0%}, n={metric['n']})"
                )
        exit_code = 0
    else:
        rows, problems, mismatches = compare(benchmark, parent_runs, load_runs(args.change))
        for row in rows:
            print(
                f"{row['workload']:<7} {row['metric']:<16} {row['verdict']:<10} "
                f"parent {row['parent_median']:<12.6g} change {row['change_median']:<12.6g} "
                f"{row['unit']:<8} worse by {row['worse_by']:+7.1%}  wins {row['wins']}/{row['pairs']}"
            )
        for line in problems + mismatches:
            print(f"PROBLEM {line}")
        payload = {"verdicts": rows, "problems": problems, "count_mismatches": mismatches}
        if problems:
            exit_code = 2
        else:
            exit_code = 1 if mismatches or any(row["verdict"] == "worse" for row in rows) else 0
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
