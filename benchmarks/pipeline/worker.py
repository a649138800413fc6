"""Run one workload in this process: ``python -m benchmarks.pipeline.worker``.

The orchestrator (:mod:`benchmarks.pipeline.cli`) starts one fresh
worker per workload run.  The worker builds its engines, prints
``READY`` on stdout (the orchestrator's set-up clock stops there), runs
the workload for ``--seconds``, and prints one JSON line with what it
measured.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from benchmarks.pipeline.layers import (
    SelfTimes,
    counts_from_snapshot,
    layer_metrics,
    layer_table,
    validate_trace,
)
from benchmarks.pipeline.reference import Reference
from benchmarks.pipeline.stats import (
    SETUP_CALIBRATIONS,
    TAIL_PERCENTILE,
    Speedometer,
    calibration_sample,
    median_per_input,
    tail,
)

MAX_TRACE_POINTS = 2_000
"""Point and gauge events kept in ``trace-<workload>.jsonl``; span events
are always kept, so the file replays as a complete tree.  The solver
emits one point per step, which would make a stress trace hundreds of
megabytes."""

TRACED_SHARE = 0.6
"""Share of the run length the traced pass takes; the untraced replay of
the same items, for ``trace_overhead``, takes the rest."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Timings, failures and first-pass counts of one run.

    Timings sit in flat arrays, so the benchmark's own bookkeeping adds
    little to the worker's peak RSS however many items a run gets through.
    """

    def __init__(self) -> None:
        self.inputs: list[tuple[str, str]] = []
        """Distinct ``(class, input)`` pairs; ``ids`` index into it."""

        self._input_ids: dict[tuple[str, str], int] = {}
        self.ids = array("I")
        self.starts = array("d")
        self.seconds = array("d")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}

    def record(self, item, started: float, seconds: float, output, first_pass: bool) -> None:
        pair = (item.cls, item.key)
        if pair not in self._input_ids:
            self._input_ids[pair] = len(self.inputs)
            self.inputs.append(pair)
        self.ids.append(self._input_ids[pair])
        self.starts.append(started)
        self.seconds.append(seconds)
        self.attempted += 1
        problem = item.check(output)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{item.key}: {problem}")
        if first_pass:
            for name, value in item.counts(output).items():
                self.counts[name] = self.counts.get(name, 0) + value

    def scaled(self, speed: Speedometer) -> list[float]:
        """Every item's seconds at reference speed, in run order."""
        return [speed.scale(started, seconds) for started, seconds in zip(self.starts, self.seconds)]

    def grouped(self, durations, by_class: bool = False) -> dict[str, list[float]]:
        """``durations`` (one per item, in run order) per input or class."""
        groups: dict[str, list[float]] = {}
        for input_id, seconds in zip(self.ids, durations):
            name = self.inputs[input_id][0 if by_class else 1]
            groups.setdefault(name, []).append(seconds)
        return groups


def run_passes(workload, seconds: float, speed: Speedometer, tally: Tally, limit=None, call=None) -> int:
    """Run passes until ``seconds`` have gone by and the first pass is
    complete, or until ``limit`` items have run.  Returns the item count.

    ``call(item)`` makes the timed call (the traced run wraps it in a
    root span); the default is ``item.run()``.
    """
    call = call or (lambda item: item.run())
    speed.sample()
    deadline = time.perf_counter() + seconds
    done = 0
    index = 0
    try:
        while True:
            for item in workload.make_pass(index):
                speed.tick()
                started = time.perf_counter()
                output = call(item)
                elapsed = time.perf_counter() - started
                tally.record(item, started, elapsed, output, first_pass=index == 0)
                done += 1
                if limit is not None:
                    if done >= limit:
                        return done
                elif index > 0 and time.perf_counter() >= deadline:
                    return done
            if limit is None and time.perf_counter() >= deadline:
                return done
            index += 1
    finally:
        speed.sample()


def _timings(name: str, tally: Tally, durations) -> dict:
    """The timing metrics over one set of per-item seconds."""
    tail_s, beyond = tail(durations, TAIL_PERCENTILE[name])
    return {
        "items_per_s": len(durations) / sum(durations),
        "verdict_ms_p50": median_per_input(tally.grouped(durations)) * 1000.0,
        "verdict_ms_tail": tail_s * 1000.0,
        "beyond": beyond,
    }


def untraced(workload, seconds: float) -> dict:
    speed = Speedometer()
    tally = Tally()
    run_passes(workload, seconds, speed, tally)
    rss = peak_rss_mb()
    scaled = tally.scaled(speed)
    timings = _timings(workload.name, tally, scaled)
    raw = _timings(workload.name, tally, tally.seconds)
    classes = {
        cls: {"n": len(values), "median_ms": statistics.median(values) * 1000.0}
        for cls, values in tally.grouped(scaled, by_class=True).items()
    }
    extras = {}
    if workload.name == "module":
        extras = {f"module_{cls}_s": summary["median_ms"] / 1000.0 for cls, summary in classes.items()}
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {
            "peak_rss_mb": rss,
            "items_per_s": timings["items_per_s"],
            "verdict_ms_p50": timings["verdict_ms_p50"],
            "verdict_ms_tail": timings["verdict_ms_tail"],
        },
        "tail": {
            "percentile": TAIL_PERCENTILE[workload.name],
            "n": len(scaled),
            "beyond": timings["beyond"],
        },
        "inputs": len({key for _, key in tally.inputs}),
        "raw": {name: raw[name] for name in ("items_per_s", "verdict_ms_p50", "verdict_ms_tail")},
        "speed": speed.summary(),
        "classes": classes,
        "extras": extras,
        "counts": tally.counts,
    }


def traced(workload_class, seed: int, reference: Reference, seconds: float, out_dir: Path) -> dict:
    """One traced pass set, then the same items untraced for the overhead."""
    from repro.observability import Tracer

    captured: list[dict] = []
    capture = {"on": True, "points": 0}

    def sink(event: dict) -> None:
        if not capture["on"]:
            return
        if event["event"] in ("point", "gauge"):
            if capture["points"] >= MAX_TRACE_POINTS:
                return
            capture["points"] += 1
        captured.append(event)

    tracer = Tracer(sink=sink, retain_events=False)
    workload = workload_class(seed, reference, tracer=tracer)
    workload.warm_up()
    first_pass_items = len(workload.make_pass(0))
    before = counts_from_snapshot(tracer.metrics.to_dict())
    roots = []
    state: dict = {"counts": None}

    def call(item):
        with tracer.span("item", cls=item.cls, key=item.key) as root:
            output = item.run()
        roots.append(root)
        if len(roots) == first_pass_items:
            after = counts_from_snapshot(tracer.metrics.to_dict())
            state["counts"] = {name: after[name] - before[name] for name in after}
            capture["on"] = False
        return output

    speed = Speedometer()
    tally = Tally()
    items = run_passes(workload, seconds * TRACED_SHARE, speed, tally, call=call)
    times = SelfTimes()
    for root, started, elapsed in zip(roots, tally.starts, tally.seconds):
        times.add(root, speed.factor(started + elapsed / 2))
    traced_total = sum(tally.scaled(speed))

    plain = workload_class(seed, reference)
    plain.warm_up()
    replay = Tally()
    run_passes(plain, seconds, speed, replay, limit=items)
    overhead = traced_total / sum(replay.scaled(speed))

    # Tracer counters cover what only instrumented code counts; the
    # public results of the untraced replay give the rest.
    counts = dict(state["counts"], **replay.counts)
    capture["on"] = True
    tracer.emit_metrics_event()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload.name}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for event in captured:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    valid = validate_trace(path)
    return {
        "attempted": tally.attempted + replay.attempted,
        "failed": tally.failed + replay.failed + (0 if valid else 1),
        "failures": tally.failures + replay.failures,
        "per_layer": layer_metrics(times, items, counts, overhead),
        "layers": layer_table(times, items),
        "items": items,
        "counts": replay.counts,
        "trace": {"path": str(path), "events": len(captured), "valid": valid},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--flip-reference", default=None)
    parser.add_argument("--out", default="benchmarks/pipeline/out")
    args = parser.parse_args(argv)
    reference = Reference(args.flip_reference)
    out_dir = Path(args.out)

    if args.workload == "serve":
        from benchmarks.pipeline.serve_load import run_serve

        result = run_serve(args.seed, reference, args.seconds, bool(args.trace), out_dir)
    else:
        from benchmarks.pipeline.workloads import WORKLOADS

        workload_class = WORKLOADS[args.workload]
        if args.trace:
            print("READY", flush=True)
            result = traced(workload_class, args.seed, reference, args.seconds, out_dir)
        else:
            workload = workload_class(args.seed, reference)
            workload.warm_up()
            print("READY", flush=True)
            if args.setup_only:
                result = {"calibration": [calibration_sample() for _ in range(SETUP_CALIBRATIONS)]}
            else:
                result = untraced(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
