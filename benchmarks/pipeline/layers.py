"""Per-layer attribution from span trees and tracer counters.

Layers are named after ``src/repro`` modules.  The program's own spans
(``infer``/``generate``/``solve``/``generalize`` from ``repro.core.infer``,
``module.check``/``parse``/``graph``/``layer``/``group.check`` from
``repro.modules``, ``serve.request`` from ``repro.robustness.server``)
are renamed here; the spans the benchmark opens around its own calls
(``syntax.parse``, ``render``, ``baselines.<system>``) are named by
layer already, and its per-item root span is ``other``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SPAN_LAYERS = {
    "item": "other",
    "generate": "infer.generate",
    "solve": "infer.solve",
    "generalize": "infer.generalize",
    "module.check": "modules.check",
    "parse": "modules.parse",
    "graph": "modules.graph",
    "layer": "modules.layer",
    "group.check": "modules.group_check",
}

#: Layers whose self time per item is a per-layer metric, ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "syntax.parse",
    "infer",
    "infer.generate",
    "infer.solve",
    "infer.generalize",
    "render",
    "baselines.HMF",
    "baselines.HMF-N",
    "baselines.HM",
    "baselines.RankN",
    "baselines.FreezeML",
    "baselines.QuickLook",
    "modules.check",
    "modules.parse",
    "modules.graph",
    "modules.layer",
    "modules.group_check",
    "serve.request",
    "other",
)

#: Counters only instrumented code keeps, read from the tracer.
TRACER_COUNTERS = (
    "infer.runs",
    "solver.deferrals",
    "solver.wakes",
    "solver.defaults",
    "unify.calls",
    "unify.binds",
)

#: Counts read from public results of the untraced run.
RESULT_COUNTS = (
    "gen.constraints",
    "solver.steps",
    "unify.bindings",
    "modules.cache_hits",
    "modules.cache_misses",
    "modules.groups_checked",
    "baselines.crashed",
)

#: Numbers only the serve workload has (zero elsewhere).
SERVE_NUMBERS = (
    "serve.exec_ms_p50",
    "serve.exec_ms_p99",
    "serve.wire_ms_p50",
    "serve.wire_ms_p99",
    "serve.queue_ms_p50",
    "serve.queue_ms_p99",
    "serve.intern_hit_ratio",
    "serve.shed",
    "serve.internal",
    "loadgen.late_ms_p99",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    return [
        *(f"{layer}.self_s" for layer in SELF_TIME_LAYERS),
        *TRACER_COUNTERS,
        *RESULT_COUNTS,
        "modules.hit_ratio",
        *SERVE_NUMBERS,
        "trace_overhead",
    ]


class SelfTimes:
    """Calls, total and self time per layer, summed over span trees.

    Self time is a span's duration minus the time its children cover —
    the semantics of ``repro.observability.render.render_profile``.
    Each tree's times are multiplied by its ``factor`` (the host-speed
    scale of :class:`benchmarks.pipeline.stats.Speedometer`).
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self: dict[str, float] = {}

    def add(self, root, factor: float = 1.0) -> None:
        stack = [root]
        while stack:
            span = stack.pop()
            duration = span.duration
            covered = sum(child.duration for child in span.children)
            name = SPAN_LAYERS.get(span.name, span.name)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration * factor
            self.self[name] = self.self.get(name, 0.0) + max(0.0, duration - covered) * factor
            stack.extend(span.children)


def counts_from_snapshot(snapshot: dict) -> dict[str, int]:
    """Tracer counters from a ``Metrics.to_dict()`` snapshot (or the
    final ``metrics`` event of a JSONL trace)."""
    counters = snapshot["counters"]
    return {name: counters.get(name, 0) for name in TRACER_COUNTERS}


def layer_metrics(times: SelfTimes, items: int, counts: dict, overhead: float, serve=None) -> dict:
    """Every per-layer metric (see :func:`per_layer_names`): self seconds
    per item, counts, the serve numbers, and the traced/untraced ratio."""
    metrics = {f"{layer}.self_s": times.self.get(layer, 0.0) / items for layer in SELF_TIME_LAYERS}
    for name in (*TRACER_COUNTERS, *RESULT_COUNTS):
        metrics[name] = counts.get(name, 0)
    looked_up = metrics["modules.cache_hits"] + metrics["modules.cache_misses"]
    metrics["modules.hit_ratio"] = metrics["modules.cache_hits"] / looked_up if looked_up else 0.0
    for name in SERVE_NUMBERS:
        metrics[name] = (serve or {}).get(name, 0)
    metrics["trace_overhead"] = overhead
    return metrics


def layer_table(times: SelfTimes, items: int) -> list[dict]:
    """Every layer seen, per item, largest self time first."""
    return [
        {
            "layer": name,
            "calls_per_item": times.calls[name] / items,
            "total_s": times.total[name] / items,
            "self_s": times.self[name] / items,
        }
        for name in sorted(times.self, key=lambda name: -times.self[name])
    ]


def validate_trace(path: Path) -> bool:
    """Run ``repro trace --validate`` on a written trace file."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--validate", str(path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    if completed.returncode != 0:
        print(completed.stderr[-2000:], file=sys.stderr)
    return completed.returncode == 0
