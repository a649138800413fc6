"""Counters, gauges and histograms for the inference pipeline.

A :class:`Metrics` registry is deliberately tiny: three dictionaries
behind one lock, so the serve daemon's executor threads can record into
the same registry the main thread reads.  Histograms keep raw observations (runs
are short — thousands of samples, not millions) and summarise on demand
with count/min/max/mean/p50/p95.
"""

from __future__ import annotations

import threading


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class Metrics:
    """A thread-safe registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    # ------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest sampled ``value``."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    # ------------------------------------------------------------------

    def histogram_summary(self, name: str) -> dict | None:
        with self._lock:
            values = sorted(self._histograms.get(name, ()))
        if not values:
            return None
        return {
            "count": len(values),
            "min": values[0],
            "max": values[-1],
            "mean": round(sum(values) / len(values), 6),
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
        }

    def to_dict(self) -> dict:
        """A JSON-ready snapshot (histograms pre-summarised)."""
        with self._lock:
            counters = dict(sorted(self.counters.items()))
            gauges = dict(sorted(self.gauges.items()))
            names = sorted(self._histograms)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {name: self.histogram_summary(name) for name in names},
        }

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self.counters or self.gauges or self._histograms)
