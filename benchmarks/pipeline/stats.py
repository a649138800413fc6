"""Summary statistics and host-speed scaling for the pipeline benchmark.

The benchmark runs on shared machines whose speed swings by up to 2x
over tens of seconds (other tenants on the same cores), which no run
length averages away.  :class:`Speedometer` therefore times a fixed
pure-Python calibration loop between timed items, and every timing is
reported *at reference speed*: the measured seconds times
``REFERENCE_S / calibration seconds`` around that moment.  The loop
lives here, outside ``repro``, so no change to the program can move it;
it allocates nothing the cyclic collector tracks and runs with the
collector paused, so the program's heap cannot slow it either.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

#: The tail percentile each workload reports: the highest percentile that
#: leaves at least ten samples beyond it at the sample counts a default
#: run produces, except serve (see README.md).
TAIL_PERCENTILE = {"paper": 99, "stress": 95, "module": 90, "serve": 95}

CALIBRATION_ROUNDS = 3000
REFERENCE_S = 0.0003
"""Seconds one calibration sample takes on the reference host; scaled
times are what the item would have taken there."""

CALIBRATION_EVERY_S = 0.05
"""Least time between two calibration samples."""

WINDOW_S = 0.25
"""A timing is scaled by the median sample within this many seconds."""

SETUP_CALIBRATIONS = 6
"""Calibration samples that scale one set-up probe."""


def nearest_rank(ordered: list[float], percent: float) -> float:
    """The nearest-rank ``percent``-th percentile of a sorted list."""
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float], percent: float) -> tuple[float, int]:
    """``(percentile value, number of samples beyond it)``."""
    ordered = sorted(values)
    value = nearest_rank(ordered, percent)
    beyond = sum(1 for sample in ordered if sample > value)
    return value, beyond


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median_per_input(samples: dict[str, list[float]]) -> float:
    """Geometric mean over distinct inputs of each input's median time.

    Each input (a Figure-2 cell, a stress family, a module check kind, a
    serve request kind) weighs the same whatever its share of the items,
    so a change to one input moves the figure by its relative size, and
    no median lands on the gap between two inputs' times.
    """
    return geomean(statistics.median(values) for values in samples.values())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value: int) -> None:
        self.value = value
        self.link: _Cell | None = None


_CELLS = {index: _Cell(index * 7919) for index in range(256)}
for _index, _cell in _CELLS.items():
    _cell.link = _CELLS[(_index * 37) & 255]


def _mix(cell: _Cell, index: int) -> int:
    return (cell.value ^ index) & 0xFFFF


def _calibration_loop(rounds: int) -> int:
    """Dict probes, attribute loads, calls and small-int arithmetic: the
    interpreter work inference consists of, on a table that fits in L1."""
    cells = _CELLS
    total = 0
    for index in range(rounds):
        cell = cells[index & 255].link
        total += _mix(cell, index)
    return total


def calibration_sample() -> float:
    """Seconds one calibration loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _calibration_loop(CALIBRATION_ROUNDS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Calibration samples taken through a run, and the scale factor
    they give for any moment of it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        now = time.perf_counter()
        self.samples.append(calibration_sample())
        self.times.append(now)
        self._next = now + CALIBRATION_EVERY_S

    def tick(self) -> None:
        """Take a sample if :data:`CALIBRATION_EVERY_S` has passed."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, moment: float) -> float:
        """``REFERENCE_S`` over the median sample near ``moment``."""
        low = bisect.bisect_left(self.times, moment - WINDOW_S)
        high = bisect.bisect_right(self.times, moment + WINDOW_S)
        window = self.samples[low:high]
        if not window:
            window = [self.samples[min(low, len(self.samples) - 1)]]
        return REFERENCE_S / statistics.median(window)

    def scale(self, started: float, seconds: float) -> float:
        """``seconds`` measured from ``started``, at reference speed."""
        return seconds * self.factor(started + seconds / 2)

    def factor_over(self, start: float, end: float) -> float:
        """The factor for an interval: over the median sample taken in it."""
        window = self.samples[bisect.bisect_left(self.times, start) : bisect.bisect_right(self.times, end)]
        if not window:
            return self.factor((start + end) / 2)
        return REFERENCE_S / statistics.median(window)

    def summary(self) -> dict:
        """Sample count and the spread of the factor over the run."""
        factors = [REFERENCE_S / sample for sample in self.samples]
        return {
            "samples": len(factors),
            "factor_median": statistics.median(factors),
            "factor_min": min(factors),
            "factor_max": max(factors),
        }
