"""Estimators the benchmark reports with, and the host-drift canary.

Host noise on a small shared box is large and one-sided (a fixed loop
only ever gets *slower*), so a run reports, for every timing metric,
the **fast-quartile** of its per-segment values: the 25th percentile
toward "better".  It is far enough from the minimum to need several
clean segments, and far enough from the median to ignore a slow half.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: Canary spread above which a run's timings are reported "unresolved".
CALIB_SPREAD_LIMIT = 0.15
#: What :func:`calibrate` reads on the quiet reference host; timings are
#: reported as if the host ran the canary at exactly this speed.
REFERENCE_CALIB_MS = 9.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation, inclusive."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fast_quartile(values: Sequence[float], better: str) -> float:
    """The quartile toward ``better``: p25 of times, p75 of rates."""
    if better == "lower":
        return percentile(values, 25.0)
    if better == "higher":
        return percentile(values, 75.0)
    raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(count * (100.0 - q) / 100.0 + 1e-9)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """``percentile`` that refuses a tail the sample cannot support."""
    if samples_beyond(len(values), q) < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has fewer than "
            f"{MIN_SAMPLES_BEYOND} samples beyond it"
        )
    return percentile(values, q)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0


def calibrate() -> float:
    """Milliseconds one fixed pure-Python kernel takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


class Canary:
    """Repeated :func:`calibrate` samples: did the host hold still?"""

    def __init__(self) -> None:
        calibrate()  # the first call runs cold; its time says nothing
        self.samples = [calibrate()]

    def sample(self) -> None:
        self.samples.append(calibrate())

    @property
    def median_ms(self) -> float:
        return percentile(self.samples, 50.0)

    @property
    def spread(self) -> float:
        return spread(self.samples)

    @property
    def host_factor(self) -> float:
        """How much slower than the reference host this run's quiet part was.

        The fast quartile of the canary pairs with the fast quartile of
        the segment values: both describe the undisturbed part of a run.
        """
        return fast_quartile(self.samples, "lower") / REFERENCE_CALIB_MS
