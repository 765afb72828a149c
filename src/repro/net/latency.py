"""Link latency models for the simulated network.

The paper's implementation ran on a LAN ([36]); its design targets WANs
(Section 1).  The latency models here let the benchmarks sweep both
regimes: a constant LAN-like delay, a uniform jitter band, and a
heavy-tailed lognormal WAN-like distribution.
"""

from __future__ import annotations

import math
import random

from repro.types import ProcessId


class LatencyModel:
    """Samples a one-way delay for a (src, dst) message."""

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected one-way delay, used by benchmarks for round estimates."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from [low, high]."""

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high
        self.rng = random.Random(seed)

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        return self.rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class LognormalLatency(LatencyModel):
    """Heavy-tailed WAN-like delays with median ``median`` and shape ``sigma``."""

    def __init__(self, median: float = 1.0, sigma: float = 0.5, seed: int = 0) -> None:
        if median <= 0:
            raise ValueError("median must be positive")
        self.median = median
        self.sigma = sigma
        self.rng = random.Random(seed)

    def sample(self, src: ProcessId, dst: ProcessId) -> float:
        return self.rng.lognormvariate(math.log(self.median), self.sigma)

    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2)

    def __repr__(self) -> str:
        return f"LognormalLatency({self.median}, {self.sigma})"
