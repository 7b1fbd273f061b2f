"""Straggler delays for the tests that want an unbounded tail.

``ExponentialDelay`` is a :class:`~repro.sim.network.DelayModel`: most
messages are fast and some straggle, and with no cap there is no Δ bound,
matching the paper's fully asynchronous setting.  No engine draws from it;
the concurrency, read-lifetime and message-disperse state tests do.
Importable as ``exponential_delay`` through ``tests/conftest.py``.
"""

from typing import List, Optional

import numpy as np

from repro.sim.network import DelayModel


class ExponentialDelay(DelayModel):
    """Heavy-ish tailed delays: ``base + Exp(mean)`` optionally capped."""

    def __init__(self, mean: float = 1.0, base: float = 0.0, cap: Optional[float] = None) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        if base < 0:
            raise ValueError("base must be non-negative")
        if cap is not None and cap < base:
            raise ValueError("cap must be at least base")
        self.mean = mean
        self.base = base
        self.cap = cap

    def sample(self, src, dst, rng: np.random.Generator) -> float:
        delay = self.base + float(rng.exponential(self.mean))
        if self.cap is not None:
            delay = min(delay, self.cap)
        return delay

    def sample_block(self, n: int, rng: np.random.Generator) -> List[float]:
        block = self.base + rng.exponential(self.mean, size=n)
        if self.cap is not None:
            np.minimum(block, self.cap, out=block)
        return block.tolist()
