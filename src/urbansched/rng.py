"""Portable pseudo-random generator for demand sampling.

Demand histories must be byte-identical across machines, so sampling goes
through an in-repo splitmix64 stream instead of any platform RNG.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1


class PortableRng:
    """splitmix64 stream with uniform / Poisson / weighted-choice draws."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53-bit mantissa, value in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def poisson(self, rate: float) -> int:
        if rate < 0:
            raise ValueError("poisson rate must be >= 0")
        if rate == 0:
            return 0
        if rate > 50:
            # split large rates so inversion stays numerically stable
            half = self.poisson(rate / 2.0)
            return half + self.poisson(rate - rate / 2.0)
        u = self.uniform()
        p = math.exp(-rate)
        cum = p
        k = 0
        while u >= cum and k < 10_000:
            k += 1
            p *= rate / k
            cum += p
        return k

    def choice(self, weights: list[float]) -> int:
        total = sum(weights)
        if total <= 0:
            raise ValueError("choice needs positive total weight")
        u = self.uniform() * total
        cum = 0.0
        for i, w in enumerate(weights):
            cum += w
            if u < cum:
                return i
        return len(weights) - 1
