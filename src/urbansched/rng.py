"""Portable pseudo-random generator for demand sampling.

Demand histories must be byte-identical across machines, so sampling goes
through an in-repo splitmix64 stream instead of any platform RNG.
splitmix64 is counter-based (Steele, Lea & Flood, OOPSLA 2014): draw k
after state s is a pure function of s + k * gamma, so a block of draws can
be computed at once and equals the same number of single draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
POISSON_SPLIT = 50  # larger rates split in two, so inversion stays stable
_POISSON_MAX_K = 10_000


class PortableRng:
    """splitmix64 stream with uniform and Poisson draws."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53-bit mantissa, value in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, m: int) -> np.ndarray:
        """The next m uniforms as one array, equal to m `uniform()` calls
        and leaving the same state."""
        z = (np.arange(1, m + 1, dtype=np.uint64) * np.uint64(_GAMMA)
             + np.uint64(self.state))  # wraps modulo 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self.state = (self.state + m * _GAMMA) & _MASK64
        return (z >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))

    def give_back(self, n: int):
        """Return the last n draws to the stream unused: the next n draws
        repeat them, as if they had never been made."""
        self.state = (self.state - n * _GAMMA) & _MASK64

    def poisson(self, rate: float) -> int:
        if rate < 0:
            raise ValueError("poisson rate must be >= 0")
        if rate == 0:
            return 0
        if rate > POISSON_SPLIT:
            half = self.poisson(rate / 2.0)
            return half + self.poisson(rate - rate / 2.0)
        u = self.uniform()
        p = math.exp(-rate)
        cum = p
        k = 0
        while u >= cum and k < _POISSON_MAX_K:
            k += 1
            p *= rate / k
            cum += p
        return k


def poisson_leaves(rate: float) -> list[float]:
    """The rates `PortableRng.poisson(rate)` inverts, in draw order: one
    uniform each, and their counts sum to the draw."""
    if rate < 0:
        raise ValueError("poisson rate must be >= 0")
    if rate == 0:
        return []
    if rate > POISSON_SPLIT:
        return poisson_leaves(rate / 2.0) + poisson_leaves(rate - rate / 2.0)
    return [rate]


def poisson_count(u: float, rate: float, exp_neg: float) -> int:
    """The count `PortableRng.poisson` inverts from uniform u for a leaf
    rate (at most POISSON_SPLIT) with exp_neg = math.exp(-rate)."""
    p = cum = exp_neg
    k = 0
    while u >= cum and k < _POISSON_MAX_K:
        k += 1
        p *= rate / k
        cum += p
    return k


def invert_poisson(u: np.ndarray, rates: np.ndarray,
                   exp_neg: np.ndarray) -> np.ndarray:
    """Element-wise `PortableRng.poisson` inversion of uniforms `u` for
    leaf rates (at most the split threshold) with `exp_neg` = exp(-rate)
    taken from `math.exp`. numpy's *, / and + round like Python's, so each
    count equals the scalar loop's."""
    p = exp_neg.copy()
    cum = p.copy()
    k = np.zeros(u.shape, dtype=np.int64)
    active = u >= cum
    step = 0
    # p >= 0, so cum never falls: an element that stopped stays stopped
    while step < _POISSON_MAX_K and active.any():
        step += 1
        k += active
        p *= rates / step
        cum += p
        active = u >= cum
    return k
