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
_POISSON_MAX_K = 10_000  # the largest count one inversion returns


# (1, 2, ..., m) * gamma modulo 2**64, the offsets of a block's m draws
# from the state, made once for blocks up to this long
_GAMMA_RAMP = np.arange(1, 4097, dtype=np.uint64) * np.uint64(_GAMMA)
# the block rounds' constants as numpy scalars, made once
_MIX1_U64, _MIX2_U64 = np.uint64(_MIX1), np.uint64(_MIX2)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))


class PortableRng:
    """splitmix64 stream of uniform draws. A Poisson draw inverts them
    through `poisson_leaves` and `poisson_count` below."""

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
        ramp = (_GAMMA_RAMP[:m] if m <= _GAMMA_RAMP.size else
                np.arange(1, m + 1, dtype=np.uint64) * np.uint64(_GAMMA))
        z = ramp + np.uint64(self.state)  # a new array; wraps modulo 2**64
        # the splitmix rounds, in place on z
        z ^= z >> _S30
        z *= _MIX1_U64
        z ^= z >> _S27
        z *= _MIX2_U64
        z ^= z >> _S31
        z >>= _S11
        self.state = (self.state + m * _GAMMA) & _MASK64
        u = z.astype(float)
        u *= 1.0 / (1 << 53)
        return u

    def give_back(self, n: int):
        """Return the last n draws to the stream unused: the next n draws
        repeat them, as if they had never been made."""
        self.state = (self.state - n * _GAMMA) & _MASK64


class ReadAhead:
    """A read-ahead view of a `PortableRng`, read as the rng itself is.

    It draws `n` uniforms in one `uniforms` call up front, where each
    small draw would pay numpy's fixed cost of a call. `uniforms(m)` then
    serves the next m as a slice of that block. A read that runs past its
    end draws the missing uniforms from the stream and continues in a new
    block made of the unread rest and those, so each such read costs what
    a direct draw does. `give_back(n)` steps back over up to the last
    `uniforms` call's draws. `close()` hands the unread rest back to the
    rng and drops the block, so the rng's state ends where the same reads
    made on it directly would leave it."""

    def __init__(self, rng: PortableRng, n: int):
        self.rng = rng
        self._u = rng.uniforms(n)
        self._k = 0  # the next unread uniform

    def uniforms(self, m: int) -> np.ndarray:
        k = self._k
        if k + m > self._u.size:
            self._u = np.concatenate(
                (self._u[k:], self.rng.uniforms(k + m - self._u.size)))
            k = 0
        self._k = k + m
        return self._u[k:k + m]

    def give_back(self, n: int):
        self._k -= n

    def close(self):
        self.rng.give_back(self._u.size - self._k)
        self._u = None


def poisson_leaves(rate: float) -> list[float]:
    """The leaf rates of a Poisson(rate) draw, in draw order. A rate above
    POISSON_SPLIT splits into rate / 2 and rate - rate / 2, each split
    again the same way, first half first; every leaf inverts one uniform
    (`poisson_count`), and the draw is the sum of the leaves' counts. Rate
    0 has no leaves: it draws 0 without a uniform."""
    if not math.isfinite(rate):
        raise ValueError("poisson rate must be finite")
    if rate < 0:
        raise ValueError("poisson rate must be >= 0")
    if rate == 0:
        return []
    if rate > POISSON_SPLIT:
        return poisson_leaves(rate / 2.0) + poisson_leaves(rate - rate / 2.0)
    return [rate]


def poisson_count(u: float, rate: float, exp_neg: float) -> int:
    """The Poisson count of uniform u for a leaf rate (at most
    POISSON_SPLIT), with exp_neg = math.exp(-rate): the least k, at most
    _POISSON_MAX_K, whose cumulative probability exceeds u. The terms
    p_0 = exp_neg and p_k = p_{k-1} * (rate / k) are summed in order in
    floats, so the comparisons are exact and portable."""
    p = cum = exp_neg
    k = 0
    while u >= cum and k < _POISSON_MAX_K:
        k += 1
        p *= rate / k
        cum += p
    return k
