"""Portable pseudo-random generator for demand sampling.

Demand histories must be byte-identical across machines, so sampling goes
through an in-repo splitmix64 stream instead of any platform RNG.
splitmix64 is counter-based (Steele, Lea & Flood, OOPSLA 2014): draw k
after state s is a pure function of s + k * gamma, so a block of draws can
be computed at once and equals the same number of single draws.
"""

from __future__ import annotations

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
    """splitmix64 stream of uniform draws, read ahead. A Poisson draw
    inverts them through `poisson_leaves` and `poisson_count` below.

    The stream keeps one read-only block of draws and a cursor into it, so
    a small read is a slice where its own draw would pay numpy's fixed
    cost of a call. A read that runs past the end continues in a new block:
    the unread rest, then at least a ramp's worth of fresh draws. `state`
    is where single draws would have left the stream, so reading ahead
    changes no draw and no state."""

    def __init__(self, seed: int):
        self._restart(seed & _MASK64)

    def _restart(self, state: int):
        """Continue the stream from `state`, holding no draws."""
        self._origin = state  # the state before the block's first draw
        self._u = np.empty(0)
        self._k = 0  # the next unread draw

    @property
    def state(self) -> int:
        return (self._origin + self._k * _GAMMA) & _MASK64

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def uniforms(self, m: int) -> np.ndarray:
        """The next m uniforms as a read-only slice of the block, equal to
        m `uniform()` calls and leaving the same state."""
        k, held = self._k, self._u.size
        if k + m > held:
            fresh = _draws((self._origin + held * _GAMMA) & _MASK64,
                           max(_GAMMA_RAMP.size, k + m - held))
            self._origin = self.state  # the new block starts at the cursor
            self._u = np.concatenate((self._u[k:], fresh))
            self._u.flags.writeable = False
            k = 0
        self._k = k + m
        return self._u[k:k + m]

    def give_back(self, n: int):
        """Return the last n draws to the stream unused: the next n draws
        repeat them, as if they had never been made."""
        if n > self._k:
            self._restart((self.state - n * _GAMMA) & _MASK64)
        else:
            self._k -= n


def _draws(state: int, m: int) -> np.ndarray:
    """The m uniforms that follow `state`, computed at once: each draw's
    top 53 bits scaled into [0, 1)."""
    ramp = (_GAMMA_RAMP[:m] if m <= _GAMMA_RAMP.size else
            np.arange(1, m + 1, dtype=np.uint64) * np.uint64(_GAMMA))
    z = ramp + np.uint64(state)  # a new array; wraps modulo 2**64
    # the splitmix rounds, in place on z
    z ^= z >> _S30
    z *= _MIX1_U64
    z ^= z >> _S27
    z *= _MIX2_U64
    z ^= z >> _S31
    z >>= _S11
    u = z.astype(float)
    u *= 1.0 / (1 << 53)
    return u


def poisson_leaves(rate: float) -> list[float]:
    """The leaf rates of a Poisson(rate) draw, in draw order. A rate above
    POISSON_SPLIT splits into rate / 2 and rate - rate / 2, each split
    again the same way, first half first; every leaf inverts one uniform
    (`poisson_count`), and the draw is the sum of the leaves' counts. Rate
    0 has no leaves: it draws 0 without a uniform. `DemandProfile`
    rejects a rate that is negative or not finite before any draw."""
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
