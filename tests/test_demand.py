import csv
import hashlib
import importlib.util
import itertools
import math
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from urbansched import cli, demand, envs
from urbansched.cli import _history_from_scenario, resolve_scenario
from urbansched.demand import DemandProfile, HistoryLog, sample_segment
from urbansched.rng import (
    _POISSON_MAX_K, POISSON_SPLIT, PortableRng, poisson_count, poisson_leaves,
)
from urbansched.world import (
    ScenarioError, ScenarioSpec, SegmentClock,
)


IDS = ["A", "B", "C"]
A, B, C = range(3)  # their station indices, as bike trips name them


def make_profile(rates=None, od=None, bus_rates=None):
    if rates is None:
        rates = np.full((3, 4), 2.0)
    if od is None:
        od = np.ones((3, 3)) - np.eye(3)
    return DemandProfile(station_ids=IDS, rates=rates, od_weights=od,
                         bus_rates=bus_rates or {})


# Reference implementations: the scalar splitmix64 stream that
# `PortableRng` reads ahead, and the scalar sampling path that the profile
# tables and the block draws replace. The fast paths must match them draw
# for draw, state included.

class RefSplitmix:
    """splitmix64 one draw at a time, in Python integers."""

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53-bit mantissa, value in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n: int) -> list[float]:
        return [self.uniform() for _ in range(n)]

    def give_back(self, n: int):
        self.state = (self.state - n * self.GAMMA) & self.MASK


def poisson(rng: PortableRng, rate: float) -> int:
    """The scalar Poisson draw: a rate above POISSON_SPLIT is the sum of
    draws of rate / 2 and rate - rate / 2; a smaller one inverts one
    `rng.uniform()`."""
    if rate < 0:
        raise ValueError("poisson rate must be >= 0")
    if rate == 0:
        return 0
    if rate > POISSON_SPLIT:
        half = poisson(rng, rate / 2.0)
        return half + poisson(rng, rate - rate / 2.0)
    u = rng.uniform()
    p = math.exp(-rate)
    cum = p
    k = 0
    while u >= cum and k < _POISSON_MAX_K:
        k += 1
        p *= rate / k
        cum += p
    return k


def seq_sum(values: list[float]) -> float:
    """The left-to-right float sum; `sum()` compensates since Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def ref_choice(rng: PortableRng, weights: list[float]) -> int:
    total = seq_sum(weights)
    if total <= 0:
        raise ValueError("choice needs positive total weight")
    u = rng.uniform() * total
    cum = 0.0
    for i, w in enumerate(weights):
        cum += w
        if u < cum:
            return i
    return len(weights) - 1


def ref_rate_at(profile: DemandProfile, station: int, segment: int) -> float:
    return float(profile.rates[station, segment % profile.segments_per_day])


def ref_expected_od(profile: DemandProfile, segment: int) -> np.ndarray:
    n = len(profile.station_ids)
    out = np.zeros((n, n))
    for i in range(n):
        row = profile.od_weights[i]
        total = row.sum()
        if total > 0:
            out[i] = ref_rate_at(profile, i, segment) * row / total
    return out


def ref_sample_segment(profile, clock, rng):
    segment = clock.current
    trips = []
    n = len(profile.station_ids)
    for i in range(n):
        count = poisson(rng, ref_rate_at(profile, i, segment))
        if count == 0:
            continue
        weights = profile.od_weights[i]
        if weights.sum() <= 0:
            continue
        per_dest = [0] * n
        for _ in range(count):
            per_dest[ref_choice(rng, list(weights))] += 1
        for j, c in enumerate(per_dest):
            if c > 0:
                trips.append((i, j, c))
    bus_arrivals = []
    for (origin, dest), rate in sorted(profile.bus_rates.items()):
        count = poisson(rng, rate)
        if count > 0:
            bus_arrivals.append((origin, dest, count))
    return trips, bus_arrivals


class TestPortableRng:
    def test_reproducible_stream(self):
        a = PortableRng(42)
        b = PortableRng(42)
        assert [a.uniform() for _ in range(5)] == \
               [b.uniform() for _ in range(5)]

    def test_uniform_range(self):
        rng = PortableRng(7)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < np.mean(draws) < 0.6

    def test_poisson_moments(self):
        rng = PortableRng(3)
        for rate in (0.5, 4.0, 80.0):
            draws = np.array([poisson(rng, rate) for _ in range(4000)])
            assert abs(draws.mean() - rate) < 0.15 * max(rate, 1.0)
            assert abs(draws.var() - rate) < 0.25 * max(rate, 1.0)

    def test_poisson_zero_rate(self):
        rng = PortableRng(1)
        assert poisson(rng, 0.0) == 0

    def test_poisson_leaves_reject_bad_rates(self):
        # the bad rates (an infinite one would split without end, and NaN
        # passes every comparison) are rejected where they enter, when the
        # scenario loads (test_harness's TestCli::test_bad_demand_exit_1
        # and test_rate_past_its_cap_exit_1); a good one splits evenly
        assert poisson_leaves(120.0) == [30.0] * 4

    def test_choice_respects_weights(self):
        rng = PortableRng(9)
        picks = [ref_choice(rng, [0.0, 1.0, 3.0]) for _ in range(2000)]
        assert 0 not in picks
        assert abs(picks.count(2) / 2000 - 0.75) < 0.05

    @given(seed=st.one_of(st.integers(0, 2 ** 64 - 1),
                          st.integers(2 ** 64 - 40, 2 ** 64 - 1)),
           n=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_uniforms_equal_single_draws(self, seed, n):
        block, single = PortableRng(seed), RefSplitmix(seed)
        got = block.uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == single.uniforms(n)
        assert block.state == single.state
        assert block.uniform() == single.uniform()

    def test_uniforms_wrap_past_2_64(self):
        block, single = PortableRng(2 ** 64 - 1), RefSplitmix(2 ** 64 - 1)
        assert block.uniforms(3).tolist() == single.uniforms(3)
        assert block.state == single.state < 2 ** 64 - 1
        empty = PortableRng(5)
        assert empty.uniforms(0).size == 0 and empty.state == 5

    @pytest.mark.parametrize("m", [4095, 4096, 4097, 6000])
    def test_uniforms_past_the_cached_ramp(self, m):
        # fresh draws up to 4096 long slice one kept ramp of offsets,
        # longer ones make their own; a short read after a long one reads
        # the kept ramp unchanged
        seed = 2 ** 64 - 2000
        block, single = PortableRng(seed), RefSplitmix(seed)
        for n in (m, 5):
            assert block.uniforms(n).tolist() == single.uniforms(n)
            assert block.state == single.state

    @given(seed=st.one_of(st.integers(0, 2 ** 64 - 1),
                          st.integers(2 ** 64 - 9000, 2 ** 64 - 1)),
           ops=st.lists(st.tuples(
               st.sampled_from(["uniforms", "uniform", "give_back"]),
               st.one_of(st.integers(0, 40), st.integers(4000, 9000))),
               min_size=1, max_size=10))
    @example(seed=3, ops=[("uniforms", 40), ("uniforms", 4090),
                          ("give_back", 4091), ("uniforms", 30)])
    @settings(max_examples=60, deadline=None)
    def test_reads_and_hand_backs_equal_single_draws(self, seed, ops):
        # reads from 0 to past a ramp's worth straddle block ends and take
        # the long-ramp path; a hand-back of up to every draw kept reaches
        # past the start of the block that a straddling read began
        rng, ref = PortableRng(seed), RefSplitmix(seed)
        kept = 0  # draws made and not handed back
        for op, m in ops:
            if op == "uniforms":
                assert rng.uniforms(m).tolist() == ref.uniforms(m)
                kept += m
            elif op == "uniform":
                assert rng.uniform() == ref.uniform()
                kept += 1
            else:
                n = min(m, kept)
                rng.give_back(n)
                ref.give_back(n)
                kept -= n
            assert rng.state == ref.state

    def test_served_draws_are_read_only(self):
        # a served slice is a view of the block that a hand-back serves
        # again, so writing into it would change a later read
        rng = PortableRng(6)
        u = rng.uniforms(5)
        with pytest.raises(ValueError):
            u[0] = 0.5
        rng.give_back(3)
        assert rng.uniforms(3).tolist() == u[2:].tolist()


class TestDemandProfile:
    def test_rates_wrap_daily(self):
        rates = np.arange(12, dtype=float).reshape(3, 4)
        profile = make_profile(rates=rates)
        assert ref_rate_at(profile, 1, 0) == ref_rate_at(profile, 1, 4)
        assert ref_rate_at(profile, 2, 3) == rates[2, 3]
        np.testing.assert_array_equal(profile.rates, rates)
        # segment 4 replays segment 0 of the 4-segment day
        draws = [sample_segment(profile, SegmentClock(0, 8, seg, 15),
                                PortableRng(21)) for seg in (0, 4)]
        assert draws[0] == draws[1]

    def test_day_positions_share_one_row_per_station(self):
        # each station's cumulative OD row, without its last sum, is one
        # list that every day position's entry holds: a copy per entry
        # would hold 4,800 rows for the city
        profile = _city_profile()
        n = len(profile.station_ids)
        rows = {}
        for table in profile._draw_tables:
            for entry in table:
                i, cum = entry[0], entry[-1]
                assert rows.setdefault(i, cum) is cum
                assert len(cum) == n - 1
        assert len(rows) == n
        tracemalloc.start()
        try:
            profile = _city_profile()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.1 * 2 ** 20

    def test_expected_od_row_sums(self):
        profile = make_profile(rates=np.array([[3.0], [5.0], [0.0]]),
                               od=np.array([[0, 2, 2], [1, 0, 0], [0, 0, 0]],
                                           dtype=float))
        exp = profile.expected_od(0)
        np.testing.assert_allclose(exp.sum(axis=1), [3.0, 5.0, 0.0])
        np.testing.assert_allclose(exp[0], [0.0, 1.5, 1.5])

    def test_expected_od_matches_row_loop(self):
        n = 12  # long enough that numpy's pairwise row sums kick in
        gen = np.random.default_rng(4)
        od = gen.uniform(0.0, 3.0, (n, n)).round(4)
        od[3] = 0.0
        np.fill_diagonal(od, 0.0)
        profile = DemandProfile(station_ids=[f"S{i:02d}" for i in range(n)],
                                rates=gen.uniform(0.0, 9.0, (n, 5)),
                                od_weights=od)
        for segment in range(11):
            np.testing.assert_array_equal(profile.expected_od(segment),
                                          ref_expected_od(profile, segment))

    def test_sampling_reproducible_and_mean(self):
        profile = make_profile(rates=np.full((3, 1), 3.0))
        clock = SegmentClock(0, 1, 0, 15)
        totals = []
        for _ in range(2):
            rng = PortableRng(11)
            count = 0
            for _ in range(500):
                trips, _ = sample_segment(profile, clock, rng)
                count += sum(c for _, _, c in trips)
            totals.append(count)
        assert totals[0] == totals[1]
        assert abs(totals[0] / 500 - 9.0) < 0.6  # 3 stations at rate 3

    def test_no_self_loops_in_samples(self):
        profile = make_profile(rates=np.full((3, 1), 5.0))
        rng = PortableRng(2)
        clock = SegmentClock(0, 1, 0, 15)
        for _ in range(50):
            trips, _ = sample_segment(profile, clock, rng)
            assert all(o != d for o, d, _ in trips)

    def test_bus_rates_sampled(self):
        profile = make_profile(bus_rates={("S1", "S3"): 2.0})
        rng = PortableRng(4)
        clock = SegmentClock(0, 1, 0, 15)
        total = sum(sum(c for _, _, c in
                        sample_segment(profile, clock, rng)[1])
                    for _ in range(500))
        assert abs(total / 500 - 2.0) < 0.3


RATES = st.one_of(st.sampled_from([0.0, 0.3, 4.0, 50.0, 50.5, 99.0, 100.5,
                                   260.0]),
                  st.floats(0.0, 240.0))
STOPS = ["P0", "P1", "P2", "P3"]
STOPS_12 = [f"Q{i:02d}" for i in range(12)]


@st.composite
def profiles(draw):
    n = draw(st.integers(1, 5))
    per_day = draw(st.integers(1, 3))
    rates = np.array(draw(st.lists(RATES, min_size=n * per_day,
                                   max_size=n * per_day))).reshape(n, per_day)
    od = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]),
                                min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(od, 0.0)
    if draw(st.booleans()):
        od[0] = 0.0  # an all-zero weight row
    pairs = [(o, d) for o in STOPS for d in STOPS if o != d]
    bus_rates = draw(st.dictionaries(st.sampled_from(pairs), RATES,
                                     max_size=6))
    return DemandProfile(station_ids=[f"S{i}" for i in range(n)],
                         rates=rates, od_weights=od, bus_rates=bus_rates)


class TestSamplingMatchesReference:
    @given(profile=profiles(), seed=st.integers(0, 2 ** 64 - 1),
           first=st.integers(0, 7), segments=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_same_trips_arrivals_and_state(self, profile, seed, first,
                                           segments):
        fast, ref = PortableRng(seed), PortableRng(seed)
        clock = SegmentClock(0, first + segments, first, 15)
        for seg in range(first, first + segments):  # runs past one day
            clock.current = seg
            assert (sample_segment(profile, clock, fast)
                    == ref_sample_segment(profile, clock, ref))
            assert fast.state == ref.state

    @given(rates=st.lists(st.floats(50.0, 400.0, exclude_min=True),
                          min_size=6, max_size=6),
           zero_row=st.integers(0, 2), seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_split_rates(self, rates, zero_row, seed):
        # every station's draw is split into leaves, and one station's
        # trips have no destination row
        od = np.ones((3, 3)) - np.eye(3)
        od[zero_row] = 0.0
        profile = make_profile(rates=np.array(rates).reshape(3, 2), od=od)
        fast, ref = PortableRng(seed), PortableRng(seed)
        clock = SegmentClock(0, 2, 0, 15)
        for seg in range(2):
            clock.current = seg
            assert (sample_segment(profile, clock, fast)
                    == ref_sample_segment(profile, clock, ref))
            assert fast.state == ref.state

    @given(bus_rates=st.dictionaries(
               st.sampled_from([(o, d) for o in STOPS_12 for d in STOPS_12
                                if o != d]),
               st.one_of(st.sampled_from([0.0, 0.05, 0.3, 2.0, 50.0, 50.5,
                                          260.0]),
                         st.floats(0.0, 300.0)),
               min_size=50, max_size=80),
           seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_many_bus_ods(self, bus_rates, seed):
        # bus leaves are inverted only where they draw a passenger, and a
        # split OD's leaves are summed into one arrival
        profile = make_profile(rates=np.array([[0.4, 0.0], [0.0, 0.0],
                                               [3.0, 0.0]]),
                               bus_rates=bus_rates)
        fast, ref = PortableRng(seed), PortableRng(seed)
        clock = SegmentClock(0, 3, 0, 15)
        for seg in range(3):
            clock.current = seg
            assert (sample_segment(profile, clock, fast)
                    == ref_sample_segment(profile, clock, ref))
            assert fast.state == ref.state

    def test_edge_rates_and_rows(self):
        od = np.array([[0, 0, 0], [0, 0, 2.0], [1.0, 0, 0]])
        profile = make_profile(
            rates=np.array([[60.0, 0.0], [120.0, 0.5], [7.0, 230.0]]), od=od,
            bus_rates={("P0", "P1"): 0.0, ("P1", "P0"): 101.0,
                       ("P2", "P3"): 49.0, ("P3", "P2"): 0.2})
        fast, ref = PortableRng(2 ** 64 - 2), PortableRng(2 ** 64 - 2)
        clock = SegmentClock(0, 6, 0, 15)
        for seg in range(6):
            clock.current = seg
            got = sample_segment(profile, clock, fast)
            assert got == ref_sample_segment(profile, clock, ref)
            assert fast.state == ref.state
            assert all(o != A for o, _, _ in got[0])  # zero weight row
            assert ("P0", "P1") not in [(o, d) for o, d, _ in got[1]]


class ScriptedRng(PortableRng):
    """Hands out scripted uniforms, to single and block draws alike. A
    block that runs past the end of the script is padded with NaN, which
    the sampler must hand back unread; handed-back uniforms return to the
    front of the script."""

    def __init__(self, uniforms):
        super().__init__(0)
        self.script = deque(uniforms)
        self.handed: list[float] = []  # block draws, newest last
        self.blocks = 0

    def uniform(self):
        return self.script.popleft()

    def uniforms(self, m):
        out = [self.script.popleft() if self.script else math.nan
               for _ in range(m)]
        self.handed += out
        self.blocks += 1
        return np.array(out)

    def give_back(self, n):
        for _ in range(n):
            u = self.handed.pop()
            if not math.isnan(u):
                self.script.appendleft(u)


def _around(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


class TestSamplingBoundaries:
    """Uniforms that land on a cumulative sum, or an ulp either side of
    it: the fast path must compare exactly what the scalar path does."""

    def test_poisson_cumulative_sums(self):
        rates = np.random.default_rng(0).uniform(0.01, 50.0, 200).round(6)
        profile = make_profile(
            rates=np.zeros((3, 1)),
            bus_rates={(f"P{i:03d}", "Q"): r for i, r in enumerate(rates)})
        cums = []  # the scalar loop's cumulative sums, per rate
        for rate in rates:
            p = cum = math.exp(-rate)
            row = [cum]
            for k in range(1, 4):
                p *= rate / k
                cum += p
                row.append(cum)
            cums.append(row)
        clock = SegmentClock(0, 1, 0, 15)
        for j in range(4):
            for side in range(3):
                us = [_around(row[j])[side] for row in cums]
                assert (sample_segment(profile, clock, ScriptedRng(us))
                        == ref_sample_segment(profile, clock,
                                              ScriptedRng(us)))

    def test_od_cumulative_sums(self):
        n = 12  # long enough that numpy's pairwise sum differs
        od = np.random.default_rng(1).uniform(0.0, 3.0, (n, n)).round(4)
        np.fill_diagonal(od, 0.0)
        clock = SegmentClock(0, 1, 0, 15)
        for i in range(n):  # station i alone departs
            profile = DemandProfile(
                station_ids=[f"S{k:02d}" for k in range(n)],
                rates=np.eye(n)[:, i:i + 1], od_weights=od)
            weights = od[i].tolist()
            total = seq_sum(weights)
            cum = 0.0
            for w in weights:
                cum += w
                for u in _around(cum / total):
                    script = [0.5, u]  # a count of 1, then its destination
                    assert (sample_segment(profile, clock,
                                           ScriptedRng(script))
                            == ref_sample_segment(profile, clock,
                                                  ScriptedRng(script)))

    def test_fallbacks_at_the_top_of_the_range(self):
        # u = 1.0 meets no cumulative sum: each Poisson draw stops at its
        # cap and each destination falls back to the last station
        profile = make_profile(rates=np.array([[0.5], [0.0], [0.0]]),
                               od=np.array([[0, 1.0, 2.0], [1.0, 0, 0],
                                            [1.0, 0, 0]]),
                               bus_rates={("P0", "P1"): 2.0})
        clock = SegmentClock(0, 1, 0, 15)
        draws = 1 + 10_000 + 1
        want = ([(A, C, 10_000)], [("P0", "P1", 10_000)])
        assert ref_sample_segment(profile, clock,
                                  ScriptedRng([1.0] * draws)) == want
        rng = ScriptedRng([1.0] * draws)
        assert sample_segment(profile, clock, rng) == want
        assert not rng.script

    def test_bus_leaf_boundaries(self):
        # a uniform equal to exp(-rate) draws a passenger, one an ulp below
        # it does not, and the NaN padding past the script draws none; the
        # 60.0 OD splits into two leaves of 30.0
        profile = make_profile(rates=np.zeros((3, 1)), bus_rates={
            ("P0", "P1"): 0.5, ("P0", "P2"): 2.0, ("P1", "P0"): 60.0,
            ("P2", "P0"): 0.7, ("P3", "P0"): 1.0})
        clock = SegmentClock(0, 1, 0, 15)
        at, below = math.exp(-30.0), math.nextafter(math.exp(-30.0), 0.0)
        cases = [
            ([math.exp(-0.5), math.nextafter(math.exp(-2.0), 0.0), at, at],
             [("P0", "P1", 1), ("P1", "P0", 2)]),
            ([math.nextafter(math.exp(-0.5), 0.0), math.exp(-2.0), below,
              at, math.exp(-0.7), 0.0],
             [("P0", "P2", 1), ("P1", "P0", 1), ("P2", "P0", 1)]),
            ([0.0, 0.0, at, below], [("P1", "P0", 1)]),
            ([], []),
        ]
        for script, want in cases:
            rng = ScriptedRng(script)
            assert sample_segment(profile, clock, rng) == ([], want)
            assert rng.blocks == 1 and not rng.script
            if len(script) == 6:  # no padding: the scalar path agrees
                assert ref_sample_segment(profile, clock,
                                          ScriptedRng(script)) == ([], want)


    def test_split_od_thresholds(self):
        # every leaf of every split OD at its first three cumulative sums
        # and an ulp either side, each leaf of a pair at its own point: a
        # leaf that counts 1 by its thresholds and a sibling that counts 2
        # or more by inversion are summed into one arrival
        bus_rates = {("P0", "P1"): 60.0, ("P1", "P0"): 77.7,
                     ("P1", "P2"): 101.0, ("P2", "P3"): 0.3,
                     ("P3", "P0"): 50.5}
        profile = make_profile(rates=np.zeros((3, 1)), bus_rates=bus_rates)
        leaves = [leaf for _, rate in sorted(bus_rates.items())
                  for leaf in poisson_leaves(rate)]
        assert len(leaves) == 11 and max(leaves) <= POISSON_SPLIT
        cums = []  # the scalar loop's first three cumulative sums, per leaf
        for leaf in leaves:
            p = cum = math.exp(-leaf)
            row = [cum]
            for k in range(1, 3):
                p *= leaf / k
                cum += p
                row.append(cum)
            cums.append(row)
        clock = SegmentClock(0, 1, 0, 15)
        points = list(itertools.product(range(3), range(3)))  # (sum, side)
        for first, second in itertools.product(points, repeat=2):
            us = [_around(row[j])[side] for row, (j, side) in zip(
                cums, itertools.cycle([first, second]))]
            rng = ScriptedRng(us)
            got = sample_segment(profile, clock, rng)
            assert got == ref_sample_segment(profile, clock, ScriptedRng(us))
            assert rng.blocks == 1 and not rng.script
        # 60.0's leaves are 30.0 each: one ulp below the first leaf's second
        # sum counts 1, the second leaf at its second sum counts 2
        below, at = _around(cums[0][1])[0], cums[1][1]
        us = [below, at] + [0.0] * 9
        assert sample_segment(profile, clock, ScriptedRng(us)) == (
            [], [("P0", "P1", 3)])

    def test_nan_bus_uniform_counts_zero(self):
        # a NaN inside the bus block, on a one-leaf OD and on one leaf of a
        # split OD whose sibling counts 2
        profile = make_profile(rates=np.zeros((3, 1)), bus_rates={
            ("P0", "P1"): 0.5, ("P1", "P0"): 60.0, ("P2", "P0"): 0.7})
        clock = SegmentClock(0, 1, 0, 15)
        us = [math.nan, _u_for_count(30.0, 2), math.nan, math.exp(-0.7)]
        want = ([], [("P1", "P0", 2), ("P2", "P0", 1)])
        rng = ScriptedRng(us)
        assert sample_segment(profile, clock, rng) == want
        assert rng.blocks == 1 and not rng.script
        assert ref_sample_segment(profile, clock, ScriptedRng(us)) == want


def _u_for_count(rate: float, count: int) -> float:
    """A uniform that the scalar Poisson inversion turns into `count`."""
    p = cum = math.exp(-rate)
    lo = 0.0
    for k in range(1, count + 1):
        lo = cum
        p *= rate / k
        cum += p
    return (lo + cum) / 2


class TestBlockRefills:
    """Scripts whose draws run past the first block of uniforms: the
    refill and the hand-back must keep the scalar path's draw order."""

    # A departs at rate 3; B's rate 120 splits into four leaves and its
    # trips have no destination row; C departs at rate 0.5.
    PROFILE = dict(rates=np.array([[3.0], [120.0], [0.5]]),
                   od=np.array([[0, 1.0, 2.0], [0, 0, 0], [1.0, 1.0, 0]]))

    @pytest.mark.parametrize("a_reads, where", [
        (-2, "in the middle of B's leaves"),
        (0, "at B's first leaf"),
        (3, "in the middle of A's destinations"),
    ])
    def test_refill_matches_scalar(self, a_reads, where):
        profile = make_profile(**self.PROFILE)
        block = profile._day_block[0]
        count = block - 1 + a_reads  # A reads block + a_reads uniforms
        script = ([_u_for_count(3.0, count)]
                  + [(0.1 + 0.37 * i) % 1.0 for i in range(count)]
                  + [0.2, 0.9, 0.5, 0.7]  # B's leaves
                  + [_u_for_count(0.5, 1), 0.6, 0.25, 0.75])
        clock = SegmentClock(0, 1, 0, 15)
        rng, ref = ScriptedRng(script), ScriptedRng(script)
        got = sample_segment(profile, clock, rng)
        assert got == ref_sample_segment(profile, clock, ref), where
        assert sum(c for o, _, c in got[0] if o == A) == count
        assert rng.blocks == 2
        assert list(rng.script) == list(ref.script) == [0.25, 0.75]

    def test_all_zero_position_draws_nothing(self):
        rates = np.array([[2.0, 0.0], [0.0, 0.0], [70.0, 0.0]])
        profile = make_profile(rates=rates)
        clock = SegmentClock(0, 2, 1, 15)
        rng = PortableRng(2 ** 64 - 3)
        assert sample_segment(profile, clock, rng) == ([], [])
        assert rng.state == 2 ** 64 - 3
        scripted = ScriptedRng([0.5])
        assert sample_segment(profile, clock, scripted) == ([], [])
        assert scripted.blocks == 0 and list(scripted.script) == [0.5]


class TestStationBranches:
    """The bike loop's shortcuts, each against the scalar path: a station
    whose uniform counts 0, a one-trip station, and a station whose
    trips share destinations."""

    # A and C depart, B never does; A's trips may go to B or C, C's to A
    PROFILE = dict(rates=np.array([[3.0], [0.0], [0.5]]),
                   od=np.array([[0, 1.0, 1.0], [1.0, 0, 1.0],
                                [1.0, 0, 0]]))

    def _check(self, script, want):
        profile = make_profile(**self.PROFILE)
        clock = SegmentClock(0, 1, 0, 15)
        rng = ScriptedRng(script)
        got = sample_segment(profile, clock, rng)
        assert got == (want, [])
        assert got == ref_sample_segment(profile, clock, ScriptedRng(script))
        assert not rng.script
        return rng

    def test_uniform_at_exp_minus_rate_draws_a_trip(self):
        a, c = math.exp(-3.0), math.exp(-0.5)
        self._check([a, 0.75, c, 0.3], [(A, C, 1), (C, A, 1)])
        self._check([math.nextafter(a, 0.0), math.nextafter(c, 0.0)], [])

    def test_uniform_at_the_count_of_one_threshold(self, monkeypatch):
        # A's uniform at exp(-rate) + exp(-rate) * rate, the inversion's
        # first cumulative sum, and an ulp either side: below it A counts 1
        # without running the inversion, at or above it 2 by inversion.
        # C's uniform, an ulp below exp(-0.5), counts 0.
        inversions = []

        def counted(u, rate, exp_neg):
            inversions.append(rate)
            return poisson_count(u, rate, exp_neg)

        monkeypatch.setattr(demand, "poisson_count", counted)
        e = math.exp(-3.0)
        below, at, above = _around(e + e * 3.0)
        c_zero = math.nextafter(math.exp(-0.5), 0.0)
        self._check([below, 0.75, c_zero], [(A, C, 1)])
        assert inversions == []
        for x in (at, above):
            self._check([x, 0.75, 0.25, c_zero], [(A, B, 1), (A, C, 1)])
        assert inversions == [3.0, 3.0]

    def test_one_trip_destination_opens_a_refill(self):
        # A's trips read all but the block's last uniform, C's count takes
        # that one, so C's one destination is the first uniform of a refill
        block = make_profile(**self.PROFILE)._day_block[0]
        count = block - 2
        script = ([_u_for_count(3.0, count)] + [0.25] * count
                  + [_u_for_count(0.5, 1), 0.4])
        rng = self._check(script, [(A, B, count), (C, A, 1)])
        assert rng.blocks == 2

    def test_shared_destinations_grouped_in_ascending_order(self):
        script = [_u_for_count(3.0, 5), 0.75, 0.25, 0.9, 0.1, 0.6,
                  math.exp(-0.5) / 2]
        self._check(script, [(A, B, 2), (A, C, 3)])

    def test_nan_padding_counts_zero(self):
        # the script ends inside A's destinations: the NaN padding sends
        # A's second trip to the last station, with the first, and counts
        # C's departures 0, drawing no destination for them
        profile = make_profile(**self.PROFILE)
        rng = ScriptedRng([_u_for_count(3.0, 2), 0.75])
        got = sample_segment(profile, SegmentClock(0, 1, 0, 15), rng)
        assert got == ([(A, C, 2)], [])
        assert not rng.script and rng.blocks == 1


def _by_segment(lists: list) -> dict:
    """Per-segment lists, indexed by segments played, keyed by 1-based
    segment as the pinned digests hash them."""
    return {t + 1: items for t, items in enumerate(lists)}


def _by_id(trips: list, ids: list[str]) -> dict:
    """Bike trips by 1-based segment with their station indices mapped
    back to ids, as the pinned digests hash them."""
    return {seg: [(ids[o], ids[d], c) for o, d, c in seg_trips]
            for seg, seg_trips in _by_segment(trips).items()}


def _channel_sha256(env, resets: int) -> str:
    digest = hashlib.sha256()
    ids = env.scenario.station_ids()
    T = env.scenario.episode_length
    for _ in range(resets):
        env.reset()
        bike, bus = env.expected_bike[:T], env.expected_bus[:T]
        n = len(env.scenario.stations)
        m = bus.shape[1] // 2
        digest.update(repr(sorted(_by_id(env.trips, ids).items())).encode())
        digest.update(repr(sorted(
            _by_segment(env.bus_arrivals).items())).encode())
        # the former c1, c2, g, forward and backward bus channels
        for a in (bike[:, :n], bike[:, n:], bike, bus[:, :m], bus[:, m:]):
            digest.update(repr((a.shape, a.dtype.str)).encode())
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestPinnedDemand:
    """Demand histories and channels are byte-identical to those of the
    scalar sampler; the literals were produced by it. A change to the
    demand path that moves one of them changes every sampled history."""

    @pytest.mark.parametrize("name, want", [
        ("bike5",
         "b5eebac89085fa53ef9033045d8c85698de7767bbed34c8ba4722a417110e271"),
        ("outage",
         "2ae845c93e6c0746f0652436ed5c1895cc2b8fc8154bdafdcd3d928089bb6726"),
    ])
    def test_history_csv(self, name, want, tmp_path):
        log = _history_from_scenario(resolve_scenario(name), days=2, seed=7)
        path = tmp_path / "history.csv"
        log.save_trips_csv(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_bike5_channel(self):
        env = envs.BikeEnv(scenario=resolve_scenario("bike5"), seed=3)
        assert _channel_sha256(env, 3) == (
            "e46f951690c44df77aa10930f5edee74241fe8514dd057177585d799dac9774c")
        assert not env.expected_bike.flags.writeable
        assert not env.expected_bus.flags.writeable

    def test_realised_episodes(self):
        # B's rate of 75 splits into leaves, C departs into an all-zero OD
        # row, day position 2 has no bike rate at all, and the episode
        # starts at position 3, so its 9 segments wrap past the day's end
        scenario = ScenarioSpec.from_dict({
            "clock": {"segment_minutes": 15, "episode_length": 9,
                      "episode_start": 3},
            "stations": [{"id": sid, "x": float(i), "y": 0.0, "docks": 90}
                         for i, sid in enumerate(["A", "B", "C", "D"])],
            "routes": [{"stops": ["S1", "S2", "S3"], "bus_count": 1,
                        "capacity": 20}],
            "vehicles": [], "environment": [0.0],
            "demand_profile": {
                "rates": {"A": [2.5, 0.4, 0.0, 1.0],
                          "B": [75.0, 3.0, 0.0, 0.0],
                          "C": [1.5, 0.0, 0.0, 4.0],
                          "D": [0.0, 0.7, 0.0, 0.2]},
                "od_weights": [[0.0, 1.0, 2.0, 0.5], [1.0, 0.0, 0.0, 3.0],
                               [0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 1.0, 0.0]],
                "bus_rates": [
                    {"origin": "S1", "destination": "S3", "rate": 1.3},
                    {"origin": "S2", "destination": "S1", "rate": 0.6},
                    {"origin": "S3", "destination": "S2", "rate": 60.0}]},
            "demand_script": [{"segment": 2, "origin": "D",
                               "destination": "A", "count": 2}],
        })
        digest = hashlib.sha256()
        for seed in (1, 2 ** 40 + 3, 2 ** 64 - 1):
            rng = PortableRng(seed)
            trips, arrivals = envs._realise(scenario, rng)
            trips = _by_id(trips, scenario.station_ids())
            digest.update(repr(sorted(trips.items())).encode())
            digest.update(repr(sorted(
                _by_segment(arrivals).items())).encode())
            digest.update(str(rng.state).encode())
        assert digest.hexdigest() == (
            "3314bf0daceedc7e68a9234d7a01e3837c080a03ac17e2213fb4829cead0aee9")


def _city_profile() -> DemandProfile:
    """A seeded 50-station, 96-segment profile drawn from the portable
    stream: rates below 2, a few above the Poisson split threshold, and
    one station whose OD weight row is all zero."""
    gen = PortableRng(2024)
    n, per_day = 50, 96
    rates = np.array([[round(gen.uniform() * 2.0, 3) for _ in range(per_day)]
                      for _ in range(n)])
    rates[7, 30:34] = [55.0, 80.5, 120.0, 260.0]
    rates[40, 80] = 64.25
    od = np.array([[0.0 if i == j else round(gen.uniform() * 3.0, 4)
                    for j in range(n)] for i in range(n)])
    od[11] = 0.0
    return DemandProfile(station_ids=[f"S{i:02d}" for i in range(n)],
                         rates=rates, od_weights=od)


class TestPinnedCitySampling:
    """A 2-day history of a city-scale profile, byte-identical to the one
    the scalar sampler drew; the literal was produced by it."""

    def test_two_day_history(self, tmp_path):
        profile = _city_profile()
        rng = PortableRng(7)
        clock = SegmentClock(0, 2 * 96, 0, 15)
        log = HistoryLog(station_ids=profile.station_ids)
        for seg in range(2 * 96):
            clock.current = seg
            log.record_trips(sample_segment(profile, clock, rng)[0])
        path = tmp_path / "history.csv"
        log.save_trips_csv(str(path))
        digest = hashlib.sha256(path.read_bytes())
        digest.update(str(rng.state).encode())
        assert digest.hexdigest() == (
            "a39ef76ee78bd26b77c6f18c625efbc2673d7104a3cbc89c88020f56729e8dcd")


GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


class TestPinnedCorridorSampling:
    """96 segments of the benchmark corridor's bus arrivals for seeds 0-2,
    byte-identical to those the inversion of every leaf drew; the literal
    was produced by it. This reads perfbench, never edits it."""

    def test_three_seeds(self):
        spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                      GENERATORS)
        generators = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generators)
        digest = hashlib.sha256()
        arrivals = 0
        for seed in range(3):
            scenario = ScenarioSpec.from_dict(generators.corridor(seed))
            profile = DemandProfile.from_dict(scenario.demand_profile,
                                              scenario.station_ids())
            rng = PortableRng(seed + 1)
            clock = SegmentClock(0, 96, 0, scenario.segment_minutes)
            for seg in range(96):
                clock.current = seg
                out = sample_segment(profile, clock, rng)
                arrivals += len(out[1])
                digest.update(repr(out).encode())
            digest.update(str(rng.state).encode())
        assert arrivals == 24312
        assert digest.hexdigest() == (
            "c61ce9852faaaff019e935a1f6948a71ff9fcce1ca126948dde76fb03531a079")


def script_scenario(script):
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": 2},
        "stations": [{"id": sid, "x": float(i), "y": 0.0, "docks": 20}
                     for i, sid in enumerate(IDS)],
        "routes": [],
        "vehicles": [{"capacity": 10, "start": "A"}],
        "environment": [0.0],
        "demand_script": script,
    })


class TestScriptedDemand:
    def test_exact_replay(self):
        script = [
            {"segment": 1, "origin": "A", "destination": "B", "count": 10},
            {"segment": 1, "origin": "B", "destination": "C", "count": 15},
            {"segment": 2, "origin": "B", "destination": "C", "count": 10},
        ]
        env = envs.BikeEnv(scenario=script_scenario(script))
        env.reset()
        assert env.trips == [[(A, B, 10), (B, C, 15)], [(B, C, 10)]]
        assert sum(c for trips in env.trips for _, _, c in trips) == 35

    def test_segment_bounds_checked(self):
        bad = [{"segment": 3, "origin": "A", "destination": "B", "count": 1}]
        with pytest.raises(ScenarioError, match=r"segment 3 .* in 1\.\.2"):
            script_scenario(bad)

    def test_unknown_station_rejected(self):
        bad = [{"segment": 1, "origin": "A", "destination": "Z", "count": 1}]
        with pytest.raises(ScenarioError,
                           match="destination 'Z' is not a station"):
            script_scenario(bad)


class TestHistoryLog:
    def test_departure_series_and_totals(self):
        log = HistoryLog(station_ids=IDS)
        log.record_trips([(A, B, 3), (A, C, 1)])
        log.record_trips([(B, A, 2)])
        np.testing.assert_array_equal(log.departure_series("A"), [4.0, 0.0])
        np.testing.assert_array_equal(log.departure_series("B"), [0.0, 2.0])
        total = log.total_od()
        assert total[0, 1] == 3 and total[1, 0] == 2 and total.sum() == 6

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(1, 9)), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_conservation_of_counts(self, raw):
        trips = [(o, d, c) for o, d, c in raw if o != d]
        log = HistoryLog(station_ids=IDS)
        log.record_trips(trips)
        assert log.total_od().sum() == sum(c for _, _, c in trips)
        assert sum(log.departure_series(sid)[0] for sid in IDS) == sum(
            c for _, _, c in trips)

    def test_unknown_station_named(self):
        log = HistoryLog(station_ids=IDS)
        log.record_trips([(A, B, 1)])
        with pytest.raises(ValueError, match="unknown station 'Z'"):
            log.departure_series("Z")

    @pytest.mark.parametrize("trips, match", [
        ([(A, 3, 1)], "outside 0..2"),
        ([(-1, B, 1)], "outside 0..2"),
        ([(A, B, 2), (B, C, 0)], ">= 1"),
    ])
    def test_bad_trips_rejected(self, trips, match):
        log = HistoryLog(station_ids=IDS)
        with pytest.raises(ValueError, match=match):
            log.record_trips(trips)
        assert log.n_segments == 0
        assert not log.total_od().any()


class DenseHistory:
    """Reference: the history as one dense (n, n) OD matrix per segment,
    read by full scans, as the log kept it before it kept trips."""

    def __init__(self, station_ids):
        self.station_ids = station_ids
        self.od_counts = []

    def record_trips(self, trips):
        n = len(self.station_ids)
        od = np.zeros((n, n), dtype=np.int64)
        for origin, dest, count in trips:
            od[origin, dest] += count
        self.od_counts.append(od)

    def departure_series(self, station):
        i = self.station_ids.index(station)
        return np.array([od[i].sum() for od in self.od_counts], dtype=float)

    def total_od(self):
        n = len(self.station_ids)
        return sum(self.od_counts, np.zeros((n, n), dtype=np.int64))

    def save_trips_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["segment", "origin", "destination", "count"])
            for seg, od in enumerate(self.od_counts, start=1):
                for i, origin in enumerate(self.station_ids):
                    for j, dest in enumerate(self.station_ids):
                        if od[i, j] > 0:
                            writer.writerow([seg, origin, dest, int(od[i, j])])


@st.composite
def trip_histories(draw):
    """(station count, per-segment trip lists): 1 to 30 stations, empty
    segments, and ODs repeated within a segment."""
    n = draw(st.integers(1, 30))
    station = st.integers(0, n - 1)
    trip = st.tuples(station, station, st.integers(1, 40))
    segments = []
    for trips in draw(st.lists(st.lists(trip, max_size=15), max_size=8)):
        if trips:
            trips += draw(st.lists(st.sampled_from(trips), max_size=6))
            trips = draw(st.permutations(trips))
        segments.append(trips)
    return n, segments


class TestHistoryStore:
    """The log's trip store reads as the dense per-segment matrices do."""

    @given(trip_histories())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_reference(self, history):
        n, segments = history
        ids = [f"S{i}" for i in range(n)]
        log, dense = HistoryLog(station_ids=ids), DenseHistory(ids)
        for trips in segments:
            log.record_trips(trips)
            dense.record_trips(trips)
        assert log.n_segments == len(segments)
        for sid in ids:
            series = log.departure_series(sid)
            assert series.dtype == np.float64
            np.testing.assert_array_equal(series, dense.departure_series(sid))
        total = log.total_od()
        assert total.dtype == np.int64
        np.testing.assert_array_equal(total, dense.total_od())
        matrices = list(log.od_counts)
        assert len(matrices) == len(segments)
        for got, want in zip(matrices, dense.od_counts):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        with tempfile.TemporaryDirectory() as tmp:
            log.save_trips_csv(f"{tmp}/log.csv")
            dense.save_trips_csv(f"{tmp}/dense.csv")
            assert (Path(tmp, "log.csv").read_bytes()
                    == Path(tmp, "dense.csv").read_bytes())

    def test_memory_grows_with_trips(self):
        """96 segments of 25 trips on 300 stations, read back whole: one
        dense matrix per segment would need 96 x 300^2 x 8 bytes (69 MB)."""
        n = 300
        gen = PortableRng(11)
        segments = [[(int(gen.uniform() * n), int(gen.uniform() * n), 1)
                     for _ in range(25)] for _ in range(96)]
        ids = [f"S{i}" for i in range(n)]
        tracemalloc.start()
        try:
            log = HistoryLog(station_ids=ids)
            for trips in segments:
                log.record_trips(trips)
            total = log.total_od()
            departures = sum(log.departure_series(sid).sum() for sid in ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total.sum() == departures == 96 * 25
        assert peak < 4 * 2 ** 20


def test_forecast_checks_the_scenario_before_building(monkeypatch):
    """A scenario without a demand profile is rejected before any log."""
    def no_log(**_):
        raise AssertionError("built a HistoryLog")

    monkeypatch.setattr(cli, "HistoryLog", no_log)
    with pytest.raises(ScenarioError, match="demand_profile"):
        _history_from_scenario(resolve_scenario("fig1a"), days=1, seed=0)
