import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched import envs
from urbansched.cli import _history_from_scenario, resolve_scenario
from urbansched.demand import (
    DemandProfile, HistoryLog, sample_segment, scripted_demand,
)
from urbansched.rng import PortableRng
from urbansched.world import ScenarioError, SegmentClock


IDS = ["A", "B", "C"]


def make_profile(rates=None, od=None, bus_rates=None):
    if rates is None:
        rates = np.full((3, 4), 2.0)
    if od is None:
        od = np.ones((3, 3)) - np.eye(3)
    return DemandProfile(station_ids=IDS, rates=rates, od_weights=od,
                         bus_rates=bus_rates or {})


# Reference implementations: the scalar sampling path that the profile
# tables and the block draws replace. The fast path must match them draw
# for draw, state included.

def ref_choice(rng: PortableRng, weights: list[float]) -> int:
    total = sum(weights)
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
    for i, sid in enumerate(profile.station_ids):
        count = rng.poisson(ref_rate_at(profile, i, segment))
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
                trips.append((sid, profile.station_ids[j], c))
    bus_arrivals = []
    for (origin, dest), rate in sorted(profile.bus_rates.items()):
        count = rng.poisson(rate)
        if count > 0:
            bus_arrivals.append((origin, dest, count))
    return trips, bus_arrivals


class TestPortableRng:
    def test_reproducible_stream(self):
        a = PortableRng(42)
        b = PortableRng(42)
        assert [a.next_u64() for _ in range(5)] == \
               [b.next_u64() for _ in range(5)]

    def test_uniform_range(self):
        rng = PortableRng(7)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < np.mean(draws) < 0.6

    def test_poisson_moments(self):
        rng = PortableRng(3)
        for rate in (0.5, 4.0, 80.0):
            draws = np.array([rng.poisson(rate) for _ in range(4000)])
            assert abs(draws.mean() - rate) < 0.15 * max(rate, 1.0)
            assert abs(draws.var() - rate) < 0.25 * max(rate, 1.0)

    def test_poisson_zero_rate(self):
        rng = PortableRng(1)
        assert rng.poisson(0.0) == 0

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
        block, single = PortableRng(seed), PortableRng(seed)
        got = block.uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == [single.uniform() for _ in range(n)]
        assert block.state == single.state
        assert block.uniform() == single.uniform()

    def test_uniforms_wrap_past_2_64(self):
        block, single = PortableRng(2 ** 64 - 1), PortableRng(2 ** 64 - 1)
        assert block.uniforms(3).tolist() == [single.uniform()
                                              for _ in range(3)]
        assert block.state == single.state < 2 ** 64 - 1
        empty = PortableRng(5)
        assert empty.uniforms(0).size == 0 and empty.state == 5


class TestDemandProfile:
    def test_validation(self):
        with pytest.raises(ScenarioError, match="diagonal"):
            make_profile(od=np.ones((3, 3)))
        with pytest.raises(ScenarioError, match="nonnegative"):
            make_profile(rates=np.full((3, 4), -1.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ScenarioError, match="finite"):
                make_profile(rates=np.full((3, 4), bad))
            od = np.ones((3, 3)) - np.eye(3)
            od[0, 1] = bad
            with pytest.raises(ScenarioError, match="finite"):
                make_profile(od=od)
        with pytest.raises(ScenarioError, match="row count"):
            DemandProfile(station_ids=IDS, rates=np.ones((2, 4)),
                          od_weights=np.zeros((3, 3)))

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
            assert all(o != "A" for o, _, _ in got[0])  # zero weight row
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
            total = sum(weights)
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
        want = ([("A", "C", 10_000)], [("P0", "P1", 10_000)])
        assert ref_sample_segment(profile, clock,
                                  ScriptedRng([1.0] * draws)) == want
        rng = ScriptedRng([1.0] * draws)
        assert sample_segment(profile, clock, rng) == want
        assert not rng.script


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
        assert sum(c for o, _, c in got[0] if o == "A") == count
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


def _channel_sha256(env, resets: int) -> str:
    digest = hashlib.sha256()
    for _ in range(resets):
        env.reset()
        f = env.forecast
        digest.update(repr(sorted(env.trips.items())).encode())
        digest.update(repr(sorted(env.bus_arrivals.items())).encode())
        for a in (f.c1, f.c2, f.g, f.bus_c1, f.bus_c2):
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
        assert not env.forecast.c1.flags.writeable


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


class TestScriptedDemand:
    def test_exact_replay(self):
        script = [
            {"segment": 1, "origin": "A", "destination": "B", "count": 10},
            {"segment": 1, "origin": "B", "destination": "C", "count": 15},
            {"segment": 2, "origin": "B", "destination": "C", "count": 10},
        ]
        ds = scripted_demand(script, IDS, episode_length=2)
        assert ds.trips_at(1) == [("A", "B", 10), ("B", "C", 15)]
        assert ds.trips_at(2) == [("B", "C", 10)]
        assert ds.trips_at(3) == []
        assert sum(c for trips in ds.by_segment.values()
                   for _, _, c in trips) == 35

    def test_segment_bounds_checked(self):
        bad = [{"segment": 3, "origin": "A", "destination": "B", "count": 1}]
        with pytest.raises(ScenarioError, match="outside episode"):
            scripted_demand(bad, IDS, episode_length=2)

    def test_unknown_station_rejected(self):
        bad = [{"segment": 1, "origin": "A", "destination": "Z", "count": 1}]
        with pytest.raises(ScenarioError, match="unknown station"):
            scripted_demand(bad, IDS, episode_length=2)


class TestHistoryLog:
    def test_departure_series_and_totals(self):
        log = HistoryLog(station_ids=IDS)
        log.record_trips([("A", "B", 3), ("A", "C", 1)])
        log.record_trips([("B", "A", 2)])
        np.testing.assert_array_equal(log.departure_series("A"), [4.0, 0.0])
        np.testing.assert_array_equal(log.departure_series("B"), [0.0, 2.0])
        total = log.total_od()
        assert total[0, 1] == 3 and total[1, 0] == 2 and total.sum() == 6

    def test_csv_round_trip(self, tmp_path):
        log = HistoryLog(station_ids=IDS)
        log.record_trips([("A", "B", 3)])
        log.record_trips([])
        log.record_trips([("C", "A", 7), ("B", "C", 1)])
        path = tmp_path / "trips.csv"
        log.save_trips_csv(str(path))
        loaded = HistoryLog.load_trips_csv(str(path), IDS)
        assert loaded.n_segments == 3
        np.testing.assert_array_equal(loaded.total_od(), log.total_od())

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(1, 9)), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_conservation_of_counts(self, raw):
        trips = [(IDS[o], IDS[d], c) for o, d, c in raw if o != d]
        log = HistoryLog(station_ids=IDS)
        log.record_trips(trips)
        assert log.total_od().sum() == sum(c for _, _, c in trips)
        assert log.departures[0].sum() == sum(c for _, _, c in trips)
