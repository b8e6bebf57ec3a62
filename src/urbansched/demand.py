"""Synthetic demand generation and history recording.

Profiles produce Poisson trip counts with a daily periodic rate pattern,
and a history log records realized trips for the forecasters. A
scenario's explicit trip lists are checked and resolved to station
indices by `world.ScenarioSpec`, and added to the sample by the envs.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .rng import PortableRng, poisson_count, poisson_leaves

if TYPE_CHECKING:
    from .world import SegmentClock

# A bike trip is (origin index, destination index, count) in station
# order. A bus arrival is (origin id, destination id, count): passengers
# and the per-stop bus series name their stops by id.
BikeTrip = tuple[int, int, int]
BusArrival = tuple[str, str, int]


@dataclass
class DemandProfile:
    """Piecewise-constant per-station arrival rates plus OD propensities.

    A profile trusts the document `world.ScenarioSpec` checked, the envs
    of a scenario share it, its arrays are read-only, and its sampling
    tables are built once here. For each day position: a draw table of the
    stations with a nonzero rate, and the block of uniforms its draws
    take. A table entry holds the two thresholds that decide a count of 0
    or 1 without an inversion, exp(-rate) and exp(-rate) + exp(-rate) *
    rate; the Poisson leaves with their exp(-leaf) taken once; the OD
    total; and the cumulative OD row without its last sum (the total), one
    list per station that every day position shares. The bus rates split
    into leaves, each with the same two thresholds: exp(-leaf) and
    exp(-leaf) + exp(-leaf) * leaf.

    A station whose OD weights are all zero still draws its departure
    count, reading its uniforms as any other station does, and sends no
    trip; its expected OD row, and so its expected departures, are zero.
    """

    station_ids: list[str]
    rates: np.ndarray  # (n_stations, segments_per_day) expected departures
    od_weights: np.ndarray  # (n, n), zero diagonal
    bus_rates: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        self.rates = np.array(self.rates, dtype=float)
        self.od_weights = np.array(self.od_weights, dtype=float)
        # Sampling tables. Python floats and sequential sums, so a draw
        # compares exactly what a scalar weighted choice would; a total is
        # its row's last cumulative sum, not `sum()`, which compensates
        # since Python 3.12. A row keeps its other n - 1 sums: bisecting
        # them is bisecting the full non-decreasing row clamped to n - 1.
        od_cum = [list(accumulate(row)) for row in self.od_weights.tolist()]
        od_total = [cum.pop() for cum in od_cum]
        # Draw tables: per day position, the stations with a nonzero rate,
        # in index order, as (index, rate, exp(-rate), count-of-one
        # threshold, split, OD total, cumulative OD row). The threshold is
        # `poisson_count`'s first cumulative sum, the same float operations.
        # `split` is None for a rate of at most POISSON_SPLIT, which inverts
        # one uniform; a larger rate lists its Poisson leaves as
        # (leaf, exp(-leaf)) pairs. A station with an all-zero OD row
        # stays: its leaves still read their uniforms.
        # Uniforms per block: a day position's draws take one per nonzero
        # rate plus one per trip that has a destination row; four standard
        # deviations above that mean make a refill rare. 0 draws no block.
        self._draw_tables: list[list[tuple]] = []
        self._day_block: list[int] = []
        for row in self.rates.T.tolist():  # [day position][station]
            table = []
            for i, rate in enumerate(row):
                if rate > 0:
                    leaves = [(leaf, math.exp(-leaf))
                              for leaf in poisson_leaves(rate)]
                    e = math.exp(-rate)
                    table.append((i, rate, e, e + e * rate,
                                  leaves if len(leaves) > 1 else None,
                                  od_total[i], od_cum[i]))
            trips = sum(rate for rate, total in zip(row, od_total)
                        if total > 0)
            nonzero = len(table)
            self._draw_tables.append(table)
            self._day_block.append(
                nonzero and nonzero + math.ceil(trips + 4 * math.sqrt(trips)))
        # expected_od divides by numpy's row sums, which can differ from
        # the sequential ones in the last place
        self._od_rowsum = self.od_weights.sum(axis=1)
        # Bus ODs in sorted order, each with the (origin, dest, 1) arrival
        # its count of 1 reuses, and each rate expanded into the Poisson
        # leaves its draw inverts, one uniform per leaf; a split OD's leaves
        # are adjacent and share their owner, the OD's index.
        self._bus_ones: list[BusArrival] = []
        self._bus_leaves: list[float] = []
        owner: list[int] = []
        for (origin, dest), rate in sorted(self.bus_rates.items()):
            split = poisson_leaves(rate)
            if split:
                owner += [len(self._bus_ones)] * len(split)
                self._bus_ones.append((origin, dest, 1))
                self._bus_leaves += split
        self._bus_split = len(self._bus_leaves) > len(self._bus_ones)
        # Per leaf, exp(-leaf) and the inversion's first cumulative sum,
        # exp(-leaf) + exp(-leaf) * leaf: `poisson_count`'s first step, the
        # same float operations in the same order. A uniform below the
        # first counts 0, one below the second counts 1.
        exp_neg = [math.exp(-leaf) for leaf in self._bus_leaves]
        self._bus_leaf_exp = np.array(exp_neg, dtype=float)
        self._bus_leaf_one = np.array(
            [e + e * leaf for e, leaf in zip(exp_neg, self._bus_leaves)],
            dtype=float)
        self._bus_leaf_od = np.array(owner, dtype=np.intp)
        for array in (self.rates, self.od_weights, self._od_rowsum,
                      self._bus_leaf_exp, self._bus_leaf_one, self._bus_leaf_od):
            array.flags.writeable = False

    @property
    def segments_per_day(self) -> int:
        return self.rates.shape[1]

    def expected_od(self, segment: int) -> np.ndarray:
        """Expected OD matrix for one segment (rates split by propensity)."""
        rate = self.rates[:, segment % self.segments_per_day, None]
        total = self._od_rowsum[:, None]
        out = np.zeros_like(self.od_weights)
        np.divide(rate * self.od_weights, total, out=out, where=total > 0)
        return out

    @classmethod
    def from_dict(cls, doc: dict, station_ids: list[str]) -> "DemandProfile":
        return cls(station_ids=station_ids,
                   rates=[doc["rates"][sid] for sid in station_ids],
                   od_weights=doc["od_weights"],
                   bus_rates={(e["origin"], e["destination"]): float(e["rate"])
                              for e in doc.get("bus_rates", [])})


def sample_segment(profile: DemandProfile, clock: SegmentClock,
                   rng: PortableRng
                   ) -> tuple[list[BikeTrip], list[BusArrival]]:
    """Draw one segment of bike trips and bus arrivals from the profile.

    Bike trips are (origin index, destination index, count) triples in
    the profile's station order, as `step_bike_world` and
    `HistoryLog.record_trips` take them; bus arrivals are (origin id,
    destination id, count) triples.

    Reproducible for a fixed rng state; counts are Poisson via inversion on
    the portable stream. Each trip's destination is the first whose
    cumulative OD weight exceeds a uniform scaled by the row total (the
    last one if none does): one bisection of the row without its last
    sum, which can return no index past the last station.

    Bike draws walk the draw table of the segment's day position (see
    `DemandProfile`), so stations with a zero rate cost nothing. They read
    one block of uniforms per segment, in the order single draws would be
    made: each station's Poisson leaves, then its destinations. A draw
    that runs past the block appends a new one. The unread rest of the
    block is handed back (`give_back`), so the stream ends where single
    draws leave it. An unsplit station's uniform is compared with its two
    thresholds: below exp(-rate) it counts 0, as a NaN does, and below the
    first cumulative sum it counts 1; only the rest run `poisson_count`. A
    day position whose rates are all zero draws no block. Bus leaves then
    take one block of uniforms, all of it read. Each leaf's uniform is
    compared with the leaf's two thresholds (see `DemandProfile`): below
    exp(-leaf) it counts 0, as a NaN does, and below the first cumulative
    sum it counts 1 and lists its OD's shared (origin, dest, 1) arrival.
    Only a leaf at or above both, one in about seventeen of those that
    drew a passenger on the perfbench corridor, is inverted by
    `poisson_count`. A split OD's leaves are summed into one arrival.

    Each block is a slice of the draws `rng` reads ahead, and the
    hand-back steps its cursor back, so the segments of an episode or a
    history share one stream without a numpy draw per block.
    """
    pos = clock.current % profile.segments_per_day
    block = profile._day_block[pos]
    trips: list[BikeTrip] = []
    if block:
        u = rng.uniforms(block).tolist()
        k, m = 0, block  # next unread uniform, uniforms held
        for i, rate, exp_neg, one, split, total, cum in (
                profile._draw_tables[pos]):
            if split is None:
                if k == m:
                    u, k = _refill(rng, u, k, 1, block), 0
                    m = len(u)
                x = u[k]
                k += 1
                # below exp(-rate) the inversion counts 0, and so does NaN;
                # below its first cumulative sum it counts 1
                if not x >= exp_neg:
                    continue
                count = 1 if x < one else poisson_count(x, rate, exp_neg)
            else:  # the sum of its leaves' counts, a uniform each
                count = 0
                for leaf, exp_neg in split:
                    if k == m:
                        u, k = _refill(rng, u, k, 1, block), 0
                        m = len(u)
                    count += poisson_count(u[k], leaf, exp_neg)
                    k += 1
                if count == 0:
                    continue
            if total <= 0:
                continue
            if k + count > m:
                u, k = _refill(rng, u, k, count, block), 0
                m = len(u)
            if count == 1:
                trips.append((i, bisect_right(cum, u[k] * total), 1))
                k += 1
                continue
            # destinations in ascending order, one triple per run
            dests = sorted([bisect_right(cum, x * total)
                            for x in u[k:k + count]])
            k += count
            j, c = dests[0], 0
            for d in dests:
                if d != j:
                    trips.append((i, j, c))
                    j, c = d, 0
                c += 1
            trips.append((i, j, c))
        rng.give_back(m - k)
    bus_arrivals: list[BusArrival] = []
    if profile._bus_ones:
        u = rng.uniforms(len(profile._bus_leaves))
        exps = profile._bus_leaf_exp
        # the inversion's first two comparisons, made against the leaves'
        # thresholds: below exp(-leaf) a leaf counts 0, and so does NaN;
        # below its first cumulative sum it counts 1. Only the rest invert.
        hit = np.flatnonzero(u >= exps)
        if hit.size:
            ones = profile._bus_ones
            ods = profile._bus_leaf_od[hit].tolist()
            bus_arrivals = [ones[od] for od in ods]
            leaves = profile._bus_leaves
            for j in np.flatnonzero(
                    u[hit] >= profile._bus_leaf_one[hit]).tolist():
                h = int(hit[j])
                origin, dest, _ = ones[ods[j]]
                bus_arrivals[j] = (origin, dest, poisson_count(
                    float(u[h]), leaves[h], float(exps[h])))
            if profile._bus_split:  # sum a split OD's leaves into one
                summed: list[BusArrival] = []
                prev = -1
                for od, arrival in zip(ods, bus_arrivals):
                    if od == prev:
                        origin, dest, count = summed.pop()
                        arrival = (origin, dest, count + arrival[2])
                    summed.append(arrival)
                    prev = od
                bus_arrivals = summed
    return trips, bus_arrivals


def _refill(rng: PortableRng, u: list[float], k: int, need: int,
            block: int) -> list[float]:
    """The unread uniforms u[k:] followed by at least `need` in all."""
    return u[k:] + rng.uniforms(max(block, need - (len(u) - k))).tolist()


class HistoryLog:
    """Realized demand per segment, the corpus the forecasters consume.

    Trips come in by station index. Each segment keeps its trips summed
    by OD cell (origin index * n + destination index, ascending, so in
    row-major order) and its departures per station; a running total OD
    matrix sums every segment. So memory grows with trips and with
    stations x segments, not with stations^2 x segments. The station ids
    name the rows and columns of the trips CSV."""

    def __init__(self, station_ids: list[str]):
        n = len(station_ids)
        self.station_ids = station_ids
        self._index = {sid: i for i, sid in enumerate(station_ids)}
        self._cells: list[np.ndarray] = []  # per segment, OD cells
        self._counts: list[np.ndarray] = []  # per segment, trips per cell
        # (segments held, n) departures, grown by doubling
        self._departures = np.zeros((0, n))
        self._total = np.zeros((n, n), dtype=np.int64)

    def record_trips(self, trips: list[BikeTrip]):
        """Add one segment's trips. A station index outside the log would
        alias another OD cell, and a count below 1 would store a cell the
        trips CSV never lists, so both raise `ValueError`."""
        n = len(self.station_ids)
        summed: dict[int, int] = {}  # OD cell -> trips
        for origin, dest, count in trips:
            if not (0 <= origin < n and 0 <= dest < n):
                raise ValueError(f"trip station index outside 0..{n - 1}")
            if count < 1:
                raise ValueError("trip counts must be >= 1")
            cell = origin * n + dest
            summed[cell] = summed.get(cell, 0) + count
        order = sorted(summed)
        cells = np.array(order, dtype=np.int64)
        counts = np.array([summed[cell] for cell in order], dtype=np.int64)
        seg = len(self._cells)
        if seg == len(self._departures):
            grown = np.zeros((max(2 * seg, 16), n))
            grown[:seg] = self._departures
            self._departures = grown
        self._departures[seg] = np.bincount(cells // n, weights=counts,
                                            minlength=n)
        self._total.ravel()[cells] += counts
        self._cells.append(cells)
        self._counts.append(counts)

    @property
    def n_segments(self) -> int:
        return len(self._cells)

    @property
    def od_counts(self) -> Iterator[np.ndarray]:
        """Each segment's (n, n) OD count matrix, built one at a time."""
        n = len(self.station_ids)
        for cells, counts in zip(self._cells, self._counts):
            od = np.zeros(n * n, dtype=np.int64)
            od[cells] = counts
            yield od.reshape(n, n)

    def departure_series(self, station: str) -> np.ndarray:
        """The station's departures per segment."""
        i = self._index.get(station)
        if i is None:
            raise ValueError(f"unknown station {station!r}")
        return self._departures[:self.n_segments, i].copy()

    def total_od(self) -> np.ndarray:
        return self._total.copy()

    def save_trips_csv(self, path: str):
        ids = self.station_ids
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["segment", "origin", "destination", "count"])
            for seg, (cells, counts) in enumerate(
                    zip(self._cells, self._counts), start=1):
                origin, dest = np.divmod(cells, len(ids))
                writer.writerows(
                    (seg, ids[i], ids[j], c) for i, j, c in zip(
                        origin.tolist(), dest.tolist(), counts.tolist()))
