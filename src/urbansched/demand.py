"""Synthetic demand generation and history recording.

Profiles produce Poisson trip counts with a daily periodic rate pattern;
scripts replay an explicit trip list exactly. Both feed the same history
log the forecasters consume.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .rng import (
    POISSON_SPLIT, PortableRng, invert_poisson, poisson_count, poisson_leaves,
)
from .world import ScenarioError, SegmentClock

Trip = tuple[str, str, int]


@dataclass
class DemandProfile:
    """Piecewise-constant per-station arrival rates plus OD propensities.

    Nothing mutates a profile after construction, so the sampling tables
    are built once here.
    """

    station_ids: list[str]
    rates: np.ndarray  # (n_stations, segments_per_day) expected departures
    od_weights: np.ndarray  # (n, n), zero diagonal
    bus_rates: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        self.od_weights = np.asarray(self.od_weights, dtype=float)
        n = len(self.station_ids)
        if self.rates.shape[0] != n:
            raise ScenarioError("rates row count must match station count")
        if self.od_weights.shape != (n, n):
            raise ScenarioError("od_weights must be n x n")
        if not (np.all(np.isfinite(self.rates)) and np.all(self.rates >= 0)
                and np.all(np.isfinite(self.od_weights))
                and np.all(self.od_weights >= 0)):
            raise ScenarioError("rates and od_weights must be finite and "
                                "nonnegative")
        if np.any(np.diag(self.od_weights) != 0):
            raise ScenarioError("od_weights diagonal must be zero")
        # Sampling tables. Python floats and sequential sums, so a draw
        # compares exactly what a scalar weighted choice would.
        self._day_rates = self.rates.T.tolist()  # [day position][station]
        self._day_exp = [[math.exp(-rate) for rate in row]
                         for row in self._day_rates]
        rows = self.od_weights.tolist()
        self._od_cum = [list(accumulate(row)) for row in rows]
        self._od_total = [sum(row) for row in rows]
        # Uniforms per block: a day position's draws take one per nonzero
        # rate plus one per trip that has a destination row; four standard
        # deviations above that mean make a refill rare. 0 draws no block.
        self._day_block = []
        for row in self._day_rates:
            trips = sum(rate for rate, total in zip(row, self._od_total)
                        if total > 0)
            nonzero = sum(rate > 0 for rate in row)
            self._day_block.append(
                nonzero and nonzero + math.ceil(trips + 4 * math.sqrt(trips)))
        # expected_od divides by numpy's row sums, which can differ from
        # the sequential ones in the last place
        self._od_rowsum = self.od_weights.sum(axis=1)
        # Bus ODs in sorted order, each rate expanded into the Poisson
        # leaves its draw inverts, one uniform per leaf.
        self._bus_ods: list[tuple[str, str]] = []
        leaves: list[float] = []
        starts: list[int] = []
        for od, rate in sorted(self.bus_rates.items()):
            split = poisson_leaves(rate)
            if split:
                self._bus_ods.append(od)
                starts.append(len(leaves))
                leaves += split
        self._bus_leaves = np.array(leaves, dtype=float)
        self._bus_leaf_exp = np.array([math.exp(-leaf) for leaf in leaves],
                                      dtype=float)
        self._bus_starts = np.array(starts, dtype=np.intp)

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
        rates = np.array([doc["rates"][sid] for sid in station_ids], dtype=float)
        bus_rates = {}
        for entry in doc.get("bus_rates", []):
            bus_rates[(entry["origin"], entry["destination"])] = float(entry["rate"])
        return cls(
            station_ids=station_ids,
            rates=rates,
            od_weights=np.asarray(doc["od_weights"], dtype=float),
            bus_rates=bus_rates,
        )


def sample_segment(profile: DemandProfile, clock: SegmentClock,
                   rng: PortableRng) -> tuple[list[Trip], list[Trip]]:
    """Draw one segment of bike trips and bus arrivals from the profile.

    Reproducible for a fixed rng state; counts are Poisson via inversion on
    the portable stream. Each trip's destination is the first whose
    cumulative OD weight exceeds a uniform scaled by the row total (the
    last one if none does).

    Bike draws come from one block of uniforms per segment, read in the
    order single draws would be made: each station's Poisson leaves, then
    its destinations. A draw that runs past the block appends a new one.
    The unread rest of the block is handed back (`PortableRng.give_back`),
    so the stream ends where single draws leave it. A day position whose
    rates are all zero draws no block. Bus leaves then take one block of
    uniforms, all of it read.
    """
    ids = profile.station_ids
    last = len(ids) - 1
    pos = clock.current % profile.segments_per_day
    block = profile._day_block[pos]
    trips: list[Trip] = []
    if block:
        rates, exps = profile._day_rates[pos], profile._day_exp[pos]
        u = rng.uniforms(block).tolist()
        k, m = 0, block  # next unread uniform, uniforms held
        for i, sid in enumerate(ids):
            rate = rates[i]
            if rate == 0:
                continue
            if rate <= POISSON_SPLIT:
                if k == m:
                    u, k = _refill(rng, u, k, 1, block), 0
                    m = len(u)
                count = poisson_count(u[k], rate, exps[i])
                k += 1
            else:  # split as PortableRng.poisson splits it
                count = 0
                for leaf in poisson_leaves(rate):
                    if k == m:
                        u, k = _refill(rng, u, k, 1, block), 0
                        m = len(u)
                    count += poisson_count(u[k], leaf, math.exp(-leaf))
                    k += 1
            if count == 0:
                continue
            total = profile._od_total[i]
            if total <= 0:
                continue
            if k + count > m:
                u, k = _refill(rng, u, k, count, block), 0
                m = len(u)
            cum = profile._od_cum[i]
            per_dest: dict[int, int] = {}
            for x in u[k:k + count]:
                j = min(bisect_right(cum, x * total), last)
                per_dest[j] = per_dest.get(j, 0) + 1
            k += count
            trips.extend((sid, ids[j], c) for j, c in sorted(per_dest.items()))
        rng.give_back(m - k)
    bus_arrivals: list[Trip] = []
    if profile._bus_ods:
        u = rng.uniforms(len(profile._bus_leaves))
        leaf_counts = invert_poisson(u, profile._bus_leaves,
                                     profile._bus_leaf_exp)
        counts = np.add.reduceat(leaf_counts, profile._bus_starts)
        bus_arrivals = [(origin, dest, count) for (origin, dest), count
                        in zip(profile._bus_ods, counts.tolist()) if count > 0]
    return trips, bus_arrivals


def _refill(rng: PortableRng, u: list[float], k: int, need: int,
            block: int) -> list[float]:
    """The unread uniforms u[k:] followed by at least `need` in all."""
    return u[k:] + rng.uniforms(max(block, need - (len(u) - k))).tolist()


@dataclass
class DemandScript:
    """Exact per-segment trip replay. Segments are 1-based within the episode."""

    by_segment: dict[int, list[Trip]]
    bus_by_segment: dict[int, list[Trip]]

    def trips_at(self, segment: int) -> list[Trip]:
        return list(self.by_segment.get(segment, []))

    def bus_at(self, segment: int) -> list[Trip]:
        return list(self.bus_by_segment.get(segment, []))


def scripted_demand(script: list[dict], station_ids: list[str],
                    episode_length: int, stop_ids: list[str] | None = None,
                    bus_script: list[dict] | None = None) -> DemandScript:
    """Validate and index an explicit trip script."""
    by_segment: dict[int, list[Trip]] = {}
    known = set(station_ids)
    for entry in script:
        seg = int(entry["segment"])
        if not (1 <= seg <= episode_length):
            raise ScenarioError(f"script segment {seg} outside episode 1..{episode_length}")
        if entry["origin"] not in known or entry["destination"] not in known:
            raise ScenarioError(f"script references unknown station "
                                f"{entry['origin']!r} or {entry['destination']!r}")
        by_segment.setdefault(seg, []).append(
            (entry["origin"], entry["destination"], int(entry["count"])))
    bus_by_segment: dict[int, list[Trip]] = {}
    if bus_script:
        known_stops = set(stop_ids or [])
        for entry in bus_script:
            seg = int(entry["segment"])
            if not (1 <= seg <= episode_length):
                raise ScenarioError(f"bus script segment {seg} outside episode")
            if entry["origin"] not in known_stops or entry["destination"] not in known_stops:
                raise ScenarioError("bus script references unknown stop")
            bus_by_segment.setdefault(seg, []).append(
                (entry["origin"], entry["destination"], int(entry["count"])))
    return DemandScript(by_segment=by_segment, bus_by_segment=bus_by_segment)


@dataclass
class HistoryLog:
    """Realized demand per segment, the corpus the forecasters consume."""

    station_ids: list[str]
    departures: list[np.ndarray] = field(default_factory=list)  # per segment, (n,)
    od_counts: list[np.ndarray] = field(default_factory=list)  # per segment, (n, n)

    def __post_init__(self):
        self._index = {sid: i for i, sid in enumerate(self.station_ids)}

    def record_trips(self, trips: list[Trip]):
        n = len(self.station_ids)
        index = self._index
        od = np.zeros((n, n), dtype=int)
        for origin, dest, count in trips:
            od[index[origin], index[dest]] += count
        self.od_counts.append(od)
        self.departures.append(od.sum(axis=1))

    @property
    def n_segments(self) -> int:
        return len(self.departures)

    def departure_series(self, station: str) -> np.ndarray:
        i = self.station_ids.index(station)
        return np.array([d[i] for d in self.departures], dtype=float)

    def total_od(self) -> np.ndarray:
        n = len(self.station_ids)
        if not self.od_counts:
            return np.zeros((n, n), dtype=int)
        return np.sum(self.od_counts, axis=0)

    def save_trips_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["segment", "origin", "destination", "count"])
            for seg, od in enumerate(self.od_counts, start=1):
                for i, origin in enumerate(self.station_ids):
                    for j, dest in enumerate(self.station_ids):
                        if od[i, j] > 0:
                            writer.writerow([seg, origin, dest, int(od[i, j])])

    @classmethod
    def load_trips_csv(cls, path: str, station_ids: list[str]) -> "HistoryLog":
        log = cls(station_ids=station_ids)
        rows: dict[int, list[Trip]] = {}
        with open(path) as fh:
            for row in csv.DictReader(fh):
                seg = int(row["segment"])
                rows.setdefault(seg, []).append(
                    (row["origin"], row["destination"], int(row["count"])))
        for seg in range(1, max(rows, default=0) + 1):
            log.record_trips(rows.get(seg, []))
        return log
