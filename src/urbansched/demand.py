"""Synthetic demand generation and history recording.

Profiles produce Poisson trip counts with a daily periodic rate pattern;
scripts replay an explicit trip list exactly. Both feed the same history
log the forecasters consume.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .rng import PortableRng
from .world import ScenarioError, SegmentClock

Trip = tuple[str, str, int]


@dataclass
class DemandProfile:
    """Piecewise-constant per-station arrival rates plus OD propensities."""

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
        if np.any(self.rates < 0) or np.any(self.od_weights < 0):
            raise ScenarioError("rates and od_weights must be nonnegative")
        if np.any(np.diag(self.od_weights) != 0):
            raise ScenarioError("od_weights diagonal must be zero")

    @property
    def segments_per_day(self) -> int:
        return self.rates.shape[1]

    def rate_at(self, station: int, segment: int) -> float:
        return float(self.rates[station, segment % self.segments_per_day])

    def expected_od(self, segment: int) -> np.ndarray:
        """Expected OD matrix for one segment (rates split by propensity)."""
        n = len(self.station_ids)
        out = np.zeros((n, n))
        for i in range(n):
            row = self.od_weights[i]
            total = row.sum()
            if total > 0:
                out[i] = self.rate_at(i, segment) * row / total
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
    the portable stream.
    """
    segment = clock.current
    trips: list[Trip] = []
    n = len(profile.station_ids)
    for i, sid in enumerate(profile.station_ids):
        count = rng.poisson(profile.rate_at(i, segment))
        if count == 0:
            continue
        weights = profile.od_weights[i]
        if weights.sum() <= 0:
            continue
        per_dest = [0] * n
        for _ in range(count):
            per_dest[rng.choice(list(weights))] += 1
        for j, c in enumerate(per_dest):
            if c > 0:
                trips.append((sid, profile.station_ids[j], c))
    bus_arrivals: list[Trip] = []
    for (origin, dest), rate in sorted(profile.bus_rates.items()):
        count = rng.poisson(rate)
        if count > 0:
            bus_arrivals.append((origin, dest, count))
    return trips, bus_arrivals


@dataclass
class DemandScript:
    """Exact per-segment trip replay. Segments are 1-based within the episode."""

    by_segment: dict[int, list[Trip]]
    bus_by_segment: dict[int, list[Trip]]

    def trips_at(self, segment: int) -> list[Trip]:
        return list(self.by_segment.get(segment, []))

    def bus_at(self, segment: int) -> list[Trip]:
        return list(self.bus_by_segment.get(segment, []))

    def total_demand(self) -> int:
        return sum(c for trips in self.by_segment.values() for _, _, c in trips)


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

    def record_trips(self, trips: list[Trip]):
        n = len(self.station_ids)
        index = {sid: i for i, sid in enumerate(self.station_ids)}
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
