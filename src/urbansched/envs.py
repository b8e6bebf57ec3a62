"""Bus and bike scheduling MDPs.

Assembles the five-part agent state (predicted demand, station info, own
state, peer states, system features) plus the optional cross-system
observation O, and defines actions, rewards and stopping for both agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import world as W
from .demand import DemandProfile, DemandScript, sample_segment, scripted_demand
from .forecast_bike import encode_flow
from .rng import PortableRng


@dataclass
class RewardConfig:
    alpha: float = 0.2  # bus drive-time penalty per minute
    beta: float = 0.1  # bike repositioning cost per distance unit
    gamma_overflow: float = 1.0  # penalty per bike that could not dock
    patience: int = 4  # p, max passenger wait in segments

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma_overflow) < 0 or self.patience < 1:
            raise ValueError("reward weights must be >= 0 and patience >= 1")


class EpisodeDone(RuntimeError):
    """Raised when stepping a finished environment."""


# ---------------------------------------------------------------------------
# Observations


def _observation(world: W.WorldState, head: list, agents: list, me: int,
                 places: int, O: np.ndarray | None) -> np.ndarray:
    """Flat vector of `head` (station info and forecasts), the agent block,
    the system features H and, when given, O.

    The agent block holds agent `me` first, then each peer in world order,
    each as a one-hot location over `places`, occupied, remaining and
    operation.
    """
    order = [agents[me]] + agents[:me] + agents[me + 1:]
    block = np.zeros((len(order), places + 3))
    for row, agent in zip(block, order):
        row[agent.location] = 1.0
        row[places:] = (agent.occupied, agent.remaining, agent.operation)
    parts = [*head, block, world.env_features]
    if O is not None:
        parts.append(O)
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1)
                           for p in parts])


def _forecast_rows(horizon: int, *arrays) -> list[np.ndarray]:
    """The first `horizon` rows of each forecast, as 2-D float arrays."""
    arrays = [np.atleast_2d(np.asarray(a, dtype=float)) for a in arrays]
    if min(a.shape[0] for a in arrays) < horizon:
        raise ValueError("forecast horizon shorter than required L")
    return [a[:horizon] for a in arrays]


def bus_observe(world: W.WorldState, c1: np.ndarray, c2: np.ndarray,
                bus_id: int, other_system: np.ndarray | None,
                horizon: int) -> np.ndarray:
    """Flat bus observation, in the order of `bike_observe` without g:
    segments since the last forward and backward bus per stop, forward
    and backward boarding forecasts, then the agent block (one-hot over
    stops), H and O."""
    c1, c2 = _forecast_rows(horizon, c1, c2)
    return _observation(
        world,
        [[s.last_bus_fwd for s in world.bus_stops],
         [s.last_bus_bwd for s in world.bus_stops],
         np.concatenate((c1, c2), axis=1)],
        world.buses, bus_id, len(world.bus_stops), other_system)


def bike_observe(world: W.WorldState, c1: np.ndarray, c2: np.ndarray,
                 g: np.ndarray, vehicle_id: int,
                 other_system: np.ndarray | None,
                 horizon: int) -> np.ndarray:
    """Flat bike observation for `vehicle_id`, in this order (n stations,
    L = horizon, V vehicles):

    - b1 (n): available bikes per station; b2 (n): free docks per station
    - for each of the L forecast segments: c1 (n) predicted departures,
      then c2 (n) predicted arrivals
    - g (L x 2n): flow encodings, segment by segment
    - own state: one-hot location (max(n, 1)), occupied, remaining,
      operation; then the same for each other vehicle ((V - 1) blocks)
    - H: system features
    - O, flattened row by row, when the cross-system block is on
    """
    c1, c2, g = _forecast_rows(horizon, c1, c2, g)
    return _observation(
        world,
        [[s.available for s in world.bike_stations],
         [s.free_docks for s in world.bike_stations],
         np.concatenate((c1, c2), axis=1), g],
        world.vehicles, vehicle_id, max(len(world.bike_stations), 1),
        other_system)


def joint_features(world: W.WorldState, for_agent: str, k: int,
                   outage: bool = False) -> np.ndarray:
    """Cross-system observation O.

    For the bike agent: per-bus-stop (last_bus_fwd, last_bus_bwd, queue
    lengths), truncated or zero-padded to k columns; under a bus outage the
    recency columns carry the episode-length sentinel. For the bus agent:
    per-bike-station (available, free docks) likewise.
    """
    if k < 1:
        raise ValueError("joint mode needs k >= 1")
    sentinel = world.clock.episode_length
    if for_agent == "vehicle":
        rows = []
        for stop in world.bus_stops:
            fwd = sentinel if outage else stop.last_bus_fwd
            bwd = sentinel if outage else stop.last_bus_bwd
            rows.append([fwd, bwd, len(stop.queue_fwd), len(stop.queue_bwd)])
        n = len(world.bus_stops)
    elif for_agent == "bus":
        rows = [[s.available, s.free_docks] for s in world.bike_stations]
        n = len(world.bike_stations)
    else:
        raise ValueError(f"unknown agent kind {for_agent!r}")
    if n == 0:
        return np.zeros((0, k))
    full = np.array(rows, dtype=float)
    out = np.zeros((n, k))
    cols = min(k, full.shape[1])
    out[:, :cols] = full[:, :cols]
    return out


# ---------------------------------------------------------------------------
# Demand shared by both envs: a forecast per env, a realisation per episode

@dataclass
class _Forecast:
    """Expected demand of a scenario, row t for episode segment t + 1, and
    the profile or script that realisations are drawn from. It depends on
    the scenario alone, so an env builds it once; the arrays are
    read-only."""

    c1: np.ndarray  # (T, n) expected bike departures
    c2: np.ndarray  # (T, n) expected bike arrivals
    g: np.ndarray  # (T, 2n) expected flow encodings
    bus_c1: np.ndarray  # (T, n_stops) expected forward boardings
    bus_c2: np.ndarray
    profile: DemandProfile | None = None
    script: DemandScript | None = None

    def horizon_slice(self, arr: np.ndarray, current: int, start: int,
                      L: int) -> np.ndarray:
        """Forecast rows for segments current+1..current+L, zero-padded."""
        first = current - start + 1
        lo, hi = max(first, 0), min(first + L, arr.shape[0])
        out = np.zeros((L, arr.shape[1]))
        if lo < hi:
            out[lo - first:hi - first] = arr[lo:hi]
        return out


def _build_forecast(scenario: W.ScenarioSpec) -> _Forecast:
    station_ids = scenario.station_ids()
    stop_ids = [sid for r in scenario.routes for sid in r["stops"]]
    n = len(station_ids)
    n_stops = len(stop_ids)
    T = scenario.episode_length
    c1 = np.zeros((T, max(n, 1)))
    c2 = np.zeros((T, max(n, 1)))
    g = np.zeros((T, 2 * max(n, 1)))
    bus_c1 = np.zeros((T, max(n_stops, 1)))
    bus_c2 = np.zeros((T, max(n_stops, 1)))
    sindex = {sid: i for i, sid in enumerate(station_ids)}
    pindex = {sid: i for i, sid in enumerate(stop_ids)}
    profile = script = None

    if scenario.demand_script is not None:
        script = scripted_demand(scenario.demand_script, station_ids, T,
                                 stop_ids, scenario.bus_script)
        for seg in range(1, T + 1):
            od = np.zeros((max(n, 1), max(n, 1)))
            for origin, dest, count in script.trips_at(seg):
                od[sindex[origin], sindex[dest]] += count
            c1[seg - 1] = od.sum(axis=1)[:n] if n else 0
            c2[seg - 1] = od.sum(axis=0)[:n] if n else 0
            g[seg - 1] = encode_flow(od) if n else 0
            for origin, dest, count in script.bus_at(seg):
                if pindex[dest] > pindex[origin]:
                    bus_c1[seg - 1, pindex[origin]] += count
                else:
                    bus_c2[seg - 1, pindex[origin]] += count
    elif scenario.demand_profile is not None:
        profile = DemandProfile.from_dict(scenario.demand_profile, station_ids)
        for seg in range(1, T + 1):
            expected = profile.expected_od(seg - 1)  # its day position
            c1[seg - 1] = expected.sum(axis=1)
            c2[seg - 1] = expected.sum(axis=0)
            g[seg - 1] = encode_flow(expected)
        # bus rates are constant over the day: one row, summed in OD order
        for (origin, dest), rate in sorted(profile.bus_rates.items()):
            if origin in pindex and dest in pindex:
                if pindex[dest] > pindex[origin]:
                    bus_c1[0, pindex[origin]] += rate
                else:
                    bus_c2[0, pindex[origin]] += rate
        bus_c1[1:] = bus_c1[0]
        bus_c2[1:] = bus_c2[0]
    for arr in (c1, c2, g, bus_c1, bus_c2):
        arr.flags.writeable = False
    return _Forecast(c1=c1, c2=c2, g=g, bus_c1=bus_c1, bus_c2=bus_c2,
                     profile=profile, script=script)


def _realise(scenario: W.ScenarioSpec, forecast: _Forecast,
             rng: PortableRng, extra_trips: list[dict] | None = None
             ) -> tuple[dict[int, list], dict[int, list]]:
    """One episode's bike trips and bus arrivals by 1-based segment."""
    T = scenario.episode_length
    trips: dict[int, list] = {}
    bus_arrivals: dict[int, list] = {}
    if forecast.script is not None:
        for seg in range(1, T + 1):
            trips[seg] = forecast.script.trips_at(seg)
            bus_arrivals[seg] = forecast.script.bus_at(seg)
    elif forecast.profile is not None:
        clock = W.SegmentClock(0, T, 0, scenario.segment_minutes)
        for seg in range(1, T + 1):
            clock.current = seg - 1  # day position of the sampled segment
            trips[seg], bus_arrivals[seg] = sample_segment(
                forecast.profile, clock, rng)
    else:
        for seg in range(1, T + 1):
            trips[seg] = []
            bus_arrivals[seg] = []
    # extra demand injected by an active bus outage: realized but not
    # forecast, since the forecasters cannot anticipate an outage
    for entry in extra_trips or []:
        seg = int(entry["segment"])
        if 1 <= seg <= T:
            trips.setdefault(seg, []).append(
                (entry["origin"], entry["destination"], int(entry["count"])))
    return trips, bus_arrivals


# ---------------------------------------------------------------------------
# Bike MDP

@dataclass
class BikeEnv:
    """Single dispatch-vehicle repositioning MDP with an episodic reward.

    Action: (station index, signed bike quantity). The reposition applies
    before the segment's demand flows. The reward is 0 until the episode
    ends, where it settles to served - beta * travel distance -
    gamma_overflow * undockable bikes; per-step accumulators are exposed in
    the step info for diagnostics.
    """

    scenario: W.ScenarioSpec
    reward: RewardConfig = field(default_factory=RewardConfig)
    horizon: int = 2  # L, forecast segments in the observation
    joint_enabled: bool | None = None  # None: take the scenario's toggle
    joint_k: int | None = None
    seed: int = 0
    bus_headway: int = 4  # scenery buses reset stop timers this often

    def __post_init__(self):
        joint = self.scenario.joint or {}
        if self.joint_enabled is None:
            self.joint_enabled = bool(joint.get("enabled", False))
        if self.joint_k is None:
            self.joint_k = int(joint.get("k", 2))
        self._outage_mode = joint.get("bus_outage", False)
        self._outage_trips = joint.get("outage_trips", [])
        self._episode_counter = 0
        self.forecast: _Forecast | None = None
        self.world: W.WorldState | None = None

    @property
    def n_stations(self) -> int:
        return len(self.scenario.stations)

    @property
    def action_dim(self) -> int:
        return self.n_stations + 1

    def _outage_active(self, rng: PortableRng) -> bool:
        if self._outage_mode == "random":
            return rng.uniform() < 0.5
        return bool(self._outage_mode)

    def reset(self, seed: int | None = None,
              force_outage: bool | None = None) -> np.ndarray:
        if seed is not None:
            self.seed = seed
        self._episode_counter += 1
        rng = PortableRng((self.seed << 16) ^ self._episode_counter)
        self.outage = (self._outage_active(rng) if force_outage is None
                       else force_outage)
        extra = self._outage_trips if self.outage else None
        if self.forecast is None:
            self.forecast = _build_forecast(self.scenario)
        self.trips, self.bus_arrivals = _realise(self.scenario, self.forecast,
                                                 rng, extra)
        self.world = W.build_world(self.scenario)
        self.done = False
        self.served = 0
        self.lost = 0
        self.distance = 0.0
        self.overflow = 0
        return self._observe()

    def _observe(self) -> np.ndarray:
        w = self.world
        cur = w.clock.current
        start = w.clock.episode_start
        f = self.forecast
        c1 = f.horizon_slice(f.c1, cur, start, self.horizon)
        c2 = f.horizon_slice(f.c2, cur, start, self.horizon)
        g = f.horizon_slice(f.g, cur, start, self.horizon)
        O = (joint_features(w, "vehicle", self.joint_k, outage=self.outage)
             if self.joint_enabled else None)
        return bike_observe(w, c1, c2, g, 0, O, self.horizon)

    def step(self, action: tuple[int, int]):
        if self.done:
            raise EpisodeDone("episode already finished")
        station_idx, quantity = int(action[0]), int(action[1])
        w = self.world
        if w.vehicles:
            vehicle = w.vehicles[0]
            before = vehicle.location
            undockable = 0
            if quantity < 0:
                undockable = max(0, min(-quantity, vehicle.occupied)
                                 - w.bike_stations[station_idx].free_docks)
            W.apply_reposition(w, 0, station_idx, quantity)
            after = vehicle.location
            if before != after:
                a = np.array(w.bike_stations[before].coord)
                b = np.array(w.bike_stations[after].coord)
                self.distance += float(np.linalg.norm(a - b))
            self.overflow += undockable
        segment = w.clock.current - w.clock.episode_start + 1
        _, served, lost = W.step_bike_world(w, self.trips.get(segment, []))
        self.served += served
        self.lost += lost
        self._tick_bus_scenery()
        self.done = w.clock.at_end
        reward = 0.0
        if self.done:
            reward = (self.served - self.reward.beta * self.distance
                      - self.reward.gamma_overflow * self.overflow)
        info = {"served": served, "lost": lost,
                "served_total": self.served, "lost_total": self.lost,
                "distance_total": self.distance,
                "overflow_total": self.overflow,
                "outage": self.outage}
        return self._observe(), reward, self.done, info

    def _tick_bus_scenery(self):
        w = self.world
        for stop in w.bus_stops:
            if self.outage:
                stop.last_bus_fwd = w.clock.episode_length
                stop.last_bus_bwd = w.clock.episode_length
            else:
                elapsed = w.clock.current - w.clock.episode_start
                stop.last_bus_fwd = elapsed % self.bus_headway
                stop.last_bus_bwd = elapsed % self.bus_headway


# ---------------------------------------------------------------------------
# Bus MDP

@dataclass
class BusEnv:
    """Single controlled bus on one route; other buses halt.

    Reward for a move is the accumulated waiting time, in minutes, of the
    passengers who board, minus alpha times the driving time; halting is
    exactly 0. The episode fails when any passenger has waited the patience
    bound p, or ends with the clock.
    """

    scenario: W.ScenarioSpec
    reward: RewardConfig = field(default_factory=RewardConfig)
    horizon: int = 2
    joint_enabled: bool | None = None
    joint_k: int | None = None
    seed: int = 0

    def __post_init__(self):
        joint = self.scenario.joint or {}
        if self.joint_enabled is None:
            self.joint_enabled = bool(joint.get("enabled", False))
        if self.joint_k is None:
            self.joint_k = int(joint.get("k", 2))
        self._episode_counter = 0
        self.forecast: _Forecast | None = None
        self.world: W.WorldState | None = None

    @property
    def action_dim(self) -> int:
        return 3

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self.seed = seed
        self._episode_counter += 1
        rng = PortableRng((self.seed << 16) ^ self._episode_counter)
        if self.forecast is None:
            self.forecast = _build_forecast(self.scenario)
        self.trips, self.bus_arrivals = _realise(self.scenario, self.forecast,
                                                 rng)
        self.world = W.build_world(self.scenario)
        self.done = False
        self.reduced_wait = 0.0
        self.drive_time = 0.0
        return self._observe()

    def _observe(self) -> np.ndarray:
        w = self.world
        cur = w.clock.current
        start = w.clock.episode_start
        f = self.forecast
        c1 = f.horizon_slice(f.bus_c1, cur, start, self.horizon)
        c2 = f.horizon_slice(f.bus_c2, cur, start, self.horizon)
        O = (joint_features(w, "bus", self.joint_k)
             if self.joint_enabled else None)
        return bus_observe(w, c1, c2, 0, O, self.horizon)

    def _max_wait(self) -> int:
        """Longest wait in segments; a queue's head has waited longest."""
        w = self.world
        return max((w.clock.current - q[0].arrival_segment
                    for stop in w.bus_stops
                    for q in (stop.queue_fwd, stop.queue_bwd) if q),
                   default=0)

    def step(self, action: int):
        if self.done:
            raise EpisodeDone("episode already finished")
        if action not in (W.OP_FORWARD, W.OP_HALT, W.OP_BACKWARD):
            raise ValueError(f"invalid bus action {action!r}")
        w = self.world
        segment = w.clock.current - w.clock.episode_start + 1
        arrivals = self.bus_arrivals.get(segment, [])
        actions = [W.OP_HALT] * len(w.buses)
        actions[0] = action
        _, reduced, drive = W.step_bus_world(w, actions, arrivals)
        self.reduced_wait += reduced
        self.drive_time += drive
        reward = 0.0 if action == W.OP_HALT else (
            reduced - self.reward.alpha * drive)
        max_wait = self._max_wait()
        self.done = w.clock.at_end or max_wait >= self.reward.patience
        info = {"reduced_wait": reduced, "drive_time": drive,
                "max_wait": max_wait}
        return self._observe(), reward, self.done, info
