"""Bus and bike scheduling MDPs.

Assembles the five-part agent state (predicted demand, station info, own
state, peer states, system features) plus the optional cross-system
observation O, and defines actions, rewards and stopping for both agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import world as W
from .demand import DemandProfile, sample_segment
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
    operation. Without agents the block is empty.
    """
    order = [agents[me]] + agents[:me] + agents[me + 1:] if agents else []
    block = np.zeros((len(order), places + 3))
    for row, agent in zip(block, order):
        row[agent.location] = 1.0
        row[places:] = (agent.occupied, agent.remaining, agent.operation)
    parts = [*head, block, world.env_features]
    if O is not None:
        parts.append(O)
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1)
                           for p in parts])


def bus_observe(world: W.WorldState, forecast: np.ndarray, bus_id: int,
                other_system: np.ndarray | None) -> np.ndarray:
    """Flat bus observation, in the order of `bike_observe` without g:
    segments since the last forward and backward bus per stop, the
    (L, 2 * stops) forecast block of forward then backward boardings per
    segment, then the agent block (one-hot over stops), H and O."""
    return _observation(
        world,
        [[s.last_bus_fwd for s in world.bus_stops],
         [s.last_bus_bwd for s in world.bus_stops], forecast],
        world.buses, bus_id, len(world.bus_stops), other_system)


def bike_observe(world: W.WorldState, forecast: np.ndarray, vehicle_id: int,
                 other_system: np.ndarray | None) -> np.ndarray:
    """Flat bike observation for `vehicle_id`, in this order (n stations,
    L forecast segments, V vehicles):

    - b1 (n): available bikes per station; b2 (n): free docks per station
    - for each of the L forecast segments: c1 (n) predicted departures,
      then c2 (n) predicted arrivals
    - g (L x 2n): flow encodings, segment by segment
    - own state: one-hot location (max(n, 1)), occupied, remaining,
      operation; then the same for each other vehicle ((V - 1) blocks)
    - H: system features
    - O, flattened row by row, when the cross-system block is on

    `forecast` is the (L, 2n) block of [c1 | c2] rows. It fills both the
    c1/c2 section and g: `forecast_bike.encode_flow` pools a predicted OD
    matrix into [row sums | column sums], which are c1 and c2. The layout
    keeps g as the state's third part; dropping the copy changes every
    observation.
    """
    return _observation(
        world,
        [[s.available for s in world.bike_stations],
         [s.free_docks for s in world.bike_stations], forecast, forecast],
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
    the profile that samples are drawn from. It depends on the scenario
    alone, so an env builds it once; the arrays are read-only."""

    bike: np.ndarray  # (T, 2n) expected [departures | arrivals] per station
    bus: np.ndarray  # (T, 2 n_stops) expected [forward | backward] boardings
    profile: DemandProfile | None = None

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
    """The profile's expected demand plus the scripted trips. Outage trips
    stay unforecast: the forecasters cannot anticipate an outage."""
    station_ids = scenario.station_ids()
    stop_ids = [sid for r in scenario.routes for sid in r["stops"]]
    n = max(len(station_ids), 1)
    T = scenario.episode_length
    bike = np.zeros((T, 2 * n))
    bus = np.zeros((T, 2 * max(len(stop_ids), 1)))
    pindex = {sid: i for i, sid in enumerate(stop_ids)}

    def board(row: np.ndarray, origin: str, dest: str, count: float):
        """Add boardings at `origin` to the forward half of `row` when
        `dest` lies ahead on the route, else to the backward half."""
        o = pindex[origin]
        row[o if pindex[dest] > o else len(stop_ids) + o] += count

    profile = None
    if scenario.demand_profile is not None:
        profile = DemandProfile.from_dict(scenario.demand_profile, station_ids)
        for t in range(T):  # row t is day position t
            bike[t] = encode_flow(profile.expected_od(t))
        # bus rates are constant over the day: one row, summed in OD order
        for (origin, dest), rate in sorted(profile.bus_rates.items()):
            board(bus[0], origin, dest, rate)
        bus[1:] = bus[0]
    if scenario.demand_script:
        sindex = {sid: i for i, sid in enumerate(station_ids)}
        od = np.zeros((T, n, n))
        for e in scenario.demand_script:
            od[e["segment"] - 1, sindex[e["origin"]],
               sindex[e["destination"]]] += e["count"]
        bike += [encode_flow(m) for m in od]
    for e in scenario.bus_script or []:
        board(bus[e["segment"] - 1], e["origin"], e["destination"],
              e["count"])
    bike.flags.writeable = bus.flags.writeable = False
    return _Forecast(bike=bike, bus=bus, profile=profile)


def _realise(scenario: W.ScenarioSpec, forecast: _Forecast,
             rng: PortableRng, outage: bool = False
             ) -> tuple[dict[int, list], dict[int, list]]:
    """One episode's bike trips and bus arrivals by 1-based segment: each
    segment's profile sample, then its scripted trips, then, under an
    outage, its outage trips. The validator keeps every segment in 1..T."""
    T = scenario.episode_length
    trips: dict[int, list] = {seg: [] for seg in range(1, T + 1)}
    bus_arrivals: dict[int, list] = {seg: [] for seg in range(1, T + 1)}
    if forecast.profile is not None:
        clock = W.SegmentClock(0, T, 0, scenario.segment_minutes)
        for seg in range(1, T + 1):
            clock.current = seg - 1  # day position of the sampled segment
            trips[seg], bus_arrivals[seg] = sample_segment(
                forecast.profile, clock, rng)
    joint = scenario.joint or {}
    for entries, out in ((scenario.demand_script, trips),
                         (scenario.bus_script, bus_arrivals),
                         (joint.get("outage_trips") if outage else None,
                          trips)):
        for e in entries or []:
            out[e["segment"]].append(
                (e["origin"], e["destination"], e["count"]))
    return trips, bus_arrivals


# ---------------------------------------------------------------------------
# The MDPs

HORIZON = 2  # L, forecast segments in an observation
BUS_HEADWAY = 4  # the bike env's scenery buses reset stop timers this often


@dataclass
class _Env:
    """What both MDPs share: the scenario's forecast, built once, the
    joint toggle (None takes the scenario's), and the episode's demand
    stream, drawn from the seed and the episode count.

    Each env defines `reset` and `step` in its own class body: perfbench's
    tracer wraps them where the class's `__dict__` holds them.
    """

    scenario: W.ScenarioSpec
    reward: RewardConfig = field(default_factory=RewardConfig)
    joint_enabled: bool | None = None  # None: take the scenario's toggle
    seed: int = 0

    def __post_init__(self):
        joint = self.scenario.joint or {}
        if self.joint_enabled is None:
            self.joint_enabled = joint.get("enabled", False)
        self.joint_k: int = joint.get("k", 2)
        self.forecast = _build_forecast(self.scenario)
        self.world: W.WorldState | None = None
        self._episode_counter = 0

    def _episode_rng(self, seed: int | None) -> PortableRng:
        """The next episode's demand stream; a given seed replaces the
        env's."""
        if seed is not None:
            self.seed = seed
        self._episode_counter += 1
        return PortableRng((self.seed << 16) ^ self._episode_counter)

    def _start(self, rng: PortableRng, outage: bool = False):
        """Realise the episode's demand and build its world."""
        self.trips, self.bus_arrivals = _realise(self.scenario, self.forecast,
                                                 rng, outage)
        self.world = W.build_world(self.scenario)
        self.done = False

    def _horizon(self, block: np.ndarray) -> np.ndarray:
        """The (HORIZON, columns) rows of `block` for the coming segments."""
        clock = self.world.clock
        return self.forecast.horizon_slice(block, clock.current,
                                           clock.episode_start, HORIZON)


class BikeEnv(_Env):
    """Single dispatch-vehicle repositioning MDP with an episodic reward.

    Action: (station index, signed bike quantity). The reposition applies
    before the segment's demand flows. The reward is 0 until the episode
    ends, where it settles to served - beta * travel distance -
    gamma_overflow * undockable bikes; per-step accumulators are exposed in
    the step info for diagnostics.
    """

    @property
    def n_stations(self) -> int:
        return len(self.scenario.stations)

    @property
    def action_dim(self) -> int:
        return self.n_stations + 1

    def reset(self, seed: int | None = None,
              force_outage: bool | None = None) -> np.ndarray:
        rng = self._episode_rng(seed)
        joint = self.scenario.joint or {}
        mode = (joint.get("bus_outage", False) if force_outage is None
                else force_outage)
        self.outage = rng.uniform() < 0.5 if mode == "random" else mode
        self._start(rng, self.outage)
        self.served = 0
        self.lost = 0
        self.distance = 0.0
        self.overflow = 0
        return self._observe()

    def _observe(self) -> np.ndarray:
        w = self.world
        O = (joint_features(w, "vehicle", self.joint_k, outage=self.outage)
             if self.joint_enabled else None)
        return bike_observe(w, self._horizon(self.forecast.bike), 0, O)

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
                stop.last_bus_fwd = elapsed % BUS_HEADWAY
                stop.last_bus_bwd = elapsed % BUS_HEADWAY


# ---------------------------------------------------------------------------
# Bus MDP

class BusEnv(_Env):
    """Single controlled bus on one route; other buses halt.

    Reward for a move is the accumulated waiting time, in minutes, of the
    passengers who board, minus alpha times the driving time; halting is
    exactly 0. The episode fails when any passenger has waited the patience
    bound p, or ends with the clock.
    """

    def __post_init__(self):
        super().__post_init__()
        if not any(r.get("bus_count", 1) for r in self.scenario.routes):
            raise ValueError("a BusEnv needs a route that runs a bus")

    @property
    def action_dim(self) -> int:
        return 3

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._start(self._episode_rng(seed))
        self.reduced_wait = 0.0
        self.drive_time = 0.0
        return self._observe()

    def _observe(self) -> np.ndarray:
        w = self.world
        O = (joint_features(w, "bus", self.joint_k)
             if self.joint_enabled else None)
        return bus_observe(w, self._horizon(self.forecast.bus), 0, O)

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
