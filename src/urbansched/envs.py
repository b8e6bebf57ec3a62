"""Bus and bike scheduling MDPs.

Assembles the five-part agent state (predicted demand, station info, own
state, peer states, system features) plus the optional cross-system
observation O, and defines actions, rewards and stopping for both agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import world as W
from .demand import BikeTrip, BusArrival, sample_segment
from .rng import PortableRng
from .world import HORIZON


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


@dataclass(frozen=True)
class EpisodeRecord:
    """The outcome of one episode, built by its env at the step that ends
    it. A bike record leaves the bus fields at 0 and a bus record the bike
    fields."""

    total_reward: float
    # bike: trips served and lost, repositioning distance, undockable bikes
    served: int = 0
    lost: int = 0
    distance: float = 0.0
    overflow: int = 0
    # bus: passengers boarded, their waits in minutes, driving minutes
    boardings: int = 0
    reduced_wait: float = 0.0
    drive_time: float = 0.0


# ---------------------------------------------------------------------------
# Observations


def _observation(world: W.WorldState, columns: tuple[list, ...],
                 forecast: np.ndarray, copies: int, agents: list, me: int,
                 places: int, O: np.ndarray | None) -> np.ndarray:
    """Flat vector of the per-place `columns`, `copies` copies of the
    forecast block, the agent block, the system features H and, when
    given, O.

    The agent block holds agent `me` first, then each peer in world order,
    each as a one-hot location over `places`, occupied, remaining and
    operation. Without agents the block is empty. The vector is filled by
    slices and is a new array on every call: callers keep observations.
    """
    forecast = np.asarray(forecast, dtype=float).reshape(-1)
    features = world.env_features
    width = places + 3
    n = len(columns[0])
    out = np.zeros(len(columns) * n + copies * forecast.size
                   + len(agents) * width + features.size
                   + (0 if O is None else O.size))
    at = 0
    for column in columns:
        out[at:at + n] = column
        at += n
    for _ in range(copies):
        out[at:at + forecast.size] = forecast
        at += forecast.size
    if agents:
        for agent in [agents[me]] + agents[:me] + agents[me + 1:]:
            out[at + agent.location] = 1.0
            out[at + places] = agent.occupied
            out[at + places + 1] = agent.remaining
            out[at + places + 2] = agent.operation
            at += width
    out[at:at + features.size] = features
    if O is not None:
        out[at + features.size:] = O.reshape(-1)
    return out


def bus_observe(world: W.WorldState, forecast: np.ndarray, bus_id: int,
                other_system: np.ndarray | None) -> np.ndarray:
    """Flat bus observation, in the order of `bike_observe` without g:
    segments since the last forward and backward bus per stop, the
    (L, 2 * stops) forecast block of forward then backward boardings per
    segment, then the agent block (one-hot over stops), H and O."""
    stops = world.bus_stops
    return _observation(
        world, ([s.last_bus_fwd for s in stops],
                [s.last_bus_bwd for s in stops]), forecast, 1,
        world.buses, bus_id, len(stops), other_system)


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

    b2 is one float64 subtraction of b1 from the world's `dock_vector`,
    exact because the validator caps docks at `world.MAX_CAPACITY`.
    """
    bikes = np.array(world.available, dtype=float)
    return _observation(
        world, (bikes, world.dock_vector - bikes), forecast, 2,
        world.vehicles, vehicle_id, max(bikes.size, 1), other_system)


def joint_features(world: W.WorldState, for_agent: str, k: int,
                   outage: bool = False) -> np.ndarray:
    """Cross-system observation O.

    For the bike agent: per-bus-stop (last_bus_fwd, last_bus_bwd, queue
    lengths), truncated or zero-padded to k columns; under a bus outage the
    recency columns carry the episode-length sentinel. For the bus agent
    (any other kind): per-bike-station (available, free docks) likewise.
    """
    sentinel = world.clock.episode_length
    if for_agent == "vehicle":
        rows = []
        for stop in world.bus_stops:
            fwd = sentinel if outage else stop.last_bus_fwd
            bwd = sentinel if outage else stop.last_bus_bwd
            rows.append([fwd, bwd, len(stop.queue_fwd), len(stop.queue_bwd)])
        n = len(world.bus_stops)
    else:
        rows = [[a, d - a] for a, d in zip(world.available, world.docks)]
        n = len(world.available)
    if n == 0:
        return np.zeros((0, k))
    full = np.array(rows, dtype=float)
    out = np.zeros((n, k))
    cols = min(k, full.shape[1])
    out[:, :cols] = full[:, :cols]
    return out


# ---------------------------------------------------------------------------
# The MDPs


def _realise(scenario: W.ScenarioSpec, rng: PortableRng, outage: bool = False
             ) -> tuple[list[list[BikeTrip]], list[list[BusArrival]]]:
    """One episode's bike trips and bus arrivals, item t for the segment
    played after t segments: each segment's profile sample, then its
    scripted trips, then, under an outage, its outage trips; the trip
    lists come resolved from the scenario. The validator keeps every
    scripted segment in 1..T."""
    T = scenario.episode_length
    trips = [[] for _ in range(T)]
    bus_arrivals = [[] for _ in range(T)]
    profile = scenario.profile
    if profile is not None:
        start = scenario.episode_start
        clock = W.SegmentClock(start, T, start, scenario.segment_minutes)
        for t in range(T):
            clock.current = start + t
            trips[t], bus_arrivals[t] = sample_segment(profile, clock, rng)
    for seg, trip in scenario.scripted_trips + (
            scenario.outage_trips if outage else []):
        trips[seg - 1].append(trip)
    for seg, arrival in scenario.scripted_arrivals:
        bus_arrivals[seg - 1].append(arrival)
    return trips, bus_arrivals


BUS_HEADWAY = 4  # the bike env's scenery buses reset stop timers this often


@dataclass
class _Env:
    """What both MDPs share: the scenario's expected demand, the joint
    toggle (None takes the scenario's), and the episode's demand stream,
    drawn from the seed and the episode count. Both come from the
    scenario's profile, which its envs share and trust as checked at load.

    Each env defines `reset` and `step` in its own class body: perfbench's
    tracer wraps them where the class's `__dict__` holds them.
    """

    scenario: W.ScenarioSpec
    reward: RewardConfig = field(default_factory=RewardConfig)
    joint_enabled: bool | None = None  # None: take the scenario's toggle
    seed: int = 0

    def __post_init__(self):
        if self.joint_enabled is None:
            self.joint_enabled = self.scenario.joint_enabled
        self.expected_bike, self.expected_bus = self.scenario.expected_demand
        self.world: W.WorldState | None = None
        self.obs: np.ndarray | None = None  # what reset or step last returned
        self.record: EpisodeRecord | None = None  # set when an episode ends
        self._episode_counter = 0

    def _episode_rng(self, seed: int | None) -> PortableRng:
        """The next episode's demand stream; a given seed replaces the
        env's."""
        if seed is not None:
            self.seed = seed
        self._episode_counter += 1
        return PortableRng((self.seed << 16) ^ self._episode_counter)

    def _start(self, rng: PortableRng, outage: bool = False):
        """Realise the episode's demand and build its world. The last
        episode's demand and world go first, so no reset holds two."""
        self.world = self.trips = self.bus_arrivals = None
        self.trips, self.bus_arrivals = _realise(self.scenario, rng, outage)
        self.world = W.build_world(self.scenario)
        self.done = False
        self.record = None

    def _horizon(self, rows: np.ndarray) -> np.ndarray:
        """The (HORIZON, columns) rows of an expected-demand block that an
        observation reads, as a view; the block's zero rows cover every
        clock position."""
        t = self.world.clock.elapsed
        return rows[t + 1:t + 1 + HORIZON]


class BikeEnv(_Env):
    """Single dispatch-vehicle repositioning MDP with an episodic reward.

    Action: (station index, signed bike quantity). The reposition applies
    before the segment's demand flows. The reward is 0 until the episode
    ends, where it settles to served - beta * travel distance -
    gamma_overflow * undockable bikes; per-step accumulators are exposed in
    the step info for diagnostics, and the episode's in `record`.
    """

    kind = "vehicle"  # the agent kind a policy decodes actions for

    @property
    def n_stations(self) -> int:
        return len(self.scenario.station_indices)

    @property
    def action_dim(self) -> int:
        return self.n_stations + 1

    def reset(self, seed: int | None = None,
              force_outage: bool | None = None) -> np.ndarray:
        rng = self._episode_rng(seed)
        mode = (self.scenario.bus_outage if force_outage is None
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
        O = (joint_features(w, "vehicle", self.scenario.joint_k, self.outage)
             if self.joint_enabled else None)
        self.obs = bike_observe(w, self._horizon(self.expected_bike), 0, O)
        return self.obs

    def step(self, action: tuple[int, int]):
        if self.done:
            raise EpisodeDone("episode already finished")
        station_idx, quantity = int(action[0]), int(action[1])
        w = self.world
        if w.vehicles:
            vehicle = w.vehicles[0]
            before = vehicle.location
            unload = min(-quantity, vehicle.occupied)  # <= 0 unless unloading
            W.apply_reposition(w, 0, station_idx, quantity)
            after = vehicle.location
            if before != after:
                self.distance += self.scenario.distance(before, after)
            # bikes the station could not dock; operation is -docked
            self.overflow += max(0, unload + vehicle.operation)
        _, served, lost = W.step_bike_world(w, self.trips[w.clock.elapsed])
        self.served += served
        self.lost += lost
        self._tick_bus_scenery()
        self.done = w.clock.at_end
        reward = 0.0
        if self.done:
            reward = (self.served - self.reward.beta * self.distance
                      - self.reward.gamma_overflow * self.overflow)
            self.record = EpisodeRecord(reward, served=self.served,
                                        lost=self.lost, distance=self.distance,
                                        overflow=self.overflow)
        info = {"served": served, "lost": lost,
                "served_total": self.served, "lost_total": self.lost,
                "distance_total": self.distance,
                "overflow_total": self.overflow,
                "outage": self.outage}
        return self._observe(), reward, self.done, info

    def _tick_bus_scenery(self):
        """Reset the stop timers on the scenery buses' headway. Under an
        outage no bus runs and O reads the sentinel, not the timers."""
        if self.outage:
            return
        w = self.world
        timer = w.clock.elapsed % BUS_HEADWAY
        for stop in w.bus_stops:
            stop.last_bus_fwd = stop.last_bus_bwd = timer


# ---------------------------------------------------------------------------
# Bus MDP

class BusEnv(_Env):
    """Single controlled bus on one route; other buses halt.

    Reward for a move is the accumulated waiting time, in minutes, of the
    passengers who board, minus alpha times the driving time; halting is
    exactly 0. The episode fails when any passenger has waited the patience
    bound p, or ends with the clock; `record` then holds its outcome.
    """

    kind = "bus"

    def __post_init__(self):
        super().__post_init__()
        if not self.scenario.bus_fleet:
            raise W.InputError("a BusEnv needs a route that runs a bus")

    @property
    def action_dim(self) -> int:
        return 3

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._start(self._episode_rng(seed))
        self.reduced_wait = 0.0
        self.drive_time = 0.0
        self.total_reward = 0.0
        return self._observe()

    def _observe(self) -> np.ndarray:
        w = self.world
        O = (joint_features(w, "bus", self.scenario.joint_k)
             if self.joint_enabled else None)
        self.obs = bus_observe(w, self._horizon(self.expected_bus), 0, O)
        return self.obs

    def _max_wait(self) -> int:
        """Longest wait in segments; a queue's head has waited longest."""
        w = self.world
        heads = [q[0][1] for q in w.queues if q]
        return w.clock.current - min(heads) if heads else 0

    def step(self, action: int):
        if self.done:
            raise EpisodeDone("episode already finished")
        if action not in (W.OP_FORWARD, W.OP_HALT, W.OP_BACKWARD):
            raise ValueError(f"invalid bus action {action!r}")
        w = self.world
        actions = [W.OP_HALT] * len(w.buses)
        actions[0] = action
        _, reduced, drive = W.step_bus_world(
            w, actions, self.bus_arrivals[w.clock.elapsed])
        self.reduced_wait += reduced
        self.drive_time += drive
        reward = 0.0 if action == W.OP_HALT else (
            reduced - self.reward.alpha * drive)
        self.total_reward += reward
        max_wait = self._max_wait()
        self.done = w.clock.at_end or max_wait >= self.reward.patience
        if self.done:
            self.record = EpisodeRecord(
                self.total_reward, boardings=w.boardings,
                reduced_wait=self.reduced_wait, drive_time=self.drive_time)
        info = {"reduced_wait": reduced, "drive_time": drive,
                "max_wait": max_wait}
        return self._observe(), reward, self.done, info
