"""Simulated world: stations, routes, agents, passengers and the segment clock.

All transitions are deterministic; infeasible requests clip to feasibility
instead of raising, since RL exploration emits infeasible actions constantly.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Bus operation codes: +1 drives toward the terminal stop s_n, -1 drives back
# toward the origin stop s_1, 0 halts.
OP_FORWARD = 1
OP_HALT = 0
OP_BACKWARD = -1


class ScenarioError(ValueError):
    """Raised when a scenario document fails validation."""


@dataclass
class SegmentClock:
    episode_start: int
    episode_length: int
    current: int
    segment_minutes: float

    def __post_init__(self):
        if self.segment_minutes <= 0:
            raise ScenarioError("segment_minutes must be > 0")
        if not (self.episode_start <= self.current <= self.episode_start + self.episode_length):
            raise ScenarioError("clock current outside episode bounds")

    @property
    def at_end(self) -> bool:
        return self.current >= self.episode_start + self.episode_length

    def advance(self):
        if self.at_end:
            raise ScenarioError("clock already at episode end")
        self.current += 1


@dataclass(frozen=True)
class Passenger:
    """A waiting or riding passenger; its origin is the queue it waits in."""

    destination: str
    arrival_segment: int


@dataclass
class BikeStation:
    id: str
    coord: tuple[float, float]
    docks: int
    available: int

    def __post_init__(self):
        if not (0 <= self.available <= self.docks):
            raise ScenarioError(f"station {self.id}: available outside [0, docks]")

    @property
    def free_docks(self) -> int:
        return self.docks - self.available


@dataclass
class BusStop:
    id: str
    route: int  # index of the route the stop belongs to
    route_position: int
    # FIFO queues in arrival order: the head is the longest-waiting passenger
    queue_fwd: deque[Passenger] = field(default_factory=deque)
    queue_bwd: deque[Passenger] = field(default_factory=deque)
    last_bus_fwd: int = 0
    last_bus_bwd: int = 0


@dataclass
class AgentState:
    kind: str  # "bus" or "vehicle"
    location: int  # stop index (bus) or station index (vehicle)
    occupied: int
    operation: int
    capacity: int
    onboard: list[Passenger] = field(default_factory=list)

    def __post_init__(self):
        if not (0 <= self.occupied <= self.capacity):
            raise ScenarioError("agent occupancy outside [0, capacity]")

    @property
    def remaining(self) -> int:
        return self.capacity - self.occupied


@dataclass
class WorldState:
    clock: SegmentClock
    bike_stations: list[BikeStation]
    bus_stops: list[BusStop]
    agents: list[AgentState]
    env_features: np.ndarray

    def __post_init__(self):
        self._stop_index = {s.id: i for i, s in enumerate(self.bus_stops)}

    def stop_index(self, stop_id: str) -> int:
        try:
            return self._stop_index[stop_id]
        except KeyError:
            raise ScenarioError(f"unknown bus stop {stop_id!r}") from None

    def same_route(self, a: int, b: int) -> bool:
        """Whether stop indices a and b both exist and lie on one route."""
        n = len(self.bus_stops)
        return (0 <= a < n and 0 <= b < n
                and self.bus_stops[a].route == self.bus_stops[b].route)

    @property
    def vehicles(self) -> list[AgentState]:
        return [a for a in self.agents if a.kind == "vehicle"]

    @property
    def buses(self) -> list[AgentState]:
        return [a for a in self.agents if a.kind == "bus"]

    def total_bikes(self) -> int:
        return (sum(s.available for s in self.bike_stations)
                + sum(v.occupied for v in self.vehicles))


@dataclass
class ScenarioSpec:
    stations: list[dict]
    routes: list[dict]
    vehicles: list[dict]
    clock: dict
    environment: list[float]
    demand_script: list[dict] | None = None
    demand_profile: dict | None = None
    bus_script: list[dict] | None = None
    joint: dict | None = None

    @classmethod
    def from_json(cls, path: str) -> "ScenarioSpec":
        with open(path) as fh:
            doc = json.load(fh)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        return cls(
            stations=doc.get("stations", []),
            routes=doc.get("routes", []),
            vehicles=doc.get("vehicles", []),
            clock=doc.get("clock", {}),
            environment=doc.get("environment", []),
            demand_script=doc.get("demand_script"),
            demand_profile=doc.get("demand_profile"),
            bus_script=doc.get("bus_script"),
            joint=doc.get("joint"),
        )

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.stations) + sum(len(r.get("stops", [])) for r in self.routes) < 2:
            raise ScenarioError("scenario needs at least 2 stations or stops")
        seen: set[str] = set()
        for st in self.stations:
            for key in ("id", "x", "y", "docks"):
                if key not in st:
                    raise ScenarioError(f"station missing field {key!r}")
            if st["id"] in seen:
                raise ScenarioError(f"duplicate station id {st['id']!r}")
            seen.add(st["id"])
            if not (np.isfinite(st["x"]) and np.isfinite(st["y"])):
                raise ScenarioError(f"station {st['id']}: non-finite coordinates")
            if st["docks"] < 0:
                raise ScenarioError(f"station {st['id']}: negative docks")
            if not (0 <= st.get("initial_bikes", 0) <= st["docks"]):
                raise ScenarioError(f"station {st['id']}: initial_bikes outside [0, docks]")
        stop_route: dict[str, int] = {}
        for i, r in enumerate(self.routes):
            if len(r.get("stops", [])) < 2:
                raise ScenarioError("route needs at least 2 stops")
            if len(set(r["stops"])) != len(r["stops"]):
                raise ScenarioError("duplicate stop id on route")
            for sid in r["stops"]:
                if sid in stop_route:
                    raise ScenarioError(f"stop id {sid!r} on two routes")
                stop_route[sid] = i
            if r.get("capacity", 1) <= 0:
                raise ScenarioError("route bus capacity must be > 0")
        for v in self.vehicles:
            if v.get("capacity", 0) <= 0:
                raise ScenarioError("vehicle capacity must be > 0")
            if not (0 <= v.get("initial_load", 0) <= v["capacity"]):
                raise ScenarioError("vehicle initial_load outside [0, capacity]")
            start = v.get("start")
            if start is not None and start not in seen:
                raise ScenarioError(f"vehicle start station {start!r} unknown")
        ck = self.clock
        if ck.get("segment_minutes", 15) <= 0:
            raise ScenarioError("clock segment_minutes must be > 0")
        if ck.get("episode_length", 1) < 1:
            raise ScenarioError("clock episode_length must be >= 1")
        profile = self.demand_profile
        if profile is not None:
            self._validate_profile(profile, stop_route)
        for entry in self.bus_script or []:
            _validate_bus_od(entry, stop_route, "bus_script")

    def _validate_profile(self, profile: dict, stop_route: dict[str, int]):
        ids = self.station_ids()
        rates = profile.get("rates", {})
        lengths = set()
        for sid in ids:
            if sid not in rates:
                raise ScenarioError(f"demand_profile has no rates for "
                                    f"station {sid!r}")
            row = rates[sid]
            if not (isinstance(row, list) and all(map(_is_rate, row))):
                raise ScenarioError(f"demand_profile rates of station {sid!r} "
                                    f"must be a list of finite numbers >= 0")
            lengths.add(len(row))
        if len(lengths) > 1 or 0 in lengths:
            raise ScenarioError("demand_profile rate rows must be non-empty "
                                "and of equal length")
        od = profile.get("od_weights", [])
        if len(od) != len(ids) or any(not isinstance(row, list)
                                      or len(row) != len(ids) for row in od):
            raise ScenarioError("demand_profile od_weights must be n x n")
        if not all(_is_rate(w) for row in od for w in row):
            raise ScenarioError("demand_profile od_weights entries must be "
                                "finite numbers >= 0")
        for entry in profile.get("bus_rates", []):
            _validate_bus_od(entry, stop_route, "bus_rates")
            rate = entry.get("rate")
            if not _is_rate(rate):
                raise ScenarioError(f"bus_rates rate {rate!r} must be a "
                                    f"finite number >= 0")

    @property
    def episode_length(self) -> int:
        return self.clock.get("episode_length", 1)

    @property
    def segment_minutes(self) -> float:
        return self.clock.get("segment_minutes", 15)

    def station_ids(self) -> list[str]:
        return [s["id"] for s in self.stations]


def _is_rate(x) -> bool:
    """A demand rate or weight: a finite number >= 0 (NaN fails too)."""
    return isinstance(x, (int, float)) and 0 <= x < math.inf


def _validate_bus_od(entry: dict, stop_route: dict[str, int], where: str):
    """A bus OD must join two distinct stops of one route: no bus can carry
    a passenger between routes."""
    origin, dest = entry.get("origin"), entry.get("destination")
    for sid in (origin, dest):
        if sid not in stop_route:
            raise ScenarioError(f"{where} references unknown stop {sid!r}")
    if origin == dest:
        raise ScenarioError(f"{where} OD {origin!r} starts where it ends")
    if stop_route[origin] != stop_route[dest]:
        raise ScenarioError(f"{where} OD {origin!r}->{dest!r} joins stops "
                            f"on different routes")


def build_world(scenario: ScenarioSpec) -> WorldState:
    """Materialize a validated scenario at episode start."""
    clock = SegmentClock(
        episode_start=scenario.clock.get("episode_start", 0),
        episode_length=scenario.episode_length,
        current=scenario.clock.get("episode_start", 0),
        segment_minutes=scenario.segment_minutes,
    )
    stations = [
        BikeStation(
            id=s["id"],
            coord=(float(s["x"]), float(s["y"])),
            docks=int(s["docks"]),
            available=int(s.get("initial_bikes", 0)),
        )
        for s in scenario.stations
    ]
    stops: list[BusStop] = []
    agents: list[AgentState] = []
    for r, route in enumerate(scenario.routes):
        base = len(stops)
        for pos, stop_id in enumerate(route["stops"], start=1):
            stops.append(BusStop(id=stop_id, route=r, route_position=pos))
        capacity = int(route.get("capacity", 30))
        for _ in range(route.get("bus_count", 1)):
            agents.append(AgentState(kind="bus", location=base, occupied=0,
                                     operation=OP_HALT, capacity=capacity))
    station_ids = [s.id for s in stations]
    for v in scenario.vehicles:
        start = v.get("start")
        idx = 0 if start is None else station_ids.index(start)
        agents.append(AgentState(kind="vehicle", location=idx,
                                 occupied=int(v.get("initial_load", 0)),
                                 operation=0, capacity=int(v["capacity"])))
    return WorldState(
        clock=clock,
        bike_stations=stations,
        bus_stops=stops,
        agents=agents,
        env_features=np.asarray(scenario.environment, dtype=float),
    )


def step_bike_world(world: WorldState, realized_trips: list[tuple[str, str, int]]):
    """Apply one segment of bike demand and advance the clock.

    Trips are served in list order. Departures take effect immediately;
    arrivals land at segment end but reserve destination docks greedily in
    trip order. Demand that cannot be served (empty origin or full
    destination) converts to lost demand, never to failure.

    Returns (world, served, lost).
    """
    avail = {s.id: s.available for s in world.bike_stations}
    docks = {s.id: s.docks for s in world.bike_stations}
    incoming = {s.id: 0 for s in world.bike_stations}
    served = 0
    lost = 0
    for origin, dest, count in realized_trips:
        if origin not in avail or dest not in avail:
            raise ScenarioError(f"trip references unknown station {origin!r}->{dest!r}")
        if count < 0:
            raise ScenarioError("trip count must be >= 0")
        free = docks[dest] - avail[dest] - incoming[dest]
        take = min(count, avail[origin], max(free, 0))
        avail[origin] -= take
        incoming[dest] += take
        served += take
        lost += count - take
    for s in world.bike_stations:
        s.available = avail[s.id] + incoming[s.id]
    world.clock.advance()
    return world, served, lost


def step_bus_world(world: WorldState, bus_actions: list[int],
                   boarding_demand: list[tuple[str, str, int]]):
    """Advance the bus system one segment.

    Each moving bus advances one stop per segment in its direction (clipped
    at the ends of its own route, which records a halt). At the visited stop
    it alights matching passengers, then boards FIFO from the same-direction
    queue up to remaining capacity. Returns (world, reduced_wait,
    drive_time) in minutes.
    """
    buses = world.buses
    if len(bus_actions) != len(buses):
        raise ScenarioError("bus_actions length does not match bus count")
    for a in bus_actions:
        if a not in (OP_FORWARD, OP_HALT, OP_BACKWARD):
            raise ScenarioError(f"invalid bus action {a!r}")
    now = world.clock.current
    # new arrivals join their queues first
    for origin, dest, count in boarding_demand:
        oi = world.stop_index(origin)
        di = world.stop_index(dest)
        if oi == di:
            raise ScenarioError(f"bus arrival OD {origin!r} starts where it ends")
        stop = world.bus_stops[oi]
        forward = world.bus_stops[di].route_position > stop.route_position
        queue = stop.queue_fwd if forward else stop.queue_bwd
        queue.extend([Passenger(dest, now)] * count)
    for stop in world.bus_stops:
        stop.last_bus_fwd += 1
        stop.last_bus_bwd += 1
    reduced_wait = 0.0
    drive_time = 0.0
    minutes = world.clock.segment_minutes
    for bus, action in zip(buses, bus_actions):
        if action == OP_HALT:
            bus.operation = OP_HALT
            continue
        target = bus.location + (1 if action == OP_FORWARD else -1)
        if not world.same_route(bus.location, target):
            bus.operation = OP_HALT  # clipped at a route end: a halt
            continue
        bus.location = target
        bus.operation = action
        drive_time += minutes
        stop = world.bus_stops[target]
        staying = [p for p in bus.onboard if p.destination != stop.id]
        alighted = len(bus.onboard) - len(staying)
        bus.onboard = staying
        bus.occupied -= alighted
        queue = stop.queue_fwd if action == OP_FORWARD else stop.queue_bwd
        for _ in range(min(len(queue), bus.remaining)):
            pax = queue.popleft()
            bus.onboard.append(pax)
            bus.occupied += 1
            reduced_wait += (now - pax.arrival_segment) * minutes
        if action == OP_FORWARD:
            stop.last_bus_fwd = 0
        else:
            stop.last_bus_bwd = 0
    world.clock.advance()
    return world, reduced_wait, drive_time


def apply_reposition(world: WorldState, vehicle_id: int, target_station: int,
                     quantity: int) -> WorldState:
    """Move a dispatch vehicle and load (quantity > 0) or unload (< 0) bikes.

    Requests clip to what the station and the vehicle allow; the realized
    amount is recorded as the vehicle's operation.
    """
    vehicles = world.vehicles
    if not (0 <= vehicle_id < len(vehicles)):
        raise ScenarioError(f"unknown vehicle {vehicle_id}")
    if not (0 <= target_station < len(world.bike_stations)):
        raise ScenarioError(f"unknown station index {target_station}")
    vehicle = vehicles[vehicle_id]
    station = world.bike_stations[target_station]
    vehicle.location = target_station
    if quantity > 0:
        moved = min(quantity, station.available, vehicle.remaining)
        station.available -= moved
        vehicle.occupied += moved
        vehicle.operation = moved
    elif quantity < 0:
        moved = min(-quantity, vehicle.occupied, station.free_docks)
        station.available += moved
        vehicle.occupied -= moved
        vehicle.operation = -moved
    else:
        vehicle.operation = 0
    return world
