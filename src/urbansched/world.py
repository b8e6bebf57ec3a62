"""Simulated world: stations, routes, agents, passengers and the segment clock.

All transitions are deterministic; infeasible requests clip to feasibility
instead of raising, since RL exploration emits infeasible actions constantly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Bus operation codes: +1 drives toward the terminal stop s_n, -1 drives back
# toward the origin stop s_1, 0 halts.
OP_FORWARD = 1
OP_HALT = 0
OP_BACKWARD = -1


class InputError(ValueError):
    """Bad input (a scenario, config, checkpoint or flag), raised where it
    enters the program; the CLI exits 1 on it, 2 on any other exception."""


class ScenarioError(InputError):
    """Raised when a scenario document fails validation."""


@dataclass
class SegmentClock:
    episode_start: int
    episode_length: int
    current: int
    segment_minutes: float

    @property
    def elapsed(self) -> int:
        """Segments of the episode played so far."""
        return self.current - self.episode_start

    @property
    def at_end(self) -> bool:
        return self.elapsed >= self.episode_length

    def advance(self):
        self.current += 1


@dataclass
class BusStop:
    """A stop, numbered by its index in the world's `bus_stops`. A waiting
    passenger is a (destination stop index, arrival position) pair; their
    origin is the queue they wait in."""

    route: int  # index of the route the stop belongs to
    # FIFO queues in arrival order: the head is the longest-waiting passenger
    queue_fwd: deque[tuple[int, int]]
    queue_bwd: deque[tuple[int, int]]
    last_bus_fwd: int = 0
    last_bus_bwd: int = 0


@dataclass
class AgentState:
    location: int  # stop index (bus) or station index (vehicle)
    occupied: int
    operation: int
    capacity: int
    # riding passengers as (destination stop index, arrival position)
    onboard: list[tuple[int, int]] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.capacity - self.occupied


@dataclass
class WorldState:
    """One episode's mutable state. Stations, stops, agent locations and
    bus passengers' destinations are integer indices in scenario order,
    and bike trips name stations by index; bus arrivals keep stop ids.

    `dock_vector` is the scenario's read-only float64 copy of `docks`,
    shared by every world of the scenario, from which the bike
    observation subtracts the docked bikes.

    `queues` lists the same deques as the stops' `queue_fwd` and
    `queue_bwd`: with n stops, stop i's forward queue sits at slot i and
    its backward queue at n + i. `slots` is the scenario's `queue_slots`.
    A stop's queues are mutated, never replaced.
    """

    clock: SegmentClock
    # per-station lists in scenario order: bikes docked, dock count
    available: list[int]
    docks: list[int]
    dock_vector: np.ndarray
    bus_stops: list[BusStop]
    vehicles: list[AgentState]
    buses: list[AgentState]
    env_features: np.ndarray
    queues: list[deque[tuple[int, int]]]
    slots: dict[tuple[str, str], tuple[int, int]]

    def __post_init__(self):
        self.boardings = 0  # passengers boarded since the world was built

    def same_route(self, a: int, b: int) -> bool:
        """Whether stop indices a and b both exist and lie on one route."""
        n = len(self.bus_stops)
        return (0 <= a < n and 0 <= b < n
                and self.bus_stops[a].route == self.bus_stops[b].route)

    def total_bikes(self) -> int:
        return sum(self.available) + sum(v.occupied for v in self.vehicles)


# The largest station or bus rate a scenario may declare: a Poisson draw
# splits its rate into leaves of at most rng.POISSON_SPLIT (50), one
# uniform each, so a draw takes at most 256 leaves.
MAX_RATE = 10 ** 4

# The longest episode a scenario may declare, in segments: an env keeps
# expected demand in blocks of episode_length + 3 rows of two float64
# columns per station or stop, which the cap holds to 16 MB per station
# or stop. The world fuzz of acceptance 8 runs clocks this long.
MAX_EPISODE_LENGTH = 10 ** 6

# The largest dock count, vehicle capacity or bus capacity: observations
# carry docked bikes, free docks, loads and free seats as float64, which
# holds every integer up to 2**53 exactly, so the bike observation's free
# docks, one float64 subtraction, equal the integer counts.
MAX_CAPACITY = 2 ** 53

# The most buses a route may run: the world steps each bus every segment,
# and a bus observation holds a block of (stops + 3) floats per bus, so
# the cap keeps one observation of a 100-stop route under 9 MB.
MAX_BUS_COUNT = 10 ** 4

# The largest joint k: the widest row of the cross-system observation O,
# a bus stop's (its last bus each way and its two queue lengths), has 4
# columns, and a larger k only pads every row with zeros.
MAX_JOINT_K = 4

# The largest station coordinate magnitude: the k-means step of `forecast`
# squares coordinate differences (up to 2 * 10**150 apart) and sums them,
# and averages coordinates, and each of these stays finite in float64
# (about 1.8e308) under this cap, where 1e308 overflowed.
MAX_COORDINATE = 10 ** 150


@dataclass
class ScenarioSpec:
    """A scenario document, validated once, when it is made. Apart from
    the demand profile, whose format `DemandProfile.from_dict` owns, this
    class alone reads the document and its defaults: validation resolves,
    once, each fact the envs and worlds read.

    - The clock: `episode_length`, `episode_start`, `segment_minutes`.
    - Per station, in scenario order: `initial_bikes`, `docks`, `coords`.
    - `station_indices` and `stop_indices` map ids to their order in the
      scenario; stops are numbered across routes, in route order, and
      `stop_routes` lists each stop's route index.
    - `bus_fleet` lists each bus as (start stop, capacity), and
      `vehicle_fleet` each dispatch vehicle as (station, load, capacity).
    - The joint settings: `joint_enabled`, `joint_k`, `bus_outage`.
    - `queue_slots` maps each bus OD the scenario declares, in `bus_rates`
      or `bus_script`, to (slot, destination index): the slot of the queue
      its arrivals join and the stop they get off at. With n stops the
      slot is o, the origin's forward queue, when the destination lies
      ahead on the route, else n + o, its backward queue. The world and
      the bus forecast both read it, so they share one direction rule.
    - `scripted_trips` and `outage_trips` are the bike trip lists as
      (segment, (origin index, destination index, count)) pairs, and
      `scripted_arrivals` the bus script as (segment, arrival) pairs.

    The document is never written; `dataclasses.replace` validates a
    changed copy.
    """

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
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be an object")
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
        for where in ("stations", "routes", "vehicles"):
            _check_objects(where, getattr(self, where))
        for r in self.routes:
            stops = r.get("stops", [])
            if not (isinstance(stops, list)
                    and all(isinstance(sid, str) for sid in stops)):
                raise ScenarioError("route stops must be a list of strings")
        if len(self.stations) + sum(len(r.get("stops", [])) for r in self.routes) < 2:
            raise ScenarioError("scenario needs at least 2 stations or stops")
        self.station_indices: dict[str, int] = {}
        self.initial_bikes: list[int] = []
        for st in self.stations:
            for key in ("id", "x", "y", "docks"):
                if key not in st:
                    raise ScenarioError(f"station missing field {key!r}")
            if not isinstance(st["id"], str):
                raise ScenarioError(f"station id {st['id']!r} must be a "
                                    f"string")
            if st["id"] in self.station_indices:
                raise ScenarioError(f"duplicate station id {st['id']!r}")
            self.station_indices[st["id"]] = len(self.station_indices)
            if not all(_is_number(v) and abs(v) <= MAX_COORDINATE
                       for v in (st["x"], st["y"])):
                raise ScenarioError(f"station {st['id']}: coordinates must "
                                    f"be finite numbers of magnitude at "
                                    f"most {MAX_COORDINATE:.0e}")
            _check_count(f"station {st['id']}: docks", st["docks"], 0,
                         MAX_CAPACITY)
            bikes = st.get("initial_bikes", 0)
            _check_count(f"station {st['id']}: initial_bikes", bikes, 0,
                         st["docks"])
            self.initial_bikes.append(bikes)
        self.docks = [st["docks"] for st in self.stations]
        self.dock_vector = np.array(self.docks, dtype=float)
        self.dock_vector.flags.writeable = False
        self.coords = [(st["x"], st["y"]) for st in self.stations]
        self.stop_indices: dict[str, int] = {}
        self.stop_routes: list[int] = []
        self.bus_fleet: list[tuple[int, int]] = []
        for i, r in enumerate(self.routes):
            if len(r.get("stops", [])) < 2:
                raise ScenarioError("route needs at least 2 stops")
            if len(set(r["stops"])) != len(r["stops"]):
                raise ScenarioError("duplicate stop id on route")
            first = len(self.stop_indices)
            for sid in r["stops"]:
                if sid in self.stop_indices:
                    raise ScenarioError(f"stop id {sid!r} on two routes")
                self.stop_indices[sid] = len(self.stop_indices)
                self.stop_routes.append(i)
            capacity, count = r.get("capacity", 30), r.get("bus_count", 1)
            _check_count("route bus capacity", capacity, 1, MAX_CAPACITY)
            _check_count("route bus_count", count, 0, MAX_BUS_COUNT)
            self.bus_fleet += [(first, capacity)] * count
        self.vehicle_fleet: list[tuple[int, int, int]] = []
        for v in self.vehicles:
            capacity, load = v.get("capacity"), v.get("initial_load", 0)
            _check_count("vehicle capacity", capacity, 1, MAX_CAPACITY)
            _check_count("vehicle initial_load", load, 0, capacity)
            start = v.get("start")
            if start is None and not self.stations:
                raise ScenarioError("a vehicle without a start starts at "
                                    "station 0, and there is no station")
            if start is not None and not (isinstance(start, str)
                                          and start in self.station_indices):
                raise ScenarioError(f"vehicle start station {start!r} unknown")
            self.vehicle_fleet.append(
                (self.station_indices.get(start, 0), load, capacity))
        ck = self.clock
        if not isinstance(ck, dict):
            raise ScenarioError("clock must be an object")
        minutes = self.segment_minutes = ck.get("segment_minutes", 15)
        if not (_is_number(minutes) and minutes > 0):
            raise ScenarioError(f"clock segment_minutes {minutes!r} must be "
                                f"a finite number > 0")
        self.episode_length = ck.get("episode_length", 1)
        _check_count("clock episode_length", self.episode_length, 1,
                     MAX_EPISODE_LENGTH)
        self.episode_start = ck.get("episode_start", 0)
        if not _is_int(self.episode_start):
            raise ScenarioError(f"clock episode_start {self.episode_start!r} "
                                f"must be an integer")
        if not (isinstance(self.environment, list)
                and all(map(_is_number, self.environment))):
            raise ScenarioError("environment must be a list of finite "
                                "numbers")
        self.queue_slots: dict[tuple[str, str], tuple[int, int]] = {}
        self.scripted_trips: list[tuple[int, tuple[int, int, int]]] = []
        self.scripted_arrivals: list[tuple[int, tuple[str, str, int]]] = []
        profile = self.demand_profile
        if profile is not None:
            self._validate_profile(profile)
        if self.demand_script is not None:
            self.scripted_trips = self._bike_trips("demand_script",
                                                   self.demand_script)
        if self.bus_script is not None:
            self._validate_trips("bus_script", self.bus_script,
                                 self.stop_indices, "stop")
            for e in self.bus_script:
                self._declare_bus_od(e, "bus_script")
                self.scripted_arrivals.append(
                    (e["segment"], (e["origin"], e["destination"],
                                    e["count"])))
        self._validate_joint({} if self.joint is None else self.joint)

    def _validate_trips(self, where: str, trips: list[dict],
                        places: dict[str, int], kind: str):
        """A trip list: objects with a known origin, a known destination
        that differs from it (a trip that starts where it ends moves no
        bike or passenger), an integer segment in 1..T and an integer
        count >= 0."""
        _check_objects(where, trips)
        for entry in trips:
            for key in ("origin", "destination"):
                place = entry.get(key)
                if not (isinstance(place, str) and place in places):
                    raise ScenarioError(f"{where} {key} {place!r} is not a "
                                        f"{kind}")
            if entry["origin"] == entry["destination"]:
                raise ScenarioError(f"{where} OD {entry['origin']!r} starts "
                                    f"where it ends")
            _check_count(f"{where} segment", entry.get("segment"), 1,
                         self.episode_length)
            _check_count(f"{where} count", entry.get("count"), 0)

    def _bike_trips(self, where: str, trips: list[dict]
                    ) -> list[tuple[int, tuple[int, int, int]]]:
        """A validated bike trip list as (segment, (origin index,
        destination index, count)) pairs, in list order."""
        index = self.station_indices
        self._validate_trips(where, trips, index, "station")
        return [(e["segment"], (index[e["origin"]], index[e["destination"]],
                                e["count"])) for e in trips]

    def _declare_bus_od(self, entry: dict, where: str):
        """Check a bus OD and record its queue slot and destination index.
        The OD must join two distinct stops of one route: no bus can carry
        a passenger between routes."""
        origin, dest = entry.get("origin"), entry.get("destination")
        for sid in (origin, dest):
            if not (isinstance(sid, str) and sid in self.stop_indices):
                raise ScenarioError(f"{where} references unknown stop "
                                    f"{sid!r}")
        if origin == dest:
            raise ScenarioError(f"{where} OD {origin!r} starts where it ends")
        o, d = self.stop_indices[origin], self.stop_indices[dest]
        if self.stop_routes[o] != self.stop_routes[d]:
            raise ScenarioError(f"{where} OD {origin!r}->{dest!r} joins "
                                f"stops on different routes")
        # a route's stops are numbered in its order, so the destination
        # lies ahead on it when its index is the larger
        self.queue_slots[origin, dest] = (
            o if d > o else len(self.stop_routes) + o, d)

    def _validate_profile(self, profile: dict):
        if not isinstance(profile, dict):
            raise ScenarioError("demand_profile must be an object")
        ids = self.station_ids()
        if not ids:
            raise ScenarioError("demand_profile needs at least one station")
        rates = profile.get("rates", {})
        if not isinstance(rates, dict):
            raise ScenarioError("demand_profile rates must be an object")
        lengths = set()
        for sid in ids:
            if sid not in rates:
                raise ScenarioError(f"demand_profile has no rates for "
                                    f"station {sid!r}")
            row = rates[sid]
            if not (isinstance(row, list)
                    and all(_is_rate(r) and r <= MAX_RATE for r in row)):
                raise ScenarioError(f"demand_profile rates of station {sid!r} "
                                    f"must be a list of finite numbers in "
                                    f"0..{MAX_RATE}")
            lengths.add(len(row))
        if len(lengths) > 1 or 0 in lengths:
            raise ScenarioError("demand_profile rate rows must be non-empty "
                                "and of equal length")
        od = profile.get("od_weights", [])
        if not (isinstance(od, list) and len(od) == len(ids)
                and all(isinstance(row, list) and len(row) == len(ids)
                        for row in od)):
            raise ScenarioError("demand_profile od_weights must be n x n")
        if not all(_is_rate(w) for row in od for w in row):
            raise ScenarioError("demand_profile od_weights entries must be "
                                "finite numbers >= 0")
        if any(od[i][i] for i in range(len(ids))):
            raise ScenarioError("demand_profile od_weights diagonal must be "
                                "zero")
        bus_rates = profile.get("bus_rates", [])
        _check_objects("bus_rates", bus_rates)
        seen_ods: set[tuple[str, str]] = set()
        for entry in bus_rates:
            self._declare_bus_od(entry, "bus_rates")
            od_key = (entry["origin"], entry["destination"])
            if od_key in seen_ods:
                raise ScenarioError(f"bus_rates lists OD {od_key[0]!r}->"
                                    f"{od_key[1]!r} twice")
            seen_ods.add(od_key)
            rate = entry.get("rate")
            if not (_is_rate(rate) and rate <= MAX_RATE):
                raise ScenarioError(f"bus_rates rate {rate!r} must be a "
                                    f"finite number in 0..{MAX_RATE}")

    def _validate_joint(self, joint: dict):
        if not isinstance(joint, dict):
            raise ScenarioError("joint must be an object")
        enabled = self.joint_enabled = joint.get("enabled", False)
        if not isinstance(enabled, bool):
            raise ScenarioError("joint enabled must be true or false")
        self.joint_k = joint.get("k", 2)
        _check_count("joint k", self.joint_k, 1, MAX_JOINT_K)
        outage = self.bus_outage = joint.get("bus_outage", False)
        if not (isinstance(outage, bool) or outage == "random"):
            raise ScenarioError(f"joint bus_outage {outage!r} must be true, "
                                f"false or \"random\"")
        self.outage_trips = self._bike_trips("outage_trips",
                                             joint.get("outage_trips", []))

    def station_ids(self) -> list[str]:
        return [s["id"] for s in self.stations]


def _is_number(x) -> bool:
    """A finite int or float; NaN, booleans and an int past a float's
    range fail."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large to convert to a float
        return False


def _is_rate(x) -> bool:
    """A demand rate or weight: a finite number >= 0."""
    return _is_number(x) and x >= 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_count(what: str, x, low: int, high: int | None = None):
    """Raise unless x is an integer in low..high (high None: unbounded)."""
    if not _is_int(x) or x < low or (high is not None and x > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ScenarioError(f"{what} {x!r} must be an integer {bound}")


def _check_objects(where: str, items):
    """Raise unless items is a list of objects."""
    if not (isinstance(items, list)
            and all(isinstance(e, dict) for e in items)):
        raise ScenarioError(f"{where} must be a list of objects")


def build_world(scenario: ScenarioSpec) -> WorldState:
    """Materialize a validated scenario at episode start from the facts
    it resolved; the world reads the scenario's `queue_slots`."""
    start = scenario.episode_start
    stops = [BusStop(r, deque(), deque()) for r in scenario.stop_routes]
    return WorldState(
        clock=SegmentClock(start, scenario.episode_length, start,
                           scenario.segment_minutes),
        available=list(scenario.initial_bikes),
        docks=list(scenario.docks),
        dock_vector=scenario.dock_vector,
        bus_stops=stops,
        vehicles=[AgentState(at, load, 0, capacity)
                  for at, load, capacity in scenario.vehicle_fleet],
        buses=[AgentState(at, 0, OP_HALT, capacity)
               for at, capacity in scenario.bus_fleet],
        env_features=np.asarray(scenario.environment, dtype=float),
        queues=([s.queue_fwd for s in stops]
                + [s.queue_bwd for s in stops]),
        slots=scenario.queue_slots,
    )


def step_bike_world(world: WorldState,
                    realized_trips: list[tuple[int, int, int]]):
    """Apply one segment of bike demand and advance the clock.

    Each trip is (origin index, destination index, count), as the
    sampler and the scenario's trip lists give it; the validator has
    checked every station and count at load. Trips are served in list
    order. Departures take effect immediately; arrivals land at segment
    end but reserve destination docks greedily in trip order. Demand that
    cannot be served (empty origin or full destination) converts to lost
    demand, never to failure.

    Returns (world, served, lost).
    """
    avail = world.available
    docks = world.docks
    # docks reserved by this segment's arrivals, per destination they
    # touch; a station's free docks are docks - available - reserved
    reserved: dict[int, int] = {}
    served = 0
    lost = 0
    for o, d, count in realized_trips:
        held = reserved.get(d, 0)
        take = min(count, avail[o], docks[d] - avail[d] - held)
        avail[o] -= take
        reserved[d] = held + take
        served += take
        lost += count - take
    for d, held in reserved.items():
        avail[d] += held
    world.clock.advance()
    return world, served, lost


def step_bus_world(world: WorldState, bus_actions: list[int],
                   boarding_demand: list[tuple[str, str, int]]):
    """Advance the bus system one segment.

    Arrivals are (origin id, destination id, count) triples; they first
    join their queues, in list order, each arrival as a (destination stop
    index, clock position) pair. The scenario's `queue_slots` gives each
    OD's slot and destination index; the validator declares every OD that
    arrives. `bus_actions` holds one operation code per bus.

    Each moving bus advances one stop per segment in its direction (clipped
    at the ends of its own route, which records a halt). At the visited stop
    it alights the passengers whose destination it is, then boards FIFO
    from the same-direction queue up to remaining capacity, adding them to
    `world.boardings`.
    Returns (world, reduced_wait, drive_time) in minutes.
    """
    now = world.clock.current
    queues = world.queues
    slots = world.slots
    for origin, dest, count in boarding_demand:
        slot, d = slots[origin, dest]
        queues[slot].extend([(d, now)] * count)
    for stop in world.bus_stops:
        stop.last_bus_fwd += 1
        stop.last_bus_bwd += 1
    reduced_wait = 0.0
    drive_time = 0.0
    minutes = world.clock.segment_minutes
    for bus, action in zip(world.buses, bus_actions):
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
        staying = [p for p in bus.onboard if p[0] != target]
        alighted = len(bus.onboard) - len(staying)
        bus.onboard = staying
        bus.occupied -= alighted
        queue = stop.queue_fwd if action == OP_FORWARD else stop.queue_bwd
        boarding = min(len(queue), bus.remaining)
        world.boardings += boarding
        for _ in range(boarding):
            pax = queue.popleft()
            bus.onboard.append(pax)
            bus.occupied += 1
            reduced_wait += (now - pax[1]) * minutes
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
    avail = world.available
    if not (0 <= target_station < len(avail)):
        raise ScenarioError(f"unknown station index {target_station}")
    vehicle = vehicles[vehicle_id]
    vehicle.location = target_station
    if quantity > 0:
        moved = min(quantity, avail[target_station], vehicle.remaining)
        avail[target_station] -= moved
        vehicle.occupied += moved
        vehicle.operation = moved
    elif quantity < 0:
        moved = min(-quantity, vehicle.occupied,
                    world.docks[target_station] - avail[target_station])
        avail[target_station] += moved
        vehicle.occupied -= moved
        vehicle.operation = -moved
    else:
        vehicle.operation = 0
    return world
