import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st, target
from scenario_docs import scenario_docs, transcribe

from urbansched.envs import BikeEnv, BusEnv, RewardConfig
from urbansched.harness import _dispatchable_bikes
from urbansched.world import (
    OP_BACKWARD, OP_FORWARD, OP_HALT, InputError, ScenarioError,
    ScenarioSpec, apply_reposition, build_world, step_bike_world,
    step_bus_world,
)


A, B, C = range(3)  # the station indices of make_scenario's A, B and C


def every_od(routes):
    """A zero-count bus_script entry for each OD of each route: a world
    joins only the bus ODs its scenario declares."""
    return [{"segment": 1, "origin": o, "destination": d, "count": 0}
            for r in routes for o in r["stops"] for d in r["stops"]
            if o != d]


def make_scenario(initial_bikes=(0, 0, 0), docks=(20, 20, 20),
                  vehicle_load=0, episode_length=4, routes=None):
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": episode_length},
        "stations": [
            {"id": sid, "x": float(i), "y": 0.0, "docks": docks[i],
             "initial_bikes": initial_bikes[i]}
            for i, sid in enumerate(["A", "B", "C"])
        ],
        "routes": routes or [],
        "vehicles": [{"capacity": 10, "start": "A",
                      "initial_load": vehicle_load}],
        "environment": [0.0],
    })


def bus_scenario(n_stops=4, capacity=30, episode_length=8):
    routes = [{"stops": [f"S{i}" for i in range(1, n_stops + 1)],
               "bus_count": 1, "capacity": capacity}]
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": episode_length},
        "stations": [],
        "routes": routes,
        "vehicles": [],
        "environment": [0.0],
        "bus_script": every_od(routes),
    })


class TestBuildWorld:
    def test_three_empty_stations(self):
        world = build_world(make_scenario(vehicle_load=10))
        assert world.available == [0, 0, 0]
        assert world.vehicles[0].occupied == 10
        assert world.clock.current == world.clock.episode_start

    def test_queue_slots_are_the_stops_queues(self):
        world = build_world(ScenarioSpec.from_dict({
            "clock": {"episode_length": 2}, "stations": [], "vehicles": [],
            "routes": [{"stops": ["A", "B", "C"]}, {"stops": ["D", "E"]}],
            "environment": []}))
        n = len(world.bus_stops)
        assert len(world.queues) == 2 * n
        for i, stop in enumerate(world.bus_stops):
            assert world.queues[i] is stop.queue_fwd
            assert world.queues[n + i] is stop.queue_bwd
        assert len({id(q) for q in world.queues}) == len(world.queues)

    def test_zero_dock_station_stays_empty(self):
        scenario = make_scenario(docks=(0, 20, 20))
        world = build_world(scenario)
        assert world.available[0] == 0
        step_bike_world(world, [(B, A, 3)])
        assert world.available[0] == 0

    def test_duplicate_station_ids_rejected(self):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [
                {"id": "A", "x": 0, "y": 0, "docks": 5},
                {"id": "A", "x": 1, "y": 0, "docks": 5},
            ],
            "routes": [], "vehicles": [], "environment": [],
        }
        with pytest.raises(ScenarioError, match="duplicate"):
            ScenarioSpec.from_dict(doc)

    def test_nonfinite_coordinate_rejected(self):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [
                {"id": "A", "x": float("nan"), "y": 0, "docks": 5},
                {"id": "B", "x": 1, "y": 0, "docks": 5},
            ],
            "routes": [], "vehicles": [], "environment": [],
        }
        with pytest.raises(ScenarioError, match="coordinates"):
            ScenarioSpec.from_dict(doc)

    def test_stop_id_on_two_routes_rejected(self):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [],
            "routes": [{"stops": ["A", "B"]}, {"stops": ["B", "C"]}],
            "vehicles": [], "environment": [],
        }
        with pytest.raises(ScenarioError, match="two routes"):
            ScenarioSpec.from_dict(doc)

    def test_unknown_vehicle_start_rejected_at_load(self):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [], "vehicles": [{"capacity": 5, "start": "Z"}],
            "environment": [],
        }
        with pytest.raises(ScenarioError, match="'Z'"):
            ScenarioSpec.from_dict(doc)

    def test_vehicle_without_station_rejected_at_load(self):
        # a vehicle without a start starts at station 0
        doc = {"stations": [], "routes": [{"stops": ["S1", "S2"]}],
               "vehicles": [{"capacity": 5}]}
        with pytest.raises(ScenarioError, match="no station"):
            ScenarioSpec.from_dict(doc)

    def test_od_weights_diagonal_rejected_at_load(self):
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 1},
            "stations": [{"id": "A", "x": 0, "y": 0, "docks": 5},
                         {"id": "B", "x": 1, "y": 0, "docks": 5}],
            "routes": [], "vehicles": [], "environment": [],
            "demand_profile": {"rates": {"A": [1.0], "B": [1.0]},
                               "od_weights": [[0.0, 1.0], [1.0, 0.5]]},
        }
        with pytest.raises(ScenarioError, match="diagonal"):
            ScenarioSpec.from_dict(doc)


class TestResolvedScenario:
    @settings(max_examples=200, deadline=None)
    @given(scenario_docs())
    def test_matches_a_transcription_of_the_document(self, doc):
        """What the scenario resolves, as a world, its clock, an env's
        joint settings and the dispatchable bikes, equals the document
        read directly at README.md's defaults; nothing writes the
        document, and two worlds share no station list."""
        original = copy.deepcopy(doc)
        spec = ScenarioSpec.from_dict(doc)
        want = transcribe(doc)
        world = build_world(spec)
        clock = world.clock
        start, length, minutes = want["clock"]
        assert (clock.episode_start, clock.episode_length, clock.current,
                clock.segment_minutes) == (start, length, start, minutes)
        assert world.available == want["available"]
        assert world.docks == want["docks"]
        assert [s.route for s in world.bus_stops] == want["stop_routes"]
        assert len(world.queues) == 2 * len(world.bus_stops)
        assert not any(world.queues)
        assert [(b.location, b.occupied, b.operation, b.capacity, b.onboard)
                for b in world.buses] == [(at, 0, OP_HALT, capacity, [])
                                          for at, capacity in want["buses"]]
        assert [(v.location, v.occupied, v.operation, v.capacity)
                for v in world.vehicles] == [(at, load, 0, capacity)
                                             for at, load, capacity
                                             in want["vehicles"]]
        assert world.env_features.tolist() == want["environment"]
        assert world.env_features is spec.env_features
        assert not (spec.env_features.flags.writeable
                    or spec.coords.flags.writeable)
        assert _dispatchable_bikes(spec) == (
            sum(want["available"])
            + sum(load for _, load, _ in want["vehicles"]))
        env = BikeEnv(scenario=spec)
        enabled, k, outage = want["joint"]
        assert (env.joint_enabled, spec.joint_k) == (enabled, k)
        assert [tuple(c) for c in spec.coords.tolist()] == want["coords"]
        env.reset()
        assert env.outage == outage or outage == "random"
        env.step((0, 1))
        if want["buses"]:
            BusEnv(scenario=spec).reset()
        else:
            with pytest.raises(InputError, match="runs a bus"):
                BusEnv(scenario=spec)
        world.available[:] = [a + 1 for a in world.available]
        assert build_world(spec).available == want["available"]
        assert doc == original


def brute_force_segment(avail, docks, trips):
    """Unit-granularity re-simulation of one segment's settlement rule."""
    avail = dict(avail)
    reserved = {k: 0 for k in avail}
    served = lost = 0
    for origin, dest, count in trips:
        for _ in range(count):
            free = docks[dest] - avail[dest] - reserved[dest]
            if avail[origin] > 0 and free > 0:
                avail[origin] -= 1
                reserved[dest] += 1
                served += 1
            else:
                lost += 1
    for k in avail:
        avail[k] += reserved[k]
    return avail, served, lost


class TestStepBikeWorld:
    def test_fig1a_first_trip(self):
        world = build_world(make_scenario(initial_bikes=(10, 0, 0)))
        _, served, lost = step_bike_world(world, [(A, B, 10)])
        assert (served, lost) == (10, 0)
        assert world.available[0] == 0
        assert world.available[1] == 10

    def test_empty_station_loses_demand(self):
        world = build_world(make_scenario())
        _, served, lost = step_bike_world(world, [(A, B, 15)])
        assert (served, lost) == (0, 15)

    def test_segment_end_settlement(self):
        # inflow to B lands at segment end, so B->C in the same segment fails
        world = build_world(make_scenario(initial_bikes=(10, 0, 0)))
        trips = [(A, B, 10), (B, C, 15)]
        _, served, lost = step_bike_world(world, trips)
        assert (served, lost) == (10, 15)
        avail, bf_served, bf_lost = brute_force_segment(
            {A: 10, B: 0, C: 0}, {A: 20, B: 20, C: 20}, trips)
        assert served == bf_served and lost == bf_lost
        assert dict(enumerate(world.available)) == avail

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 8)), max_size=6),
           st.lists(st.integers(0, 10), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_settlement_matches_brute_force(self, raw_trips, initial):
        trips = [(o, d, c) for o, d, c in raw_trips if o != d]
        world = build_world(make_scenario(initial_bikes=tuple(initial),
                                          docks=(10, 10, 10)))
        before = world.total_bikes()
        _, served, lost = step_bike_world(world, trips)
        avail, bf_served, bf_lost = brute_force_segment(
            dict(enumerate(initial)), {A: 10, B: 10, C: 10}, trips)
        assert served == bf_served and lost == bf_lost
        assert dict(enumerate(world.available)) == avail
        assert world.total_bikes() == before


class ReferenceBikeWorld:
    """A plain transcription of the bike world: the segment step as
    step_bike_world wrote it when it rebuilt a room list over every
    station and then every station's available count, and the rules
    apply_reposition's docstring states. Stations are two lists and a
    vehicle a [location, occupied, operation, capacity] list, read from
    the scenario document through `transcribe`."""

    def __init__(self, doc):
        facts = transcribe(doc)
        self.available = list(facts["available"])
        self.docks = list(facts["docks"])
        self.vehicles = [[at, load, 0, capacity]
                         for at, load, capacity in facts["vehicles"]]
        self.now = facts["clock"][0]

    def reposition(self, vehicle, station, quantity):
        """Move the vehicle, then load or unload, clipped to the bikes
        docked, the free seats, the bikes carried and the free docks; the
        realized signed amount is its operation."""
        v = self.vehicles[vehicle]
        v[0] = station
        if quantity > 0:
            moved = min(quantity, self.available[station], v[3] - v[1])
            self.available[station] -= moved
            v[1] += moved
            v[2] = moved
        elif quantity < 0:
            moved = min(-quantity, v[1],
                        self.docks[station] - self.available[station])
            self.available[station] += moved
            v[1] -= moved
            v[2] = -moved
        else:
            v[2] = 0

    def step(self, trips):
        avail, docks = self.available, self.docks
        room = [d - a for d, a in zip(docks, avail)]
        served = lost = 0
        for o, d, count in trips:
            take = min(count, avail[o], max(room[d], 0))
            avail[o] -= take
            room[o] += take
            room[d] -= take
            served += take
            lost += count - take
        avail[:] = [d - r for d, r in zip(docks, room)]
        self.now += 1
        return served, lost

    def state(self):
        return {"available": self.available,
                "vehicles": [tuple(v) for v in self.vehicles],
                "now": self.now}


def bike_state(world):
    """The bike half of a world as plain values, as the reference keeps
    it."""
    return {"available": world.available,
            "vehicles": [(v.location, v.occupied, v.operation, v.capacity)
                         for v in world.vehicles],
            "now": world.clock.current}


@st.composite
def bike_segments(draw, docks: list[int], vehicles: int):
    """Up to 6 segments for a world of the given docks and vehicle count:
    each a list of (vehicle, station, quantity) repositions, then a list
    of (origin, destination, count) trips with repeated destinations."""
    n = len(docks)
    most = max(docks, default=0) + 2
    place = st.integers(0, max(n - 1, 0))
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        moves = draw(st.lists(st.tuples(
            st.integers(0, vehicles - 1), place, st.integers(-most, most)),
            max_size=2)) if vehicles else []
        trips = []
        if n >= 2:
            for _ in range(draw(st.integers(0, 8))):
                o, d = draw(st.permutations(range(n)))[:2]
                trips.append((o, d, draw(st.integers(0, most))))
        segments.append((moves, trips))
    return segments


class TestBikeReferenceWorld:
    @settings(max_examples=300, deadline=None)
    @given(scenario_docs(), st.data())
    def test_matches_reference_world(self, doc, data):
        """From a drawn scenario, with each station refilled to a drawn
        count within its docks, drawn repositions and trips give the
        same stations, vehicles, operations, clock, served and lost as
        the reference, after every reposition and every segment."""
        world = build_world(ScenarioSpec.from_dict(doc))
        ref = ReferenceBikeWorld(doc)
        refill = [data.draw(st.integers(0, d)) for d in world.docks]
        world.available[:] = ref.available[:] = refill
        segments = data.draw(bike_segments(world.docks, len(world.vehicles)))
        assert bike_state(world) == ref.state()
        for moves, trips in segments:
            for vehicle, station, quantity in moves:
                apply_reposition(world, vehicle, station, quantity)
                ref.reposition(vehicle, station, quantity)
                assert bike_state(world) == ref.state()
            got = step_bike_world(world, trips)[1:]
            assert got == ref.step(trips)
            assert bike_state(world) == ref.state()


class TestBikeReferenceEpisode:
    @settings(max_examples=200, deadline=None)
    @given(scenario_docs(), st.data())
    def test_matches_reference_episode(self, doc, data):
        """A BikeEnv episode under drawn actions gives the step rewards
        and the record of a reference episode played, on the demand the
        env realised, by `BikeEnv`'s docstring: vehicle 0 repositions
        before the segment's trips flow; a move adds the distance between
        the two stations; bikes it tries to unload (at most those it
        carries) that the station cannot dock are overflow; the reward is
        0 until the last step, which settles served - beta * distance -
        gamma_overflow * overflow."""
        beta, gamma = data.draw(st.tuples(*[st.floats(0.0, 2.0)] * 2))
        env = BikeEnv(scenario=ScenarioSpec.from_dict(doc),
                      reward=RewardConfig(beta=beta, gamma_overflow=gamma),
                      seed=data.draw(st.integers(0, 2 ** 20)))
        env.reset()
        ref = ReferenceBikeWorld(doc)
        coords = transcribe(doc)["coords"]
        places = max(len(ref.docks) - 1, 0)
        served = lost = overflow = 0
        distance = 0.0
        for t, trips in enumerate(env.trips):
            station = data.draw(st.integers(0, places))
            quantity = data.draw(st.integers(-12, 12))
            if ref.vehicles:
                at, carried = ref.vehicles[0][:2]
                ref.reposition(0, station, quantity)
                if station != at:
                    distance += math.dist(coords[at], coords[station])
                if quantity < 0:  # bikes tried, less the bikes docked
                    docked = carried - ref.vehicles[0][1]
                    overflow += min(-quantity, carried) - docked
            got = ref.step(trips)
            served, lost = served + got[0], lost + got[1]
            last = t == len(env.trips) - 1
            _, reward, done, info = env.step((station, quantity))
            assert done == last
            assert (info["served"], info["lost"]) == got
            # the two distances may round apart in the last place, and
            # the settlement's terms may nearly cancel
            terms = (served, beta * distance, gamma * overflow)
            assert reward == (pytest.approx(
                terms[0] - terms[1] - terms[2], rel=1e-12,
                abs=1e-12 * sum(terms)) if last else 0.0)
        record = env.record
        assert (record.served, record.lost, record.overflow) == (
            served, lost, overflow)
        assert record.distance == pytest.approx(distance, rel=1e-12)
        assert record.total_reward == reward


def full_scan_max_wait(world):
    """Reference for BusEnv._max_wait: the longest wait found by reading
    every queued passenger."""
    cur = world.clock.current
    waits = [cur - arrival
             for stop in world.bus_stops
             for _, arrival in stop.queue_fwd + stop.queue_bwd]
    return max(waits, default=0)


def stop_ids(spec):
    """The scenario's stop ids, in the order of the world's stop indices."""
    return [sid for route in spec.routes for sid in route["stops"]]


def per_triple_join(world, ids, arrivals):
    """Reference for the arrival join of step_bus_world: each triple's
    stops and their places on the route looked up on their own, and a
    passenger made per arrival, as the world did before it read the
    scenario's queue slots."""
    stops = world.bus_stops
    index = {sid: i for i, sid in enumerate(ids)}
    place = {sid: sum(t.route == s.route for t in stops[:i])
             for i, (sid, s) in enumerate(zip(ids, stops))}
    now = world.clock.current
    for origin, dest, count in arrivals:
        stop = stops[index[origin]]
        forward = place[dest] > place[origin]
        queue = stop.queue_fwd if forward else stop.queue_bwd
        queue.extend((index[dest], now) for _ in range(count))


def drawn_arrivals(lengths, draws):
    """Arrival triples from drawn (route, origin, hop, count) tuples on
    routes R0, R1, ... of the given lengths; a hop back to the origin
    draws nothing."""
    arrivals = []
    for r, origin, hop, count in draws:
        r %= len(lengths)
        origin %= lengths[r]
        dest = (origin + hop) % lengths[r]
        if origin != dest:
            arrivals.append((f"R{r}S{origin}", f"R{r}S{dest}", count))
    return arrivals


def passengers(world, ids):
    """Every queue and every bus's riders as (destination id, arrival)
    sequences, each destination index mapped back to its stop id."""
    def listed(seq):
        return [(ids[d], arrival) for d, arrival in seq]
    return ([(listed(s.queue_fwd), listed(s.queue_bwd))
             for s in world.bus_stops]
            + [listed(b.onboard) for b in world.buses])


class ReferenceBusWorld:
    """A plain transcription of the rules step_bus_world's docstring
    states. Each passenger is one [destination id, arrival] list; routes,
    stop ids and directions are read from the scenario document's route
    lists, at README.md's defaults, with no slots table and no shared
    objects. A bus is a (route, place on the route) pair."""

    def __init__(self, doc):
        routes = doc.get("routes", [])
        self.routes = [route["stops"] for route in routes]
        self.base = [sum(map(len, self.routes[:r]))
                     for r in range(len(self.routes))]
        self.now, _, self.minutes = transcribe(doc)["clock"]
        n = sum(map(len, self.routes))
        self.forward = [[] for _ in range(n)]
        self.backward = [[] for _ in range(n)]
        self.timers = [[0, 0] for _ in range(n)]
        self.buses = [{"route": r, "place": 0, "operation": OP_HALT,
                       "capacity": route.get("capacity", 30), "onboard": []}
                      for r, route in enumerate(routes)
                      for _ in range(route.get("bus_count", 1))]
        self.boardings = 0

    def step(self, actions, arrivals):
        for origin, dest, count in arrivals:
            (r,) = [r for r, stops in enumerate(self.routes)
                    if origin in stops]
            stops = self.routes[r]
            at = self.base[r] + stops.index(origin)
            ahead = stops.index(dest) > stops.index(origin)
            for _ in range(count):
                (self.forward if ahead else self.backward)[at].append(
                    [dest, self.now])
        for timer in self.timers:
            timer[0] += 1
            timer[1] += 1
        reduced_wait = drive_time = 0.0
        for bus, action in zip(self.buses, actions):
            stops = self.routes[bus["route"]]
            place = bus["place"] + action
            if action == OP_HALT or not 0 <= place < len(stops):
                bus["operation"] = OP_HALT
                continue
            bus["place"] = place
            bus["operation"] = action
            drive_time += self.minutes
            bus["onboard"] = [p for p in bus["onboard"]
                              if p[0] != stops[place]]
            at = self.base[bus["route"]] + place
            queue = (self.forward if action == OP_FORWARD
                     else self.backward)[at]
            while queue and len(bus["onboard"]) < bus["capacity"]:
                passenger = queue.pop(0)
                bus["onboard"].append(passenger)
                self.boardings += 1
                reduced_wait += (self.now - passenger[1]) * self.minutes
            self.timers[at][0 if action == OP_FORWARD else 1] = 0
        self.now += 1
        return reduced_wait, drive_time

    def state(self):
        """What bus_state reads from a world, from the reference."""
        def listed(seq):
            return [tuple(p) for p in seq]
        return {
            "passengers": ([(listed(f), listed(b))
                            for f, b in zip(self.forward, self.backward)]
                           + [listed(b["onboard"]) for b in self.buses]),
            "buses": [(self.base[b["route"]] + b["place"], b["operation"],
                       len(b["onboard"])) for b in self.buses],
            "timers": [tuple(t) for t in self.timers],
            "boardings": self.boardings,
            "now": self.now,
        }

    def max_wait(self):
        """The longest wait, in segments, of any queued passenger."""
        return max((self.now - arrival for queue in self.forward
                    + self.backward for _, arrival in queue), default=0)


def bus_state(world, ids):
    """The bus half of a world as plain values: every queue and every
    bus's riders as (destination id, arrival) lists, each bus's location,
    operation and occupied seats, the stop timers, boardings and the
    clock."""
    return {
        "passengers": passengers(world, ids),
        "buses": [(b.location, b.operation, b.occupied)
                  for b in world.buses],
        "timers": [(s.last_bus_fwd, s.last_bus_bwd)
                   for s in world.bus_stops],
        "boardings": world.boardings,
        "now": world.clock.current,
    }


def enumerate_best_boarding(waiters, capacity, minutes):
    best = 0.0
    for size in range(min(capacity, len(waiters)) + 1):
        for combo in itertools.combinations(waiters, size):
            best = max(best, sum(combo) * minutes)
    return best


class TestStepBusWorld:
    def test_all_halt(self):
        world = build_world(bus_scenario())
        _, reduced, drive = step_bus_world(world, [OP_HALT],
                                           [("S1", "S3", 2)])
        assert reduced == 0 and drive == 0
        assert len(world.bus_stops[0].queue_fwd) == 2

    def test_move_with_empty_queues(self):
        world = build_world(bus_scenario())
        _, reduced, drive = step_bus_world(world, [OP_FORWARD], [])
        assert reduced == 0
        assert drive == world.clock.segment_minutes
        assert world.buses[0].location == 1

    def test_fifo_boarding_maximizes_reduced_wait(self):
        world = build_world(bus_scenario(capacity=2))
        minutes = world.clock.segment_minutes
        # waiting ages 2, 1, 0 at stop S2, all heading forward
        stop = world.bus_stops[1]
        now = world.clock.current
        for age in (2, 1, 0):
            stop.queue_fwd.append((3, now - age))
        _, reduced, _ = step_bus_world(world, [OP_FORWARD], [])
        assert reduced == (2 + 1) * minutes
        assert reduced == enumerate_best_boarding([2, 1, 0], 2, minutes)
        assert len(stop.queue_fwd) == 1  # the youngest is left behind

    def test_alighting_frees_capacity(self):
        world = build_world(bus_scenario(capacity=1))
        bus = world.buses[0]
        now = world.clock.current
        bus.onboard.append((1, now))  # bound for S2
        bus.occupied = 1
        world.bus_stops[1].queue_fwd.append((3, now))  # S2 to S4
        step_bus_world(world, [OP_FORWARD], [])
        assert bus.occupied == 1  # alighted one, boarded one
        assert bus.onboard == [(3, now)]

    def test_clipped_at_terminal_counts_as_halt(self):
        world = build_world(bus_scenario())
        _, _, drive = step_bus_world(world, [OP_BACKWARD], [])
        assert drive == 0
        assert world.buses[0].location == 0
        assert world.buses[0].operation == OP_HALT

    def test_bus_stays_on_its_route(self):
        # route 1 is A, B and route 2 is C, D: driving on from B or back
        # from C is clipped like a move past a terminal
        world = build_world(ScenarioSpec.from_dict({
            "clock": {"segment_minutes": 15, "episode_length": 8},
            "stations": [], "vehicles": [], "environment": [0.0],
            "routes": [{"stops": ["A", "B"]}, {"stops": ["C", "D"]}]}))
        first, second = world.buses
        assert (first.location, second.location) == (0, 2)
        step_bus_world(world, [OP_FORWARD, OP_BACKWARD], [])
        assert (first.location, second.location) == (1, 2)
        assert (first.operation, second.operation) == (OP_FORWARD, OP_HALT)
        _, _, drive = step_bus_world(world, [OP_FORWARD, OP_HALT], [])
        assert drive == 0
        assert first.location == 1
        assert first.operation == OP_HALT
        assert world.bus_stops[2].last_bus_fwd == 2  # never visited

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3),
           st.lists(st.sampled_from([OP_BACKWARD, OP_HALT, OP_FORWARD]),
                    min_size=30, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_buses_never_leave_their_route(self, lengths, moves):
        routes = [{"stops": [f"R{r}S{i}" for i in range(n)], "bus_count": 2}
                  for r, n in enumerate(lengths)]
        world = build_world(ScenarioSpec.from_dict({
            "clock": {"episode_length": len(moves)}, "stations": [],
            "routes": routes, "vehicles": [], "environment": []}))
        home = [world.bus_stops[b.location].route for b in world.buses]
        for move in moves:
            # even buses take the drawn move, odd buses its mirror
            actions = [-move if i % 2 else move
                       for i in range(len(world.buses))]
            step_bus_world(world, actions, [])
            assert [world.bus_stops[b.location].route
                    for b in world.buses] == home

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3),
           st.integers(1, 4),
           st.lists(st.tuples(
               st.sampled_from([OP_BACKWARD, OP_HALT, OP_FORWARD]),
               st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                  st.integers(1, 3), st.integers(0, 4)),
                        max_size=4)),
               min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_queues_stay_in_arrival_order(self, lengths, capacity, script):
        routes = [{"stops": [f"R{r}S{i}" for i in range(n)], "bus_count": 2,
                   "capacity": capacity} for r, n in enumerate(lengths)]
        spec = ScenarioSpec.from_dict({
            "clock": {"episode_length": len(script)}, "stations": [],
            "routes": routes, "vehicles": [], "environment": [],
            "bus_script": every_od(routes)})
        env = BusEnv(scenario=spec)
        env.world = world = build_world(spec)
        for move, draws in script:
            arrivals = drawn_arrivals(lengths, draws)
            actions = [-move if i % 2 else move
                       for i in range(len(world.buses))]
            step_bus_world(world, actions, arrivals)
            for stop in world.bus_stops:
                for queue in (stop.queue_fwd, stop.queue_bwd):
                    arrived = [arrival for _, arrival in queue]
                    assert arrived == sorted(arrived)
            for bus in world.buses:
                assert bus.occupied == len(bus.onboard)
            assert env._max_wait() == full_scan_max_wait(world)

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=3),
           st.integers(1, 6),
           st.lists(st.tuples(
               st.sampled_from([OP_BACKWARD, OP_HALT, OP_FORWARD]),
               st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                                  st.integers(1, 4), st.integers(0, 4)),
                        max_size=8)),
               min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_arrival_join_matches_per_triple_join(self, lengths, capacity,
                                                  script):
        routes = [{"stops": [f"R{r}S{i}" for i in range(n)], "bus_count": 2,
                   "capacity": capacity} for r, n in enumerate(lengths)]
        spec = ScenarioSpec.from_dict({
            "clock": {"episode_length": len(script)}, "stations": [],
            "routes": routes, "vehicles": [], "environment": [],
            "bus_script": every_od(routes)})
        world, ref = build_world(spec), build_world(spec)
        ids = stop_ids(spec)
        for move, draws in script:
            arrivals = drawn_arrivals(lengths, draws)
            arrivals += arrivals[:2]  # repeated ODs within one segment
            actions = [-move if i % 2 else move
                       for i in range(len(world.buses))]
            got = step_bus_world(world, actions, arrivals)[1:]
            per_triple_join(ref, ids, arrivals)
            assert got == step_bus_world(ref, actions, [])[1:]
            assert passengers(world, ids) == passengers(ref, ids)

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=3),
           st.integers(1, 6),
           st.lists(st.tuples(
               st.sampled_from([OP_BACKWARD, OP_HALT, OP_FORWARD]),
               st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                                  st.integers(1, 4), st.integers(0, 4)),
                        max_size=8)),
               min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_arrival_join_across_worlds_matches_per_triple_join(
            self, lengths, capacity, script, random):
        # two consecutive worlds of one env, the second fed the same
        # arrivals in a new order
        routes = [{"stops": [f"R{r}S{i}" for i in range(n)], "bus_count": 2,
                   "capacity": capacity} for r, n in enumerate(lengths)]
        spec = ScenarioSpec.from_dict({
            "clock": {"episode_length": len(script)}, "stations": [],
            "routes": routes, "vehicles": [], "environment": [],
            "bus_script": every_od(routes)})
        env = BusEnv(scenario=spec)
        ids = stop_ids(spec)
        for _ in range(2):
            env.reset()
            world, ref = env.world, build_world(spec)
            for move, draws in script:
                arrivals = drawn_arrivals(lengths, draws)
                random.shuffle(arrivals)
                actions = [-move if i % 2 else move
                           for i in range(len(world.buses))]
                got = step_bus_world(world, actions, arrivals)[1:]
                per_triple_join(ref, ids, arrivals)
                assert got == step_bus_world(ref, actions, [])[1:]
                assert passengers(world, ids) == passengers(ref, ids)

    @given(st.lists(st.tuples(st.integers(3, 6), st.integers(0, 2),
                              st.integers(1, 3)), min_size=1, max_size=3),
           st.sampled_from([15, 7.5, 0.1]),
           st.integers(0, 5),
           st.lists(st.tuples(
               st.lists(st.sampled_from([OP_BACKWARD, OP_HALT, OP_FORWARD]),
                        min_size=6, max_size=6),
               st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                                  st.integers(1, 4), st.integers(0, 4)),
                        max_size=8)),
               min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_world(self, shapes, minutes, start, script):
        # every bus takes its own drawn action; after each step the whole
        # bus state and the returned figures equal the reference's, bit
        # for bit
        lengths = [n for n, _, _ in shapes]
        routes = [{"stops": [f"R{r}S{i}" for i in range(n)],
                   "bus_count": count, "capacity": capacity}
                  for r, (n, count, capacity) in enumerate(shapes)]
        doc = {
            "clock": {"episode_length": len(script), "episode_start": start,
                      "segment_minutes": minutes},
            "stations": [], "routes": routes, "vehicles": [],
            "environment": [], "bus_script": every_od(routes)}
        spec = ScenarioSpec.from_dict(doc)
        world, ref = build_world(spec), ReferenceBusWorld(doc)
        ids = stop_ids(spec)
        assert bus_state(world, ids) == ref.state()
        for moves, draws in script:
            arrivals = drawn_arrivals(lengths, draws)
            arrivals += arrivals[:2]  # repeated ODs within one segment
            actions = moves[:len(world.buses)]
            got = step_bus_world(world, actions, arrivals)[1:]
            assert got == ref.step(actions, arrivals)
            assert bus_state(world, ids) == ref.state()

    def test_timer_reset_on_visit(self):
        world = build_world(bus_scenario())
        step_bus_world(world, [OP_FORWARD], [])
        assert world.bus_stops[1].last_bus_fwd == 0
        assert world.bus_stops[0].last_bus_fwd == 1


BUS_OPS = st.sampled_from([OP_FORWARD, OP_HALT, OP_BACKWARD])


class TestBusReferenceWorld:
    @settings(max_examples=100, deadline=None)
    @given(scenario_docs(), st.data())
    def test_matches_reference_world(self, doc, data):
        """From a drawn scenario, multi-route included, with every OD of
        its routes declared, drawn bus actions and arrivals give the same
        passengers, buses, stop timers, boardings, clock, reduced wait
        and drive time as the reference after every segment, bit for
        bit."""
        doc = dict(doc, bus_script=doc.get("bus_script", [])
                   + every_od(doc.get("routes", [])))
        spec = ScenarioSpec.from_dict(doc)
        world, ref = build_world(spec), ReferenceBusWorld(doc)
        ids = stop_ids(spec)
        ods = sorted(spec.queue_slots)
        assert bus_state(world, ids) == ref.state()
        for _ in range(data.draw(st.integers(1, 12))):
            actions = data.draw(st.lists(BUS_OPS, min_size=len(world.buses),
                                         max_size=len(world.buses)))
            arrivals = [(o, d, count) for (o, d), count in data.draw(
                st.lists(st.tuples(st.sampled_from(ods), st.integers(0, 4)),
                         max_size=8))] if ods else []
            got = step_bus_world(world, actions, arrivals)[1:]
            assert got == ref.step(actions, arrivals)
            assert bus_state(world, ids) == ref.state()
        target(float(ref.boardings), label="boardings")


class TestBusReferenceEpisode:
    @settings(max_examples=150, deadline=None)
    @given(scenario_docs(), st.data())
    def test_matches_reference_episode(self, doc, data):
        """A BusEnv episode under drawn actions gives each step's reward,
        max_wait and end, and the record, of a reference episode played,
        on the arrivals the env realised, by `BusEnv`'s docstring: bus 0
        takes the action and every other bus halts; a move's reward is
        the boarders' waits in minutes less alpha times the drive time, a
        halt's exactly 0; the episode ends once a queued passenger has
        waited `patience` segments, or with the clock; the record holds
        the boardings, reduced wait, drive time and summed rewards. The
        drawn scenario's clock is drawn longer, and a drawn script of
        arrivals on bus 0's route joins its bus script, so that the bus
        meets waiting passengers."""
        facts = transcribe(doc)
        assume(facts["buses"])
        length = facts["clock"][1] + data.draw(st.integers(0, 8))
        route = facts["stop_routes"][facts["buses"][0][0]]
        stops = doc["routes"][route]["stops"]
        drawn = data.draw(st.lists(st.tuples(
            st.permutations(stops), st.integers(1, length),
            st.integers(1, 4)), max_size=12))
        script = [{"segment": segment, "origin": od[0],
                   "destination": od[1], "count": count}
                  for od, segment, count in drawn]
        doc = dict(doc, clock=dict(doc.get("clock", {}),
                                   episode_length=length),
                   bus_script=doc.get("bus_script", []) + script)
        alpha = data.draw(st.floats(0.0, 2.0))
        patience = data.draw(st.sampled_from(range(1, 11)))
        env = BusEnv(scenario=ScenarioSpec.from_dict(doc),
                     reward=RewardConfig(alpha=alpha, patience=patience),
                     seed=data.draw(st.integers(0, 2 ** 20)))
        env.reset()
        ref = ReferenceBusWorld(doc)
        halts = [OP_HALT] * (len(ref.buses) - 1)
        total = reduced_wait = drive_time = 0.0
        for t, arrivals in enumerate(env.bus_arrivals):
            action = data.draw(BUS_OPS)
            reduced, drive = ref.step([action] + halts, arrivals)
            reward = 0.0 if action == OP_HALT else reduced - alpha * drive
            total += reward
            reduced_wait += reduced
            drive_time += drive
            ends = (t == len(env.bus_arrivals) - 1
                    or ref.max_wait() >= patience)
            _, got, done, info = env.step(action)
            assert (got, done, info["max_wait"]) == (reward, ends,
                                                     ref.max_wait())
            if done:
                break
        target(float(ref.boardings), label="boardings")
        record = env.record
        assert (record.boardings, record.reduced_wait, record.drive_time,
                record.total_reward) == (ref.boardings, reduced_wait,
                                         drive_time, total)


def resolved_facts(spec):
    """Every attribute of a scenario but the facts built on first read,
    each array as its dtype, shape and values."""
    return {key: ((value.dtype.str, value.shape, value.tolist())
                  if isinstance(value, np.ndarray) else value)
            for key, value in vars(spec).items()
            if key not in ("profile", "expected_demand", "_distances")}


class TestWithPlacement:
    @settings(max_examples=150, deadline=None)
    @given(scenario_docs(), st.data())
    def test_matches_a_validated_copy(self, doc, data):
        """A placed copy resolves every fact as a copy of the placed
        documents validated anew does, shares the scenario's profile,
        expected demand and distances, and leaves the scenario as it
        was; a count above a station's docks raises ScenarioError."""
        original = copy.deepcopy(doc)
        spec = ScenarioSpec.from_dict(doc)
        before = resolved_facts(spec)
        placement = {sid: data.draw(st.integers(0, docks))
                     for sid, docks in zip(spec.station_ids(), spec.docks)
                     if data.draw(st.booleans())}
        placed = spec.with_placement(placement)
        fresh = dataclasses.replace(
            spec, stations=[dict(s, initial_bikes=placement.get(s["id"], 0))
                            for s in spec.stations],
            vehicles=[dict(v, initial_load=0) for v in spec.vehicles])
        assert placed == fresh
        assert resolved_facts(placed) == resolved_facts(fresh)
        assert placed.profile is spec.profile
        assert placed.expected_demand is spec.expected_demand
        assert placed._distances is spec._distances
        for shared, built in zip(placed.expected_demand,
                                 fresh.expected_demand):
            assert np.array_equal(shared, built)
        assert resolved_facts(spec) == before
        assert doc == original
        if spec.stations:
            i = data.draw(st.integers(0, len(spec.stations) - 1))
            sid = spec.station_ids()[i]
            over = spec.docks[i] + data.draw(st.integers(1, 3))
            with pytest.raises(ScenarioError, match=f"station {sid}: "):
                spec.with_placement({**placement, sid: over})


class TestApplyReposition:
    def test_full_load(self):
        world = build_world(make_scenario(initial_bikes=(10, 0, 0)))
        apply_reposition(world, 0, 0, 10)
        assert world.available[0] == 0
        assert world.vehicles[0].occupied == 10
        assert world.vehicles[0].operation == 10

    def test_zero_quantity_moves_only(self):
        world = build_world(make_scenario(initial_bikes=(5, 0, 0)))
        apply_reposition(world, 0, 2, 0)
        assert world.vehicles[0].location == 2
        assert world.available[0] == 5
        assert world.vehicles[0].operation == 0

    def test_unload_clips_to_free_docks(self):
        scenario = make_scenario(initial_bikes=(0, 18, 0), docks=(20, 20, 20),
                                 vehicle_load=7)
        world = build_world(scenario)
        apply_reposition(world, 0, 1, -7)
        assert world.vehicles[0].operation == -2
        assert world.available[1] == 20
        assert world.vehicles[0].occupied == 5

    def test_unknown_vehicle_rejected(self):
        world = build_world(make_scenario())
        with pytest.raises(ScenarioError, match="unknown vehicle"):
            apply_reposition(world, 3, 0, 1)


class TestInvariants:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_operations_preserve_invariants(self, seed):
        rng = np.random.default_rng(seed)
        world = build_world(make_scenario(
            initial_bikes=(int(rng.integers(0, 10)), int(rng.integers(0, 10)),
                           int(rng.integers(0, 10))),
            docks=(10, 10, 10), vehicle_load=int(rng.integers(0, 10)),
            episode_length=10 ** 6))
        total = world.total_bikes()
        for _ in range(200):
            if rng.uniform() < 0.5:
                apply_reposition(world, 0, int(rng.integers(0, 3)),
                                 int(rng.integers(-12, 13)))
            else:
                trips = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                          int(rng.integers(0, 6))) for _ in range(3)]
                trips = [(o, d, c) for o, d, c in trips if o != d]
                step_bike_world(world, trips)
            assert world.total_bikes() == total
            for avail, docks in zip(world.available, world.docks):
                assert 0 <= avail <= docks
            for a in world.vehicles:
                assert 0 <= a.location < len(world.available)
                assert a.occupied + a.remaining == a.capacity
                assert a.occupied >= 0 and a.remaining >= 0

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=2, max_size=4),
           st.lists(st.tuples(st.integers(1, 8), st.integers(0, 8)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(2, 4), st.integers(1, 2)),
                    min_size=1, max_size=2),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mixed_world_invariants(self, stations, vehicles, routes, seed):
        # vehicles and buses in one world, each kind driven only through
        # its own list while bike and bus steps interleave
        rng = np.random.default_rng(seed)
        ids = [f"B{i}" for i in range(len(stations))]
        stops = [[f"R{r}S{i}" for i in range(n)]
                 for r, (n, _) in enumerate(routes)]
        world = build_world(ScenarioSpec.from_dict({
            "clock": {"episode_length": 10 ** 6},
            "stations": [{"id": sid, "x": float(i), "y": 0.0, "docks": docks,
                          "initial_bikes": min(bikes, docks)}
                         for i, (sid, (docks, bikes))
                         in enumerate(zip(ids, stations))],
            "vehicles": [{"capacity": cap, "initial_load": min(load, cap),
                          "start": ids[int(rng.integers(0, len(ids)))]}
                         for cap, load in vehicles],
            "routes": [{"stops": names, "bus_count": count, "capacity": 3}
                       for names, (_, count) in zip(stops, routes)],
            "bus_script": every_od([{"stops": names} for names in stops]),
            "environment": []}))
        assert len(world.vehicles) == len(vehicles)
        assert len(world.buses) == sum(count for _, count in routes)
        home = [world.bus_stops[b.location].route for b in world.buses]
        total = world.total_bikes()
        for _ in range(60):
            op = rng.uniform()
            if op < 0.4:
                apply_reposition(world, int(rng.integers(0, len(vehicles))),
                                 int(rng.integers(0, len(ids))),
                                 int(rng.integers(-9, 10)))
            elif op < 0.7:
                trips = [(int(a), int(b), int(rng.integers(0, 6)))
                         for a, b in rng.integers(0, len(ids), size=(3, 2))]
                step_bike_world(world, trips)
            else:
                arrivals = []
                for _ in range(int(rng.integers(0, 4))):
                    names = stops[int(rng.integers(0, len(stops)))]
                    o, d = rng.choice(len(names), size=2, replace=False)
                    arrivals.append((names[o], names[d],
                                     int(rng.integers(0, 4))))
                step_bus_world(world, [int(a) for a in rng.integers(
                    -1, 2, size=len(world.buses))], arrivals)
            assert world.total_bikes() == total
            for avail, docks in zip(world.available, world.docks):
                assert 0 <= avail <= docks
            for v in world.vehicles:
                assert v.occupied + v.remaining == v.capacity
                assert 0 <= v.occupied <= v.capacity
                assert 0 <= v.location < len(ids)
            assert [world.bus_stops[b.location].route
                    for b in world.buses] == home
            for bus in world.buses:
                assert bus.occupied == len(bus.onboard) <= bus.capacity

    def test_determinism(self):
        results = []
        for _ in range(2):
            world = build_world(make_scenario(initial_bikes=(5, 3, 1)))
            apply_reposition(world, 0, 1, 2)
            _, served, lost = step_bike_world(
                world, [(A, C, 4), (B, A, 2)])
            results.append((served, lost, tuple(world.available)))
        assert results[0] == results[1]
