import dataclasses
import hashlib
import importlib.util
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched import envs, world as W
from urbansched.cli import resolve_scenario
from urbansched.envs import (
    HORIZON, BikeEnv, BusEnv, EpisodeDone, RewardConfig, bike_observe,
    bus_observe, joint_features,
)
from urbansched.forecast_bike import encode_flow
from urbansched.harness import NoReposition, StaticHeadwayPolicy
from urbansched.world import ScenarioSpec, build_world

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def bench_scenario(kind: str, seed: int) -> ScenarioSpec:
    """A scenario from perfbench's generators, `city` or `corridor`. This
    reads perfbench, never edits it."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                  GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return ScenarioSpec.from_dict(getattr(module, kind)(seed))


def mixed_scenario(joint=None, initial_bikes=(3, 0), docks=(5, 5),
                   bus_count=1, vehicles=None):
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": 4},
        "stations": [
            {"id": "A", "x": 0.0, "y": 0.0, "docks": docks[0],
             "initial_bikes": initial_bikes[0]},
            {"id": "B", "x": 3.0, "y": 4.0, "docks": docks[1],
             "initial_bikes": initial_bikes[1]},
        ],
        "routes": [{"stops": ["S1", "S2", "S3"], "bus_count": bus_count,
                    "capacity": 20}],
        "vehicles": vehicles or [{"capacity": 10, "start": "A",
                                  "initial_load": 2}],
        "environment": [0.5],
        "demand_script": [],
        "joint": joint,
    })


def bus_only_scenario(bus_script, episode_length=6):
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": episode_length},
        "stations": [],
        "routes": [{"stops": ["S1", "S2", "S3"], "bus_count": 1,
                    "capacity": 20}],
        "vehicles": [],
        "environment": [0.0],
        "bus_script": bus_script,
    })


class TestObservations:
    # Flat layouts (bike_observe docstring), n places, horizon L, each
    # forecast block (L, 2n) of rows [c1 | c2]:
    # bike: b1 n, b2 n, L x (c1 n, c2 n), g L x 2n, own (n+3), peers, H, O
    # bus: b1 n, b2 n, L x (c1 n, c2 n), own (n+3), peers, H, O

    def test_bike_one_hot_and_g_length(self):
        scenario = resolve_scenario("fig1a")
        world = build_world(scenario)
        L, n = 2, 3
        block = np.arange(1.0, 1 + L * 2 * n).reshape(L, 2 * n)
        flat = bike_observe(world, block, 0, None)
        np.testing.assert_array_equal(flat[6:18], block.reshape(-1))
        np.testing.assert_array_equal(flat[18:30], block.reshape(-1))
        np.testing.assert_array_equal(flat[30:33], [1, 0, 0])
        # b1 + b2 + L*(c1+c2) + L*2n + self(3+3) + others(0) + H(1)
        assert flat.size == 3 + 3 + 2 * (3 + 3) + 2 * 6 + 6 + 0 + 1

    def test_joint_off_omits_o_block(self):
        world = build_world(mixed_scenario())
        block = np.zeros((2, 4))
        without = bike_observe(world, block, 0, None)
        O = joint_features(world, "vehicle", 2)
        with_o = bike_observe(world, block, 0, O)
        assert with_o.size - without.size == O.size

    def test_bus_zero_world_observation(self):
        world = build_world(bus_only_scenario([]))
        flat = bus_observe(world, np.zeros((2, 6)), 0, None)
        np.testing.assert_array_equal(flat[18:21], [1, 0, 0])
        assert flat[21] == 0  # empty bus
        assert np.count_nonzero(flat) == 2  # one-hot d1 and capacity e1

    def test_two_buses_see_each_other(self):
        doc = bus_only_scenario([])
        world = build_world(dataclasses.replace(
            doc, routes=[{**doc.routes[0], "bus_count": 2}]))
        block = np.zeros((2, 6))
        a = bus_observe(world, block, 0, None)
        b = bus_observe(world, block, 1, None)
        own, peer = slice(18, 24), slice(24, 30)
        np.testing.assert_array_equal(a[peer], b[own])
        np.testing.assert_array_equal(b[peer], a[own])

    def test_bike_feature_order_pinned(self):
        world = build_world(mixed_scenario(vehicles=[
            {"capacity": 10, "start": "A", "initial_load": 2},
            {"capacity": 4, "start": "B", "initial_load": 1}]))
        W.apply_reposition(world, 1, 0, 2)
        world.bus_stops[1].last_bus_fwd = 3
        world.bus_stops[2].queue_bwd.append((0, 0))  # S3 to S1
        block = [[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]]
        O = joint_features(world, "vehicle", 2)
        flat = bike_observe(world, block, 1, O)
        assert flat.tolist() == [
            1.0, 0.0, 4.0, 5.0,  # b1, b2
            1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0,  # c1, c2 per segment
            1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0,  # g, the same block
            1.0, 0.0, 3.0, 1.0, 2.0,  # vehicle 1: at A, 3 on, 1 free, +2
            1.0, 0.0, 2.0, 8.0, 0.0,  # vehicle 0
            0.5,  # H
            0.0, 0.0, 3.0, 0.0, 0.0, 0.0,  # O
        ]

    def test_bus_feature_order_pinned(self):
        world = build_world(dataclasses.replace(
            mixed_scenario(bus_count=2), bus_script=[
                {"segment": 1, "origin": "S2", "destination": "S3",
                 "count": 0}]))
        W.step_bus_world(world, [W.OP_HALT, W.OP_HALT], [("S2", "S3", 1)])
        W.step_bus_world(world, [W.OP_FORWARD, W.OP_HALT], [])
        O = joint_features(world, "bus", 2)
        flat = bus_observe(world, [[1.0, 2.0, 3.0, 0.5, 0.0, 0.25],
                                   [4.0, 5.0, 6.0, 0.0, 1.5, 0.0]], 1, O)
        assert flat.tolist() == [
            2.0, 0.0, 2.0, 2.0, 2.0, 2.0,  # b1, b2
            1.0, 2.0, 3.0, 0.5, 0.0, 0.25,  # c1, c2 of segment 1
            4.0, 5.0, 6.0, 0.0, 1.5, 0.0,  # c1, c2 of segment 2
            1.0, 0.0, 0.0, 0.0, 20.0, 0.0,  # bus 1: at S1, empty, halted
            0.0, 1.0, 0.0, 1.0, 19.0, 1.0,  # bus 0: at S2, 1 on, forward
            0.5,  # H
            3.0, 2.0, 0.0, 5.0,  # O
        ]


def list_built_bike_observe(world, forecast, vehicle_id, other_system):
    """bike_observe as it wrote b2, a list of each station's docks less
    its bikes, kept as a transcription."""
    avail = world.available
    return envs._observation(
        world, (avail, [d - a for d, a in zip(world.docks, avail)]),
        forecast, 2, world.vehicles, vehicle_id, max(len(avail), 1),
        other_system)


@st.composite
def observed_bike_worlds(draw):
    """(world, forecast, vehicle id, O): 0-5 stations with docks and
    bikes up to world.MAX_CAPACITY, 0-3 vehicles (none without a
    station) with loads, capacities and operations up to the cap, and O
    from the joint features or absent."""
    cap = W.MAX_CAPACITY
    size = st.one_of(st.integers(1, 40), st.integers(cap - 3, cap))
    n = draw(st.integers(0, 5))
    stations = []
    for i in range(n):
        docks = draw(st.just(0) | size)
        bikes = draw(st.sampled_from([0, docks]) | st.integers(0, docks))
        stations.append({"id": f"B{i}", "x": float(i), "y": 0.0,
                         "docks": docks, "initial_bikes": bikes})
    vehicles = []
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        capacity = draw(size)
        vehicles.append({
            "capacity": capacity, "start": f"B{draw(st.integers(0, n - 1))}",
            "initial_load": draw(st.sampled_from([0, capacity])
                                 | st.integers(0, capacity))})
    routes = ([{"stops": ["S1", "S2", "S3"]}]
              if n < 2 or draw(st.booleans()) else [])
    world = build_world(ScenarioSpec.from_dict({
        "stations": stations, "vehicles": vehicles, "routes": routes,
        "environment": draw(st.lists(st.floats(-10.0, 10.0), max_size=2))}))
    for v in world.vehicles:
        v.operation = draw(st.integers(-v.occupied, v.remaining))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    forecast = rng.normal(size=(HORIZON, 2 * max(n, 1)))
    O = (joint_features(world, "vehicle", draw(st.integers(1, W.MAX_JOINT_K)),
                        outage=draw(st.booleans()))
         if draw(st.booleans()) else None)
    me = draw(st.integers(0, len(vehicles) - 1)) if vehicles else 0
    return world, forecast, me, O


class TestBikeObservationReference:
    @settings(max_examples=200, deadline=None)
    @given(observed_bike_worlds())
    def test_matches_list_built_observation(self, drawn):
        """b2 as a float64 subtraction from the dock vector writes the
        same bytes as the list of integer differences it replaced, at
        and below the dock cap, with and without stations, vehicles and
        O."""
        got = bike_observe(*drawn)
        want = list_built_bike_observe(*drawn)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestDemandChannel:
    def test_horizon_matches_row_loop(self):
        T = 4
        for start in (0, 2):
            spec = mixed_scenario()
            env = BikeEnv(scenario=dataclasses.replace(
                spec, clock={**spec.clock, "episode_start": start}))
            env.reset()
            for rows in (env.expected_bike, env.expected_bus):
                assert rows.shape[0] == T + HORIZON + 1
                assert not rows[T:].any() and not rows.flags.writeable
                arr = np.arange(1.0, 1 + rows.size).reshape(rows.shape)
                arr[T:] = 0.0
                for played in range(T + 1):  # every clock position
                    env.world.clock.current = start + played
                    want = [arr[t] for t in range(played + 1,
                                                  played + 1 + HORIZON)]
                    got = env._horizon(arr)
                    assert np.shares_memory(got, arr)
                    np.testing.assert_array_equal(got, want)

    def test_episode_start_offsets_the_day_position(self):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "bike5.json").read_text())
        # bike5's rates are flat over the day; give each position its own
        rates = {sid: [r * (1 + k) for k, r in enumerate(row)]
                 for sid, row in doc["demand_profile"]["rates"].items()}

        def play(rates, start):
            """Records and observations of three NoReposition episodes."""
            scenario = ScenarioSpec.from_dict({
                **doc, "clock": {**doc["clock"], "episode_start": start},
                "demand_profile": {**doc["demand_profile"], "rates": rates}})
            env = BikeEnv(scenario=scenario, seed=1)
            policy, out = NoReposition(), []
            for _ in range(3):
                obs = [env.reset()]
                while not env.done:
                    obs.append(env.step(policy.action_for(env))[0])
                out.append((env.record, np.array(obs).tobytes()))
            return out

        shifted = play(rates, 3)
        assert shifted == play({sid: row[3:] + row[:3]
                                for sid, row in rates.items()}, 0)
        assert shifted != play(rates, 0)

    BUS_SCRIPT = [(1, "S1", "S3", 2), (2, "S3", "S2", 1), (2, "S2", "S3", 4),
                  (5, "S1", "S2", 1)]

    def test_bus_script_lands_on_the_segment_played(self):
        # the episode starts at day position 3: each scripted arrival
        # joins its queue at the step that plays its segment, stamped with
        # that segment's position, and the forecast rows an observation
        # holds follow the segments played, not the day position
        start, T = 3, 6
        spec = bus_only_scenario([
            {"segment": s, "origin": o, "destination": d, "count": c}
            for s, o, d, c in self.BUS_SCRIPT], episode_length=T)
        spec = dataclasses.replace(spec, clock={**spec.clock,
                                                "episode_start": start})
        stops = ["S1", "S2", "S3"]
        rows = np.zeros((T + HORIZON + 1, 2 * len(stops)))
        for s, o, d, c in self.BUS_SCRIPT:
            ahead = stops.index(d) > stops.index(o)
            rows[s - 1, stops.index(o) + (0 if ahead else len(stops))] += c
        forecast = slice(2 * len(stops), (2 + 2 * HORIZON) * len(stops))
        env = BusEnv(scenario=spec, reward=RewardConfig(patience=T + 1))
        obs = env.reset()
        for played in range(T):
            np.testing.assert_array_equal(
                obs[forecast], rows[played + 1:played + 1 + HORIZON].ravel())
            obs, _, done, _ = env.step(W.OP_HALT)
            queued = sorted(
                (stops[i], stops[d], arrival)
                for i, s in enumerate(env.world.bus_stops)
                for d, arrival in list(s.queue_fwd) + list(s.queue_bwd))
            assert queued == sorted(
                (o, d, start + s - 1) for s, o, d, c in self.BUS_SCRIPT
                for _ in range(c) if s <= played + 1)
            assert done == (played + 1 == T)

    @pytest.mark.parametrize("force_outage", [False, True])
    def test_joint_bike_env_follows_the_segment_played(self, force_outage):
        # outage's scenario from day position 3, its trips the outage
        # trips alone: each step serves or loses its own segment's trips,
        # and the scenery buses reset the stop timers on their headway
        # from the episode's first segment
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        del doc["demand_profile"]
        doc["clock"] = {**doc["clock"], "episode_start": 3}
        env = BikeEnv(scenario=ScenarioSpec.from_dict(doc), seed=2)
        env.reset(force_outage=force_outage)
        demand = [0] * env.scenario.episode_length
        if force_outage:
            for e in doc["joint"]["outage_trips"]:
                demand[e["segment"] - 1] += e["count"]
        for played, want in enumerate(demand, start=1):
            _, _, done, info = env.step(NoReposition().action_for(env))
            assert info["served"] + info["lost"] == want
            timers = {(s.last_bus_fwd, s.last_bus_bwd)
                      for s in env.world.bus_stops}
            # no bus runs under an outage: the timers keep their start
            assert timers == {(0, 0) if force_outage
                              else (played % envs.BUS_HEADWAY,) * 2}
        assert done

    def test_profile_bus_forecast_every_row(self):
        rates = {("S1", "S2"): 0.5, ("S1", "S3"): 1.25, ("S2", "S3"): 2.0,
                 ("S3", "S1"): 0.75, ("S3", "S2"): 0.25}
        scenario = ScenarioSpec.from_dict({
            "clock": {"segment_minutes": 15, "episode_length": 5},
            "stations": [{"id": "A", "x": 0.0, "y": 0.0, "docks": 5},
                         {"id": "B", "x": 1.0, "y": 0.0, "docks": 5}],
            "routes": [{"stops": ["S1", "S2", "S3"]}],
            "vehicles": [], "environment": [0.0],
            "demand_profile": {
                "rates": {"A": [1.0, 2.0], "B": [0.5, 0.0]},
                "od_weights": [[0.0, 1.0], [1.0, 0.0]],
                "bus_rates": [{"origin": o, "destination": d, "rate": r}
                              for (o, d), r in rates.items()]},
        })
        env = BusEnv(scenario=scenario)
        env.reset()
        np.testing.assert_array_equal(env.expected_bus[:5],
                                      [[1.75, 2.0, 0.0, 0.0, 0.0, 1.0]] * 5)
        np.testing.assert_array_equal(env.expected_bike[:5, :2],
                                      [[1.0, 0.5], [2.0, 0.0]] * 2
                                      + [[1.0, 0.5]])


class TestTripLists:
    """Scripted and outage trips add to the profile's sample, in that
    order; scripted trips are forecast, outage trips are not."""

    BUS_SCRIPT = [{"segment": s, "origin": o, "destination": d, "count": c}
                  for s, o, d, c in [(1, "S1", "S3", 2), (2, "S3", "S2", 1),
                                     (2, "S2", "S3", 4), (5, "S1", "S2", 1)]]

    def test_bus_script_alone_realised_and_forecast(self):
        env = BusEnv(scenario=bus_only_scenario(self.BUS_SCRIPT))
        env.reset()
        assert env.bus_arrivals == [
            [("S1", "S3", 2)], [("S3", "S2", 1), ("S2", "S3", 4)],
            [], [], [("S1", "S2", 1)], []]
        # rows of [forward | backward] boardings at S1, S2, S3
        expected = np.zeros((6, 6))
        expected[0, 0] = 2
        expected[1, 5] = 1
        expected[1, 1] = 4
        expected[4, 0] = 1
        np.testing.assert_array_equal(env.expected_bus[:6], expected)
        env.step(W.OP_HALT)
        assert len(env.world.bus_stops[0].queue_fwd) == 2

    def test_profile_script_outage_order(self):
        doc = json.loads((resources.files("urbansched.scenarios")
                          / "outage.json").read_text())
        script = [(1, "B3", "B1", 3), (1, "N1", "N2", 1), (4, "B2", "B1", 2),
                  (1, "N2", "N1", 5)]
        doc["demand_script"] = [
            {"segment": s, "origin": o, "destination": d, "count": c}
            for s, o, d, c in script]
        outage = doc["joint"]["outage_trips"]
        full = BikeEnv(scenario=ScenarioSpec.from_dict(doc), seed=3)
        full.reset(force_outage=True)
        del doc["demand_script"], doc["joint"]
        profile_only = BikeEnv(scenario=ScenarioSpec.from_dict(doc), seed=3)
        profile_only.reset()
        assert all(profile_only.trips)  # every segment sampled
        ids = profile_only.scenario.station_ids()
        for seg in range(1, 7):
            assert full.trips[seg - 1] == (
                profile_only.trips[seg - 1]
                + [(ids.index(o), ids.index(d), c)
                   for s, o, d, c in script if s == seg]
                + [(ids.index(e["origin"]), ids.index(e["destination"]),
                    e["count"]) for e in outage if e["segment"] == seg])
        od = np.zeros((6, len(ids), len(ids)))
        for s, o, d, c in script:
            od[s - 1, ids.index(o), ids.index(d)] += c
        np.testing.assert_array_equal(
            full.expected_bike[:6],
            profile_only.expected_bike[:6] + [encode_flow(m) for m in od])


class TestJointFeatures:
    def test_bike_agent_k2_is_bus_recency(self):
        world = build_world(mixed_scenario())
        world.bus_stops[1].last_bus_fwd = 3
        world.bus_stops[2].last_bus_bwd = 1
        O = joint_features(world, "vehicle", 2)
        np.testing.assert_array_equal(O[:, 0], [0, 3, 0])
        np.testing.assert_array_equal(O[:, 1], [0, 0, 1])

    def test_outage_sentinel(self):
        world = build_world(mixed_scenario())
        O = joint_features(world, "vehicle", 2, outage=True)
        assert np.all(O == world.clock.episode_length)

    def test_bus_agent_sees_station_fill(self):
        world = build_world(mixed_scenario(initial_bikes=(3, 0)))
        O = joint_features(world, "bus", 2)
        np.testing.assert_array_equal(O, [[3, 2], [0, 5]])

    def test_truncation_and_padding(self):
        world = build_world(mixed_scenario())
        assert joint_features(world, "vehicle", 1).shape == (3, 1)
        wide = joint_features(world, "vehicle", 6)
        assert wide.shape == (3, 6)
        assert np.all(wide[:, 4:] == 0)

    def test_empty_other_system(self):
        world = build_world(bus_only_scenario([]))
        assert joint_features(world, "bus", 2).shape == (0, 2)


def profile_bus_scenario(episode_length=12):
    """Five stops, a bus of capacity 3 and Poisson bus demand both ways."""
    rates = [("S1", "S4", 0.9), ("S2", "S5", 1.6), ("S3", "S1", 1.2),
             ("S5", "S2", 0.7), ("S4", "S3", 2.3), ("S2", "S3", 0.4)]
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": episode_length},
        "stations": [{"id": "A", "x": 0.0, "y": 0.0, "docks": 5},
                     {"id": "B", "x": 1.0, "y": 0.0, "docks": 5}],
        "routes": [{"stops": ["S1", "S2", "S3", "S4", "S5"],
                    "bus_count": 1, "capacity": 3}],
        "vehicles": [], "environment": [0.0],
        "demand_profile": {
            "rates": {"A": [0.0], "B": [0.0]},
            "od_weights": [[0.0, 1.0], [1.0, 0.0]],
            "bus_rates": [{"origin": o, "destination": d, "rate": r}
                          for o, d, r in rates]},
    })


def headway_rollout(patience):
    """Per-step (reward, reduced_wait, drive_time, max_wait, done) and the
    final (forward, backward) queue lengths per stop of one episode."""
    env = BusEnv(scenario=profile_bus_scenario(), seed=4,
                 reward=RewardConfig(alpha=0.2, patience=patience))
    policy = StaticHeadwayPolicy()
    policy.begin_episode(env.reset())
    steps = []
    done = False
    while not done:
        _, reward, done, info = env.step(policy.action_for(env))
        steps.append((reward, info["reduced_wait"], info["drive_time"],
                      info["max_wait"], done))
    queues = [(len(s.queue_fwd), len(s.queue_bwd))
              for s in env.world.bus_stops]
    return steps, queues


class TestBusEnv:
    # literals produced by the code that scanned every queued passenger
    def test_headway_rollout_pinned(self):
        steps, queues = headway_rollout(patience=13)
        idle = (-3.0, 0.0, 15.0)
        assert steps == [
            (*idle, 0, False), (*idle, 1, False), (*idle, 2, False),
            (*idle, 3, False), (72.0, 75.0, 15.0, 4, False),
            (147.0, 150.0, 15.0, 5, False), (*idle, 6, False),
            (*idle, 7, False), (312.0, 315.0, 15.0, 8, False),
            (*idle, 9, False), (*idle, 10, False), (*idle, 11, True)]
        assert queues == [(10, 0), (26, 0), (0, 14), (0, 22), (0, 9)]

    def test_headway_rollout_ends_on_patience(self):
        steps, queues = headway_rollout(patience=3)
        idle = (-3.0, 0.0, 15.0)
        assert steps == [(*idle, 0, False), (*idle, 1, False),
                         (*idle, 2, False), (*idle, 3, True)]
        assert queues == [(3, 0), (11, 0), (0, 5), (0, 4), (0, 3)]

    def test_halt_reward_exactly_zero(self):
        env = BusEnv(scenario=bus_only_scenario(
            [{"segment": 1, "origin": "S2", "destination": "S3", "count": 1}]))
        env.reset()
        _, reward, done, _ = env.step(W.OP_HALT)
        assert reward == 0.0 and not done

    def test_boarding_reward_hand_trace(self):
        # two passengers at S2 with waits 2 and 1 segments when boarded
        script = [
            {"segment": 1, "origin": "S2", "destination": "S3", "count": 1},
            {"segment": 2, "origin": "S2", "destination": "S3", "count": 1},
        ]
        env = BusEnv(scenario=bus_only_scenario(script),
                     reward=RewardConfig(alpha=0.2))
        env.reset()
        env.step(W.OP_HALT)
        env.step(W.OP_HALT)
        _, reward, _, info = env.step(W.OP_FORWARD)
        assert info["reduced_wait"] == (2 + 1) * 15
        assert reward == pytest.approx((2 + 1) * 15 - 0.2 * 15)  # 42

    def test_patience_ends_episode(self):
        script = [{"segment": 1, "origin": "S2", "destination": "S3",
                   "count": 1}]
        env = BusEnv(scenario=bus_only_scenario(script, episode_length=10),
                     reward=RewardConfig(patience=3))
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(W.OP_HALT)
            steps += 1
        assert info["max_wait"] >= 3
        assert steps < 10

    def test_invalid_action(self):
        env = BusEnv(scenario=bus_only_scenario([]))
        env.reset()
        with pytest.raises(ValueError, match="invalid bus action"):
            env.step(2)

    def test_needs_a_bus(self):
        with pytest.raises(ValueError, match="needs a route that runs a bus"):
            BusEnv(scenario=mixed_scenario(bus_count=0))

    def test_step_after_done(self):
        env = BusEnv(scenario=bus_only_scenario([], episode_length=1))
        env.reset()
        env.step(W.OP_HALT)
        with pytest.raises(EpisodeDone):
            env.step(W.OP_HALT)


class TestBikeEnv:
    def test_idle_zero_demand_terminal_reward_zero(self):
        env = BikeEnv(scenario=mixed_scenario())
        env.reset()
        total = 0.0
        done = False
        while not done:
            _, reward, done, _ = env.step((0, 0))
            total += reward
        assert total == 0.0

    def test_fig1a_optimal_placement_serves_twenty(self):
        env = BikeEnv(scenario=resolve_scenario("fig1a"))
        env.reset()
        _, _, done, info = env.step((0, -10))  # unload everything at A
        assert not done
        _, reward, done, info = env.step((0, 0))
        assert done
        assert info["served_total"] == 20
        assert reward == pytest.approx(20.0)  # no travel, no overflow

    def test_fig1a_greedy_b_serves_ten(self):
        env = BikeEnv(scenario=resolve_scenario("fig1a"))
        env.reset()
        env.step((1, -10))
        _, reward, done, info = env.step((1, 0))
        assert done
        assert info["served_total"] == 10

    def test_travel_distance_penalty(self):
        env = BikeEnv(scenario=mixed_scenario(),
                      reward=RewardConfig(beta=0.1))
        env.reset()
        env.step((1, 0))  # A (0,0) -> B (3,4): distance 5
        total = 0.0
        done = False
        while not done:
            _, reward, done, _ = env.step((1, 0))
            total += reward
        assert total == pytest.approx(-0.1 * 5.0)

    def test_distances_cached_per_pair_driven(self):
        # the oracle builds an env per placement, so an env holds the
        # distances it drove, not a table over every station pair
        n = 2000
        env = BikeEnv(scenario=ScenarioSpec.from_dict({
            "clock": {"episode_length": 6},
            "stations": [{"id": f"N{i}", "x": float(i % 50),
                          "y": float(i // 50), "docks": 5}
                         for i in range(n)],
            "routes": [], "vehicles": [{"capacity": 5}],
            "environment": []}))
        assert env._distances == {}
        env.reset()
        stops = [1999, 1999, 7, 1999, 0, 7]
        done = False
        for target in stops:
            _, _, done, _ = env.step((target, 0))
        assert done
        coords = env._coords
        assert env._distances == {
            (a, b): float(np.linalg.norm(coords[a] - coords[b]))
            for a, b in [(0, 1999), (1999, 7), (7, 1999), (1999, 0),
                         (0, 7)]}

    def test_overflow_penalty(self):
        # station B has 5 docks, all empty; unloading 2 into a full B later
        scenario = mixed_scenario(initial_bikes=(3, 5), docks=(5, 5))
        env = BikeEnv(scenario=scenario,
                      reward=RewardConfig(beta=0.0, gamma_overflow=1.0))
        env.reset()
        _, _, _, info = env.step((0, 2))  # load 2 at A
        _, _, _, info = env.step((1, -2))  # B is full: 2 bikes undockable
        assert info["overflow_total"] == 2
        done = False
        while not done:
            _, reward, done, _ = env.step((1, 0))
        assert reward == pytest.approx(-2.0)

    @pytest.mark.parametrize("quantity", [1, 0, -1])
    def test_unknown_station_rejected(self, quantity):
        env = BikeEnv(scenario=mixed_scenario())
        env.reset()
        with pytest.raises(W.ScenarioError, match="unknown station index"):
            env.step((env.n_stations, quantity))

    def test_scripted_episode_deterministic(self):
        runs = []
        for _ in range(2):
            env = BikeEnv(scenario=resolve_scenario("fig1a"), seed=5)
            env.reset()
            env.step((0, -10))
            _, reward, _, info = env.step((0, 0))
            runs.append((reward, info["served_total"], info["lost_total"]))
        assert runs[0] == runs[1]

    def test_profile_demand_reproducible_for_seed(self):
        scenario = resolve_scenario("bike5")
        served = []
        for _ in range(2):
            env = BikeEnv(scenario=scenario)
            env.reset(seed=3)
            done = False
            while not done:
                _, _, done, info = env.step((0, 0))
            served.append((info["served_total"], info["lost_total"]))
        assert served[0] == served[1]

    def test_joint_toggle_changes_observation_size(self):
        scenario = resolve_scenario("outage")
        on = BikeEnv(scenario=scenario, joint_enabled=True)
        off = BikeEnv(scenario=scenario, joint_enabled=False)
        k = on.joint_k
        n_stops = sum(len(r["stops"]) for r in scenario.routes)
        assert on.reset(seed=0).size - off.reset(seed=0).size == n_stops * k

    def test_outage_sentinel_in_observation(self):
        scenario = resolve_scenario("outage")
        env = BikeEnv(scenario=scenario, joint_enabled=True)
        env.reset(seed=0, force_outage=True)
        obs, _, _, info = env.step((0, 0))
        assert info["outage"] is True
        sentinel = float(scenario.episode_length)
        assert np.sum(obs == sentinel) >= 2 * len(env.world.bus_stops)

    def test_step_after_done(self):
        env = BikeEnv(scenario=mixed_scenario())
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step((0, 0))
        with pytest.raises(EpisodeDone):
            env.step((0, 0))


def _rollout_bytes(env, act, **reset):
    """Bytes of one episode's observations, rewards and infos."""
    obs = env.reset(**reset)
    parts = [repr((obs.shape, obs.dtype.str)).encode(), obs.tobytes()]
    done = False
    t = 0
    while not done:
        obs, reward, done, info = env.step(act(env, t))
        t += 1
        parts += [obs.tobytes(), repr((reward, done)).encode(),
                  repr(sorted(info.items())).encode()]
    return b"".join(parts)


class TestPinnedObservationStream:
    """Observation, reward and info streams of bike and bus rollouts; the
    literal was produced by the env that kept c1, c2 and g apart. A change
    to the observation layout or the forecast rows moves it."""

    def test_stream_sha256(self):
        digest = hashlib.sha256()

        def dispatch(env, t):
            return (t * 3) % env.n_stations, (t % 5) - 2

        bike5 = BikeEnv(scenario=resolve_scenario("bike5"), seed=3)
        for seed in (0, 1):
            digest.update(_rollout_bytes(bike5, dispatch, seed=seed))
        outage = BikeEnv(scenario=resolve_scenario("outage"),
                         joint_enabled=True, seed=2)
        for force in (True, False, None):
            digest.update(_rollout_bytes(outage, dispatch,
                                         force_outage=force))
        bus = BusEnv(scenario=profile_bus_scenario(), seed=4,
                     reward=RewardConfig(patience=13))
        policy = StaticHeadwayPolicy()
        for _ in range(2):
            digest.update(_rollout_bytes(
                bus, lambda env, t: policy.action_for(env)))
        # scripted demand, a scripted bus and a bus agent that sees O
        digest.update(_rollout_bytes(
            BikeEnv(scenario=resolve_scenario("fig1a")), dispatch))
        script = [{"segment": s, "origin": o, "destination": d, "count": c}
                  for s, o, d, c in [(1, "S1", "S3", 2), (2, "S3", "S2", 1),
                                     (2, "S2", "S3", 4), (5, "S1", "S2", 1)]]
        for scenario in (bus_only_scenario(script),
                         mixed_scenario(joint={"enabled": True, "k": 3})):
            digest.update(_rollout_bytes(
                BusEnv(scenario=scenario, reward=RewardConfig(patience=9)),
                lambda env, t: (W.OP_FORWARD, W.OP_HALT,
                                W.OP_BACKWARD)[t % 3]))
        assert digest.hexdigest() == (
            "97314676ca43d85121153c7f9653a5319da2558681e71f3fd52df5f2f741b945")


def two_route_scenario():
    """Routes P1..P4 and Q1..Q3, one bus each, Poisson bus demand on both
    and scripted arrivals on the second; 10 segments."""
    rates = [("P1", "P3", 0.8), ("P2", "P4", 1.1), ("P4", "P1", 0.9),
             ("P3", "P2", 0.6), ("Q1", "Q3", 0.7), ("Q3", "Q2", 1.3),
             ("Q2", "Q1", 0.5)]
    script = [(2, "Q2", "Q3", 3), (5, "Q3", "Q1", 2), (5, "Q1", "Q2", 1)]
    return ScenarioSpec.from_dict({
        "clock": {"segment_minutes": 15, "episode_length": 10},
        "stations": [{"id": "A", "x": 0.0, "y": 0.0, "docks": 5},
                     {"id": "B", "x": 1.0, "y": 0.0, "docks": 5}],
        "routes": [{"stops": ["P1", "P2", "P3", "P4"], "bus_count": 1,
                    "capacity": 4},
                   {"stops": ["Q1", "Q2", "Q3"], "bus_count": 1,
                    "capacity": 5}],
        "vehicles": [], "environment": [0.0],
        "demand_profile": {
            "rates": {"A": [0.0], "B": [0.0]},
            "od_weights": [[0.0, 1.0], [1.0, 0.0]],
            "bus_rates": [{"origin": o, "destination": d, "rate": r}
                          for o, d, r in rates]},
        "bus_script": [{"segment": s, "origin": o, "destination": d,
                        "count": c} for s, o, d, c in script],
    })


def _stop_ids(spec: ScenarioSpec) -> list[str]:
    """The scenario's stop ids, in the order of the world's stop indices."""
    return [sid for route in spec.routes for sid in route["stops"]]


def _headway_queues_sha256(env, episodes):
    """SHA-256 over every queue and every bus's riders, as (destination
    id, arrival) lists, after each step of `episodes` headway episodes."""
    ids = _stop_ids(env.scenario)
    policy = StaticHeadwayPolicy()
    digest = hashlib.sha256()
    for _ in range(episodes):
        policy.begin_episode(env.reset())
        done = False
        while not done:
            _, _, done, _ = env.step(policy.action_for(env))
            w = env.world
            for stop in w.bus_stops:
                for queue in (stop.queue_fwd, stop.queue_bwd):
                    digest.update(repr([(ids[d], arrival)
                                        for d, arrival in queue]).encode())
            for bus in w.buses:
                digest.update(repr([(ids[d], arrival)
                                    for d, arrival in bus.onboard]).encode())
    return digest.hexdigest()


class TestPinnedCityRollouts:
    """World-level streams at benchmark scale; the literals were produced
    by the world that served bike trips through per-step dicts keyed by
    station id and joined each bus arrival with two stop lookups."""

    def test_bike_city_sha256(self):
        # 50 stations whose docks fill: the bike5 and fig1a streams never
        # reach a full dock, so the dock reservation is pinned here
        env = BikeEnv(scenario=bench_scenario("city", 0), seed=5)
        n = env.n_stations
        digest = hashlib.sha256()
        full = 0
        for _ in range(3):
            obs = env.reset()
            digest.update(obs.tobytes())
            done = False
            t = 0
            while not done:
                obs, _, done, info = env.step(((t * 7) % n,
                                               20 if t % 2 else -20))
                t += 1
                digest.update(obs.tobytes())
                digest.update(repr([info[k] for k in (
                    "served", "lost", "distance_total",
                    "overflow_total")]).encode())
                full += sum(a == d for a, d in zip(env.world.available,
                                                   env.world.docks))
        assert full > 0
        assert digest.hexdigest() == (
            "0a965ec62242713c0b5027865923bd9404db9336388bf6754cb536b261ccb93c")

    def test_corridor_queues_sha256(self):
        env = BusEnv(scenario=bench_scenario("corridor", 0), seed=0,
                     reward=RewardConfig(patience=97))
        assert _headway_queues_sha256(env, 2) == (
            "49ea749a5b3ea0711057145bcd92d9f0db16fe8781c021c0257f2693c5bb6d5b")

    def test_two_route_queues_sha256(self):
        # the headway policy drives the route-1 bus alone, so route 2's
        # queues, fed by its rates and its script, are never served
        env = BusEnv(scenario=two_route_scenario(), seed=6,
                     reward=RewardConfig(patience=11))
        assert _headway_queues_sha256(env, 2) == (
            "49de3940faef9b627cd57b68bf62ebb335ee38d4a4b22649d4ec548885ac2b02")


class TestQueueSlots:
    def test_every_world_reads_the_scenario_slots(self):
        """Every world of an env, and a world built on its own, reads the
        scenario's queue slots, which declare every OD that arrives."""
        spec = bench_scenario("corridor", 0)
        env = BusEnv(scenario=spec, seed=0, reward=RewardConfig(patience=97))
        policy = StaticHeadwayPolicy()
        stepped = set()
        worlds = []
        for _ in range(5):
            policy.begin_episode(env.reset())
            worlds.append(env.world)
            done = False
            while not done:
                stepped.update((o, d) for o, d, _ in
                               env.bus_arrivals[env.world.clock.elapsed])
                _, _, done, _ = env.step(policy.action_for(env))
        assert all(w.slots is spec.queue_slots for w in worlds)
        assert stepped and stepped <= set(spec.queue_slots)
        assert build_world(spec).slots is spec.queue_slots


def _ahead(spec: ScenarioSpec, origin: str, dest: str) -> bool:
    """Whether `dest` lies ahead of `origin` on their route, read from
    the scenario's route lists."""
    (stops,) = [r["stops"] for r in spec.routes if origin in r["stops"]]
    return stops.index(dest) > stops.index(origin)


def _lone_od(spec: ScenarioSpec, origin: str, dest: str,
             declared_in: str) -> ScenarioSpec:
    """`spec` with one bus OD, declared in `bus_rates` (at a rate of 50,
    so that segment 1 draws arrivals) or in `bus_script` (one arrival at
    segment 1), and no other demand."""
    ids = spec.station_ids()
    profile = script = None
    if declared_in == "bus_rates":
        profile = {"rates": {sid: [0.0] for sid in ids},
                   "od_weights": [[0.0] * len(ids) for _ in ids],
                   "bus_rates": [{"origin": origin, "destination": dest,
                                  "rate": 50.0}]}
    else:
        script = [{"segment": 1, "origin": origin, "destination": dest,
                   "count": 1}]
    return dataclasses.replace(spec, demand_profile=profile,
                               demand_script=None, bus_script=script,
                               joint=None)


class TestDirectionRule:
    """The queue a bus arrival joins and the forecast column that takes
    its expected boardings name the same stop and direction: forward iff
    the destination lies ahead on its route."""

    @staticmethod
    def _check(spec: ScenarioSpec, origin: str, dest: str,
               declared_in: str):
        env = BusEnv(scenario=_lone_od(spec, origin, dest, declared_in))
        env.reset()
        ids = _stop_ids(spec)
        (column,) = np.flatnonzero(env.expected_bus[0])
        env.step(W.OP_HALT)
        queued = [(sid, forward)
                  for sid, s in zip(ids, env.world.bus_stops)
                  for forward, queue
                  in ((True, s.queue_fwd), (False, s.queue_bwd)) if queue]
        forecast = (ids[column % len(ids)], column < len(ids))
        assert queued == [forecast] == [(origin, _ahead(spec, origin, dest))]

    @pytest.mark.parametrize("declared_in", ["bus_rates", "bus_script"])
    def test_two_route_scenario(self, declared_in):
        spec = two_route_scenario()
        declared = {(e["origin"], e["destination"]) for e in
                    spec.demand_profile["bus_rates"] + spec.bus_script}
        assert set(spec.queue_slots) == declared
        for origin, dest in sorted(declared):
            self._check(spec, origin, dest, declared_in)

    @given(st.lists(st.integers(2, 5), min_size=2, max_size=3),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                              st.integers(1, 4)), min_size=1, max_size=4),
           st.sampled_from(["bus_rates", "bus_script"]))
    @settings(max_examples=40, deadline=None)
    def test_drawn_multi_route_scenarios(self, lengths, draws, declared_in):
        routes = [{"stops": [f"R{r}S{i}" for i in range(n)]}
                  for r, n in enumerate(lengths)]
        spec = ScenarioSpec.from_dict({
            "clock": {"episode_length": 2},
            "stations": [{"id": "A", "x": 0.0, "y": 0.0, "docks": 1}],
            "routes": routes, "vehicles": [], "environment": []})
        for r, origin, hop in draws:
            stops = routes[r % len(routes)]["stops"]
            origin %= len(stops)
            dest = (origin + hop) % len(stops)
            if origin != dest:
                self._check(spec, stops[origin], stops[dest], declared_in)


class TestSamplerCalls:
    """perfbench's tracer times demand sampling at the `envs.sample_segment`
    binding, so each reset must sample through it, once per segment of
    the episode. This reads perfbench, never edits it."""

    @pytest.mark.parametrize("kind, env_class", [("city", BikeEnv),
                                                 ("corridor", BusEnv)])
    def test_one_call_per_segment(self, monkeypatch, kind, env_class):
        real = envs.sample_segment
        calls = []

        def counting(profile, clock, rng):
            calls.append(clock.current)
            return real(profile, clock, rng)

        monkeypatch.setattr(envs, "sample_segment", counting)
        env = env_class(scenario=bench_scenario(kind, 0), seed=1)
        T = env.scenario.episode_length
        start = env.scenario.episode_start
        for _ in range(2):
            env.reset()
            assert calls == [start + t for t in range(T)]
            calls.clear()


class TestRewardConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            RewardConfig(patience=0)
