"""The four benchmark workloads: set-up, the timed loop and the output checks.

Every workload is a class whose constructor is the set-up that `setup_s`
times, whose `pin_values` method computes the outputs that `pins.json`
holds for PIN_SEED (which also warms the code paths up), and whose
`measure` method runs operations and returns the end-to-end metrics.
`measure` stops after `seconds` of work or after `count` operations; the
traced run uses `count`, so that its untraced and traced halves do exactly
the same work. Operation k of a workload depends
only on the seed and k.

README.md says why each workload was chosen and what each metric counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from urbansched import (cli, ddpg, demand, envs, forecast_bike, forecast_bus,
                        harness, world as W)
from urbansched.rng import PortableRng

import scenarios

PINS_PATH = Path(__file__).with_name("pins.json")
PIN_SEED = 0  # the seed whose outputs pins.json holds
clock = time.perf_counter


# ---------------------------------------------------------------------------
# Bookkeeping


class Ledger:
    """Operations attempted and failed. An operation fails when it raises
    or when any check on its output fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")


@dataclass
class Measured:
    metrics: dict[str, float]
    op_s: float  # the fastest operation, for the tracing overhead
    deferred: list = field(default_factory=list)  # checks run after timing


def episode_metrics(episode_times: list[float],
                    episode_steps: list[list[float]], places: int) -> dict:
    """End-to-end metrics of the run's noise-floor episode.

    On the host this benchmark was built on, a fixed pure-Python loop took
    anywhere from 1x to 3x its fastest time, in phases lasting seconds,
    with nothing else of ours running. Means and medians over a 20 s run
    moved by 20-40% from run to run with that load. So the throughputs and
    the typical step come from the noise-floor episode: each part of an
    episode at the fastest time the run saw for it. The parts are the
    reset (for training, the reset and the updates) and each step by its
    position in the episode. Every episode has the same number of steps.
    The p99 step is over all steps of the run: it is the tail a user sees.
    """
    steps = np.array(episode_steps)  # (episodes, steps per episode)
    rest = np.array(episode_times) - steps.sum(axis=1)
    floor = steps.min(axis=0)
    episode_s = rest.min() + floor.sum()
    per_episode = steps.shape[1]
    return {"episodes_per_s": 1.0 / episode_s,
            "steps_per_s": per_episode / episode_s,
            "step_ms_p50": 1e3 * float(np.median(floor)),
            "step_ms_p99": 1e3 * float(np.percentile(steps, 99)),
            "stations_per_s": places * per_episode / episode_s}


def _out_of_time(start: float, done: int, seconds: float | None,
                 count: int | None) -> bool:
    """Stop after `count` operations, or before an operation that would
    end past `seconds` at the average pace so far; never before the first."""
    if count is not None:
        return done >= count
    return done > 0 and (clock() - start) * (done + 1) / done > seconds


def _history_sha256(log: demand.HistoryLog) -> str:
    digest = hashlib.sha256()
    for od in log.od_counts:
        digest.update(np.ascontiguousarray(od, dtype="<i8").tobytes())
    return digest.hexdigest()


def sample_history(spec: W.ScenarioSpec, days: int,
                   seed: int) -> demand.HistoryLog:
    """Bike demand history as `urbansched forecast` samples it, one
    `sample_segment` and `record_trips` per segment."""
    ids = spec.station_ids()
    profile = demand.DemandProfile.from_dict(spec.demand_profile, ids)
    log = demand.HistoryLog(station_ids=ids)
    rng = PortableRng(seed)
    total = days * profile.segments_per_day
    seg_clock = W.SegmentClock(0, total, 0, spec.segment_minutes)
    for seg in range(total):
        seg_clock.current = seg
        trips, _ = demand.sample_segment(profile, seg_clock, rng)
        log.record_trips(trips)
    return log


def bike_problems(world: W.WorldState, bikes: int) -> list[str]:
    """Bikes are conserved and every vehicle's capacity identity holds."""
    out = []
    if world.total_bikes() != bikes:
        out.append(f"bikes {world.total_bikes()} != {bikes}")
    for agent in world.vehicles:
        if (agent.occupied + agent.remaining != agent.capacity
                or agent.occupied < 0 or agent.remaining < 0):
            out.append("vehicle capacity identity broken")
    return out


def bus_problems(world: W.WorldState) -> list[str]:
    """Every bus keeps its capacity identity and carries exactly the
    passengers it has on board."""
    out = []
    for bus in world.buses:
        if (bus.occupied + bus.remaining != bus.capacity
                or bus.remaining < 0 or bus.occupied != len(bus.onboard)):
            out.append("bus capacity identity broken")
    return out


def check_pins(ledger: Ledger, values: dict):
    """Outputs for PIN_SEED must repeat exactly what pins.json holds."""
    with open(PINS_PATH) as fh:
        pins = json.load(fh)
    for key, got in values.items():
        want = pins.get(key)
        ledger.record(f"pinned {key}", [] if got == want else
                      [f"{got!r} != pinned {want!r}"])


# ---------------------------------------------------------------------------
# city_rollout


def random_dispatch(seed: int, episode: int, n_stations: int, capacity: int):
    """The benchmark's own stream of dispatch actions for one episode."""
    r = random.Random(f"actions:{seed}:{episode}")
    while True:
        yield r.randrange(n_stations), r.randint(-capacity, capacity)


class CityRollout:
    """BikeEnv episodes on the generated city under seeded random dispatch."""

    trace_count = 40  # episodes in each half of the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.doc = scenarios.city(seed)
        self.spec = W.ScenarioSpec.from_dict(self.doc)
        env = envs.BikeEnv(scenario=self.spec, seed=seed)
        env.reset()

    def sizes(self) -> dict:
        return {"stations": len(self.spec.stations),
                "segments": self.spec.episode_length,
                "scenario_sha256": scenarios.sha256(self.doc)}

    def episode(self, env: envs.BikeEnv, k: int, seed: int,
                step_times: list[float] | None = None):
        """One episode; returns (seconds, served, lost, problems)."""
        vehicle = self.spec.vehicles[0]["capacity"]
        actions = random_dispatch(seed, k, len(self.spec.stations), vehicle)
        t0 = clock()
        env.reset()
        spent = clock() - t0
        bikes = env.world.total_bikes()
        problems = []
        done = False
        info = {}
        while not done:
            t0 = clock()
            _, _, done, info = env.step(next(actions))
            dt = clock() - t0
            spent += dt
            if step_times is not None:
                step_times.append(dt)
            problems += bike_problems(env.world, bikes)
        return spent, info["served_total"], info["lost_total"], problems

    def pin_values(self, ledger: Ledger) -> dict:
        doc = scenarios.city(PIN_SEED)
        spec = W.ScenarioSpec.from_dict(doc)
        env = envs.BikeEnv(scenario=spec, seed=PIN_SEED)
        _, served, lost, problems = self.episode(env, 0, PIN_SEED)
        ledger.record("pinned city episode invariants", problems)
        return {"city_sha256": scenarios.sha256(doc),
                "city_history_sha256": _history_sha256(
                    sample_history(spec, 1, PIN_SEED)),
                "city_episode_served_lost": [served, lost]}

    def measure(self, ledger: Ledger, seconds=None, count=None) -> Measured:
        env = envs.BikeEnv(scenario=self.spec, seed=self.seed)
        episode_times, episode_steps = [], []
        start = clock()
        while not _out_of_time(start, len(episode_times), seconds, count):
            k = len(episode_times)
            episode_steps.append([])
            spent, _, _, problems = self.episode(env, k, self.seed,
                                                 episode_steps[-1])
            episode_times.append(spent)
            ledger.record(f"city episode {k}", problems)
        return Measured(episode_metrics(episode_times, episode_steps,
                                        len(self.spec.stations)),
                        min(episode_times))


# ---------------------------------------------------------------------------
# bus_corridor


class BusCorridor:
    """BusEnv episodes on the generated corridor, driven by the static
    headway baseline, with patience above the episode length so that
    every episode runs all of its segments."""

    trace_count = 12

    def __init__(self, seed: int):
        self.seed = seed
        self.doc = scenarios.corridor(seed)
        self.spec = W.ScenarioSpec.from_dict(self.doc)
        self.reward = envs.RewardConfig(patience=self.spec.episode_length + 1)
        env = envs.BusEnv(scenario=self.spec, seed=seed, reward=self.reward)
        env.reset()

    def sizes(self) -> dict:
        return {"stops": len(self.spec.routes[0]["stops"]),
                "od_pairs": len(self.spec.demand_profile["bus_rates"]),
                "segments": self.spec.episode_length,
                "scenario_sha256": scenarios.sha256(self.doc)}

    @staticmethod
    def episode(env: envs.BusEnv, step_times: list[float] | None = None):
        """One episode; returns (seconds, reduced wait, drive minutes,
        passengers still queued, problems)."""
        policy = harness.StaticHeadwayPolicy()
        t0 = clock()
        obs = env.reset()
        policy.begin_episode(obs)
        spent = clock() - t0
        problems = []
        steps = 0
        done = False
        while not done:
            t0 = clock()
            _, _, done, _ = env.step(policy.action_for(env))
            dt = clock() - t0
            spent += dt
            steps += 1
            if step_times is not None:
                step_times.append(dt)
            problems += bus_problems(env.world)
        if steps != env.world.clock.episode_length:
            problems.append(f"episode stopped after {steps} segments")
        queued = sum(len(s.queue_fwd) + len(s.queue_bwd)
                     for s in env.world.bus_stops)
        return spent, env.reduced_wait, env.drive_time, queued, problems

    def pin_values(self, ledger: Ledger) -> dict:
        doc = scenarios.corridor(PIN_SEED)
        spec = W.ScenarioSpec.from_dict(doc)
        reward = envs.RewardConfig(patience=spec.episode_length + 1)
        env = envs.BusEnv(scenario=spec, seed=PIN_SEED, reward=reward)
        _, wait, drive, queued, problems = self.episode(env)
        ledger.record("pinned bus episode invariants", problems)
        return {"corridor_sha256": scenarios.sha256(doc),
                "bus_episode_wait_drive_queued": [wait, drive, queued]}

    def measure(self, ledger: Ledger, seconds=None, count=None) -> Measured:
        env = envs.BusEnv(scenario=self.spec, seed=self.seed,
                          reward=self.reward)
        episode_times, episode_steps = [], []
        start = clock()
        while not _out_of_time(start, len(episode_times), seconds, count):
            episode_steps.append([])
            spent, _, _, _, problems = self.episode(env, episode_steps[-1])
            ledger.record(f"bus episode {len(episode_times)}", problems)
            episode_times.append(spent)
        return Measured(episode_metrics(episode_times, episode_steps,
                                        len(self.spec.routes[0]["stops"])),
                        min(episode_times))


# ---------------------------------------------------------------------------
# train_bike5


class _StampedBikeEnv(envs.BikeEnv):
    """BikeEnv that time-stamps each reset and step and checks the world
    after every step, so that `ddpg.train` can be timed per episode and
    per step from outside."""

    def __post_init__(self):
        super().__post_init__()
        self.stamps: list[tuple[str, float]] = []
        self.problems: list[str] = []

    def reset(self, *args, **kwargs):
        obs = super().reset(*args, **kwargs)
        self.stamps.append(("reset", clock()))
        self.bikes = self.world.total_bikes()
        return obs

    def step(self, action):
        out = super().step(action)
        self.stamps.append(("step", clock()))
        self.problems += bike_problems(self.world, self.bikes)
        return out


class TrainBike5:
    """`urbansched train --scenario bike5`: `ddpg.train` with `desk_config`,
    in training runs of a fixed number of episodes."""

    # Episodes per training run: desk_config's 100 warm-up episodes plus 80
    # that act through the actor. The 170 with updates have 1020 env steps,
    # so that step_ms_p99 has 10 samples beyond it. A fixed run length keeps
    # that mix the same however fast training gets; faster code fits more
    # runs in `seconds`.
    episodes = 180
    held_out = 5  # evaluation seeds per training run
    trace_count = 1  # training runs in each half of the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = cli.resolve_scenario("bike5")
        self.doc = json.loads((resources.files("urbansched.scenarios")
                               / "bike5.json").read_text())
        config = ddpg.desk_config(seed=seed, episodes=self.episodes)
        # what `ddpg.train` builds before its first episode
        env = envs.BikeEnv(scenario=self.spec, seed=seed)
        obs = env.reset(seed=seed)
        rng = np.random.default_rng(seed)
        actor = ddpg.ActorNet.create(obs.size, env.action_dim, config, rng)
        critic = ddpg.CriticNet.create(obs.size, env.action_dim, config, rng)
        actor.copy(), critic.copy()
        ddpg.ReplayBuffer(config.buffer_capacity, seed=seed)

    def sizes(self) -> dict:
        return {"stations": len(self.spec.stations),
                "segments": self.spec.episode_length,
                "episodes_per_training_run": self.episodes,
                "held_out_seeds": self.held_out,
                "scenario_sha256": scenarios.sha256(self.doc)}

    def pin_values(self, ledger: Ledger) -> dict:
        return {"bike5_sha256": scenarios.sha256(self.doc),
                "bike5_no_reposition_served_lost": [
                    [r.served, r.lost] for r in (
                        harness.run_no_reposition(self.spec, seed)
                        for seed in range(3))]}

    def _check(self, run_seed: int, policy, curve,
               env: _StampedBikeEnv) -> list[str]:
        problems = list(env.problems)
        losses = [v for row in curve for v in row[4:6]]
        if len(curve) != self.episodes or not all(map(math.isfinite, losses)):
            problems.append("training losses not finite")
        trained = baseline = 0
        for i in range(self.held_out):
            seed = 1_000_000 + 100 * run_seed + i
            first, again = (harness.evaluate_policy(policy, self.spec, 1, seed)
                            for _ in range(2))
            if (first.served, first.lost) != (again.served, again.lost):
                problems.append(f"evaluation on seed {seed} does not repeat")
            trained += first.served
            baseline += harness.run_no_reposition(self.spec, seed).served
        if trained < baseline:
            problems.append(f"trained served {trained} < no-reposition "
                            f"{baseline} on held-out seeds")
        return problems

    def measure(self, ledger: Ledger, seconds=None, count=None) -> Measured:
        episode_times, episode_steps, deferred = [], [], []
        start = clock()
        runs = 0
        while not _out_of_time(start, runs, seconds, count):
            run_seed = 1000 * self.seed + runs
            config = ddpg.desk_config(seed=run_seed, episodes=self.episodes)
            made = []

            def factory():
                made.append(_StampedBikeEnv(scenario=self.spec,
                                            seed=config.seed))
                return made[-1]

            policy, curve = ddpg.train(factory, config)
            end = clock()
            env = made[0]
            # The first reset is train()'s probe for the observation size;
            # the network set-up after it is left out. An episode lasts
            # until the next reset, so it includes the updates after it.
            # The first episodes, before the buffer holds a batch, have no
            # updates and are left out.
            bounds = [t for kind, t in env.stamps if kind == "reset"][1:]
            run_steps, before = [], None
            for kind, t in env.stamps[1:]:
                if kind == "reset":
                    run_steps.append([])
                else:
                    run_steps[-1].append(t - before)
                before = t
            no_updates = math.ceil(config.batch_size
                                   / self.spec.episode_length) - 1
            episode_times += list(np.diff(bounds + [end]))[no_updates:]
            episode_steps += run_steps[no_updates:]
            deferred.append(lambda k=runs, s=run_seed, p=policy, c=curve,
                            e=env: ledger.record(f"training run {k}",
                                                 self._check(s, p, c, e)))
            runs += 1
        return Measured(episode_metrics(episode_times, episode_steps,
                                        len(self.spec.stations)),
                        min(episode_times), deferred)


# ---------------------------------------------------------------------------
# forecast_city


class ForecastCity:
    """`urbansched forecast` on the generated city, plus `forecast_bus` on
    per-stop series sampled from the generated corridor."""

    days = 4  # city history; 384 segments give each station model batch 360
    # Corridor history days, one sampled before each station fit while they
    # last: 24 repetitions of each segment position for the noise floor.
    corridor_days = 24
    horizon = 2  # the CLI defaults for horizon, clusters and epochs
    clusters = 2
    epochs = 30
    trace_count = 4  # station forecasts in each half of the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.city_doc = scenarios.city(seed)
        self.city = W.ScenarioSpec.from_dict(self.city_doc)
        self.corridor_doc = scenarios.corridor(seed)
        self.corridor = W.ScenarioSpec.from_dict(self.corridor_doc)
        demand.DemandProfile.from_dict(self.city.demand_profile,
                                       self.city.station_ids())
        forecast_bike.DepartureModel.create(seed=seed)

    def sizes(self) -> dict:
        return {"stations": len(self.city.stations),
                "history_segments": self.days * scenarios.SEGMENTS_PER_DAY,
                "corridor_history_segments":
                    self.corridor_days * scenarios.SEGMENTS_PER_DAY,
                "epochs": self.epochs, "horizon": self.horizon,
                "clusters": self.clusters,
                "city_sha256": scenarios.sha256(self.city_doc),
                "corridor_sha256": scenarios.sha256(self.corridor_doc)}

    def pin_values(self, ledger: Ledger) -> dict:
        spec = W.ScenarioSpec.from_dict(scenarios.city(PIN_SEED))
        return {"city_history_sha256": _history_sha256(
            sample_history(spec, 1, PIN_SEED))}

    def corridor_sampler(self, day_steps: list[list[float]]):
        """Per-stop forward and backward arrival series of the corridor,
        and a function that samples the next day of them, timing each
        segment into `day_steps`."""
        stops = self.corridor.routes[0]["stops"]
        where = {sid: i for i, sid in enumerate(stops)}
        profile = demand.DemandProfile.from_dict(
            self.corridor.demand_profile, self.corridor.station_ids())
        per_day = profile.segments_per_day
        total = self.corridor_days * per_day
        series = {d: {sid: np.zeros(total) for sid in stops}
                  for d in ("fwd", "bwd")}
        rng = PortableRng(self.seed + 1)
        seg_clock = W.SegmentClock(0, total, 0, self.corridor.segment_minutes)

        def sample_day():
            day = len(day_steps)
            day_steps.append([])
            for seg in range(day * per_day, (day + 1) * per_day):
                t0 = clock()
                seg_clock.current = seg
                _, arrivals = demand.sample_segment(profile, seg_clock, rng)
                for origin, dest, n in arrivals:
                    d = "fwd" if where[dest] > where[origin] else "bwd"
                    series[d][origin][seg] += n
                day_steps[-1].append(clock() - t0)

        return series, sample_day

    def measure(self, ledger: Ledger, seconds=None, count=None) -> Measured:
        start = clock()
        day_steps: list[list[float]] = []
        log = sample_history(self.city, self.days, self.seed)
        bus_series, sample_day = self.corridor_sampler(day_steps)
        ids = self.city.station_ids()
        coords = np.array([[s["x"], s["y"]] for s in self.city.stations])
        clusters = forecast_bike.cluster_stations(ids, coords, self.clusters,
                                                  seed=self.seed)
        od = forecast_bike.od_probabilities(log.total_od(), ids, clusters)
        order = list(ids)
        random.Random(f"stations:{self.seed}").shuffle(order)
        preds: dict[str, np.ndarray] = {}
        station_times = []
        for sid in order:
            if _out_of_time(start, len(preds), seconds, count):
                break
            # One corridor day between station fits spreads the timed
            # history steps over the run; no output depends on the order.
            if len(day_steps) < self.corridor_days:
                sample_day()
            series = log.departure_series(sid)
            t0 = clock()
            preds[sid] = forecast_bike.forecast_departures(
                series, self.horizon, window=min(24, max(2, series.size // 4)),
                seed=self.seed, epochs=self.epochs)
            station_times.append(clock() - t0)
        while len(day_steps) < self.corridor_days:
            sample_day()
        departures = np.zeros((self.horizon, len(ids)))
        for sid, p in preds.items():
            departures[:, ids.index(sid)] = p
        flows = [forecast_bike.predict_flow(dep, od, t + 1)
                 for t, dep in enumerate(departures)]
        bus = forecast_bus.forecast_bus(bus_series, self.horizon, window=24)
        phase = clock() - start

        def check():
            for sid, p in preds.items():
                ledger.record(f"station {sid} forecast", _forecast_problems(
                    p, (self.horizon,)))
            ledger.record("flow split", [
                problem for fm in flows
                for problem in _forecast_problems(fm.G, (len(ids), len(ids)))])
            ledger.record("bus forecast", _bus_problems(
                bus_series, bus, self.horizon))

        # the steps are corridor history segments, and the "episodes" their
        # days; episodes_per_s is then replaced by the station model fits
        metrics = episode_metrics(list(map(sum, day_steps)), day_steps, 0)
        metrics["episodes_per_s"] = 1.0 / min(station_times)
        metrics["stations_per_s"] = len(preds) / phase
        return Measured(metrics, min(station_times), [check])


def _forecast_problems(values: np.ndarray, shape: tuple) -> list[str]:
    values = np.asarray(values)
    if values.shape != shape:
        return [f"shape {values.shape} != {shape}"]
    if not np.all(np.isfinite(values)):
        return ["forecast not finite"]
    if np.any(values < 0):
        return ["forecast negative"]
    return []


def _bus_problems(histories: dict, out: dict, horizon: int) -> list[str]:
    """Finite, non-negative, and coherent: each reconciled stop forecast
    comes from a [total; stops] vector whose stops sum to its total within
    1e-9."""
    problems = []
    for direction, series_map in histories.items():
        stops = list(series_map)
        problems += _forecast_problems(out[direction], (horizon, len(stops)))
        models = forecast_bus.fit_base(series_map, 24)
        length = series_map[stops[0]].size
        for step in range(1, horizon + 1):
            t = length - 1 + step
            base = np.array([models["__total__"].predict(t)]
                            + [models[s].predict(t) for s in stops])
            rec = forecast_bus.reconcile(base)
            if abs(rec[0] - rec[1:].sum()) > 1e-9:
                problems.append(f"{direction} step {step} incoherent")
            if np.max(np.abs(rec[1:] - out[direction][step - 1])) > 1e-9:
                problems.append(f"{direction} step {step} not reconciled")
    return problems


WORKLOADS = {
    "train_bike5": TrainBike5,
    "city_rollout": CityRollout,
    "bus_corridor": BusCorridor,
    "forecast_city": ForecastCity,
}
