"""Baseline schedulers, the exhaustive placement oracle, and evaluation."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import world as W
from .ddpg import Policy, run_episode
from .envs import BikeEnv, BusEnv, EpisodeRecord


class OracleTooLarge(W.InputError):
    """Raised when the exhaustive placement space exceeds the refusal bound."""


PLACEMENT_BOUND = 10 ** 6

# The oracle replays the episode's T segments once per placement. A
# segment step of bike5 takes about 4.5 us on a 2-core desk host (its
# 20,475 placements x 6 segments in 0.55 s), so this many take about 45 s
# there.
ORACLE_STEP_BOUND = 10 ** 7


@dataclass
class MetricsReport:
    """A seed's episodes: served, lost, vehicle_distance and bus_drive_time
    are their sums, returns their total rewards (mean_return the mean), and
    mean_wait_minutes their summed reduced wait over their summed
    boardings, 0 without boardings (as in every bike run)."""

    served: int
    lost: int
    mean_wait_minutes: float
    vehicle_distance: float
    bus_drive_time: float
    returns: list[float]
    seed: int

    @classmethod
    def of(cls, records: list[EpisodeRecord], seed: int) -> "MetricsReport":
        boardings = sum(r.boardings for r in records)
        wait = sum(r.reduced_wait for r in records)
        return cls(served=sum(r.served for r in records),
                   lost=sum(r.lost for r in records),
                   mean_wait_minutes=wait / boardings if boardings else 0.0,
                   vehicle_distance=sum(r.distance for r in records),
                   bus_drive_time=sum(r.drive_time for r in records),
                   returns=[r.total_reward for r in records], seed=seed)

    def as_row(self) -> dict:
        return {
            "seed": self.seed,
            "served": self.served,
            "lost": self.lost,
            "mean_wait_minutes": f"{self.mean_wait_minutes:.3f}",
            "vehicle_distance": f"{self.vehicle_distance:.3f}",
            "bus_drive_time": f"{self.bus_drive_time:.3f}",
            "mean_return": f"{np.mean(self.returns):.3f}" if self.returns else "0",
        }


def _dispatchable_bikes(scenario: W.ScenarioSpec) -> int:
    return (sum(load for _, load, _ in scenario.vehicle_fleet)
            + sum(scenario.initial_bikes))


def _placeable_bikes(scenario: W.ScenarioSpec, what: str) -> int:
    """The dispatchable bikes, which a placement docks at the stations;
    more than all docks together raise ScenarioError, naming `what`."""
    bikes, docks = _dispatchable_bikes(scenario), sum(scenario.docks)
    if bikes > docks:
        raise W.ScenarioError(f"{what}: {bikes} dispatchable bikes exceed "
                              f"the {docks} docks of all stations")
    return bikes


def _with_placement(scenario: W.ScenarioSpec,
                    placement: dict[str, int]) -> W.ScenarioSpec:
    """Scenario copy with all dispatchable bikes pre-placed at stations."""
    stations = [dict(s, initial_bikes=placement.get(s["id"], 0))
                for s in scenario.stations]
    vehicles = [dict(v, initial_load=0) for v in scenario.vehicles]
    return replace(scenario, stations=stations, vehicles=vehicles)


def first_segment_departures(scenario: W.ScenarioSpec) -> np.ndarray:
    n = len(scenario.stations)
    return BikeEnv(scenario=scenario).expected_bike[0, :n]


def greedy_placement(scenario: W.ScenarioSpec) -> W.ScenarioSpec:
    """Scenario copy with the dispatchable bikes placed in ranking order:
    stations rank by their first-segment predicted departures, largest
    first, ties to the lowest id, and each in turn takes as many of the
    bikes left as it docks. Bikes beyond all docks together raise
    ScenarioError."""
    left = _placeable_bikes(scenario, "greedy placement")
    departures = first_segment_departures(scenario)
    ids = scenario.station_ids()
    placement = {}
    for i in sorted(range(len(ids)), key=lambda i: (-departures[i], ids[i])):
        placement[ids[i]] = min(left, scenario.docks[i])
        left -= placement[ids[i]]
    return _with_placement(scenario, placement)


def run_greedy_bike(scenario: W.ScenarioSpec, seed: int = 0) -> MetricsReport:
    """The greedy placement, then never reposition again."""
    return run_no_reposition(greedy_placement(scenario), seed)


def run_no_reposition(scenario: W.ScenarioSpec, seed: int = 0) -> MetricsReport:
    return evaluate_policy(NoReposition(), scenario, 1, seed)


def _compositions(total: int, bins: int):
    """All nonnegative integer splits of total over bins, in lexicographic
    order: stars and bars, the bins - 1 bars placed among total + bins - 1
    slots, with each bin the stars between two bars."""
    slots = total + bins - 1
    for bars in itertools.combinations(range(slots), bins - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


def placement_count(total: int, bins: int) -> int:
    return math.comb(total + bins - 1, bins - 1)


def run_exhaustive_bike(scenario: W.ScenarioSpec, seed: int = 0):
    """Enumerate every initial placement of the dispatchable bikes and
    return (best placement dict, best served). Independent oracle for the
    long-term planning claim; refuses instances beyond PLACEMENT_BOUND
    placements or ORACLE_STEP_BOUND segment steps, and more dispatchable
    bikes than all docks, before any work. No placement changes the
    episode's demand, so it is realised once and each placement replays
    it, as `NoReposition` would play it."""
    ids = scenario.station_ids()
    if not ids:
        raise W.ScenarioError("oracle needs at least one station")
    total = _placeable_bikes(scenario, "oracle")
    count = placement_count(total, len(ids))
    if count > PLACEMENT_BOUND:
        raise OracleTooLarge(
            f"{count} placements exceed the bound {PLACEMENT_BOUND}")
    steps = count * scenario.episode_length
    if steps > ORACLE_STEP_BOUND:
        raise OracleTooLarge(
            f"{count} placements x {scenario.episode_length} segments = "
            f"{steps} segment steps exceed the bound {ORACLE_STEP_BOUND}")
    env = BikeEnv(scenario=scenario, seed=seed)
    env.reset()
    world = env.world
    best_served = -1
    best_placement: dict[str, int] = {}
    for split in _compositions(total, len(ids)):
        if any(c > d for c, d in zip(split, world.docks)):
            continue
        world.available[:] = split
        world.clock.current = scenario.episode_start
        served = sum(W.step_bike_world(world, trips)[1]
                     for trips in env.trips)
        if served > best_served:
            best_served = served
            best_placement = dict(zip(ids, split))
    return best_placement, best_served


# Every policy speaks one protocol: `begin_episode(obs)` with the reset
# observation, then `action_for(env)` on each step; `kind` picks the env
# that `evaluate_policy` builds ("bus" a BusEnv, anything else a BikeEnv).

class NoReposition:
    """Bike baseline: the dispatch vehicle stays where it starts and moves
    no bikes."""

    kind = "vehicle"

    def begin_episode(self, obs):
        pass

    def action_for(self, env: BikeEnv) -> tuple[int, int]:
        vehicles = env.world.vehicles
        return (vehicles[0].location if vehicles else 0, 0)


class StaticHeadwayPolicy:
    """Bus baseline: drive forward to the terminal of the bus's route, then
    back, forever."""

    kind = "bus"
    direction = W.OP_FORWARD

    def begin_episode(self, obs):
        self.direction = W.OP_FORWARD

    def action_for(self, env: BusEnv) -> int:
        world = env.world
        pos = world.buses[0].location
        if not world.same_route(pos, pos + 1):
            self.direction = W.OP_BACKWARD
        elif not world.same_route(pos, pos - 1):
            self.direction = W.OP_FORWARD
        return self.direction


def evaluate_policy(policy, scenario: W.ScenarioSpec, episodes: int,
                    seed: int) -> MetricsReport:
    """Noise-free evaluation of any policy: `episodes` episodes of one env
    seeded with `seed`, reported by `MetricsReport.of`."""
    make_env = BusEnv if policy.kind == "bus" else BikeEnv
    env = make_env(scenario=scenario, seed=seed)
    return MetricsReport.of([run_episode(env, policy)
                             for _ in range(episodes)], seed)


def evaluate(policy_kind: str, scenario: W.ScenarioSpec, episodes: int,
             seeds: list[int], policy: Policy | None = None) -> list[MetricsReport]:
    """Run a named baseline or a trained policy across seeds. "trained"
    runs `policy`, which the CLI loads from the checkpoint it requires."""
    if episodes < 1:
        raise W.InputError("episodes must be >= 1")
    if policy_kind in ("none", "greedy"):
        policy = NoReposition()
        if policy_kind == "greedy":
            scenario = greedy_placement(scenario)
    elif policy_kind == "headway":
        policy = StaticHeadwayPolicy()
    elif policy_kind != "trained":
        raise W.InputError(f"unknown policy kind {policy_kind!r}")
    return [evaluate_policy(policy, scenario, episodes, seed)
            for seed in seeds]


def save_reports_csv(path: str, reports: list[MetricsReport]):
    if not reports:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(reports[0].as_row()))
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.as_row())
