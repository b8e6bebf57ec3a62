"""What perfbench reads of the program, checked on tiny runs: training
curve rows, the bike env's final step info and the bus env's totals must
agree with the env's `EpisodeRecord`. This reads perfbench, never edits
it."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from urbansched import ddpg, envs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(mp: pytest.MonkeyPatch, name: str):
    """A perfbench module, registered under its own name while it loads."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        _load(mp, "scenarios")
        return _load(mp, "workloads")


def test_train_curve_rows_carry_the_losses(workloads):
    """`TrainBike5._check` reads `row[4:6]` of every curve row; a shorter
    row would make its finiteness check pass without checking anything."""
    bench = workloads.TrainBike5(workloads.PIN_SEED)
    config = ddpg.desk_config(seed=0, episodes=4, warmup_episodes=1,
                              batch_size=8, train_steps_per_episode=2,
                              lstm_hidden=4, actor_hidden=4, critic_hidden=4)
    made = []

    def factory():
        made.append(workloads._StampedBikeEnv(scenario=bench.spec, seed=0))
        return made[-1]

    _, curve = ddpg.train(factory, config)
    assert [len(row) for row in curve] == [6] * 4
    assert all(math.isfinite(v) for row in curve for v in row[4:6])
    assert curve[-1][4] > 0  # the last episode's updates wrote a loss
    record = made[0].record
    assert curve[-1][1:4] == (record.total_reward, record.served,
                              record.lost)


def test_bike_final_info_equals_the_record(workloads):
    """`CityRollout.episode` reads the final step's `served_total` and
    `lost_total`."""
    bench = workloads.CityRollout(workloads.PIN_SEED)
    env = envs.BikeEnv(scenario=bench.spec, seed=workloads.PIN_SEED)
    _, served, lost, problems = bench.episode(env, 0, workloads.PIN_SEED)
    assert problems == []
    assert (served, lost) == (env.record.served, env.record.lost)
    assert served > 0 and lost > 0


def test_bus_totals_equal_the_record(workloads):
    """`BusCorridor.episode` reads `BusEnv.reduced_wait` and
    `BusEnv.drive_time` after the episode."""
    bench = workloads.BusCorridor(workloads.PIN_SEED)
    env = envs.BusEnv(scenario=bench.spec, seed=workloads.PIN_SEED,
                      reward=bench.reward)
    _, wait, drive, _, problems = bench.episode(env)
    assert problems == []
    record = env.record
    assert (wait, drive) == (record.reduced_wait, record.drive_time)
    assert wait > 0 and drive > 0 and record.boardings > 0
