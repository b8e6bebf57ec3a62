"""One rollout loop: `ddpg.run_episode` drives every policy through
`begin_episode(obs)`, then `action_for(env)` on each step.

The loops it replaced are kept here as references: the passive loop of the
no-reposition and greedy baselines, the static-headway loop, and the
rollout whose first step skipped the window push. On the same env each must
give the same actions as the one loop, and its total reward and final
totals must equal the `EpisodeRecord` that the one loop returns.
"""

import importlib.util
from pathlib import Path

import pytest

from urbansched import harness
from urbansched.cli import resolve_scenario
from urbansched.ddpg import (
    HistoryWindow, Policy, act, decode_action, desk_config, run_episode,
    train,
)
from urbansched.envs import BikeEnv, BusEnv, EpisodeRecord, RewardConfig
from urbansched.world import ScenarioSpec

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def corridor(seed: int) -> ScenarioSpec:
    """perfbench's 30-stop corridor. This reads perfbench, never edits it."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                  GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return ScenarioSpec.from_dict(module.corridor(seed))


def bike_record(total, info) -> EpisodeRecord:
    """A bike reference's total reward and the totals of its final info."""
    return EpisodeRecord(total, served=info["served_total"],
                         lost=info["lost_total"],
                         distance=info["distance_total"],
                         overflow=info["overflow_total"])


def passive_reference(scenario, seed):
    """The former `harness._simulate_passive`."""
    env = BikeEnv(scenario=scenario, seed=seed)
    env.reset(seed=seed)
    total = 0.0
    done = False
    actions = []
    home = env.world.vehicles[0].location if env.world.vehicles else 0
    while not done:
        actions.append((home, 0))
        _, reward, done, info = env.step(actions[-1])
        total += reward
    return bike_record(total, info), actions


def headway_reference(scenario, seed, reward=RewardConfig()):
    """The former loop of the static-headway baseline. Its totals are the
    sums of the step infos; its boardings are the arrivals of the played
    segments less the passengers still queued."""
    env = BusEnv(scenario=scenario, seed=seed, reward=reward)
    env.reset(seed=seed)
    policy = harness.StaticHeadwayPolicy()
    policy.begin_episode(None)
    done = False
    total = wait = drive = 0.0
    actions = []
    while not done:
        actions.append(policy.action_for(env))
        _, reward, done, info = env.step(actions[-1])
        total += reward
        wait += info["reduced_wait"]
        drive += info["drive_time"]
    arrived = sum(n for arrivals in env.bus_arrivals[:len(actions)]
                  for _, _, n in arrivals)
    queued = sum(len(s.queue_fwd) + len(s.queue_bwd)
                 for s in env.world.bus_stops)
    return EpisodeRecord(total, boardings=arrived - queued,
                         reduced_wait=wait, drive_time=drive), actions


def first_flag_reference(env, policy: Policy, force_outage=None):
    """The former `ddpg.run_episode`, with the former `Policy.begin_episode`
    (a window reset with the first observation) and `Policy.action(obs)`
    (no push on the first step) inlined."""
    kwargs = {}
    if force_outage is not None:
        kwargs["force_outage"] = force_outage
    obs = env.reset(**kwargs)
    window = HistoryWindow(policy.history_window,
                           policy.actor.lstm.W_x.shape[0])
    window.reset(obs)
    total = 0.0
    done = False
    first = True
    actions = []
    while not done:
        if not first:
            window.push(obs)
        first = False
        scores = act(policy.actor, window.buffer, window.start)
        actions.append(decode_action(scores, policy.kind, policy.capacity))
        obs, reward, done, info = env.step(actions[-1])
        total += reward
    return bike_record(total, info), actions


class Recording:
    """A policy that records the actions of the policy it wraps."""

    def __init__(self, policy):
        self.policy = policy
        self.kind = policy.kind
        self.actions = []

    def begin_episode(self, obs):
        self.policy.begin_episode(obs)

    def action_for(self, env):
        self.actions.append(self.policy.action_for(env))
        return self.actions[-1]


def one_loop(env, policy, force_outage=None):
    recording = Recording(policy)
    record = run_episode(env, recording, force_outage)
    return record, recording.actions


def reloaded_policy(tmp_path, factory) -> Policy:
    config = desk_config(seed=0, episodes=6, lstm_hidden=8, actor_hidden=8,
                         critic_hidden=8, batch_size=8, warmup_episodes=2,
                         train_steps_per_episode=2, history_window=3)
    policy, _ = train(factory, config)
    path = tmp_path / "policy.json"
    policy.save(str(path))
    return Policy.load(str(path))


class TestOneLoopMatchesTheOldOnes:
    @pytest.mark.parametrize("name", ["fig1a", "bike5"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_no_reposition(self, name, seed):
        scenario = resolve_scenario(name)
        expected = passive_reference(scenario, seed)
        assert one_loop(BikeEnv(scenario=scenario, seed=seed),
                        harness.NoReposition()) == expected
        report = harness.run_no_reposition(scenario, seed)
        assert (report.served, report.lost, report.returns) == (
            expected[0].served, expected[0].lost, [expected[0].total_reward])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_static_headway_on_the_corridor(self, seed):
        scenario = corridor(0)
        expected = headway_reference(scenario, seed)
        report = harness.evaluate_policy(harness.StaticHeadwayPolicy(),
                                         scenario, 1, seed)
        assert report.returns == [expected[0].total_reward]
        # a patience past the day plays all 96 segments
        reward = RewardConfig(patience=97)
        expected = headway_reference(scenario, seed, reward)
        assert len(expected[1]) == 96
        assert one_loop(BusEnv(scenario=scenario, seed=seed, reward=reward),
                        harness.StaticHeadwayPolicy()) == expected

    def test_reloaded_bike5_policy(self, tmp_path):
        scenario = resolve_scenario("bike5")
        policy = reloaded_policy(
            tmp_path, lambda: BikeEnv(scenario=scenario, seed=0))
        for seed in (0, 1, 2):
            # three episodes of one env each, as `evaluate_policy` runs them
            old = BikeEnv(scenario=scenario, seed=seed)
            new = BikeEnv(scenario=scenario, seed=seed)
            for _ in range(3):
                assert one_loop(new, policy) == first_flag_reference(old,
                                                                     policy)

    def test_reloaded_outage_policy_with_joint_mode(self, tmp_path):
        scenario = resolve_scenario("outage")

        def factory():
            return BikeEnv(scenario=scenario, joint_enabled=True, seed=2)

        policy = reloaded_policy(tmp_path, factory)
        old, new = factory(), factory()
        for force in (True, False, None, None):
            assert one_loop(new, policy, force) == first_flag_reference(
                old, policy, force)
            assert new.outage == old.outage
