"""One rollout loop: `ddpg.run_episode` drives every policy through
`begin_episode(obs)`, then `action_for(env)` on each step.

The loops it replaced are kept here as references: the passive loop of the
no-reposition and greedy baselines, the static-headway loop, and the
rollout whose first step skipped the window push. On the same env each must
give the same actions, total reward and final info as the one loop.
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
from urbansched.envs import BikeEnv, BusEnv, RewardConfig
from urbansched.world import ScenarioSpec

GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"


def corridor(seed: int) -> ScenarioSpec:
    """perfbench's 30-stop corridor. This reads perfbench, never edits it."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                  GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return ScenarioSpec.from_dict(module.corridor(seed))


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
    return total, info, actions


def headway_reference(scenario, seed, reward=RewardConfig()):
    """The former loop of `harness.run_static_headway`."""
    env = BusEnv(scenario=scenario, seed=seed, reward=reward)
    env.reset(seed=seed)
    policy = harness.StaticHeadwayPolicy()
    policy.begin_episode(None)
    done = False
    total = 0.0
    actions = []
    while not done:
        actions.append(policy.action_for(env))
        _, reward, done, info = env.step(actions[-1])
        total += reward
    return total, info, actions


def first_flag_reference(env, policy: Policy, force_outage=None):
    """The former `ddpg.run_episode`, with the former `Policy.begin_episode`
    (a window reset with the first observation) and `Policy.action(obs)`
    (no push on the first step) inlined."""
    kwargs = {}
    if force_outage is not None:
        kwargs["force_outage"] = force_outage
    obs = env.reset(**kwargs)
    window = HistoryWindow(policy.history_window, policy.obs_dim)
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
    return total, info, actions


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
    total, info = run_episode(env, recording, force_outage)
    return total, info, recording.actions


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
            expected[1]["served_total"], expected[1]["lost_total"],
            [expected[0]])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_static_headway_on_the_corridor(self, seed):
        scenario = corridor(0)
        expected = headway_reference(scenario, seed)
        assert harness.run_static_headway(scenario, seed).returns == [
            expected[0]]
        # a patience past the day plays all 96 segments
        reward = RewardConfig(patience=97)
        expected = headway_reference(scenario, seed, reward)
        assert len(expected[2]) == 96
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
