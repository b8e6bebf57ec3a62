import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched import nn
from urbansched import world as W
from urbansched.cli import resolve_scenario
from urbansched.ddpg import (
    ActorNet, CriticNet, DdpgConfig, HistoryWindow, OuNoise, Policy,
    ReplayBuffer, act, decode_action, desk_config, run_episode,
    save_curve_csv, soft_update, train, train_step,
)
from urbansched.envs import BikeEnv, BusEnv


SMALL = DdpgConfig(lstm_hidden=6, actor_hidden=6, critic_hidden=6,
                   history_window=3, batch_size=4, seed=0)


def small_actor(obs_dim=5, action_dim=4, seed=0):
    return ActorNet.create(obs_dim, action_dim, SMALL,
                           np.random.default_rng(seed))


class TestAct:
    def test_zero_parameters_zero_scores(self):
        actor = ActorNet(lstm=nn.LstmParams.zeros(5, 6),
                         head=nn.MlpParams(
                             weights=[np.zeros((6, 6)), np.zeros((6, 4))],
                             biases=[np.zeros(6), np.zeros(4)],
                             activations=["relu", "tanh"]))
        window = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_array_equal(act(actor, window), np.zeros(4))

    def test_deterministic(self):
        actor = small_actor()
        window = np.random.default_rng(1).normal(size=(3, 5))
        np.testing.assert_array_equal(act(actor, window), act(actor, window))

    def test_padding_equivalence(self):
        actor = small_actor()
        obs = np.random.default_rng(2).normal(size=5)
        short = obs[None, :]
        padded = np.vstack([np.zeros((3, 5)), short])
        np.testing.assert_allclose(act(actor, short), act(actor, padded),
                                   atol=1e-12)

    def test_batched_forward_matches_single(self):
        actor = small_actor()
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(6, 3, 5))
        windows[0, :2] = 0.0  # padded sample mixed into the batch
        batch_scores, _ = actor.forward(windows)
        for b in range(6):
            np.testing.assert_allclose(batch_scores[b],
                                       act(actor, windows[b]), atol=1e-12)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            act(small_actor(), np.zeros(5))

    def test_actor_gradients_pass_grad_check(self):
        actor = small_actor(obs_dim=3, action_dim=2)
        rng = np.random.default_rng(4)
        windows = rng.normal(size=(4, 3, 3))
        weights = rng.normal(size=(4, 2))
        scores, tapes = actor.forward(windows)
        base = scores.copy()

        def loss():
            # linear in the scores and centred on the unperturbed output,
            # so central differences carry no curvature and little roundoff
            out, _ = actor.forward(windows)
            return float(np.sum(weights * (out - base)))

        grads = actor.backward(tapes, weights)
        assert nn.grad_check(loss, actor.arrays(), grads) <= 1e-5

    def test_critic_gradients_pass_grad_check(self):
        critic = CriticNet.create(4, 2, SMALL, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        obs = rng.normal(size=(3, 4))
        actions = rng.normal(size=(3, 2))

        def loss():
            q, _ = critic.forward(obs, actions)
            return 0.5 * float(np.sum(q ** 2))

        q, tape = critic.forward(obs, actions)
        grads, _, _ = critic.backward(tape, q[:, None])
        assert nn.grad_check(loss, critic.arrays(), grads) <= 1e-5


class TestDecodeAction:
    def test_bus_argmax(self):
        assert decode_action(np.array([0.1, 0.9, 0.3]), "bus") == W.OP_HALT
        assert decode_action(np.array([0.9, 0.1, 0.3]), "bus") == W.OP_BACKWARD
        assert decode_action(np.array([0.1, 0.3, 0.9]), "bus") == W.OP_FORWARD

    def test_bus_tie_prefers_halt(self):
        assert decode_action(np.array([0.9, 0.9, 0.2]), "bus") == W.OP_HALT

    def test_bike_station_argmax(self):
        station, _ = decode_action(np.array([0.1, 0.9, 0.3, 0.0]), "vehicle",
                                   capacity=10)
        assert station == 1

    def test_quantity_scaling(self):
        _, qty = decode_action(np.array([1.0, 0.0, 0.0, 0.73]), "vehicle",
                               capacity=10)
        assert qty == 7
        _, qty = decode_action(np.array([1.0, 0.0, 0.0, -0.73]), "vehicle",
                               capacity=10)
        assert qty == -7
        _, qty = decode_action(np.array([1.0, 0.0, 0.0, 5.0]), "vehicle",
                               capacity=10)
        assert qty == 10  # clipped to capacity

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            decode_action(np.array([np.nan, 0.0, 0.0]), "bus")
        with pytest.raises(ValueError):
            decode_action(np.zeros(3), "tram")

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_decoded_actions_always_accepted(self, seed):
        rng = np.random.default_rng(seed)
        env = BikeEnv(scenario=resolve_scenario("fig1a"))
        env.reset(seed=seed)
        capacity = env.world.vehicles[0].capacity
        done = False
        while not done:
            scores = rng.uniform(-1, 1, size=env.action_dim)
            _, _, done, _ = env.step(decode_action(scores, "vehicle",
                                                   capacity))

    def test_bus_decode_accepted_by_env(self):
        rng = np.random.default_rng(0)
        scenario = resolve_scenario("outage")
        doc = {
            "clock": {"segment_minutes": 15, "episode_length": 4},
            "stations": [], "vehicles": [], "environment": [0.0],
            "routes": [{"stops": ["S1", "S2"], "bus_count": 1,
                        "capacity": 5}],
            "demand_script": [],
        }
        env = BusEnv(scenario=W.ScenarioSpec.from_dict(doc))
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step(
                decode_action(rng.uniform(-1, 1, size=3), "bus"))


class TestReplayBuffer:
    def make_item(self, i):
        return (np.full((2, 3), i), np.array([i]), float(i),
                np.full((2, 3), i + 1), False)

    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=5, seed=0)
        for i in range(8):
            buf.push(*self.make_item(i))
        assert len(buf) == 5
        rewards = [item[2] for item in buf.as_list()]
        assert rewards == [3.0, 4.0, 5.0, 6.0, 7.0]

    @given(st.integers(1, 20), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_fifo_property(self, capacity, extra):
        buf = ReplayBuffer(capacity=capacity, seed=0)
        total = capacity + extra
        for i in range(total):
            buf.push(*self.make_item(i))
        rewards = [item[2] for item in buf.as_list()]
        assert rewards == [float(i) for i in range(max(0, total - capacity),
                                                   total)]

    def test_sample_validation(self):
        buf = ReplayBuffer(capacity=4, seed=0)
        buf.push(*self.make_item(0))
        with pytest.raises(ValueError):
            buf.sample(2)
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_sample_seeded(self):
        def fill():
            buf = ReplayBuffer(capacity=10, seed=7)
            for i in range(10):
                buf.push(*self.make_item(i))
            return buf.sample(4)[2]

        np.testing.assert_array_equal(fill(), fill())


class TestOuNoise:
    def test_sigma_zero_geometric_decay(self):
        noise = OuNoise(dim=1, theta=0.25, sigma=0.0, mu=0.0)
        noise.state[:] = 1.0
        values = [noise.sample()[0] for _ in range(4)]
        np.testing.assert_allclose(values, [0.75, 0.75 ** 2, 0.75 ** 3,
                                            0.75 ** 4])

    def test_reset(self):
        noise = OuNoise(dim=2, mu=0.5)
        noise.sample()
        noise.reset()
        np.testing.assert_array_equal(noise.state, [0.5, 0.5])


class TestSoftUpdate:
    def test_endpoints_and_midpoint(self):
        target = [np.array([2.0])]
        soft_update(target, [np.array([4.0])], tau=0.0)
        np.testing.assert_allclose(target[0], [2.0])
        soft_update(target, [np.array([4.0])], tau=0.5)
        np.testing.assert_allclose(target[0], [3.0])
        soft_update(target, [np.array([4.0])], tau=1.0)
        np.testing.assert_allclose(target[0], [4.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            soft_update([np.zeros(1)], [np.zeros(1)], tau=1.5)
        with pytest.raises(ValueError):
            soft_update([np.zeros(2)], [np.zeros(3)], tau=0.5)

    def test_contraction_toward_fixed_online(self):
        rng = np.random.default_rng(0)
        online = [rng.normal(size=(3, 3))]
        target = [rng.normal(size=(3, 3))]
        dist = float(np.linalg.norm(target[0] - online[0]))
        for _ in range(150):
            soft_update(target, online, tau=0.1)
            new_dist = float(np.linalg.norm(target[0] - online[0]))
            assert new_dist <= dist + 1e-12
            dist = new_dist
        assert dist < 1e-2


class TestTrainStep:
    def build(self, obs_dim=4, action_dim=3, seed=0):
        rng = np.random.default_rng(seed)
        actor = ActorNet.create(obs_dim, action_dim, SMALL, rng)
        critic = CriticNet.create(obs_dim, action_dim, SMALL, rng)
        return actor, critic, actor.copy(), critic.copy()

    def test_insufficient_buffer_rejected(self):
        actor, critic, at, ct = self.build()
        buf = ReplayBuffer(capacity=10, seed=0)
        with pytest.raises(ValueError):
            train_step(buf, actor, critic, at, ct, SMALL)

    def test_repeated_transition_converges_to_reward(self):
        actor, critic, at, ct = self.build()
        obs = np.random.default_rng(1).normal(size=4)
        window = np.tile(obs, (3, 1))
        action = np.array([0.2, -0.1, 0.4])
        reward = 0.7
        buf = ReplayBuffer(capacity=8, seed=0)
        for _ in range(8):
            buf.push(window, action, reward, window, True)
        config = DdpgConfig(lstm_hidden=6, actor_hidden=6, critic_hidden=6,
                            history_window=3, batch_size=4, critic_lr=0.05,
                            actor_lr=0.0, seed=0)
        for _ in range(600):
            diag = train_step(buf, actor, critic, at, ct, config)
        q, _ = critic.forward(window[-1][None, :], action[None, :])
        assert abs(q[0] - reward) <= 1e-2
        assert diag.critic_loss <= 1e-3

    def test_done_masks_bootstrap(self):
        # with discount 0 vs done=True the targets coincide: both equal r
        obs = np.zeros(4)
        window = np.tile(obs, (3, 1))
        action = np.zeros(3)
        results = []
        for discount, done in ((0.0, False), (0.9, True)):
            actor, critic, at, ct = self.build(seed=3)
            buf = ReplayBuffer(capacity=4, seed=0)
            for _ in range(4):
                buf.push(window, action, 1.0, window, done)
            config = DdpgConfig(lstm_hidden=6, actor_hidden=6,
                                critic_hidden=6, history_window=3,
                                batch_size=4, discount=discount,
                                actor_lr=0.0, tau=0.0, seed=0)
            diag = train_step(buf, actor, critic, at, ct, config)
            results.append(diag.critic_loss)
        assert results[0] == pytest.approx(results[1])

    def test_diagnostics_finite(self):
        actor, critic, at, ct = self.build()
        rng = np.random.default_rng(2)
        buf = ReplayBuffer(capacity=16, seed=0)
        for _ in range(8):
            buf.push(rng.normal(size=(3, 4)), rng.uniform(-1, 1, 3),
                     rng.normal(), rng.normal(size=(3, 4)), False)
        diag = train_step(buf, actor, critic, at, ct, SMALL)
        for v in (diag.critic_loss, diag.actor_value, diag.critic_grad_norm,
                  diag.actor_grad_norm):
            assert np.isfinite(v)


class TestTrainLoop:
    def fast_config(self, episodes):
        return desk_config(seed=0, episodes=episodes, lstm_hidden=8,
                           actor_hidden=8, critic_hidden=8, batch_size=8,
                           warmup_episodes=2, train_steps_per_episode=2)

    def test_zero_episodes_returns_initial_policy(self):
        factory = lambda: BikeEnv(scenario=resolve_scenario("fig1a"))
        policy_a, curve = train(factory, self.fast_config(0))
        assert curve == []
        policy_b, _ = train(factory, self.fast_config(0))
        for a, b in zip(policy_a.actor.arrays(), policy_b.actor.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_fixed_seed_reproducible_curve(self):
        def run():
            factory = lambda: BikeEnv(scenario=resolve_scenario("fig1a"))
            _, curve = train(factory, self.fast_config(6))
            return curve

        assert run() == run()

    def test_curve_csv(self, tmp_path):
        factory = lambda: BikeEnv(scenario=resolve_scenario("fig1a"))
        _, curve = train(factory, self.fast_config(3))
        path = tmp_path / "curve.csv"
        save_curve_csv(str(path), curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("episode,return")
        assert len(lines) == 4

    def test_policy_save_load_round_trip(self, tmp_path):
        factory = lambda: BikeEnv(scenario=resolve_scenario("fig1a"))
        policy, _ = train(factory, self.fast_config(3))
        path = tmp_path / "policy.json"
        policy.save(str(path))
        loaded = Policy.load(str(path))
        env = factory()
        r1, info1 = run_episode(env, policy)
        env2 = factory()
        r2, info2 = run_episode(env2, loaded)
        assert r1 == r2
        assert info1["served_total"] == info2["served_total"]


class TestPolicyCheckpoint:
    META = {"kind": "vehicle", "capacity": 10, "history_window": 3,
            "obs_dim": 5, "lstm_hidden": 6, "head_sizes": [6, 6, 4],
            "head_activations": ["relu", "tanh"]}

    def write(self, path, named, meta, version):
        nn.save_checkpoint(str(path), named, meta=meta)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))

    def test_version_1_loads_into_packed_layout(self, tmp_path):
        actor = small_actor()
        lstm, H = actor.lstm, actor.lstm.hidden_size
        named = {}
        for block, gate in enumerate("ifco"):
            cols = slice(block * H, (block + 1) * H)
            named[f"lstm.W_x{gate}"] = lstm.W_x[:, cols]
            named[f"lstm.W_h{gate}"] = lstm.W_h[:, cols]
            named[f"lstm.b_{gate}"] = lstm.b[cols]
        for row, gate in enumerate("ifo"):
            named[f"lstm.w_c{gate}"] = lstm.peep[row]
        for i, arr in enumerate(actor.head.arrays()):
            named[f"head.{i}"] = arr
        assert len(named) == 15 + 4
        path = tmp_path / "v1.json"
        self.write(path, named, self.META, version=1)
        loaded = Policy.load(str(path))
        windows = np.random.default_rng(9).normal(size=(6, 3, 5))
        windows[0, :2] = 0.0
        np.testing.assert_allclose(loaded.actor.forward(windows)[0],
                                   actor.forward(windows)[0], atol=1e-12)

    @pytest.mark.parametrize("version", [1, 2])
    def test_malformed_rejected(self, tmp_path, version):
        actor = small_actor()
        named = {f"lstm.{k}": v for k, v in vars(actor.lstm).items()}
        named.update((f"head.{i}", a)
                     for i, a in enumerate(actor.head.arrays()))
        path = tmp_path / "bad.json"
        bad_cases = [
            (named, {k: v for k, v in self.META.items() if k != "obs_dim"}),
            ({**named, "lstm.W_xi": np.zeros((5, 6))}, self.META),
            ({k: v for k, v in named.items() if k != "head.3"}, self.META),
            (named, {**self.META, "obs_dim": 7}),
            (named, {**self.META, "head_sizes": [6, 6, 3]}),
            (named, {**self.META, "obs_dim": "5"}),
            (named, {**self.META, "history_window": 0}),
            (named, {**self.META, "head_activations": ["relu", "bogus"]}),
        ]
        for arrays, meta in bad_cases:
            self.write(path, arrays, meta, version)
            with pytest.raises(ValueError):
                Policy.load(str(path))


class TestHistoryWindow:
    def test_roll_and_pad(self):
        win = HistoryWindow(3, 2)
        win.reset(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(win.snapshot(),
                                      [[0, 0], [0, 0], [1, 1]])
        win.push(np.array([2.0, 2.0]))
        np.testing.assert_array_equal(win.snapshot(),
                                      [[0, 0], [1, 1], [2, 2]])
        win.push(np.array([3.0, 3.0]))
        win.push(np.array([4.0, 4.0]))
        np.testing.assert_array_equal(win.snapshot(),
                                      [[2, 2], [3, 3], [4, 4]])
