import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched import ddpg, harness, nn
from urbansched import world as W
from urbansched.cli import resolve_scenario
from urbansched.ddpg import (
    ActorNet, CriticNet, DdpgConfig, HistoryWindow, OuNoise, Policy,
    ReplayBuffer, act, decode_action, desk_config, run_episode,
    save_curve_csv, soft_update, train, train_step,
)
from urbansched.envs import BikeEnv, BusEnv
from urbansched.world import InputError
from test_envs import profile_bus_scenario
from test_nn import _mapped


SMALL = DdpgConfig(lstm_hidden=6, actor_hidden=6, critic_hidden=6,
                   history_window=3, batch_size=4, seed=0)


def small_actor(obs_dim=5, action_dim=4, seed=0):
    return ActorNet.create(obs_dim, action_dim, SMALL,
                           np.random.default_rng(seed))


def float64_actor(obs_dim=5, action_dim=4, seed=0):
    """small_actor's layout in float64. Two forwards that round apart,
    such as a batched and a single one on another BLAS kernel, then agree
    far inside atol=1e-12, where float32 scores would differ by ulps of
    1e-7."""
    return ActorNet.init(obs_dim, SMALL.lstm_hidden,
                         [SMALL.actor_hidden, action_dim],
                         ddpg.HEAD_ACTIVATIONS, np.random.default_rng(seed))


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
        actor = float64_actor()
        obs = np.random.default_rng(2).normal(size=5)
        short = obs[None, :]
        padded = np.vstack([np.zeros((3, 5)), short])
        np.testing.assert_allclose(act(actor, short), act(actor, padded, 3),
                                   atol=1e-12)

    def test_batched_forward_matches_single(self):
        actor = float64_actor()
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(6, 3, 5))
        windows[0, :2] = 0.0  # padded samples mixed into the batch
        windows[3, :1] = 0.0
        start = np.array([2, 0, 0, 1, 0, 0])
        batch_scores, _ = actor.forward(windows, start)
        for b in range(6):
            np.testing.assert_allclose(batch_scores[b],
                                       act(actor, windows[b], start[b]),
                                       atol=1e-12)

    def test_kept_tapes_change_no_bits(self):
        """An episode's windows, as HistoryWindow rolls them, score the
        same bits with one kept tape set as with fresh tapes; every call
        after the first writes into the first call's LSTM tape."""
        actor = small_actor()
        rng = np.random.default_rng(4)
        window = HistoryWindow(SMALL.history_window, 5)
        window.reset(rng.normal(size=5))
        tapes = {}
        for step in range(6):
            kept = act(actor, window.buffer, window.start, tapes)
            if step == 0:
                lstm_tape = tapes["actor"][0]
            assert tapes["actor"][0] is lstm_tape
            fresh = act(actor, window.buffer, window.start)
            assert kept.tobytes() == fresh.tobytes()
            window.push(rng.normal(size=5))

    def test_policy_keeps_its_tapes(self, monkeypatch):
        """A Policy acts through one tape set across its episodes, and its
        episodes are those of a policy that acts on fresh tapes."""
        scenario = resolve_scenario("bike5")
        probe = BikeEnv(scenario=scenario)
        config = DdpgConfig(lstm_hidden=6, actor_hidden=6, history_window=3)
        actor = ActorNet.create(probe.reset().size, probe.action_dim, config,
                                np.random.default_rng(6))
        env = BikeEnv(scenario=scenario, seed=0)
        policy = Policy(actor=actor, kind="vehicle", capacity=10,
                        history_window=3)
        kept = [run_episode(env, policy)]
        lstm_tape = policy._tapes["actor"][0]
        kept.append(run_episode(env, policy))
        assert policy._tapes["actor"][0] is lstm_tape
        fresh_act = ddpg.act
        monkeypatch.setattr(ddpg, "act", lambda actor, window, start, tapes:
                            fresh_act(actor, window, start))
        env = BikeEnv(scenario=scenario, seed=0)
        fresh = Policy(actor=actor, kind="vehicle", capacity=10,
                       history_window=3)
        assert [run_episode(env, fresh) for _ in range(2)] == kept
        assert fresh._tapes == {}

    def test_actor_gradients_pass_grad_check(self):
        # a float64 actor of small_actor's layout: the finite differences
        # need float64's precision, which the learner's float32 has not
        actor = float64_actor(obs_dim=3, action_dim=2)
        assert actor.params.vector.dtype == np.float64
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
        assert nn.grad_check(loss, actor.params.arrays, grads) <= 1e-5

    def test_critic_gradients_pass_grad_check(self):
        # a float64 critic of CriticNet.create's layout, as above
        hidden = SMALL.critic_hidden
        critic = CriticNet(net=nn.MlpParams.init(
            [4 + 2, hidden, hidden, 1], ["relu", "relu", "identity"],
            np.random.default_rng(5)), obs_dim=4)
        assert critic.params.vector.dtype == np.float64
        rng = np.random.default_rng(6)
        obs = rng.normal(size=(3, 4))
        actions = rng.normal(size=(3, 2))

        def loss():
            q, _ = critic.forward(obs, actions)
            return 0.5 * float(np.sum(q ** 2))

        q, tape = critic.forward(obs, actions)
        grads = critic.backward(tape, q[:, None])
        assert nn.grad_check(loss, critic.params.arrays, grads) <= 1e-5


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


def reference_decode_action(scores, kind, capacity=0):
    """decode_action as numpy calls: the reference for its Python-float
    body."""
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("action scores must be finite")
    if kind == "bus":
        order = [W.OP_BACKWARD, W.OP_HALT, W.OP_FORWARD]
        best = float(scores.max())
        if scores[1] == best:  # ties break toward halting
            return W.OP_HALT
        return order[int(scores.argmax())]
    if kind == "vehicle":
        station = int(scores[:-1].argmax())
        raw = float(np.clip(scores[-1], -1.0, 1.0)) * capacity
        quantity = int(np.floor(abs(raw) + 0.5)) * (1 if raw >= 0 else -1)
        quantity = int(np.clip(quantity, -capacity, capacity))
        return station, quantity
    raise ValueError(f"unknown agent kind {kind!r}")


# Score values at the edges of the decoding, and their negatives: zero,
# the clip bound and its neighbours, values past it, the smallest
# subnormal and normal numbers of both dtypes, float32's largest, and
# float64's magnitudes far past the clip.
_EDGES = [0.0, 1.0, 1.0 + 2.0 ** -23, 1.0 - 2.0 ** -24, 0.5, 2.0,
          2.0 ** -1074, 2.0 ** -1022, 2.0 ** -149, 2.0 ** -126,
          float(np.finfo(np.float32).max), 1e300,
          float(np.finfo(np.float64).max)]
EDGE_SCORES = {dtype: [v for e in _EDGES for v in (e, -e)
                       if e <= float(np.finfo(dtype).max)
                       and float(dtype(v)) == v]
               for dtype in (np.float64, np.float32)}


@st.composite
def score_vectors(draw, kind):
    """A float64 or float32 score vector for an agent kind: 3 scores for a
    bus, 2 or more for a vehicle (one station at least, and the quantity).
    Its entries come from a pool of 1 to 4 values, so that exact ties are
    common."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    width = 64 if dtype is np.float64 else 32
    value = st.one_of(st.sampled_from(EDGE_SCORES[dtype]),
                      st.floats(allow_nan=False, allow_infinity=False,
                                width=width),
                      st.floats(-1.5, 1.5, width=width))
    pool = draw(st.lists(value, min_size=1, max_size=4))
    size = 3 if kind == "bus" else draw(st.integers(2, 8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=size,
                                  max_size=size)), dtype=dtype)


class TestDecodeActionReference:
    @given(st.data(), st.sampled_from(["bus", "vehicle"]),
           st.one_of(st.integers(0, 40), st.integers(0, 10 ** 20)))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, data, kind, capacity):
        scores = data.draw(score_vectors(kind))
        expected = reference_decode_action(scores, kind, capacity)
        got = decode_action(scores, kind, capacity)
        assert got == expected
        if kind == "bus":
            got, expected = (got,), (expected,)
        assert all(type(v) is int for v in got + expected)

    @given(st.data(), st.sampled_from(["bus", "vehicle"]),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=60, deadline=None)
    def test_nonfinite_raises_in_both(self, data, kind, bad):
        scores = data.draw(score_vectors(kind))
        scores[data.draw(st.integers(0, scores.size - 1))] = bad
        for decode in (decode_action, reference_decode_action):
            with pytest.raises(ValueError,
                               match="action scores must be finite"):
                decode(scores, kind, 10)


class ListReplay:
    """Reference replay buffer: a list of (window, action, reward,
    next_window, done) tuples overwritten FIFO, sampled with the same
    seeded index draw as ReplayBuffer."""

    def __init__(self, capacity, seed=0):
        self.capacity = capacity
        self._items = []
        self._next = 0
        self._rng = np.random.default_rng(seed)

    def push(self, window, action, reward, next_window, done):
        item = (np.asarray(window, dtype=float),
                np.asarray(action, dtype=float), float(reward),
                np.asarray(next_window, dtype=float), bool(done))
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._next] = item
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size):
        idx = self._rng.integers(0, len(self._items), size=batch_size)
        return (np.stack([self._items[i][0] for i in idx]),
                np.stack([self._items[i][1] for i in idx]),
                np.array([self._items[i][2] for i in idx]),
                np.stack([self._items[i][3] for i in idx]),
                np.array([self._items[i][4] for i in idx], dtype=float))


def inferred_start(windows):
    """The start a window's zero rows imply: its first row that is not all
    zero (the last row if none is)."""
    nonzero = np.any(windows != 0, axis=2)
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1),
                    windows.shape[1] - 1)


def fill(buf, rewards, obs_dim=3, episode_length=None):
    """Push one transition per reward, all in one episode unless
    episode_length is given; observation t is the row (t + 1, ..., t + 1)."""
    for t, reward in enumerate(rewards):
        if t == 0 or (episode_length and t % episode_length == 0):
            buf.begin_episode(np.full(obs_dim, float(t)))
        buf.push(np.array([reward]), reward, np.full(obs_dim, t + 1.0),
                 False)


def kept_rewards(buf):
    """Rewards of the kept transitions, oldest first, read off the ring."""
    return np.roll(buf._rewards[:len(buf)], -buf._next).tolist()


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=5, seed=0)
        fill(buf, [float(i) for i in range(8)])
        assert len(buf) == 5
        assert kept_rewards(buf) == [3.0, 4.0, 5.0, 6.0, 7.0]

    @given(st.integers(1, 20), st.integers(0, 30), st.integers(1, 4),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_fifo_property(self, capacity, extra, window, episode_length):
        buf = ReplayBuffer(capacity=capacity, seed=0, history_window=window)
        total = capacity + extra
        fill(buf, [float(i) for i in range(total)],
             episode_length=episode_length)
        kept = list(range(max(0, total - capacity), total))
        assert kept_rewards(buf) == [float(i) for i in kept]
        # every kept transition still reads its own rows: the newest
        # observation of each window is that transition's observation
        batch = buf.sample(len(buf))
        np.testing.assert_array_equal(batch.windows[:, -1, 0] + 1,
                                      batch.next_windows[:, -1, 0])
        np.testing.assert_array_equal(batch.next_windows[:, -1, 0],
                                      batch.rewards + 1)

    def test_sample_validation(self):
        buf = ReplayBuffer(capacity=4, seed=0)
        fill(buf, [0.0])
        with pytest.raises(ValueError):
            buf.sample(2)
        with pytest.raises(ValueError):
            buf.sample(0)
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=4).push(np.zeros(1), 0.0, np.zeros(3),
                                          False)

    def test_sample_seeded(self):
        def sample():
            buf = ReplayBuffer(capacity=10, seed=7, history_window=3)
            fill(buf, [float(i) for i in range(10)], episode_length=4)
            return buf.sample(4)

        for a, b in zip(sample(), sample()):
            np.testing.assert_array_equal(a, b)

    @given(st.integers(1, 12), st.integers(1, 5),
           st.lists(st.integers(0, 8), min_size=1, max_size=12),
           st.integers(1, 8), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_list_reference(self, capacity, window, lengths, batch,
                                    seed):
        """Windows, next windows, actions, rewards, dones and starts equal
        the list buffer's, across episode boundaries, episodes shorter than
        the window (or with no step) and FIFO overwrite, sampling after
        every episode. The reference is given the float32 values the ring
        stores: its windows come from a HistoryWindow, and its actions are
        rounded."""
        rng = np.random.default_rng(seed)
        ring = ReplayBuffer(capacity, seed=seed, history_window=window)
        ref = ListReplay(capacity, seed=seed)
        history = HistoryWindow(window, 3)
        for length in lengths:
            obs = rng.uniform(0.5, 1.5, size=3)  # never all zero
            history.reset(obs)
            ring.begin_episode(obs)
            for t in range(length):
                before = history.buffer.copy()
                action = rng.uniform(-1, 1, size=2).astype(np.float32)
                reward = float(rng.normal())
                obs = rng.uniform(0.5, 1.5, size=3)
                done = t == length - 1
                history.push(obs)
                ref.push(before, action, reward, history.buffer.copy(), done)
                ring.push(action, reward, obs, done)
            size = min(batch, len(ring))
            if size == 0:
                continue
            got = ring.sample(size)
            want = ref.sample(size)
            for name, a, b in zip(got._fields, got, want):
                np.testing.assert_array_equal(a, b, err_msg=name)
            np.testing.assert_array_equal(got.start, inferred_start(want[0]))
            np.testing.assert_array_equal(got.next_start,
                                          inferred_start(want[3]))

    def test_small_ring_is_mapped(self):
        """Every array of the ring, however small, is a zero mapping of its
        own, which the system fills in page by page as rows are written:
        a small one from np.zeros could come from malloc's heap, where
        calloc touches all of it."""
        buf = ReplayBuffer(capacity=3, seed=0, history_window=2)
        fill(buf, [1.0, 2.0])
        arrays = [buf._obs, buf._actions, buf._rewards, buf._dones,
                  buf._steps, buf._rows]
        assert all(_mapped(a) for a in arrays)
        assert buf._obs[-1].tolist() == [0.0] * 3  # the padding row
        assert kept_rewards(buf) == [1.0, 2.0]

    @pytest.mark.parametrize("scenario", ["fig1a", "bike5", "outage"])
    def test_stored_start_matches_inference_on_env(self, scenario):
        """On real observations, which are never all zero, the stored
        episode step gives the start their zero rows imply."""
        env = BikeEnv(scenario=resolve_scenario(scenario), seed=3)
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(capacity=40, seed=3, history_window=4)
        for _ in range(12):
            buf.begin_episode(env.reset())
            done = False
            while not done:
                scores = rng.uniform(-1, 1, size=env.action_dim)
                obs, reward, done, _ = env.step(decode_action(
                    scores, "vehicle", env.world.vehicles[0].capacity))
                buf.push(scores, reward, obs, done)
        for _ in range(5):
            batch = buf.sample(len(buf))
            np.testing.assert_array_equal(batch.start,
                                          inferred_start(batch.windows))
            np.testing.assert_array_equal(batch.next_start,
                                          inferred_start(batch.next_windows))


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
        target = np.array([2.0])
        soft_update(target, np.array([4.0]), tau=0.0)
        np.testing.assert_allclose(target, [2.0])
        soft_update(target, np.array([4.0]), tau=0.5)
        np.testing.assert_allclose(target, [3.0])
        soft_update(target, np.array([4.0]), tau=1.0)
        np.testing.assert_allclose(target, [4.0])

    def test_contraction_toward_fixed_online(self):
        rng = np.random.default_rng(0)
        online = rng.normal(size=(3, 3))
        target = rng.normal(size=(3, 3))
        dist = float(np.linalg.norm(target - online))
        for _ in range(150):
            soft_update(target, online, tau=0.1)
            new_dist = float(np.linalg.norm(target - online))
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
        action = np.array([0.2, -0.1, 0.4])
        reward = 0.7
        buf = ReplayBuffer(capacity=8, seed=0, history_window=3)
        for _ in range(8):
            buf.begin_episode(obs)
            buf.push(action, reward, obs, True)
        config = DdpgConfig(lstm_hidden=6, actor_hidden=6, critic_hidden=6,
                            history_window=3, batch_size=4, critic_lr=0.05,
                            actor_lr=0.0, seed=0)
        for _ in range(600):
            diag = train_step(buf, actor, critic, at, ct, config)
        q, _ = critic.forward(obs[None, :], action[None, :])
        assert abs(q[0] - reward) <= 1e-2
        assert diag.critic_loss <= 1e-3

    def test_done_masks_bootstrap(self):
        # with discount 0 vs done=True the targets coincide: both equal r
        obs = np.zeros(4)
        action = np.zeros(3)
        results = []
        for discount, done in ((0.0, False), (0.9, True)):
            actor, critic, at, ct = self.build(seed=3)
            buf = ReplayBuffer(capacity=4, seed=0, history_window=3)
            buf.begin_episode(obs)
            for _ in range(4):
                buf.push(action, 1.0, obs, done)
            config = DdpgConfig(lstm_hidden=6, actor_hidden=6,
                                critic_hidden=6, history_window=3,
                                batch_size=4, discount=discount,
                                actor_lr=0.0, tau=0.0, seed=0)
            diag = train_step(buf, actor, critic, at, ct, config)
            results.append(diag.critic_loss)
        assert results[0] == pytest.approx(results[1])

    def test_kept_tapes_change_no_bits(self):
        config = DdpgConfig(lstm_hidden=6, actor_hidden=6, critic_hidden=6,
                            history_window=3, batch_size=8, seed=0)
        outcomes = []
        for tapes in (None, {}):
            actor, critic, at, ct = self.build(seed=4)
            rng = np.random.default_rng(5)
            buf = ReplayBuffer(capacity=32, seed=0, history_window=3)
            buf.begin_episode(rng.normal(size=4))
            for k in range(20):
                buf.push(rng.uniform(-1, 1, 3), rng.normal(),
                         rng.normal(size=4), k % 7 == 6)
                if k % 7 == 6:
                    buf.begin_episode(rng.normal(size=4))
            diags = [train_step(buf, actor, critic, at, ct, config, tapes)
                     for _ in range(5)]
            outcomes.append((diags, [n.params.vector.tobytes()
                                     for n in (actor, critic, at, ct)]))
        assert outcomes[0] == outcomes[1]

    def test_learner_stays_float32(self):
        """Parameters, gradients, tapes, the ring, the sampled windows and
        actions, the history window and the scores all keep the learner's
        dtype, including through a train_step that reuses its tapes."""
        actor, critic, at, ct = self.build(seed=4)
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(capacity=16, seed=0, history_window=3)
        buf.begin_episode(rng.normal(size=4))
        for k in range(10):
            buf.push(rng.uniform(-1, 1, 3), rng.normal(), rng.normal(size=4),
                     False)
        tapes = {}
        for _ in range(2):
            train_step(buf, actor, critic, at, ct, SMALL, tapes)
        batch = buf.sample(4)
        window = HistoryWindow(3, 4).buffer
        arrays = [buf._obs, buf._actions, batch.windows, batch.actions,
                  batch.next_windows, window, act(actor, window)]
        for net in (actor, critic, at, ct):
            arrays += [net.params.vector, net.grads.vector]
        lstm_tape, head_tape = tapes["actor"]
        arrays += [lstm_tape.gates, lstm_tape.c, lstm_tape.h,
                   lstm_tape.tanh_c, lstm_tape.mask,
                   *lstm_tape.scratch.values(), *head_tape]
        assert ddpg.DTYPE == np.float32
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_diagnostics_finite(self):
        actor, critic, at, ct = self.build()
        rng = np.random.default_rng(2)
        buf = ReplayBuffer(capacity=16, seed=0, history_window=3)
        buf.begin_episode(rng.normal(size=4))
        for _ in range(8):
            buf.push(rng.uniform(-1, 1, 3), rng.normal(), rng.normal(size=4),
                     False)
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
        for a, b in zip(policy_a.actor.params.arrays,
                        policy_b.actor.params.arrays):
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
        np.testing.assert_array_equal(loaded.actor.params.vector,
                                      policy.actor.params.vector)
        assert run_episode(factory(), policy) == run_episode(factory(), loaded)

    def test_reloaded_policy_scores_bit_for_bit(self, tmp_path):
        """A policy saved and loaded scores a window with the bits of the
        trained actor: both are float32, and the checkpoint's numbers
        are the float32 values."""
        factory = lambda: BikeEnv(scenario=resolve_scenario("bike5"))
        policy, _ = train(factory, self.fast_config(12))
        path = tmp_path / "policy.json"
        policy.save(str(path))
        loaded = Policy.load(str(path))
        assert loaded.actor.params.vector.dtype == np.float32
        obs_dim = policy.actor.lstm.W_x.shape[0]
        windows = np.random.default_rng(9).uniform(0, 5, size=(6, 4, obs_dim))
        for start in (0, 2):
            for window in windows:
                assert (act(loaded.actor, window, start).tobytes()
                        == act(policy.actor, window, start).tobytes())

    def test_one_blas_thread_changes_no_bits(self, monkeypatch):
        """train runs with one BLAS thread and puts the count back; the
        trained weights are those of a run at the default count."""
        calls = nn._blas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        get, _ = calls
        before = get()
        with nn.one_blas_thread():
            assert get() == 1
        assert get() == before
        factory = lambda: BikeEnv(scenario=resolve_scenario("bike5"))
        config = desk_config(seed=3, episodes=12, warmup_episodes=2,
                             batch_size=16)
        one, _ = train(factory, config)
        assert get() == before
        monkeypatch.setattr(nn, "_blas_thread_calls", lambda: None)
        default, _ = train(factory, config)
        assert (one.actor.params.vector.tobytes()
                == default.actor.params.vector.tobytes())

    def test_acting_with_kept_tapes_changes_no_bits(self, monkeypatch):
        """train's acting loop keeps one tape set for act; the curve and
        the trained weights are those of acting on fresh tapes."""
        factory = lambda: BikeEnv(scenario=resolve_scenario("bike5"))
        config = self.fast_config(8)
        kept_tapes = []
        real_act = ddpg.act

        def spy(actor, window, start, tapes):
            kept_tapes.append(tapes)
            return real_act(actor, window, start, tapes)

        monkeypatch.setattr(ddpg, "act", spy)
        kept, kept_curve = train(factory, config)
        assert kept_tapes and all(t is kept_tapes[0] for t in kept_tapes)
        monkeypatch.setattr(ddpg, "act", lambda actor, window, start, tapes:
                            real_act(actor, window, start))
        fresh, fresh_curve = train(factory, config)
        assert kept_curve == fresh_curve
        assert (kept.actor.params.vector.tobytes()
                == fresh.actor.params.vector.tobytes())

    def test_bus_policy_trains_evaluates_and_round_trips(self, tmp_path):
        """train takes the agent kind from the env, so a BusEnv factory
        yields a bus policy, which evaluates and reloads as one."""
        scenario = profile_bus_scenario()
        policy, curve = train(lambda: BusEnv(scenario=scenario, seed=0),
                              self.fast_config(3))
        assert policy.kind == "bus" and len(curve) == 3
        report = harness.evaluate_policy(policy, scenario, 2, 0)
        path = tmp_path / "policy.json"
        policy.save(str(path))
        loaded = Policy.load(str(path))
        assert loaded.kind == "bus"
        assert harness.evaluate_policy(loaded, scenario, 2, 0) == report


class TestPolicyCheckpoint:
    META = {"kind": "vehicle", "capacity": 10, "history_window": 3,
            "obs_dim": 5, "action_dim": 4, "lstm_hidden": 6,
            "actor_hidden": 6}

    def test_version_1_rejected(self, tmp_path):
        """Neither version 1 nor version 2, which stored named arrays, nor
        version 3, which stored float64 numbers, loads."""
        path = tmp_path / "old.json"
        Policy(actor=small_actor(), kind="vehicle", capacity=10,
               history_window=3).save(str(path))
        Policy.load(str(path))
        doc = json.loads(path.read_text())
        for version in (1, 2, 3):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(InputError, match="unsupported checkpoint "
                               f"version {version}"):
                Policy.load(str(path))

    def test_meta_keys_saved_are_the_keys_loaded(self, tmp_path):
        path = tmp_path / "policy.json"
        Policy(actor=small_actor(), kind="vehicle", capacity=10,
               history_window=3).save(str(path))
        meta = json.loads(path.read_text())["meta"]
        assert meta == self.META
        assert set(meta) == set(ddpg._META_MINIMUMS) | {"kind"}

    @pytest.mark.parametrize("kind, action_dim", [("vehicle", 4), ("bus", 3)])
    def test_save_load_save_same_bytes(self, kind, action_dim, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        Policy(actor=small_actor(action_dim=action_dim), kind=kind,
               capacity=10 if kind == "vehicle" else 0,
               history_window=3).save(str(first))
        Policy.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    @staticmethod
    def write(path, meta, **fields):
        """A checkpoint file in Policy.save's format."""
        path.write_text(json.dumps({"version": ddpg.CHECKPOINT_VERSION,
                                    "meta": meta, **fields}))

    def test_malformed_rejected(self, tmp_path):
        params = small_actor().params.vector.tolist()
        path = tmp_path / "bad.json"
        bad_cases = [
            *(({k: v for k, v in self.META.items() if k != key},
               {"params": params}) for key in self.META),
            *(({**self.META, key: value}, {"params": params})
              for key, value in [
                  ("obs_dim", 7), ("obs_dim", "5"), ("obs_dim", 0),
                  ("action_dim", 3), ("action_dim", 0), ("action_dim", 4.0),
                  ("lstm_hidden", 7), ("actor_hidden", 5),
                  ("actor_hidden", None), ("history_window", 0),
                  ("history_window", True), ("capacity", -3),
                  ("kind", "tram"), ("kind", None), ("lstm_hidden", 10 ** 6)]),
            (self.META, {}),  # no params
            (self.META, {"params": params[:-1]}),
            (self.META, {"params": params + [0.0]}),
            (self.META, {"params": [0.1]}),  # numpy would broadcast it
            (self.META, {"params": {"data": params}}),
            (self.META, {"params": params[:-1] + ["0.5"]}),
            (self.META, {"params": params[:-1] + [True]}),
            (self.META, {"params": params[:-1] + [None]}),
            (self.META, {"params": params[:-1] + [[0.5]]}),  # nested
            (self.META, {"params": [params]}),
            (self.META, {"params": params[:-1] + [float("nan")]}),
            (self.META, {"params": [float("inf")] + params[1:]}),
            (self.META, {"params": [-float("inf")] + params[1:]}),
            (self.META, {"params": [10 ** 400] + params[1:]}),
            # past float32's range, which the actor would read as inf
            (self.META, {"params": [1e39] + params[1:]}),
            (self.META, {"params": params[:-1] + [-(10 ** 39)]}),
        ]
        self.write(path, self.META, params=params)
        Policy.load(str(path))
        # float32's largest number still loads
        self.write(path, self.META,
                   params=[float(np.finfo(np.float32).max)] + params[1:])
        Policy.load(str(path))
        for meta, fields in bad_cases:
            self.write(path, meta, **fields)
            with pytest.raises(InputError):
                Policy.load(str(path))
        self.write(path, [], params=params)
        with pytest.raises(InputError, match="meta is not an object"):
            Policy.load(str(path))


class TestConfig:
    def test_each_size_accepts_its_bound_and_rejects_past_it(self):
        sizes = [k for k, (_, high) in ddpg._CONFIG_RANGES.items()
                 if high != float("inf") and isinstance(high, int)]
        assert sorted(sizes) == sorted([
            "history_window", "batch_size", "buffer_capacity",
            "lstm_hidden", "actor_hidden", "critic_hidden"])
        for key in sizes:
            high = ddpg._CONFIG_RANGES[key][1]
            room = {"buffer_capacity": 10 ** 6} if key == "batch_size" else {}
            DdpgConfig(**{key: high, **room})
            with pytest.raises(InputError, match=key):
                DdpgConfig(**{key: high + 1, **room})

    def test_tape_cells_bound_the_sizes_together(self):
        # configs are constructed only: no tape of these sizes is made
        bound = ddpg._MAX_TAPE_CELLS
        room = {"buffer_capacity": 10 ** 6}
        DdpgConfig(history_window=8, batch_size=4096, lstm_hidden=64, **room)
        assert 8 * 4096 * 64 == bound
        for sizes in ({"history_window": 9, "batch_size": 4096,
                       "lstm_hidden": 64},
                      {"history_window": 256, "batch_size": 4096,
                       "lstm_hidden": 1024}):
            cells = math.prod(sizes.values())
            with pytest.raises(InputError, match=(
                    f"history_window x batch_size x lstm_hidden = {cells} "
                    f"exceeds {bound}")):
                DdpgConfig(**sizes, **room)

    def test_batch_within_buffer(self):
        DdpgConfig(batch_size=8, buffer_capacity=8)
        with pytest.raises(InputError, match="exceeds buffer_capacity 7"):
            DdpgConfig(batch_size=8, buffer_capacity=7)


class TestHistoryWindow:
    def test_roll_and_pad(self):
        win = HistoryWindow(3, 2)
        win.reset(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(win.buffer, [[0, 0], [0, 0], [1, 1]])
        assert win.start == 2
        win.push(np.array([2.0, 2.0]))
        np.testing.assert_array_equal(win.buffer, [[0, 0], [1, 1], [2, 2]])
        assert win.start == 1
        win.push(np.array([3.0, 3.0]))
        win.push(np.array([4.0, 4.0]))
        np.testing.assert_array_equal(win.buffer, [[2, 2], [3, 3], [4, 4]])
        assert win.start == 0
