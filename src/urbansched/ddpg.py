"""Deterministic policy-gradient scheduler.

Actor = LSTM over the recent observation window + dense head with tanh
scores; critic = dense net on (last observation, raw action scores). The
environment consumes decoded discrete/hybrid actions while gradients flow
through the continuous scores, isolated behind decode_action.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nn
from .world import OP_BACKWARD, OP_FORWARD, OP_HALT


@dataclass
class DdpgConfig:
    episodes: int = 500
    batch_size: int = 64
    buffer_capacity: int = 50_000
    discount: float = 0.99
    tau: float = 0.005
    actor_lr: float = 0.01
    critic_lr: float = 0.02
    clip_norm: float = 5.0
    history_window: int = 8
    lstm_hidden: int = 64
    actor_hidden: int = 64
    critic_hidden: int = 64
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    ou_mu: float = 0.0
    noise_decay: float = 1.0  # per-episode multiplier on sigma
    warmup_episodes: int = 0  # uniform-random action episodes before learning
    exploration_eps: float = 0.0  # per-step chance of a uniform random action
    action_l2: float = 0.0  # pulls actor scores away from tanh saturation
    reward_scale: float = 1.0  # training-time scaling of stored rewards
    train_steps_per_episode: int = 8
    eval_every: int = 25
    seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "DdpgConfig":
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown DDPG config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            kind = cls.__dataclass_fields__[key].type
            allowed = int if kind == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"DDPG config key {key!r} must be {kind}, "
                                 f"not {value!r}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


def desk_config(seed: int = 0, episodes: int = 1000, **overrides) -> DdpgConfig:
    """Hyperparameters tuned for the desk-scale scenarios shipped with the
    package: small nets, aggressive exploration, scaled rewards."""
    base = dict(
        episodes=episodes, seed=seed, lstm_hidden=32, actor_hidden=32,
        critic_hidden=32, history_window=4, train_steps_per_episode=16,
        warmup_episodes=100, reward_scale=0.1, ou_sigma=0.5,
        noise_decay=0.999, exploration_eps=0.2, action_l2=0.05,
        actor_lr=0.02, critic_lr=0.03, eval_every=25,
    )
    base.update(overrides)
    return DdpgConfig(**base)


@dataclass
class ActorNet:
    lstm: nn.LstmParams
    head: nn.MlpParams

    @classmethod
    def create(cls, obs_dim: int, action_dim: int, config: DdpgConfig,
               rng: np.random.Generator) -> "ActorNet":
        return cls(
            lstm=nn.LstmParams.init(obs_dim, config.lstm_hidden, rng),
            head=nn.MlpParams.init(
                [config.lstm_hidden, config.actor_hidden, action_dim],
                ["relu", "tanh"], rng),
        )

    def arrays(self) -> list[np.ndarray]:
        return self.lstm.arrays() + self.head.arrays()

    def copy(self) -> "ActorNet":
        return ActorNet(lstm=self.lstm.copy(), head=self.head.copy())

    def forward(self, windows: np.ndarray):
        """windows: (B, W, obs) or (W, obs). Returns (scores, tapes).

        Leading all-zero rows are episode-start padding: each sample's
        recurrence starts at its first nonzero row, so a length-1 window and
        its zero-padded equivalent score identically. Real observations are
        never all-zero (they carry a one-hot location).
        """
        windows = np.asarray(windows, dtype=float)
        squeeze = windows.ndim == 2
        if squeeze:
            windows = windows[None, :, :]
        length = windows.shape[1]
        nonzero = np.any(windows != 0, axis=2)  # (B, W)
        start = np.where(nonzero.any(axis=1),
                         nonzero.argmax(axis=1), length - 1)
        hs, lstm_tape = nn.lstm_forward(
            self.lstm, np.transpose(windows, (1, 0, 2)), start=start)
        scores, head_tape = nn.mlp_forward(self.head, hs[-1])
        tapes = (lstm_tape, head_tape)
        if squeeze:
            return scores[0], tapes
        return scores, tapes

    def backward(self, tapes, dscores: np.ndarray) -> list[np.ndarray]:
        lstm_tape, head_tape = tapes
        dscores = np.atleast_2d(np.asarray(dscores, dtype=float))
        head_grads, dh_last = nn.mlp_backward(self.head, head_tape, dscores)
        dh = np.zeros_like(lstm_tape.h[1:])
        dh[-1] = dh_last
        lstm_grads = nn.lstm_backward(self.lstm, lstm_tape, dh)
        return lstm_grads.arrays() + head_grads.arrays()


def act(actor: ActorNet, history_window: np.ndarray) -> np.ndarray:
    """Raw action scores for one observation window (W, obs), W >= 1."""
    history_window = np.asarray(history_window, dtype=float)
    if history_window.ndim != 2 or history_window.shape[0] < 1:
        raise ValueError("history window must be (W, obs) with W >= 1")
    scores, _ = actor.forward(history_window)
    return scores


@dataclass
class CriticNet:
    net: nn.MlpParams
    obs_dim: int
    action_dim: int

    @classmethod
    def create(cls, obs_dim: int, action_dim: int, config: DdpgConfig,
               rng: np.random.Generator) -> "CriticNet":
        return cls(
            net=nn.MlpParams.init(
                [obs_dim + action_dim, config.critic_hidden,
                 config.critic_hidden, 1],
                ["relu", "relu", "identity"], rng),
            obs_dim=obs_dim, action_dim=action_dim,
        )

    def arrays(self) -> list[np.ndarray]:
        return self.net.arrays()

    def copy(self) -> "CriticNet":
        return CriticNet(net=self.net.copy(), obs_dim=self.obs_dim,
                         action_dim=self.action_dim)

    def forward(self, obs: np.ndarray, action: np.ndarray):
        x = np.concatenate([np.atleast_2d(obs), np.atleast_2d(action)], axis=1)
        values, tape = nn.mlp_forward(self.net, x)
        return values[:, 0], tape

    def backward(self, tape, dvalues: np.ndarray):
        """Returns (grads, dobs, daction)."""
        grads, dx = nn.mlp_backward(self.net, tape,
                                    np.atleast_2d(dvalues).reshape(-1, 1))
        return grads.arrays(), dx[:, :self.obs_dim], dx[:, self.obs_dim:]


# ---------------------------------------------------------------------------
# Replay, noise, decoding

class ReplayBuffer:
    """Bounded FIFO of transitions with a seeded uniform sampler."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[tuple] = []
        self._next = 0
        self._rng = np.random.default_rng(seed)

    def push(self, window, action, reward, next_window, done):
        item = (np.asarray(window, dtype=float),
                np.asarray(action, dtype=float),
                float(reward),
                np.asarray(next_window, dtype=float),
                bool(done))
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._next] = item
        self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._items)

    def as_list(self) -> list[tuple]:
        """Items in insertion order, oldest first."""
        if len(self._items) < self.capacity:
            return list(self._items)
        return self._items[self._next:] + self._items[:self._next]

    def sample(self, batch_size: int):
        if len(self._items) < batch_size:
            raise ValueError("buffer smaller than batch size")
        idx = self._rng.integers(0, len(self._items), size=batch_size)
        windows = np.stack([self._items[i][0] for i in idx])
        actions = np.stack([self._items[i][1] for i in idx])
        rewards = np.array([self._items[i][2] for i in idx])
        next_windows = np.stack([self._items[i][3] for i in idx])
        dones = np.array([self._items[i][4] for i in idx], dtype=float)
        return windows, actions, rewards, next_windows, dones


class OuNoise:
    """Ornstein-Uhlenbeck process per action dimension."""

    def __init__(self, dim: int, theta: float = 0.15, sigma: float = 0.2,
                 mu: float = 0.0, seed: int = 0):
        self.theta = theta
        self.sigma = sigma
        self.mu = mu
        self.state = np.full(dim, mu, dtype=float)
        self._rng = np.random.default_rng(seed)

    def reset(self):
        self.state[:] = self.mu

    def sample(self) -> np.ndarray:
        noise = self._rng.standard_normal(self.state.shape)
        self.state = (self.state
                      + self.theta * (self.mu - self.state)
                      + self.sigma * noise)
        return self.state.copy()


def decode_action(scores: np.ndarray, kind: str, capacity: int = 0):
    """Map raw actor scores to an executable action.

    Bus: argmax over 3 scores ordered (-1, 0, +1), ties toward halting.
    Bike: argmax over the first n scores picks the station; the trailing
    scalar scales by vehicle capacity and rounds to a signed bike count
    (feasibility clipping happens in the world).
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("action scores must be finite")
    if kind == "bus":
        order = [OP_BACKWARD, OP_HALT, OP_FORWARD]
        best = float(scores.max())
        if scores[1] == best:  # ties break toward halting
            return OP_HALT
        return order[int(scores.argmax())]
    if kind == "vehicle":
        station = int(scores[:-1].argmax())
        raw = float(np.clip(scores[-1], -1.0, 1.0)) * capacity
        quantity = int(np.floor(abs(raw) + 0.5)) * (1 if raw >= 0 else -1)
        quantity = int(np.clip(quantity, -capacity, capacity))
        return station, quantity
    raise ValueError(f"unknown agent kind {kind!r}")


def soft_update(target: list[np.ndarray], online: list[np.ndarray],
                tau: float) -> list[np.ndarray]:
    """target <- tau * online + (1 - tau) * target, in place."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must be in [0, 1]")
    for t, o in zip(target, online):
        if t.shape != o.shape:
            raise ValueError("target/online shape mismatch")
        t *= (1.0 - tau)
        t += tau * o
    return target


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainDiagnostics:
    critic_loss: float
    actor_value: float
    critic_grad_norm: float
    actor_grad_norm: float


def train_step(buffer: ReplayBuffer, actor: ActorNet, critic: CriticNet,
               actor_target: ActorNet, critic_target: CriticNet,
               config: DdpgConfig) -> TrainDiagnostics:
    """One gradient step on both networks plus soft target updates."""
    if len(buffer) < config.batch_size:
        raise ValueError("buffer smaller than batch size")
    windows, actions, rewards, next_windows, dones = buffer.sample(
        config.batch_size)
    last_obs = windows[:, -1, :]
    next_last = next_windows[:, -1, :]
    next_actions, _ = actor_target.forward(next_windows)
    next_q, _ = critic_target.forward(next_last, next_actions)
    targets = rewards + config.discount * (1.0 - dones) * next_q
    # critic regression
    q, critic_tape = critic.forward(last_obs, actions)
    err = q - targets
    critic_loss = float(np.mean(err ** 2))
    critic_grads, _, _ = critic.backward(
        critic_tape, (2.0 * err / err.size)[:, None])
    critic_cfg = nn.OptimizerConfig(step_size=config.critic_lr,
                                    clip_norm=config.clip_norm)
    critic_norm = nn.optimizer_step(critic.arrays(), critic_grads, critic_cfg)
    # actor ascends the critic value through the chained gradient
    policy_actions, actor_tapes = actor.forward(windows)
    q_pi, pi_tape = critic.forward(last_obs, policy_actions)
    actor_value = float(np.mean(q_pi))
    _, _, daction = critic.backward(
        pi_tape, np.full((q_pi.size, 1), 1.0 / q_pi.size))
    dscores = -daction
    if config.action_l2 > 0:
        dscores = dscores + 2.0 * config.action_l2 * policy_actions / q_pi.size
    actor_grads = actor.backward(actor_tapes, dscores)
    actor_cfg = nn.OptimizerConfig(step_size=config.actor_lr,
                                   clip_norm=config.clip_norm)
    actor_norm = nn.optimizer_step(actor.arrays(), actor_grads, actor_cfg)
    soft_update(actor_target.arrays(), actor.arrays(), config.tau)
    soft_update(critic_target.arrays(), critic.arrays(), config.tau)
    return TrainDiagnostics(critic_loss=critic_loss, actor_value=actor_value,
                            critic_grad_norm=critic_norm,
                            actor_grad_norm=actor_norm)


class HistoryWindow:
    """Fixed-length observation window, zero-padded at episode start."""

    def __init__(self, length: int, obs_dim: int):
        self.buffer = np.zeros((length, obs_dim))

    def reset(self, obs: np.ndarray):
        self.buffer[:] = 0.0
        self.push(obs)

    def push(self, obs: np.ndarray):
        self.buffer[:-1] = self.buffer[1:]
        self.buffer[-1] = obs

    def snapshot(self) -> np.ndarray:
        return self.buffer.copy()


# The meta a policy checkpoint holds, with the type of each value.
POLICY_META = {"kind": str, "capacity": int, "history_window": int,
               "obs_dim": int, "lstm_hidden": int, "head_sizes": list,
               "head_activations": list}


@dataclass
class Policy:
    """A trained actor plus the decoding metadata the env needs."""

    actor: ActorNet
    kind: str
    capacity: int
    history_window: int
    obs_dim: int

    def begin_episode(self, obs: np.ndarray):
        self._window = HistoryWindow(self.history_window, self.obs_dim)
        self._window.reset(obs)

    def action(self, obs: np.ndarray | None = None):
        if obs is not None:
            self._window.push(obs)
        scores = act(self.actor, self._window.snapshot())
        return decode_action(scores, self.kind, self.capacity)

    def save(self, path: str):
        named = {f"lstm.{name}": arr
                 for name, arr in vars(self.actor.lstm).items()}
        for i, arr in enumerate(self.actor.head.arrays()):
            named[f"head.{i}"] = arr
        nn.save_checkpoint(path, named, meta={
            "kind": self.kind, "capacity": self.capacity,
            "history_window": self.history_window, "obs_dim": self.obs_dim,
            "lstm_hidden": self.actor.lstm.hidden_size,
            "head_sizes": [w.shape[0] for w in self.actor.head.weights]
            + [self.actor.head.weights[-1].shape[1]],
            "head_activations": self.actor.head.activations,
        })

    @classmethod
    def load(cls, path: str) -> "Policy":
        """Read a checkpoint that save wrote, of version 2 or 1.

        Raises ValueError when a meta key is missing or mistyped or the
        array names or shapes do not match the actor the meta describes.
        """
        arrays, meta = nn.load_checkpoint(path)
        bad = [k for k, kind in POLICY_META.items()
               if not isinstance(meta.get(k), kind)]
        if bad:
            raise ValueError(f"checkpoint meta lacks or mistypes "
                             f"{', '.join(bad)}")
        if meta["history_window"] < 1:
            raise ValueError("checkpoint history_window must be >= 1")
        activations = meta["head_activations"]
        n_layers = len(activations)
        head_names = [f"head.{i}" for i in range(2 * n_layers)]
        lstm_named = {name[len("lstm."):]: arr for name, arr in arrays.items()
                      if name.startswith("lstm.")}
        if {n for n in arrays if not n.startswith("lstm.")} != set(head_names):
            raise ValueError(f"checkpoint arrays {sorted(arrays)} do not "
                             f"match a {n_layers}-layer actor head")
        head = nn.MlpParams(
            weights=[arrays[name] for name in head_names[:n_layers]],
            biases=[arrays[name] for name in head_names[n_layers:]],
            activations=activations)
        actor = ActorNet(lstm=nn.LstmParams.from_named(lstm_named), head=head)
        sizes = [meta["lstm_hidden"], *meta["head_sizes"][1:]]
        expected = ([a.shape for a in nn.LstmParams.zeros(
            meta["obs_dim"], meta["lstm_hidden"]).arrays()]
            + list(zip(sizes[:-1], sizes[1:])) + [(n,) for n in sizes[1:]])
        if [a.shape for a in actor.arrays()] != expected:
            raise ValueError("checkpoint array shapes do not match its meta")
        return cls(actor=actor, kind=meta["kind"], capacity=meta["capacity"],
                   history_window=meta["history_window"],
                   obs_dim=meta["obs_dim"])


def run_episode(env, policy: Policy, force_outage: bool | None = None):
    """Noise-free rollout; returns (total_reward, info of the final step)."""
    kwargs = {}
    if force_outage is not None:
        kwargs["force_outage"] = force_outage
    obs = env.reset(**kwargs)
    policy.begin_episode(obs)
    total = 0.0
    info = {}
    done = False
    first = True
    while not done:
        action = policy.action(None if first else obs)
        first = False
        obs, reward, done, info = env.step(action)
        total += reward
    return total, info


def train(env_factory, config: DdpgConfig, kind: str = "vehicle",
          progress=None):
    """Full DDPG loop: episode collection with OU exploration, replay
    updates, periodic noise-free evaluation. Returns (policy, curve) where
    curve rows are (episode, return, served, lost, critic_loss, actor_value).
    """
    env = env_factory()
    obs = env.reset(seed=config.seed)
    obs_dim = obs.size
    action_dim = env.action_dim
    capacity = (env.world.vehicles[0].capacity
                if kind == "vehicle" and env.world.vehicles else 0)
    rng = np.random.default_rng(config.seed)
    actor = ActorNet.create(obs_dim, action_dim, config, rng)
    critic = CriticNet.create(obs_dim, action_dim, config, rng)
    actor_target = actor.copy()
    critic_target = critic.copy()
    buffer = ReplayBuffer(config.buffer_capacity, seed=config.seed)
    noise = OuNoise(action_dim, theta=config.ou_theta, sigma=config.ou_sigma,
                    mu=config.ou_mu, seed=config.seed + 1)
    policy = Policy(actor=actor, kind=kind, capacity=capacity,
                    history_window=config.history_window, obs_dim=obs_dim)
    curve = []
    window = HistoryWindow(config.history_window, obs_dim)
    sigma0 = config.ou_sigma
    diag = TrainDiagnostics(0.0, 0.0, 0.0, 0.0)
    for episode in range(1, config.episodes + 1):
        obs = env.reset()
        window.reset(obs)
        noise.sigma = sigma0 * (config.noise_decay ** (episode - 1))
        noise.reset()
        done = False
        ep_return = 0.0
        info = {}
        while not done:
            snapshot = window.snapshot()
            if (episode <= config.warmup_episodes
                    or rng.uniform() < config.exploration_eps):
                noisy = rng.uniform(-1.0, 1.0, size=action_dim)
            else:
                scores = act(actor, snapshot)
                noisy = np.clip(scores + noise.sample(), -1.0, 1.0)
            decoded = decode_action(noisy, kind, capacity)
            obs, reward, done, info = env.step(decoded)
            window.push(obs)
            buffer.push(snapshot, noisy, reward * config.reward_scale,
                        window.snapshot(), done)
            ep_return += reward
        if len(buffer) >= config.batch_size:
            for _ in range(config.train_steps_per_episode):
                diag = train_step(buffer, actor, critic, actor_target,
                                  critic_target, config)
        curve.append((episode, ep_return, info.get("served_total", 0),
                      info.get("lost_total", 0), diag.critic_loss,
                      diag.actor_value))
        if progress is not None and episode % config.eval_every == 0:
            if progress(episode, policy):
                break
    return policy, curve


def save_curve_csv(path: str, curve: list[tuple]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "return", "served", "lost",
                        "critic_loss", "actor_value"])
        for row in curve:
            writer.writerow([row[0], f"{row[1]:.6f}", row[2], row[3],
                             f"{row[4]:.6f}", f"{row[5]:.6f}"])
