"""Deterministic policy-gradient scheduler.

Actor = LSTM over the recent observation window + dense head with tanh
scores; critic = dense net on (last observation, raw action scores). The
environment consumes decoded discrete/hybrid actions while gradients flow
through the continuous scores, isolated behind decode_action.

The learner runs in one dtype, DTYPE (float32): the actor's and critic's
parameters, gradients and tapes, the replay ring's observations and
actions, and the observation windows the actor reads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import nn
from .world import OP_BACKWARD, OP_FORWARD, OP_HALT, InputError


# The closed range of each bounded DdpgConfig value; floats must also be
# finite. Each size has an upper bound, so that no size alone asks for
# arrays past numpy's dimensions or past memory:
_CONFIG_RANGES = {
    # rows: each actor forward steps its LSTM through them one by one
    "history_window": (1, 256),
    # samples: each actor tape array holds history_window * batch_size rows
    "batch_size": (1, 4096),
    # transitions: the ring maps 2 * capacity + history_window observation
    # rows, 472 MB of address space on bike5 at this bound
    "buffer_capacity": (1, 10 ** 6),
    # units: W_h holds 4 * lstm_hidden ** 2 parameters, 16 MB here
    "lstm_hidden": (1, 1024),
    # units: the critic's middle layer holds critic_hidden ** 2 parameters
    **dict.fromkeys(("actor_hidden", "critic_hidden"), (1, 1024)),
    "eval_every": (1, math.inf),
    **dict.fromkeys(("episodes", "warmup_episodes",
                     "train_steps_per_episode", "seed"), (0, math.inf)),
    "tau": (0.0, 1.0),
    "discount": (0.0, 1.0),
    "exploration_eps": (0.0, 1.0),  # a per-step probability
    # a negative step size, noise scale or clip norm (0: off) has no meaning
    **dict.fromkeys(("actor_lr", "critic_lr", "ou_sigma", "clip_norm"),
                    (0.0, math.inf)),
}

# The most cells history_window * batch_size * lstm_hidden, a product the
# ranges above do not bound: a training actor tape holds 12 DTYPE values
# per cell (four gates, c, h, tanh(c), the start mask and the four-gate
# input projection), 96 MiB at this bound, which admits each size at its
# own bound with the others at their defaults.
_MAX_TAPE_CELLS = 2 ** 21


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

    def __post_init__(self):
        """Reject values training cannot run with."""
        for f in fields(self):
            value = getattr(self, f.name)
            low, high = _CONFIG_RANGES.get(f.name, (-math.inf, math.inf))
            if (not low <= value <= high
                    or f.type == "float" and not math.isfinite(value)):
                raise InputError(f"DDPG config {f.name} must be a finite "
                                 f"number in [{low}, {high}], not {value!r}")
        cells = self.history_window * self.batch_size * self.lstm_hidden
        if cells > _MAX_TAPE_CELLS:
            raise InputError(f"DDPG config history_window x batch_size x "
                             f"lstm_hidden = {cells} exceeds "
                             f"{_MAX_TAPE_CELLS}: the actor's training tape "
                             f"would hold 12 values per cell")
        if self.batch_size > self.buffer_capacity:
            raise InputError(f"DDPG config batch_size {self.batch_size} "
                             "exceeds buffer_capacity "
                             f"{self.buffer_capacity}: the buffer never "
                             "holds a batch, so no update would run")

    @classmethod
    def from_dict(cls, doc: dict) -> "DdpgConfig":
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise InputError(f"unknown DDPG config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            kind = cls.__dataclass_fields__[key].type
            allowed = int if kind == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise InputError(f"DDPG config key {key!r} must be {kind}, "
                                 f"not {value!r}")
        return cls(**doc)


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


HEAD_ACTIVATIONS = ("relu", "tanh")

# The learner's dtype (see the module docstring).
DTYPE = np.float32


class ActorNet(nn.LstmNet):
    """LSTM over an observation window plus a dense head with tanh scores
    (an nn.LstmNet). forward and backward are defined in this class body:
    perfbench's tracer wraps them where the class's `__dict__` holds them.
    """

    @classmethod
    def create(cls, obs_dim: int, action_dim: int, config: DdpgConfig,
               rng: np.random.Generator) -> "ActorNet":
        """A DTYPE actor: the float64 draws of the seed, rounded."""
        return cls.init(obs_dim, config.lstm_hidden,
                        [config.actor_hidden, action_dim], HEAD_ACTIVATIONS,
                        rng, dtype=DTYPE)

    def forward(self, windows: np.ndarray, start=None, reuse=None):
        """windows: (B, W, obs). Returns (scores, tapes), scores (B, action).

        start holds, per window, the row of the episode's first
        observation: the rows before it are episode-start padding, and the
        recurrence starts at it, so a length-1 window and its padded
        equivalent score identically. None means every row is real. reuse,
        if given, is the tapes of an earlier forward that nothing reads any
        more; the LSTM writes into its arrays (nn.LstmNet.forward).
        windows are cast to the parameters' dtype.
        """
        windows = np.asarray(windows, dtype=self.params.vector.dtype)
        return super().forward(np.transpose(windows, (1, 0, 2)), start,
                               reuse)

    def backward(self, tapes, dscores: np.ndarray) -> list[np.ndarray]:
        """Writes the parameter gradients into `grads` and returns its
        arrays."""
        return super().backward(tapes, dscores)


def act(actor: ActorNet, history_window: np.ndarray, start: int = 0,
        tapes: dict | None = None) -> np.ndarray:
    """Raw action scores for one observation window (W, obs), W >= 1, whose
    rows before start are episode-start padding.

    tapes, if given, keeps the forward's tapes from one call to the next,
    as train_step's does: each call writes into the last one's arrays, so
    that an episode's acting allocates no tapes after its first step. The
    scores do not depend on it.
    """
    reuse = None if tapes is None else tapes.get("actor")
    scores, used = actor.forward(history_window[None], [start], reuse=reuse)
    if tapes is not None:
        tapes["actor"] = used
    return scores[0]


@dataclass
class CriticNet:
    """Dense net on (last observation, action scores); parameters and
    gradients are views into one vector each, as in ActorNet."""

    net: nn.MlpParams
    obs_dim: int

    def __post_init__(self):
        self.params = nn.FlatParams.pack(self.net.arrays())
        (self.net,) = self.params.view_as([self.net])
        self.grads = self.params.zeros_like()
        (self._net_grads,) = self.grads.view_as([self.net])

    @classmethod
    def create(cls, obs_dim: int, action_dim: int, config: DdpgConfig,
               rng: np.random.Generator) -> "CriticNet":
        """A DTYPE critic: the float64 draws of the seed, rounded."""
        net = nn.MlpParams.init(
            [obs_dim + action_dim, config.critic_hidden,
             config.critic_hidden, 1], ["relu", "relu", "identity"], rng)
        return cls(net=net.with_arrays([a.astype(DTYPE)
                                        for a in net.arrays()]),
                   obs_dim=obs_dim)

    def copy(self) -> "CriticNet":
        return CriticNet(net=self.net, obs_dim=self.obs_dim)  # packs a copy

    def forward(self, obs: np.ndarray, action: np.ndarray):
        """Values (B,) of (B, obs) observations and (B, action) actions."""
        x = np.concatenate([obs, action], axis=1)
        values, tape = nn.mlp_forward(self.net, x)
        return values[:, 0], tape

    def backward(self, tape, dvalues: np.ndarray) -> list[np.ndarray]:
        """Writes the parameter gradients into `grads` and returns its
        arrays; dvalues is (B, 1), and the input gradient is not computed."""
        nn.mlp_backward(self.net, tape, dvalues, grads=self._net_grads,
                        input_grad=False)
        return self.grads.arrays

    def action_gradient(self, tape, dvalues: np.ndarray) -> np.ndarray:
        """Gradient with respect to the action input; the parameter
        gradients are not computed."""
        dx = nn.mlp_backward(self.net, tape, dvalues)
        return dx[:, self.obs_dim:]


# ---------------------------------------------------------------------------
# Replay, noise, decoding

class Batch(NamedTuple):
    """Sampled transitions. start and next_start hold each window's first
    real row (ActorNet.forward's start)."""

    windows: np.ndarray  # (B, W, obs)
    actions: np.ndarray  # (B, action)
    rewards: np.ndarray  # (B,)
    next_windows: np.ndarray  # (B, W, obs)
    dones: np.ndarray  # (B,) 1.0 or 0.0
    start: np.ndarray  # (B,)
    next_start: np.ndarray  # (B,)


class ReplayBuffer:
    """Bounded FIFO of transitions with a seeded uniform sampler.

    Observations are stored once, as rows of a ring: begin_episode stores
    the first observation of an episode and push the one each transition
    leads to. A transition keeps its action, reward, done flag, episode step
    and the ring row of the observation it acted on; its next observation is
    the row after. sample stacks the history_window rows ending at each
    sampled observation, and at the one after it, as the window and next
    window (frame stacking as in DQN's replay); rows from before the
    episode's start read zero. Observations and actions are stored as
    DTYPE. Arrays are allocated when the first observation and action
    arrive, each in a zero mapping of its own (nn.mapped_zeros), so memory
    grows with what is stored, not with capacity.
    """

    def __init__(self, capacity: int, seed: int = 0, history_window: int = 1):
        self.capacity = capacity
        self.history_window = history_window
        # Rows the oldest kept transition still reads: the W - 1 before its
        # own, its own, and every row written since, which is one per kept
        # transition (its next observation) and one per episode begun after
        # one of them, so 2 * capacity + W rows suffice. One more row, past
        # the ring, stays zero; padding reads it.
        self._ring = 2 * capacity + history_window
        # a sampled window's rows as offsets from its observation's row,
        # -W + 1 .. 1, and as positions in the window, 0 .. W, (W + 1, 1)
        self._positions = np.arange(history_window + 1)[:, None]
        self._offsets = self._positions - (history_window - 1)
        self._rng = np.random.default_rng(seed)
        self._size = 0
        self._next = 0  # transition slot the next push fills
        self._row = -1  # ring row of the latest observation
        self._step = 0  # episode step of the next push
        self._obs = None
        self._actions = None

    def begin_episode(self, obs: np.ndarray):
        """Store the first observation of an episode."""
        obs = np.asarray(obs)
        if self._obs is None:
            self._obs = nn.mapped_zeros((self._ring + 1, obs.size), DTYPE)
        if self._step > 0 or self._row < 0:
            # an episode that took no step gives its row to the next one,
            # which keeps the row count within the ring bound above
            self._row = (self._row + 1) % self._ring
        self._obs[self._row] = obs
        self._step = 0

    def push(self, action, reward: float, next_obs: np.ndarray, done: bool):
        """Store the transition from the latest observation, taking action,
        to next_obs."""
        if self._obs is None:
            raise ValueError("push before the first begin_episode")
        if self._actions is None:
            self._actions = nn.mapped_zeros((self.capacity, np.size(action)),
                                            DTYPE)
            self._rewards = nn.mapped_zeros(self.capacity, float)
            self._dones = nn.mapped_zeros(self.capacity, float)
            self._steps = nn.mapped_zeros(self.capacity, np.intp)
            self._rows = nn.mapped_zeros(self.capacity, np.intp)
        slot = self._next
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._dones[slot] = bool(done)
        self._steps[slot] = self._step
        self._rows[slot] = self._row
        self._row = (self._row + 1) % self._ring
        self._obs[self._row] = next_obs
        self._step += 1
        self._next = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int) -> Batch:
        if not 1 <= batch_size <= self._size:
            raise ValueError(f"cannot sample {batch_size} of "
                             f"{self._size} transitions")
        idx = self._rng.integers(0, self._size, size=batch_size)
        start = np.maximum(self.history_window - 1 - self._steps[idx], 0)
        # rows r - W + 1 .. r + 1 around each sampled observation r, time
        # major; those before the episode's first read the zero row past
        # the ring. The windows are (B, W, obs) views of the time-major
        # block, which ActorNet.forward reads without a copy.
        rows = self._rows[idx] + self._offsets
        rows %= self._ring
        rows[self._positions < start] = self._ring
        block = self._obs.take(rows, axis=0)
        return Batch(windows=block[:-1].transpose(1, 0, 2),
                     actions=self._actions.take(idx, axis=0),
                     rewards=self._rewards[idx],
                     next_windows=block[1:].transpose(1, 0, 2),
                     dones=self._dones[idx], start=start,
                     next_start=np.maximum(start - 1, 0))


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

    scores is a 1-D array. It is decoded as Python floats: each step is
    the double operation numpy would make on the same values, and an
    argmax is the first maximum, as numpy's, without numpy's per-call
    cost on a handful of values.
    """
    values = scores.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("action scores must be finite")
    if kind == "bus":
        best = max(values)
        if values[1] == best:  # ties break toward halting
            return OP_HALT
        return (OP_BACKWARD, OP_HALT, OP_FORWARD)[values.index(best)]
    if kind == "vehicle":
        stations = values[:-1]
        station = stations.index(max(stations))
        raw = min(max(values[-1], -1.0), 1.0) * capacity
        quantity = math.floor(abs(raw) + 0.5) * (1 if raw >= 0 else -1)
        return station, max(-capacity, min(quantity, capacity))
    raise ValueError(f"unknown agent kind {kind!r}")


def soft_update(target: np.ndarray, online: np.ndarray,
                tau: float) -> np.ndarray:
    """target <- tau * online + (1 - tau) * target, in place; for networks,
    pass their parameter vectors (`params.vector`)."""
    target *= (1.0 - tau)
    target += tau * online
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
               config: DdpgConfig, tapes: dict | None = None
               ) -> TrainDiagnostics:
    """One gradient step on both networks plus soft target updates.

    Both actor forwards write into one set of tape arrays: the target's
    tape is dead once its scores are out, and the actor's once its
    backward has run. tapes, if given, keeps that set from one call to
    the next (train passes one for its whole loop), so that later calls
    allocate no tapes. The results do not depend on it.
    """
    if tapes is None:
        tapes = {}
    batch = buffer.sample(config.batch_size)
    last_obs = batch.windows[:, -1, :]
    next_last = batch.next_windows[:, -1, :]
    next_actions, target_tapes = actor_target.forward(
        batch.next_windows, batch.next_start, reuse=tapes.get("actor"))
    next_q, _ = critic_target.forward(next_last, next_actions)
    targets = batch.rewards + config.discount * (1.0 - batch.dones) * next_q
    # critic regression
    q, critic_tape = critic.forward(last_obs, batch.actions)
    err = q - targets
    critic_loss = float(np.mean(err ** 2))
    critic.backward(critic_tape, (2.0 * err / err.size)[:, None])
    critic_norm = nn.optimizer_step(critic.params, critic.grads,
                                    config.critic_lr, config.clip_norm)
    # actor ascends the critic value through the chained gradient
    policy_actions, actor_tapes = actor.forward(
        batch.windows, batch.start, reuse=target_tapes)
    tapes["actor"] = actor_tapes
    q_pi, pi_tape = critic.forward(last_obs, policy_actions)
    actor_value = float(np.mean(q_pi))
    daction = critic.action_gradient(
        pi_tape, np.full((q_pi.size, 1), 1.0 / q_pi.size))
    dscores = -daction
    if config.action_l2 > 0:
        dscores = dscores + 2.0 * config.action_l2 * policy_actions / q_pi.size
    actor.backward(actor_tapes, dscores)
    actor_norm = nn.optimizer_step(actor.params, actor.grads,
                                   config.actor_lr, config.clip_norm)
    soft_update(actor_target.params.vector, actor.params.vector, config.tau)
    soft_update(critic_target.params.vector, critic.params.vector,
                config.tau)
    return TrainDiagnostics(critic_loss=critic_loss, actor_value=actor_value,
                            critic_grad_norm=critic_norm,
                            actor_grad_norm=actor_norm)


class HistoryWindow:
    """Fixed-length observation window, zero-padded at episode start, held
    as DTYPE so that the actor reads it without a cast."""

    def __init__(self, length: int, obs_dim: int):
        self.buffer = np.zeros((length, obs_dim), DTYPE)
        self.count = 0  # observations pushed since reset

    def reset(self, obs: np.ndarray):
        self.buffer[:] = 0.0
        self.count = 0
        self.push(obs)

    def push(self, obs: np.ndarray):
        self.buffer[:-1] = self.buffer[1:]
        self.buffer[-1] = obs
        self.count += 1

    @property
    def start(self) -> int:
        """Row of the episode's first observation still in the window; the
        rows before it are padding."""
        return max(len(self.buffer) - self.count, 0)


# Version 4 stores the actor as its packed parameter vector, of DTYPE
# values (version 3 held float64 ones).
CHECKPOINT_VERSION = 4

# The largest magnitude a DTYPE parameter holds; a checkpoint number past
# it would load as inf.
_PARAM_MAX = float(np.finfo(DTYPE).max)

# The integer meta keys of a policy checkpoint with their least values; the
# one other key is kind.
_META_MINIMUMS = {"capacity": 0, "history_window": 1, "obs_dim": 1,
                  "action_dim": 1, "lstm_hidden": 1, "actor_hidden": 1}


@dataclass
class Policy:
    """A trained actor plus the decoding metadata the env needs."""

    actor: ActorNet
    kind: str
    capacity: int
    history_window: int
    # act's tapes, reused from one call to the next
    _tapes: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def begin_episode(self, obs: np.ndarray):
        obs_dim = self.actor.lstm.W_x.shape[0]
        obs = np.asarray(obs)
        if obs.size != obs_dim:
            raise InputError(f"policy obs_dim {obs_dim} does not match "
                             f"the scenario's observation size {obs.size}")
        self._window = HistoryWindow(self.history_window, obs_dim)

    def action_for(self, env):
        """The action for the env's current observation, `env.obs`. The
        episode's first call checks the env's action size."""
        if self._window.count == 0:
            action_dim = self.actor.head.weights[-1].shape[1]
            if env.action_dim != action_dim:
                raise InputError(f"policy action_dim {action_dim} does not "
                                 "match the scenario's action size "
                                 f"{env.action_dim}")
        self._window.push(env.obs)
        scores = act(self.actor, self._window.buffer, self._window.start,
                     self._tapes)
        return decode_action(scores, self.kind, self.capacity)

    def save(self, path: str):
        """Write the JSON checkpoint that load reads."""
        lstm, head = self.actor.lstm, self.actor.head
        meta = {
            "kind": self.kind, "capacity": self.capacity,
            "history_window": self.history_window,
            "obs_dim": lstm.W_x.shape[0],
            "action_dim": head.weights[-1].shape[1],
            "lstm_hidden": lstm.hidden_size,
            "actor_hidden": head.weights[0].shape[1],
        }
        with open(path, "w") as fh:
            json.dump({"version": CHECKPOINT_VERSION, "meta": meta,
                       "params": self.actor.params.vector.tolist()}, fh)

    @classmethod
    def load(cls, path: str) -> "Policy":
        """Read a checkpoint that save wrote. Raises InputError unless its
        version and meta describe an actor memory can hold and its params
        are that actor's parameter vector, each number within DTYPE's
        finite range. The actor is DTYPE, so a policy saved and loaded acts
        bit for bit as the one saved.
        """
        with open(path) as fh:
            doc = json.load(fh)
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_VERSION:
            raise InputError(f"unsupported checkpoint version {version!r}")
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise InputError("checkpoint meta is not an object")
        # type(x) is int: JSON true is not an integer here
        bad = [k for k, low in _META_MINIMUMS.items()
               if not (type(meta.get(k)) is int and meta[k] >= low)]
        if meta.get("kind") not in ("vehicle", "bus"):
            bad.append("kind")
        if bad:
            raise InputError(f"checkpoint meta has no valid {', '.join(bad)}")
        # np.zeros leaves memory untouched, and the actor packs these blocks
        # only once params fills them. Sizes past memory or past numpy's
        # largest array are bad input, begin_episode's window's too.
        sizes = [meta["lstm_hidden"], meta["actor_hidden"], meta["action_dim"]]
        try:
            lstm = nn.LstmParams.zeros(meta["obs_dim"], meta["lstm_hidden"],
                                       DTYPE)
            head = nn.MlpParams(
                weights=[np.zeros(s, DTYPE) for s in zip(sizes, sizes[1:])],
                biases=[np.zeros(n, DTYPE) for n in sizes[1:]],
                activations=list(HEAD_ACTIVATIONS))
            HistoryWindow(meta["history_window"], meta["obs_dim"])
        except (MemoryError, ValueError) as exc:
            raise InputError(f"checkpoint meta sizes: {exc}") from None
        size = sum(a.size for a in lstm.arrays() + head.arrays())
        params = doc.get("params")
        # checked before the copy, which would broadcast one number; the
        # range leaves out NaN, inf and numbers the cast would make inf
        if not (isinstance(params, list) and len(params) == size
                and all(type(x) in (int, float) and abs(x) <= _PARAM_MAX
                        for x in params)):
            raise InputError(f"checkpoint params must be a list of the {size} "
                             "numbers of the actor its meta describes, each "
                             f"of magnitude at most {_PARAM_MAX:g}")
        actor = ActorNet(lstm=lstm, head=head)
        actor.params.vector[:] = params
        return cls(actor=actor, kind=meta["kind"], capacity=meta["capacity"],
                   history_window=meta["history_window"])


def run_episode(env, policy, force_outage: bool | None = None):
    """Noise-free rollout of any policy that speaks the protocol:
    `begin_episode(obs)` once, then `action_for(env)` each step. Returns
    the env's `EpisodeRecord`."""
    kwargs = {}
    if force_outage is not None:
        kwargs["force_outage"] = force_outage
    policy.begin_episode(env.reset(**kwargs))
    while not env.done:
        env.step(policy.action_for(env))
    return env.record


@nn.one_blas_thread()
def train(env_factory, config: DdpgConfig, progress=None):
    """Full DDPG loop: episode collection with OU exploration and replay
    updates. It evaluates nothing itself: every eval_every episodes it
    calls progress(episode, policy), if given, and stops when that returns
    true. The policy drives the env's agent kind, `env.kind`. Returns
    (policy, curve) where curve rows are (episode, return, served, lost,
    critic_loss, actor_value): the episode's `EpisodeRecord`, then the
    last update's diagnostics. It runs with one BLAS thread
    (nn.one_blas_thread).
    """
    env = env_factory()
    kind = env.kind
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
    buffer = ReplayBuffer(config.buffer_capacity, seed=config.seed,
                          history_window=config.history_window)
    noise = OuNoise(action_dim, theta=config.ou_theta, sigma=config.ou_sigma,
                    mu=config.ou_mu, seed=config.seed + 1)
    policy = Policy(actor=actor, kind=kind, capacity=capacity,
                    history_window=config.history_window)
    curve = []
    window = HistoryWindow(config.history_window, obs_dim)
    sigma0 = config.ou_sigma
    diag = TrainDiagnostics(0.0, 0.0, 0.0, 0.0)
    tapes = {}  # train_step's actor tapes, reused from one update to the next
    act_tapes = {}  # and act's, from one step to the next
    for episode in range(1, config.episodes + 1):
        obs = env.reset()
        window.reset(obs)
        buffer.begin_episode(obs)
        noise.sigma = sigma0 * (config.noise_decay ** (episode - 1))
        noise.reset()
        done = False
        while not done:
            if (episode <= config.warmup_episodes
                    or rng.uniform() < config.exploration_eps):
                noisy = rng.uniform(-1.0, 1.0, size=action_dim)
            else:
                scores = act(actor, window.buffer, window.start, act_tapes)
                noisy = np.clip(scores + noise.sample(), -1.0, 1.0)
            decoded = decode_action(noisy, kind, capacity)
            obs, reward, done, _ = env.step(decoded)
            window.push(obs)
            buffer.push(noisy, reward * config.reward_scale, obs, done)
        if len(buffer) >= config.batch_size:
            for _ in range(config.train_steps_per_episode):
                diag = train_step(buffer, actor, critic, actor_target,
                                  critic_target, config, tapes)
        record = env.record
        curve.append((episode, record.total_reward, record.served,
                      record.lost, diag.critic_loss, diag.actor_value))
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
