"""Minimal neural kernels: peephole LSTM with exact BPTT, dense layers,
gradient checking and a clipped gradient-descent optimizer.

Everything is float64 numpy so finite-difference checks stay tight.
Forward passes never mutate parameters; tapes carry the activations the
backward pass needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes do not line up."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the limit 0
        return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# LSTM

# The 15 per-gate arrays of the former layout, which checkpoint version 1
# stores, in the order LstmParams.init draws them.
V1_NAMES = (
    "W_xi", "W_hi", "w_ci", "W_xf", "W_hf", "w_cf",
    "W_xc", "W_hc", "W_xo", "W_ho", "w_co",
    "b_i", "b_f", "b_c", "b_o",
)


@dataclass
class LstmParams:
    """Peephole LSTM weights, packed by gate in the order i, f, g, o.

    W_x (input, 4H), W_h (H, 4H) and b (4H) hold the four gate blocks side
    by side, g being the cell candidate. peep (3, H) holds the diagonal
    peepholes from the cell into i, f and o.
    """

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray
    peep: np.ndarray

    @property
    def input_size(self) -> int:
        return self.W_x.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[0]

    @classmethod
    def init(cls, input_size: int, hidden_size: int,
             rng: np.random.Generator) -> "LstmParams":
        scale = 1.0 / np.sqrt(hidden_size)
        rows = {"W_x": input_size, "W_h": hidden_size}
        named = {}
        for name in V1_NAMES:  # this draw order fixes the seeded weights
            shape = ((rows[name[:3]], hidden_size) if name[:3] in rows
                     else (hidden_size,))
            named[name] = rng.uniform(-scale, scale, size=shape)
        named["b_f"] += 1.0
        return cls.from_named(named)

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "LstmParams":
        width = 4 * hidden_size
        return cls(W_x=np.zeros((input_size, width)),
                   W_h=np.zeros((hidden_size, width)), b=np.zeros(width),
                   peep=np.zeros((3, hidden_size)))

    @classmethod
    def from_named(cls, named: dict[str, np.ndarray]) -> "LstmParams":
        """Build from the packed arrays by field name, or pack the 15
        per-gate arrays of checkpoint version 1 (V1_NAMES)."""
        if set(named) == {f.name for f in fields(cls)}:
            return cls(**named)
        if set(named) != set(V1_NAMES):
            raise ValueError(f"LSTM arrays {sorted(named)} match neither "
                             "the packed nor the version-1 layout")

        def pack(prefix):
            # np.stack rejects blocks of unequal shape
            blocks = np.stack([named[prefix + k] for k in "ifco"], axis=-2)
            return blocks.reshape(*blocks.shape[:-2], -1)

        return cls(W_x=pack("W_x"), W_h=pack("W_h"), b=pack("b_"),
                   peep=np.stack([named["w_c" + k] for k in "ifo"]))

    def arrays(self) -> list[np.ndarray]:
        return [self.W_x, self.W_h, self.b, self.peep]

    def copy(self) -> "LstmParams":
        return LstmParams(*(a.copy() for a in self.arrays()))


@dataclass
class LstmTape:
    """Activations cached by the forward pass for BPTT."""

    xs: np.ndarray  # (N, B, input)
    gates: np.ndarray  # (N, B, 4H): activations of i, f, g, o per step
    c: np.ndarray  # (N + 1, B, H): c_0 .. c_N
    h: np.ndarray  # (N + 1, B, H): h_0 .. h_N
    live: np.ndarray | None  # (N, B, 1): 1.0 from each sample's start on


def lstm_forward(params: LstmParams, xs: np.ndarray,
                 start: np.ndarray | None = None):
    """Run the gate recurrences over a sequence from zero state.

    xs has shape (N, input) or (N, B, input). start, if given, holds one
    step index per sample: before it the sample's h and c stay exactly 0,
    so its recurrence runs over steps start..N-1 only.
    Returns (hs, tape) with hs the per-step hidden states in the matching
    shape.
    """
    xs = np.asarray(xs, dtype=float)
    squeeze = xs.ndim == 2
    if squeeze:
        xs = xs[:, None, :]
    if xs.ndim != 3:
        raise ShapeError("input sequence must be (N, input) or (N, B, input)")
    n_steps, batch, input_size = xs.shape
    if n_steps == 0:
        raise ShapeError("input sequence is empty")
    if input_size != params.input_size:
        raise ShapeError(f"input size {input_size} != params input_size "
                         f"{params.input_size}")
    H = params.hidden_size
    live = None
    if start is not None:
        start = np.asarray(start)
        if start.shape != (batch,):
            raise ShapeError("start needs one step index per sample")
        live = (np.arange(n_steps)[:, None] >= start).astype(float)[:, :, None]
    xs = np.ascontiguousarray(xs)
    c = np.zeros((n_steps + 1, batch, H))
    h = np.zeros((n_steps + 1, batch, H))
    p_i, p_f, p_o = params.peep
    # one input projection for the whole sequence; each step then replaces
    # its slice with the gate activations
    gates = (xs.reshape(-1, input_size) @ params.W_x).reshape(
        n_steps, batch, 4 * H)
    for t in range(n_steps):
        a = gates[t]
        z = a + h[t] @ params.W_h
        z[:, :H] += p_i * c[t]
        z[:, H:2 * H] += p_f * c[t]
        z += params.b
        a[:, :2 * H] = sigmoid(z[:, :2 * H])
        a[:, 2 * H:3 * H] = np.tanh(z[:, 2 * H:3 * H])
        c[t + 1] = a[:, H:2 * H] * c[t] + a[:, :H] * a[:, 2 * H:3 * H]
        if live is not None:
            c[t + 1] *= live[t]  # and so h = o * tanh(0) = 0 as well
        a[:, 3 * H:] = sigmoid(z[:, 3 * H:] + p_o * c[t + 1])
        h[t + 1] = a[:, 3 * H:] * np.tanh(c[t + 1])
    tape = LstmTape(xs=xs, gates=gates, c=c, h=h, live=live)
    hs = h[1:]
    if squeeze:
        hs = hs[:, 0, :]
    return hs, tape


def lstm_backward(params: LstmParams, tape: LstmTape, dh_out: np.ndarray):
    """Exact BPTT through the tape.

    dh_out holds dLoss/dh_t per step, shaped like the forward hs output
    ((N, hidden) or (N, B, hidden)). Returns (grads, dx) where grads is an
    LstmParams of gradients and dx matches the input sequence shape.
    """
    dh_out = np.asarray(dh_out, dtype=float)
    squeeze = dh_out.ndim == 2
    if squeeze:
        dh_out = dh_out[:, None, :]
    n_steps, batch, input_size = tape.xs.shape
    H = params.hidden_size
    if dh_out.shape != (n_steps, batch, H):
        raise ShapeError("output gradient shape does not match the tape")
    p_i, p_f, p_o = params.peep
    grads = LstmParams.zeros(input_size, H)
    dx = np.empty_like(tape.xs)
    dh_rec = np.zeros((batch, H))
    dc_rec = np.zeros((batch, H))
    d = np.empty((batch, 4 * H))  # gradient of the gate pre-activations
    for t in range(n_steps - 1, -1, -1):
        a = tape.gates[t]
        i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c_prev, c = tape.c[t], tape.c[t + 1]
        tanh_c = np.tanh(c)
        dh = dh_out[t] + dh_rec
        d_o = dh * tanh_c * o * (1 - o)
        dc = dh * o * (1 - tanh_c ** 2) + dc_rec + d_o * p_o
        if tape.live is not None:
            dc *= tape.live[t]
        d[:, :H] = dc * g * i * (1 - i)
        d[:, H:2 * H] = dc * c_prev * f * (1 - f)
        d[:, 2 * H:3 * H] = dc * i * (1 - g ** 2)
        d[:, 3 * H:] = d_o
        grads.W_x += tape.xs[t].T @ d
        grads.W_h += tape.h[t].T @ d
        grads.b += d.sum(axis=0)
        grads.peep[0] += (d[:, :H] * c_prev).sum(axis=0)
        grads.peep[1] += (d[:, H:2 * H] * c_prev).sum(axis=0)
        grads.peep[2] += (d_o * c).sum(axis=0)
        dx[t] = d @ params.W_x.T
        dh_rec = d @ params.W_h.T
        dc_rec = dc * f + d[:, :H] * p_i + d[:, H:2 * H] * p_f
    if squeeze:
        dx = dx[:, 0, :]
    return grads, dx


# ---------------------------------------------------------------------------
# Dense layers

_ACTIVATIONS = {
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z, a: 1 - a ** 2),
}


@dataclass
class MlpParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    def __post_init__(self):
        if not all(isinstance(a, str) and a in _ACTIVATIONS
                   for a in self.activations):
            raise ValueError(f"unknown activation in {self.activations}")

    @classmethod
    def init(cls, sizes: list[int], activations: list[str],
             rng: np.random.Generator) -> "MlpParams":
        if len(activations) != len(sizes) - 1:
            raise ShapeError("need one activation per layer")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, activations=list(activations))

    def arrays(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def copy(self) -> "MlpParams":
        return MlpParams(weights=[w.copy() for w in self.weights],
                         biases=[b.copy() for b in self.biases],
                         activations=list(self.activations))


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Forward through the dense stack. x is (B, in) or (in,)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    pre, post = [], [x]
    out = x
    for W, b, act in zip(params.weights, params.biases, params.activations):
        if out.shape[1] != W.shape[0]:
            raise ShapeError(f"layer input {out.shape[1]} != weight rows {W.shape[0]}")
        z = out @ W + b
        out = _ACTIVATIONS[act][0](z)
        pre.append(z)
        post.append(out)
    tape = (pre, post)
    if squeeze:
        return out[0], tape
    return out, tape


def mlp_backward(params: MlpParams, tape, dout: np.ndarray):
    """Returns (grads, dx) for the forward tape."""
    pre, post = tape
    dout = np.asarray(dout, dtype=float)
    squeeze = dout.ndim == 1
    if squeeze:
        dout = dout[None, :]
    grads = MlpParams(weights=[np.zeros_like(w) for w in params.weights],
                      biases=[np.zeros_like(b) for b in params.biases],
                      activations=list(params.activations))
    d = dout
    for layer in range(len(params.weights) - 1, -1, -1):
        act = params.activations[layer]
        dz = d * _ACTIVATIONS[act][1](pre[layer], post[layer + 1])
        grads.weights[layer] = post[layer].T @ dz
        grads.biases[layer] = dz.sum(axis=0)
        d = dz @ params.weights[layer].T
    if squeeze:
        d = d[0]
    return grads, d


# ---------------------------------------------------------------------------
# Gradient checking and optimization

def grad_check(loss_fn, params: list[np.ndarray],
               analytic: list[np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn() must recompute the loss from the (mutated) parameter arrays.
    The relative-error denominator is max(|a|, |fd|, 1e-8).
    """
    base = loss_fn()
    if not np.isfinite(base):
        raise ValueError("loss is not finite")
    worst = 0.0
    for arr, grad in zip(params, analytic):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn()
            flat[idx] = orig - eps
            down = loss_fn()
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(gflat[idx]), abs(fd), 1e-8)
            worst = max(worst, abs(gflat[idx] - fd) / denom)
    return worst


@dataclass
class OptimizerConfig:
    step_size: float = 0.01
    clip_norm: float = 0.0  # 0 disables clipping


def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads)))


def optimizer_step(params: list[np.ndarray], grads: list[np.ndarray],
                   config: OptimizerConfig) -> float:
    """In-place gradient descent with optional global-norm clipping.

    Returns the global norm of grads before clipping.
    """
    if len(params) != len(grads):
        raise ShapeError("params/grads length mismatch")
    norm = global_norm(grads)
    scale = 1.0
    if 0 < config.clip_norm < norm:
        scale = config.clip_norm / norm
    for p, g in zip(params, grads):
        if p.shape != np.asarray(g).shape:
            raise ShapeError("params/grads shape mismatch")
        p -= config.step_size * scale * np.asarray(g)
    return norm


# ---------------------------------------------------------------------------
# Checkpoints

# Version 2 stores an LSTM as its four packed arrays; version 1 stored the
# 15 per-gate arrays, which LstmParams.from_named packs on load.
CHECKPOINT_VERSION = 2


def save_checkpoint(path: str, named_arrays: dict[str, np.ndarray],
                    meta: dict | None = None):
    doc = {"version": CHECKPOINT_VERSION, "meta": meta or {}, "arrays": {}}
    for name, arr in named_arrays.items():
        arr = np.asarray(arr, dtype=float)
        doc["arrays"][name] = {"shape": list(arr.shape),
                               "data": arr.reshape(-1).tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    try:
        arrays = {name: np.array(entry["data"], dtype=float).reshape(
            entry["shape"]) for name, entry in doc["arrays"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed checkpoint arrays: {exc!r}") from exc
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("checkpoint meta is not an object")
    return arrays, meta
