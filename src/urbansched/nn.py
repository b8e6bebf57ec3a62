"""Minimal neural kernels: peephole LSTM with exact BPTT, dense layers,
gradient checking, a clipped gradient-descent optimizer, and the one
network made of them (LstmNet: an LSTM, then a dense head).

The kernels compute in the dtype of their parameters: tapes, working
arrays and fresh gradients take it, and inputs are cast to it. The DDPG
actor and critic (ddpg) and the departure forecaster (forecast_bike) run
in float32, which moves half the bytes of float64; the finite-difference
checks (grad_check) run on float64 networks, which keeps them tight.
Forward passes never mutate parameters; tapes carry the activations the
backward pass needs.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# LSTM

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
    def hidden_size(self) -> int:
        return self.W_h.shape[0]

    @classmethod
    def init(cls, input_size: int, hidden_size: int,
             rng: np.random.Generator) -> "LstmParams":
        scale = 1.0 / np.sqrt(hidden_size)

        def draw(*shape):
            return rng.uniform(-scale, scale, size=shape)

        p = cls.zeros(input_size, hidden_size)
        W_x = p.W_x.reshape(input_size, 4, hidden_size)  # views by gate
        W_h = p.W_h.reshape(hidden_size, 4, hidden_size)
        # this draw order fixes the seeded weights: for each gate its W_x
        # block, its W_h block and its peephole (g has none), then the biases
        for gate, peep_row in enumerate((0, 1, None, 2)):
            W_x[:, gate] = draw(input_size, hidden_size)
            W_h[:, gate] = draw(hidden_size, hidden_size)
            if peep_row is not None:
                p.peep[peep_row] = draw(hidden_size)
        p.b[:] = draw(4 * hidden_size)
        p.b[hidden_size:2 * hidden_size] += 1.0  # the forget gate's
        return p

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int,
              dtype=np.float64) -> "LstmParams":
        width = 4 * hidden_size
        return cls(W_x=np.zeros((input_size, width), dtype),
                   W_h=np.zeros((hidden_size, width), dtype),
                   b=np.zeros(width, dtype),
                   peep=np.zeros((3, hidden_size), dtype))

    def arrays(self) -> list[np.ndarray]:
        return [self.W_x, self.W_h, self.b, self.peep]

    def with_arrays(self, arrays: list[np.ndarray]) -> "LstmParams":
        """The same layout holding arrays, in the order of arrays()."""
        return LstmParams(*arrays)


# Tape arrays of at least this many bytes get a mapping of their own.
_MAPPED_BYTES = 1 << 16


def mapped_zeros(shape, dtype) -> np.ndarray:
    """A zero array of dtype in an anonymous mapping of its own, outside
    malloc's heap.

    The system maps each page in when it is first written, so the memory
    the array holds grows with the pages written, not with its size, and
    the mapping goes back to the system whole when the array goes. An
    array from np.zeros is mapped so only while malloc gives it a mapping
    of its own, and glibc raises that size threshold (up to 32 MB) each
    time it frees such a block: the next np.zeros of that size can then
    come from the heap, where calloc clears, and so touches, every byte
    of the memory it reuses.
    """
    import mmap  # here, so that importing nn loads no extension module
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def _tape_array(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array of dtype for a tape.

    A large one lives in an anonymous mapping of its own (mapped_zeros),
    outside malloc's heap. A tape that a training loop reuses lives as
    long as the loop; in the heap it would pin what is allocated above it,
    so that the heap could neither reuse nor return that memory (with
    ddpg.train's tapes in the heap, two bike5 training runs in one process
    left 6.5 MB of it free but resident, against 1.0 MB). A mapping goes
    back to the system whole when the tape goes. Small arrays stay in the
    heap, since a mapping costs system calls and whole pages. Which is
    which is decided by bytes, so a float32 array maps from twice the
    elements.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    if size < _MAPPED_BYTES:
        return np.empty(shape, dtype)
    return mapped_zeros(shape, dtype)


@dataclass
class LstmTape:
    """Activations cached by the forward pass for BPTT.

    gates is gate-major within each step: gates[t, k] is one contiguous
    (B, H) block holding the activation of gate k (i, f, g, o) at step t,
    so the elementwise math of a step runs on contiguous blocks instead of
    (B, H) slices strided inside a (B, 4H) row. tanh_c keeps tanh(c_t) for
    the backward pass.

    The start mask is kept full width, (N, B, H), and rewritten by each
    forward given a start, so that no step multiplies by a (B, 1) column
    that broadcasts. Each step's views of these arrays are built once, in
    `steps`, so that neither pass indexes a tape array per step.

    The tape also owns the working arrays of the forward and backward
    passes run on it (`scratch`), so that a forward given this tape as
    `reuse` allocates nothing. Every array of a tape has its parameters'
    dtype.
    """

    # (N, B, input): the forward's input, not copied when it is contiguous
    # or a sliding view of one series (see lstm_forward), so it may be the
    # caller's array, which the backward reads
    xs: np.ndarray
    gates: np.ndarray  # (N, 4, B, H): activations of i, f, g, o per step
    c: np.ndarray  # (N + 1, B, H): c_0 .. c_N
    h: np.ndarray  # (N + 1, B, H): h_0 .. h_N
    tanh_c: np.ndarray  # (N, B, H): tanh(c_1) .. tanh(c_N)
    mask: np.ndarray  # (N, B, H): the start mask's kept array
    live: np.ndarray | None = None  # mask, once written for a start; or None
    scratch: dict = field(default_factory=dict, repr=False)
    # per step t: gates[t], its i and f blocks, i, f, g, o, c[t], c[t + 1],
    # h[t], h[t + 1], tanh_c[t] and mask[t]
    steps: list = field(init=False, repr=False)

    def __post_init__(self):
        c, h = self.c, self.h
        self.steps = [(a, a[:2], *a, c[t], c[t + 1], h[t], h[t + 1],
                       self.tanh_c[t], self.mask[t])
                      for t, a in enumerate(self.gates)]

    def work(self, name: str, shape: tuple) -> np.ndarray:
        """The working array `name`, allocated on first use and kept for
        the passes of later calls that reuse this tape."""
        array = self.scratch.get(name)
        if array is None or array.shape != shape:
            array = self.scratch[name] = _tape_array(shape, self.h.dtype)
        return array

    def per_sample(self, name: str, rows: np.ndarray) -> np.ndarray:
        """(K, B, H) working copy of K rows of length H, each repeated per
        sample, so that products with (B, H) blocks need no broadcasting."""
        batch = self.h.shape[1]
        out = self.work(name, (rows.shape[0], batch, rows.shape[1]))
        out[...] = rows[:, None, :]
        return out


def _gate_major(packed: np.ndarray) -> np.ndarray:
    """(4, rows, H) view of a (rows, 4H) array packed by gate."""
    rows, width = packed.shape
    return packed.reshape(rows, 4, width // 4).transpose(1, 0, 2)


def lstm_forward(params: LstmParams, xs: np.ndarray,
                 start: np.ndarray | None = None,
                 reuse: LstmTape | None = None):
    """Run the gate recurrences over a sequence from zero state.

    xs has shape (N, B, input). start, if given, holds one step index per
    sample: before it the sample's h and c stay exactly 0, so its
    recurrence runs over steps start..N-1 only.
    Returns (hs, tape) with hs the (N, B, H) per-step hidden states.

    xs and the start mask are cast to the parameters' dtype, in which the
    whole pass runs.

    Windows that slide over one series may come as a view: input size 1
    and xs.strides[0] == xs.strides[1] == xs.itemsize, so that xs[t, b] is
    value t + b of a contiguous series
    (np.lib.stride_tricks.sliding_window_view and a transpose make one).
    The tape then keeps the view, not a copy, and the input projection
    takes each of the N + B - 1 values once.

    reuse, if given, is the tape of an earlier call that nothing reads any
    more, nor the hs that call returned. When its N, B, H and dtype
    match, this call writes into its arrays and returns it as the tape, so
    that a training loop that hands each step the previous step's tape
    allocates nothing after its first step. Fresh arrays would be
    returned to the system and faulted in again on every step.

    Every product is gate-major, so each writes contiguous (B, H) gate
    blocks and no step copies between layouts:
    - the input projection is one product of the inputs' rows with W_x
      viewed as (4, input, H), into a (4, rows, H) array to which b is
      added once. Step t reads its rows t * shift .. t * shift + B - 1:
      shift is B for the N * B rows of other inputs, and 1 for the
      N + B - 1 values of a sliding view. With input size 1 a product
      sums nothing, so a sliding view and its copy have the same bits. A
      view strided otherwise is copied, since the backward's W_x
      products on it can round differently;
    - the recurrent term is one batched product of h_t with a gate-major
      (4, H, H) copy of W_h, written straight into the pre-activations,
      to which the step's projection rows and the peephole terms are
      then added. Step 0 starts from h_0 = c_0 = 0, so its
      pre-activations are its projection rows and c_1 = i * g: the
      dropped terms are zeros, which change no bit of a sum with a
      projection row (no row is -0.0, as no bias is);
    - the elementwise expressions are written in place into buffers
      allocated once per tape.
    """
    dtype = params.W_h.dtype
    xs = np.asarray(xs, dtype=dtype)
    n_steps, batch, input_size = xs.shape
    H = params.hidden_size
    # a sliding view: xs[t, b] is value t + b of a contiguous series, and
    # each xs[t] is strided as in a contiguous copy
    sliding = (input_size == 1
               and xs.strides[0] == xs.strides[1] == xs.itemsize)
    if not sliding:
        xs = np.ascontiguousarray(xs)
    if (reuse is not None and reuse.gates.shape == (n_steps, 4, batch, H)
            and reuse.gates.dtype == dtype):
        tape = reuse
        tape.xs = xs
    else:
        shape = (n_steps, batch, H)
        tape = LstmTape(xs=xs,
                        gates=_tape_array((n_steps, 4, batch, H), dtype),
                        c=_tape_array((n_steps + 1, batch, H), dtype),
                        h=_tape_array((n_steps + 1, batch, H), dtype),
                        tanh_c=_tape_array(shape, dtype),
                        mask=_tape_array(shape, dtype))
    live = tape.live = None if start is None else tape.mask
    if live is not None:  # 1.0 from each sample's start step on
        # widened from (N, B) in the tape's dtype: a comparison written
        # straight into the (N, B, H) mask casts every element
        started = np.arange(n_steps)[:, None] >= start
        live[...] = started.astype(dtype)[:, :, None]
    tape.c[0] = 0.0  # every later row is written by its step
    tape.h[0] = 0.0
    if sliding:
        shift, rows = 1, np.concatenate((xs[0], xs[1:, -1]))
    else:
        shift, rows = batch, xs.reshape(-1, input_size)
    proj = tape.work("proj", (4, rows.shape[0], H))
    np.matmul(rows, _gate_major(params.W_x), out=proj)
    proj += params.b.reshape(4, 1, H)
    W_h = tape.work("W_h", (4, H, H))
    np.copyto(W_h, _gate_major(params.W_h))
    peep = tape.per_sample("peep", params.peep)
    peep_if, peep_o = peep[:2], peep[2]
    z = tape.work("z", (4, batch, H))  # the step's gate pre-activations
    z_if, z_g, z_o = z[:2], z[2], z[3]
    tmp2 = tape.work("tmp", (2, batch, H))
    tmp = tmp2[0]
    # sigmoid(z) = 1 / (1 + exp(-z)); exp(-z) = inf gives the limit 0
    with np.errstate(over="ignore"):
        for t, (a, a_if, i, f, g, o, c_prev, c_next, h_prev, h_next, tanh_c,
                live_t) in enumerate(tape.steps):
            if t:
                np.matmul(h_prev, W_h, out=z)
                z += proj[:, t * shift:t * shift + batch]
                np.multiply(peep_if, c_prev, out=tmp2)  # peepholes: i and f
                z_if += tmp2
            else:  # h_0 = c_0 = 0: the projection's rows alone
                np.copyto(z, proj[:, :batch])
            np.negative(z_if, out=z_if)
            np.exp(z_if, out=z_if)
            z_if += 1.0
            np.divide(1.0, z_if, out=a_if)
            np.tanh(z_g, out=g)
            np.multiply(i, g, out=c_next)
            if t:
                np.multiply(f, c_prev, out=tmp)
                c_next += tmp
            else:  # f * c_0 is +0.0, which turns a product of -0.0 to +0.0
                c_next += 0.0
            if live is not None:
                c_next *= live_t  # and so h = o * tanh(0) = 0 as well
            np.multiply(peep_o, c_next, out=tmp)
            z_o += tmp
            np.negative(z_o, out=z_o)
            np.exp(z_o, out=z_o)
            z_o += 1.0
            np.divide(1.0, z_o, out=o)
            np.tanh(c_next, out=tanh_c)
            np.multiply(o, tanh_c, out=h_next)
    return tape.h[1:], tape


@functools.cache
def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    """A read-only vector of n ones of dtype."""
    ones = np.ones(n, dtype)
    ones.flags.writeable = False
    return ones


def _batch_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of a, (..., B, K), over its batch axis into out, (..., K):
    one product with a vector of ones, the one way the kernels sum over a
    batch. BLAS reads each (B, K) block once, where np.sum along the batch
    axis reduces it row by row."""
    return np.matmul(_ones(a.shape[-2], a.dtype), a, out=out)


def lstm_backward(params: LstmParams, tape: LstmTape, dh_out: np.ndarray,
                  grads: LstmParams | None = None) -> LstmParams:
    """Exact BPTT through the tape.

    dh_out, (K, B, hidden) with 1 <= K <= N, holds dLoss/dh_t for the
    last K steps, N - K .. N - 1, and is cast to the parameters' dtype;
    the hidden states before them get no gradient from the loss, only
    through the recurrence (K = N gives one per step, shaped like the
    forward's hs). Writes the parameter gradients into grads (fresh
    arrays of that dtype when None) and returns it; the gradient with
    respect to the inputs is not computed.

    The last step has no recurrent gradient, and the steps before the
    last K have no dh_out row, so neither adds a zero. Every gradient
    accumulates into an array that starts at +0.0, so terms that differ
    only in the sign of a zero leave the same bits.

    The gate gradients are computed gate-major, in contiguous (B, H)
    blocks, with tanh(c_t) read from the tape. They are then copied
    packed into one (B, 4H) array, on which the three products run: the
    W_x and W_h gradients, and dh_rec as one K=4H product with W_h.T.
    The bias and peephole gradients are sums over the batch, taken as
    products with a vector of ones (_batch_sum): the bias one from the
    packed array, the peephole one batched over its three (B, H) terms.
    """
    dtype = params.W_h.dtype
    dh_out = np.asarray(dh_out, dtype=dtype)
    n_steps, batch, input_size = tape.xs.shape
    # the step of dh_out's first row
    first = n_steps - len(dh_out)
    if not 0 <= first < n_steps:
        raise ValueError(f"dh_out holds {len(dh_out)} steps of a sequence "
                         f"of {n_steps}")
    H = params.hidden_size
    if grads is None:
        grads = LstmParams.zeros(input_size, H, dtype)
    else:
        for g in grads.arrays():
            g[...] = 0.0
    work = tape.work
    peep = tape.per_sample("peep", params.peep)
    peep_if, peep_o = peep[:2], peep[2]
    # each written by a step before it is read by the step that precedes it
    dh_rec = work("dh_rec", (batch, H))
    dc_rec = work("dc_rec", (batch, H))
    dh_sum = work("dh_sum", (batch, H))
    dc = work("dc", (batch, H))
    tmp2 = work("tmp", (2, batch, H))
    tmp, tmp_f = tmp2
    # gradient of the gate pre-activations
    dgates = work("dgates", (4, batch, H))
    d_i, d_f, d_g, d_o = dgates
    d_if = dgates[:2]
    d = work("d", (batch, 4 * H))  # the same, packed
    d_by_gate = _gate_major(d)
    one_minus = work("one_minus", (4, batch, H))  # 1 - a for each gate a
    one_minus_if, one_minus_o = one_minus[:2], one_minus[3]
    # d_i * c_prev, d_f * c_prev, d_o * c
    peep_terms = work("peep_terms", (3, batch, H))
    peep_terms_if, peep_terms_o = peep_terms[:2], peep_terms[2]
    dW_x = work("dW_x", grads.W_x.shape)
    dW_h = work("dW_h", grads.W_h.shape)
    db = work("db", grads.b.shape)
    dpeep = work("dpeep", grads.peep.shape)
    live, xs, W_h_T = tape.live, tape.xs, params.W_h.T
    last = n_steps - 1
    for t in range(last, -1, -1):
        a, a_if, i, f, g, o, c_prev, c, h_prev, _, tanh_c, live_t = (
            tape.steps[t])
        np.subtract(1, a, out=one_minus)
        # dh = dh_out row + dh_rec, each where it exists
        if t == last:
            dh = dh_out[-1]
        elif t >= first:
            dh = np.add(dh_out[t - first], dh_rec, out=dh_sum)
        else:
            dh = dh_rec
        # d_o = dh * tanh_c * o * (1 - o)
        np.multiply(dh, tanh_c, out=d_o)
        d_o *= o
        d_o *= one_minus_o
        # dc = dh * o * (1 - tanh_c ** 2) + dc_rec + d_o * p_o
        np.multiply(dh, o, out=dc)
        np.square(tanh_c, out=tmp)
        np.subtract(1, tmp, out=tmp)
        dc *= tmp
        if t != last:
            dc += dc_rec
        np.multiply(d_o, peep_o, out=tmp)
        dc += tmp
        if live is not None:
            dc *= live_t
        # d_i = dc * g * i * (1 - i), d_f = dc * c_prev * f * (1 - f)
        np.multiply(dc, g, out=d_i)
        np.multiply(dc, c_prev, out=d_f)
        d_if *= a_if
        d_if *= one_minus_if
        # d_g = dc * i * (1 - g ** 2)
        np.multiply(dc, i, out=d_g)
        np.square(g, out=tmp)
        np.subtract(1, tmp, out=tmp)
        d_g *= tmp
        d_by_gate[...] = dgates
        np.matmul(xs[t].T, d, out=dW_x)
        grads.W_x += dW_x
        _batch_sum(d, out=db)
        grads.b += db
        np.multiply(d_if, c_prev, out=peep_terms_if)
        np.multiply(d_o, c, out=peep_terms_o)
        _batch_sum(peep_terms, out=dpeep)
        grads.peep += dpeep
        if t == 0:
            # h_0 = 0 adds only zeros to W_h's gradient (d is finite), and
            # no step precedes step 0
            break
        np.matmul(h_prev.T, d, out=dW_h)
        grads.W_h += dW_h
        np.matmul(d, W_h_T, out=dh_rec)
        # dc_rec = dc * f + d_i * p_i + d_f * p_f
        np.multiply(dc, f, out=dc_rec)
        np.multiply(d_if, peep_if, out=tmp2)
        dc_rec += tmp
        dc_rec += tmp_f
    return grads


# ---------------------------------------------------------------------------
# Dense layers

# Each activation applies itself in place to a layer's output.
_ACTIVATIONS = {
    "identity": lambda a: a,
    "relu": lambda a: np.maximum(a, 0.0, out=a),
    "tanh": lambda a: np.tanh(a, out=a),
}


@dataclass
class MlpParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    @classmethod
    def init(cls, sizes: list[int], activations: list[str],
             rng: np.random.Generator) -> "MlpParams":
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, activations=list(activations))

    def arrays(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def with_arrays(self, arrays: list[np.ndarray]) -> "MlpParams":
        """The same layout holding arrays, in the order of arrays()."""
        n = len(self.weights)
        return MlpParams(weights=list(arrays[:n]), biases=list(arrays[n:]),
                         activations=list(self.activations))


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Forward through the dense stack. x is (B, in), cast to the weights'
    dtype.

    The tape is the list of the input and each layer's output, each
    activation applied in place: the backward reads every derivative from
    a layer's output alone.
    """
    out = np.asarray(x, dtype=params.weights[0].dtype)
    tape = [out]
    for W, b, act in zip(params.weights, params.biases, params.activations):
        out = out @ W
        out += b
        _ACTIVATIONS[act](out)
        tape.append(out)
    return out, tape


def mlp_backward(params: MlpParams, tape: list[np.ndarray], dout: np.ndarray,
                 grads: MlpParams | None = None, input_grad: bool = True):
    """Backpropagate dout, (B, out), through the forward tape.

    Writes the parameter gradients into grads' arrays when grads is given,
    and returns the gradient with respect to the input x when input_grad is
    set (None otherwise); what a caller does not ask for is not computed.
    dout is cast to the weights' dtype. relu's derivative is taken where
    its output a > 0, which is where its input z > 0.
    """
    d = np.asarray(dout, dtype=params.weights[0].dtype)
    for layer in range(len(params.weights) - 1, -1, -1):
        act, a = params.activations[layer], tape[layer + 1]
        if act == "relu":
            d = d * (a > 0)
        elif act == "tanh":
            d = d * (1 - a ** 2)
        if grads is not None:
            np.matmul(tape[layer].T, d, out=grads.weights[layer])
            _batch_sum(d, out=grads.biases[layer])
        if layer == 0 and not input_grad:
            return None
        d = d @ params.weights[layer].T
    return d


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


class FlatParams:
    """Arrays stored back to back in one vector.

    `arrays` are views into `vector`, in order and shape, so an elementwise
    update of all of them is one numpy call on `vector`.
    """

    def __init__(self, vector: np.ndarray, shapes: list[tuple]):
        self.vector = vector
        self.spans = []  # each array's slice of vector
        self.arrays = []
        at = 0
        for shape in shapes:
            size = int(np.prod(shape))
            self.spans.append(slice(at, at + size))
            self.arrays.append(vector[at:at + size].reshape(shape))
            at += size

    @classmethod
    def pack(cls, arrays: list[np.ndarray]) -> "FlatParams":
        """A copy of arrays, packed in the dtype they share
        (np.result_type)."""
        return cls(np.concatenate([np.ravel(a) for a in arrays],
                                  dtype=np.result_type(*arrays)),
                   [np.shape(a) for a in arrays])

    def zeros_like(self) -> "FlatParams":
        return FlatParams(np.zeros_like(self.vector),
                          [a.shape for a in self.arrays])

    def view_as(self, blocks: list) -> list:
        """Parameter blocks (LstmParams, MlpParams) laid out like blocks,
        holding consecutive runs of this vector's arrays."""
        out, at = [], 0
        for block in blocks:
            n = len(block.arrays())
            out.append(block.with_arrays(self.arrays[at:at + n]))
            at += n
        return out


@dataclass
class LstmNet:
    """An LSTM over a time-major sequence, then a dense head on its last
    hidden state. `lstm` and `head` are views into one parameter vector,
    `params`, and the gradients backward writes into another, `grads`."""

    lstm: LstmParams
    head: MlpParams

    def __post_init__(self):
        self.params = FlatParams.pack(self.lstm.arrays() + self.head.arrays())
        self.lstm, self.head = self.params.view_as([self.lstm, self.head])
        self.grads = self.params.zeros_like()
        self._lstm_grads, self._head_grads = self.grads.view_as(
            [self.lstm, self.head])

    @classmethod
    def init(cls, input_size: int, hidden_size: int, head_sizes: list[int],
             activations: list[str], rng: np.random.Generator,
             dtype=np.float64) -> "LstmNet":
        """The LSTM's weights drawn first, then the head's, which maps the
        hidden state through head_sizes. The draws are float64 whatever
        dtype is, and then cast to it: a float32 net starts from the
        rounded draws of the float64 net of the same seed."""
        lstm = LstmParams.init(input_size, hidden_size, rng)
        head = MlpParams.init([hidden_size, *head_sizes], activations, rng)
        lstm, head = (block.with_arrays([a.astype(dtype, copy=False)
                                         for a in block.arrays()])
                      for block in (lstm, head))
        return cls(lstm=lstm, head=head)

    def copy(self):
        return type(self)(lstm=self.lstm, head=self.head)  # packs a copy

    def forward(self, xs: np.ndarray, start=None, reuse=None):
        """xs and start as lstm_forward takes them. Returns (out, tapes),
        out being the head's (B, out) output for the last step.
        reuse, if given, is the tapes of an earlier forward that nothing
        reads any more; the LSTM writes into its arrays."""
        hs, lstm_tape = lstm_forward(
            self.lstm, xs, start=start,
            reuse=None if reuse is None else reuse[0])
        out, head_tape = mlp_forward(self.head, hs[-1])
        return out, (lstm_tape, head_tape)

    def backward(self, tapes, dout: np.ndarray) -> list[np.ndarray]:
        """Writes the parameter gradients into `grads` and returns its
        arrays; dout is the gradient of the forward's out."""
        lstm_tape, head_tape = tapes
        dh = mlp_backward(self.head, head_tape, dout, grads=self._head_grads)
        # the head reads the last hidden state alone
        lstm_backward(self.lstm, lstm_tape, dh[None], grads=self._lstm_grads)
        return self.grads.arrays


@functools.cache
def _blas_thread_calls():
    """OpenBLAS's thread-count getter and setter in the library numpy
    loaded, or None when none is found there."""
    import ctypes
    import glob
    import os
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the count it
    had; with no OpenBLAS setter found, run it as it is.

    The training and fitting loops multiply small matrices, for which
    further threads only spin on the other cores: a bike5 training used
    twice its wall time in CPU with the default count, and no less wall
    time. The bits do not depend on the count: OpenBLAS splits a matrix
    product's rows and columns among its threads, not its sums, and a
    bike5 training writes the same policy.json either way.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def global_norm(grads: FlatParams) -> float:
    """Square root of the sum, array by array, of each array's sum of
    squares. The vector is squared once, and each array's slice of the
    squares summed: numpy's pairwise sum, as over the array itself."""
    squares = grads.vector * grads.vector
    return float(np.sqrt(sum(float(squares[span].sum())
                             for span in grads.spans)))


def optimizer_step(params: FlatParams, grads: FlatParams, step_size: float,
                   clip_norm: float) -> float:
    """In-place gradient descent, clipping grads to a global norm of at
    most clip_norm (0 disables clipping).

    Returns the global norm of grads before clipping, summed array by array.
    """
    norm = global_norm(grads)
    scale = 1.0
    if 0 < clip_norm < norm:
        scale = clip_norm / norm
    params.vector -= step_size * scale * grads.vector
    return norm

