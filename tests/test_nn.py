import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched import forecast_bike, nn


def manual_lstm_step(p, x, h_prev, c_prev):
    """Gate-by-gate reference of one recurrence step, scalar loops only.

    Gate blocks are read out of the packed arrays in the order i, f, g, o;
    the peephole rows are i, f, o.
    """
    H = p.hidden_size
    W_xi, W_xf, W_xc, W_xo = np.split(p.W_x, 4, axis=1)
    W_hi, W_hf, W_hc, W_ho = np.split(p.W_h, 4, axis=1)
    b_i, b_f, b_c, b_o = np.split(p.b, 4)
    w_ci, w_cf, w_co = p.peep
    i = np.zeros(H)
    f = np.zeros(H)
    g = np.zeros(H)
    for k in range(H):
        a = b_i[k] + w_ci[k] * c_prev[k]
        b = b_f[k] + w_cf[k] * c_prev[k]
        cgate = b_c[k]
        for j in range(x.size):
            a += x[j] * W_xi[j, k]
            b += x[j] * W_xf[j, k]
            cgate += x[j] * W_xc[j, k]
        for j in range(H):
            a += h_prev[j] * W_hi[j, k]
            b += h_prev[j] * W_hf[j, k]
            cgate += h_prev[j] * W_hc[j, k]
        i[k] = 1.0 / (1.0 + np.exp(-a))
        f[k] = 1.0 / (1.0 + np.exp(-b))
        g[k] = np.tanh(cgate)
    c = f * c_prev + i * g
    o = np.zeros(H)
    for k in range(H):
        a = b_o[k] + w_co[k] * c[k]
        for j in range(x.size):
            a += x[j] * W_xo[j, k]
        for j in range(H):
            a += h_prev[j] * W_ho[j, k]
        o[k] = 1.0 / (1.0 + np.exp(-a))
    return o * np.tanh(c), c


class TestLstmForward:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        p = nn.LstmParams.init(3, 4, rng)
        xs = rng.normal(size=(5, 1, 3))
        hs, tape = nn.lstm_forward(p, xs)
        h = np.zeros(4)
        c = np.zeros(4)
        for t in range(5):
            h, c = manual_lstm_step(p, xs[t, 0], h, c)
            np.testing.assert_allclose(hs[t, 0], h, atol=1e-12)
            np.testing.assert_allclose(tape.c[t + 1][0], c, atol=1e-12)

    def test_batched_equals_looped(self):
        rng = np.random.default_rng(1)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(4, 5, 2))
        hs, _ = nn.lstm_forward(p, xs)
        for b in range(5):
            single, _ = nn.lstm_forward(p, xs[:, b:b + 1])
            np.testing.assert_allclose(hs[:, b:b + 1], single, atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_gates_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(scale=5.0, size=(6, 1, 2))
        hs, tape = nn.lstm_forward(p, xs)
        for t in range(6):
            i, f, g, o = tape.gates[t]
            for gate in (i, f, o):
                assert np.all((gate > 0) & (gate < 1))
            assert np.all(np.abs(g) <= 1)
            assert np.all(np.abs(hs[t]) <= 1)

    # The loss is linear in hs and centred on the unperturbed output, which
    # keeps roundoff out of the finite differences. Even so, about one draw
    # in 500 puts a gradient entry below 1e-6, where finite-difference noise
    # alone exceeds 1e-5 relative; derandomizing keeps the run repeatable.
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_masked_start_matches_reference(self, n_in, hidden, steps, batch,
                                            seed):
        rng = np.random.default_rng(seed)
        p = nn.LstmParams.init(n_in, hidden, rng)
        xs = rng.normal(size=(steps, batch, n_in))
        start = rng.integers(0, steps + 1, size=batch)
        hs, tape = nn.lstm_forward(p, xs, start=start)
        for b in range(batch):
            assert np.all(hs[:start[b], b] == 0)
            h, c = np.zeros(hidden), np.zeros(hidden)
            for t in range(start[b], steps):
                h, c = manual_lstm_step(p, xs[t, b], h, c)
                np.testing.assert_allclose(hs[t, b], h, atol=1e-12)
        weights = rng.normal(size=hs.shape)
        base = hs.copy()

        def loss():
            out, _ = nn.lstm_forward(p, xs, start=start)
            return float(np.sum(weights * (out - base)))

        grads = nn.lstm_backward(p, tape, weights)
        assert nn.grad_check(loss, p.arrays(), grads.arrays()) <= 1e-5

    def test_init_draws_the_per_gate_blocks_in_order(self):
        # the 15 per-gate arrays in the order the seeded weights are drawn,
        # packed by gate (i, f, g, o; "c" names g) as the reference
        names = ("W_xi", "W_hi", "w_ci", "W_xf", "W_hf", "w_cf",
                 "W_xc", "W_hc", "W_xo", "W_ho", "w_co",
                 "b_i", "b_f", "b_c", "b_o")
        p = nn.LstmParams.init(3, 4, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        named = {}
        for name in names:
            shape = {"W_x": (3, 4), "W_h": (4, 4)}.get(name[:3], (4,))
            named[name] = rng.uniform(-0.5, 0.5, size=shape)
        named["b_f"] += 1.0
        for packed, prefix in ((p.W_x, "W_x"), (p.W_h, "W_h"), (p.b, "b_")):
            np.testing.assert_array_equal(
                packed, np.concatenate([named[prefix + k] for k in "ifco"],
                                       axis=-1))
        np.testing.assert_array_equal(
            p.peep, np.stack([named["w_c" + k] for k in "ifo"]))


class TestLstmBackward:
    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(4, 1, 2))
        targets = rng.normal(size=(4, 1, 3))

        def loss():
            hs, _ = nn.lstm_forward(p, xs)
            return 0.5 * float(np.sum((hs - targets) ** 2))

        hs, tape = nn.lstm_forward(p, xs)
        grads = nn.lstm_backward(p, tape, hs - targets)
        err = nn.grad_check(loss, p.arrays(), grads.arrays())
        assert err <= 1e-6

    def test_batched_grads_sum_singles(self):
        rng = np.random.default_rng(4)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(3, 4, 2))
        dh = rng.normal(size=(3, 4, 3))
        _, tape = nn.lstm_forward(p, xs)
        grads = nn.lstm_backward(p, tape, dh)
        acc = nn.LstmParams.zeros(2, 3)
        for b in range(4):
            _, t1 = nn.lstm_forward(p, xs[:, b:b + 1])
            g1 = nn.lstm_backward(p, t1, dh[:, b:b + 1])
            for a, g in zip(acc.arrays(), g1.arrays()):
                a += g
        for a, g in zip(acc.arrays(), grads.arrays()):
            np.testing.assert_allclose(a, g, atol=1e-10)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_lstm_grads(p, xs, dh_out, start):
    """BPTT transcribed sample by sample and gate by gate, float64: the
    gradients of sum(dh_out * hs) with respect to W_x, W_h, b and peep,
    each sample's recurrence running from its start step. Every sum over
    samples is a plain Python accumulation."""
    n_steps, batch, _ = xs.shape
    H = p.hidden_size
    W_x = np.split(p.W_x, 4, axis=1)  # i, f, g, o
    W_h = np.split(p.W_h, 4, axis=1)
    b = np.split(p.b, 4)
    p_i, p_f, p_o = p.peep
    dW_x = [np.zeros_like(w) for w in W_x]
    dW_h = [np.zeros_like(w) for w in W_h]
    db = [np.zeros(H) for _ in range(4)]
    dp = [np.zeros(H) for _ in range(3)]
    for s in range(batch):
        first = int(start[s])
        h, c, steps = np.zeros(H), np.zeros(H), []
        for t in range(first, n_steps):
            x = xs[t, s]
            i = _sigmoid(x @ W_x[0] + h @ W_h[0] + b[0] + p_i * c)
            f = _sigmoid(x @ W_x[1] + h @ W_h[1] + b[1] + p_f * c)
            g = np.tanh(x @ W_x[2] + h @ W_h[2] + b[2])
            c_next = f * c + i * g
            o = _sigmoid(x @ W_x[3] + h @ W_h[3] + b[3] + p_o * c_next)
            steps.append((x, h, c, i, f, g, o, c_next))
            h, c = o * np.tanh(c_next), c_next
        dh_next, dc_next = np.zeros(H), np.zeros(H)
        for t in range(n_steps - 1, first - 1, -1):
            x, h_prev, c_prev, i, f, g, o, c = steps[t - first]
            dh = dh_out[t, s] + dh_next
            tanh_c = np.tanh(c)
            d_o = dh * tanh_c * o * (1 - o)
            dc = dh * o * (1 - tanh_c ** 2) + dc_next + d_o * p_o
            d_i = dc * g * i * (1 - i)
            d_f = dc * c_prev * f * (1 - f)
            d_g = dc * i * (1 - g ** 2)
            for k, d in enumerate((d_i, d_f, d_g, d_o)):
                dW_x[k] += np.outer(x, d)
                dW_h[k] += np.outer(h_prev, d)
                db[k] += d
            dp[0] += d_i * c_prev
            dp[1] += d_f * c_prev
            dp[2] += d_o * c
            dh_next = sum(d @ W_h[k].T
                          for k, d in enumerate((d_i, d_f, d_g, d_o)))
            dc_next = dc * f + d_i * p_i + d_f * p_f
    return [np.concatenate(dW_x, axis=1), np.concatenate(dW_h, axis=1),
            np.concatenate(db), np.stack(dp)]


def reference_mlp_grads(p, x, dout):
    """Dense backpropagation transcribed sample by sample, float64: the
    weight, bias and input gradients of sum(dout * out)."""
    weights = [np.zeros_like(w) for w in p.weights]
    biases = [np.zeros_like(b) for b in p.biases]
    dx = np.zeros_like(x)
    for s in range(x.shape[0]):
        post = [x[s]]
        for W, b, act in zip(p.weights, p.biases, p.activations):
            z = post[-1] @ W + b
            post.append({"identity": z, "relu": np.maximum(z, 0.0),
                         "tanh": np.tanh(z)}[act])
        d = dout[s]
        for layer in range(len(p.weights) - 1, -1, -1):
            act, out = p.activations[layer], post[layer + 1]
            if act == "relu":
                d = d * (out > 0)
            elif act == "tanh":
                d = d * (1 - out ** 2)
            weights[layer] += np.outer(post[layer], d)
            biases[layer] += d
            d = d @ p.weights[layer].T
        dx[s] = d
    return weights + biases, dx


def _assert_close(got, want):
    """Each array within 1e-10 of its largest reference magnitude."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        scale = max(float(np.abs(w).max()), 1e-300)
        assert float(np.abs(g - w).max()) <= 1e-10 * scale


class TestReferenceGradients:
    """The float64 kernels against per-sample, per-gate transcriptions, so
    that the batched products and the batch-axis sums are checked by code
    that shares neither with them."""

    @given(st.integers(1, 8), st.integers(1, 40), st.integers(1, 5),
           st.integers(1, 20), st.booleans(), st.booleans(),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_lstm_backward(self, n_steps, batch, n_in, hidden, masked,
                           sliding, seed):
        rng = np.random.default_rng(seed)
        if sliding:
            n_in = 1
            xs = _sliding(rng.normal(size=n_steps + batch - 1), n_steps)
        else:
            xs = rng.normal(size=(n_steps, batch, n_in))
        p = nn.LstmParams.init(n_in, hidden, rng)
        p.peep[...] = rng.normal(size=p.peep.shape)  # every term in play
        dh = rng.normal(size=(n_steps, batch, hidden))
        start = (rng.integers(0, n_steps + 1, size=batch) if masked
                 else np.zeros(batch, int))
        _, tape = nn.lstm_forward(p, xs, start=start if masked else None)
        grads = nn.lstm_backward(p, tape, dh)
        _assert_close(grads.arrays(), reference_lstm_grads(p, xs, dh, start))

    @given(st.integers(1, 40), st.lists(st.integers(1, 20), min_size=2,
                                        max_size=4),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_mlp_backward(self, batch, sizes, seed):
        rng = np.random.default_rng(seed)
        acts = list(rng.choice(["relu", "tanh", "identity"],
                               size=len(sizes) - 1))
        p = nn.MlpParams.init(sizes, acts, rng)
        p.biases[:] = [rng.normal(size=b.shape) for b in p.biases]
        x = rng.normal(size=(batch, sizes[0]))
        dout = rng.normal(size=(batch, sizes[-1]))
        _, tape = nn.mlp_forward(p, x)
        grads = p.with_arrays([np.empty_like(a) for a in p.arrays()])
        dx = nn.mlp_backward(p, tape, dout, grads=grads)
        want, want_dx = reference_mlp_grads(p, x, dout)
        _assert_close(grads.arrays() + [dx], want + [want_dx])


def _lstm_bits_sha256(n_steps, batch, n_in, hidden, start=None,
                      reuse=None):
    """SHA-256 over hs and the four gradient arrays of one seeded
    forward/backward pass."""
    rng = np.random.default_rng([n_steps, batch, n_in, hidden])
    p = nn.LstmParams.init(n_in, hidden, rng)
    xs = rng.normal(size=(n_steps, batch, n_in))
    dh = rng.normal(size=(n_steps, batch, hidden))
    hs, tape = nn.lstm_forward(p, xs, start=start, reuse=reuse)
    digest = hashlib.sha256(np.ascontiguousarray(hs).tobytes())
    for g in nn.lstm_backward(p, tape, dh).arrays():
        digest.update(g.tobytes())
    return digest.hexdigest()


class TestPinnedLstmBits:
    """The LSTM kernels' outputs, bit for bit, at the forecaster's shape
    (N, B, I, H) = (24, 360, 1, 16), the actor's (4, 64, 59, 32) with a
    start mask, a single window and a hidden size that is not a multiple
    of 8. The literals were produced by the gate-major kernels: per-gate
    input and recurrent products, the bias added to the projection, and
    batch-axis sums as products with a vector of ones. A product or sum
    taken in another order moves them."""

    def test_forecaster_shape(self):
        assert _lstm_bits_sha256(24, 360, 1, 16) == (
            "f2fd882058d5b259e21448b8561c5be8354d9cf747e90981d1223d7000d12e27")

    def test_actor_shape_with_start(self):
        start = np.arange(64) % 5  # 0, the full length 4 and all between
        assert _lstm_bits_sha256(4, 64, 59, 32, start=start) == (
            "fcf223970ef35a5e0fe3258beafe25086cbd9dae777e065389fd545b3ef54d56")

    def test_single_window(self):
        assert _lstm_bits_sha256(4, 1, 59, 32) == (
            "5e4084737ed34de19cceee114274b3d21ecd70ddd6584733ed43895f709e48f7")

    def test_hidden_size_not_a_multiple_of_8(self):
        # BLAS may sum a product in another order at such sizes, so this
        # case pins the per-gate products there
        assert _lstm_bits_sha256(6, 33, 17, 20) == (
            "fcc3dabe32e503ec64cefc87f9163394aad1b3eff469c9588e7652ffd0617a83")

    def test_forecast_departures(self):
        rng = np.random.default_rng(12)
        rates = 4.0 + 3.0 * np.sin(2 * np.pi * np.arange(384) / 96)
        series = rng.poisson(rates).astype(float)
        out = forecast_bike.forecast_departures(series, 4, window=24,
                                                epochs=30)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "8ed46d5feb51b8ffcbf51737a8a9f3c556d476766ec4e7e9502f4629f37eb827")


def full_step_lstm_passes(p, xs, start, dh_out):
    """lstm_forward and lstm_backward as they ran every step in full, kept
    as a transcription: step 0 multiplied h_0 = c_0 = 0 by W_h, the
    peepholes and f, and the backward took a dh_out row per step and
    started from zero recurrent gradients. Contiguous xs only. Returns hs,
    the tape arrays by name (the mask only with a start) and the four
    gradients."""
    dtype = p.W_h.dtype
    xs = np.ascontiguousarray(xs, dtype=dtype)
    dh_out = np.asarray(dh_out, dtype=dtype)
    n_steps, batch, n_in = xs.shape
    H = p.hidden_size
    gates = np.empty((n_steps, 4, batch, H), dtype)
    c = np.empty((n_steps + 1, batch, H), dtype)
    h = np.empty((n_steps + 1, batch, H), dtype)
    tanh_cs = np.empty((n_steps, batch, H), dtype)
    live = None
    if start is not None:
        live = np.empty((n_steps, batch, H), dtype)
        live[...] = (np.arange(n_steps)[:, None] >= start).astype(
            dtype)[:, :, None]
    c[0] = 0.0
    h[0] = 0.0
    proj = np.empty((4, n_steps * batch, H), dtype)
    np.matmul(xs.reshape(-1, n_in), nn._gate_major(p.W_x), out=proj)
    proj += p.b.reshape(4, 1, H)
    W_h = np.empty((4, H, H), dtype)
    np.copyto(W_h, nn._gate_major(p.W_h))
    peep = np.empty((3, batch, H), dtype)
    peep[...] = p.peep[:, None, :]
    peep_if, peep_o = peep[:2], peep[2]
    z = np.empty((4, batch, H), dtype)
    z_if, z_g, z_o = z[:2], z[2], z[3]
    tmp2 = np.empty((2, batch, H), dtype)
    tmp = tmp2[0]
    with np.errstate(over="ignore"):
        for t in range(n_steps):
            a = gates[t]
            a_if, (i, f, g, o) = a[:2], a
            c_prev, c_next, tanh_c = c[t], c[t + 1], tanh_cs[t]
            np.matmul(h[t], W_h, out=z)
            z += proj[:, t * batch:(t + 1) * batch]
            np.multiply(peep_if, c_prev, out=tmp2)
            z_if += tmp2
            np.negative(z_if, out=z_if)
            np.exp(z_if, out=z_if)
            z_if += 1.0
            np.divide(1.0, z_if, out=a_if)
            np.tanh(z_g, out=g)
            np.multiply(f, c_prev, out=c_next)
            np.multiply(i, g, out=tmp)
            c_next += tmp
            if live is not None:
                c_next *= live[t]
            np.multiply(peep_o, c_next, out=tmp)
            z_o += tmp
            np.negative(z_o, out=z_o)
            np.exp(z_o, out=z_o)
            z_o += 1.0
            np.divide(1.0, z_o, out=o)
            np.tanh(c_next, out=tanh_c)
            np.multiply(o, tanh_c, out=h[t + 1])
    tape = {"gates": gates, "c": c, "h": h, "tanh_c": tanh_cs}
    if live is not None:
        tape["mask"] = live
    grads = nn.LstmParams.zeros(n_in, H, dtype)
    dh_rec = np.zeros((batch, H), dtype)
    dc_rec = np.zeros((batch, H), dtype)
    dh = np.empty((batch, H), dtype)
    dc = np.empty((batch, H), dtype)
    tmp_f = tmp2[1]
    dgates = np.empty((4, batch, H), dtype)
    d_i, d_f, d_g, d_o = dgates
    d_if = dgates[:2]
    d = np.empty((batch, 4 * H), dtype)
    one_minus = np.empty((4, batch, H), dtype)
    one_minus_if, one_minus_o = one_minus[:2], one_minus[3]
    peep_terms = np.empty((3, batch, H), dtype)
    dW_x = np.empty(grads.W_x.shape, dtype)
    dW_h = np.empty(grads.W_h.shape, dtype)
    db = np.empty(grads.b.shape, dtype)
    dpeep = np.empty(grads.peep.shape, dtype)
    for t in range(n_steps - 1, -1, -1):
        a = gates[t]
        a_if, (i, f, g, o) = a[:2], a
        c_prev, c_t, h_prev, tanh_c = c[t], c[t + 1], h[t], tanh_cs[t]
        np.subtract(1, a, out=one_minus)
        np.add(dh_out[t], dh_rec, out=dh)
        np.multiply(dh, tanh_c, out=d_o)
        d_o *= o
        d_o *= one_minus_o
        np.multiply(dh, o, out=dc)
        np.square(tanh_c, out=tmp)
        np.subtract(1, tmp, out=tmp)
        dc *= tmp
        dc += dc_rec
        np.multiply(d_o, peep_o, out=tmp)
        dc += tmp
        if live is not None:
            dc *= live[t]
        np.multiply(dc, g, out=d_i)
        np.multiply(dc, c_prev, out=d_f)
        d_if *= a_if
        d_if *= one_minus_if
        np.multiply(dc, i, out=d_g)
        np.square(g, out=tmp)
        np.subtract(1, tmp, out=tmp)
        d_g *= tmp
        nn._gate_major(d)[...] = dgates
        np.matmul(xs[t].T, d, out=dW_x)
        grads.W_x += dW_x
        nn._batch_sum(d, out=db)
        grads.b += db
        np.multiply(d_if, c_prev, out=peep_terms[:2])
        np.multiply(d_o, c_t, out=peep_terms[2])
        nn._batch_sum(peep_terms, out=dpeep)
        grads.peep += dpeep
        if t == 0:
            break
        np.matmul(h_prev.T, d, out=dW_h)
        grads.W_h += dW_h
        np.matmul(d, p.W_h.T, out=dh_rec)
        np.multiply(dc, f, out=dc_rec)
        np.multiply(d_if, peep_if, out=tmp2)
        dc_rec += tmp
        dc_rec += tmp_f
    return h[1:], tape, grads.arrays()


class TestKnownZeroTerms:
    """The kernels skip the terms whose value is known to be zero: step
    0's products with h_0 = c_0 = 0, and the backward's zero dh_out rows
    and zero recurrent gradients at the last step. Bit for bit, they give
    what the full-step transcription gives: hs, every tape array and every
    gradient, for a K-step dh_out as for its zero-padded full array."""

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 4),
           st.sampled_from([1, 3, 8]), st.sampled_from([np.float32,
                                                        np.float64]),
           st.booleans(), st.sampled_from([1.0, 1000.0]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_match_the_full_step_passes(self, n_steps, batch, n_in, hidden,
                                        dtype, masked, scale, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        p = nn.LstmParams.init(n_in, hidden, rng)
        p.peep[...] = rng.normal(size=p.peep.shape)  # every term in play
        p = p.with_arrays([a.astype(dtype) for a in p.arrays()])
        # a scale of 1000 saturates gates to exact 0 and 1, so that i * g
        # can be -0.0; some inputs are zeros of either sign
        xs = rng.normal(scale=scale, size=(n_steps, batch, n_in))
        xs[rng.random(xs.shape) < 0.2] = 0.0
        xs[rng.random(xs.shape) < 0.1] = -0.0
        start = (rng.integers(0, n_steps + 1, size=batch) if masked
                 else None)
        k = data.draw(st.integers(1, n_steps))
        dh_last = rng.normal(size=(k, batch, hidden)).astype(dtype)
        dh_full = np.zeros((n_steps, batch, hidden), dtype)
        dh_full[n_steps - k:] = dh_last
        want_hs, want_tape, want_grads = full_step_lstm_passes(
            p, xs, start, dh_full)
        hs, tape = nn.lstm_forward(p, xs, start=start)
        assert hs.tobytes() == want_hs.tobytes()
        assert {name: getattr(tape, name).tobytes() for name in want_tape
                } == {name: a.tobytes() for name, a in want_tape.items()}
        want = [g.tobytes() for g in want_grads]
        # the K-step call second, so that it finds the first call's
        # recurrent gradients in the tape's working arrays
        for dh in (dh_full, dh_last):
            grads = nn.lstm_backward(p, tape, dh)
            assert [g.tobytes() for g in grads.arrays()] == want

    @pytest.mark.parametrize("k", [0, 4])
    def test_dh_out_of_no_step_or_too_many_rejected(self, k):
        p = nn.LstmParams.init(2, 3, np.random.default_rng(0))
        _, tape = nn.lstm_forward(p, np.ones((3, 2, 2)))
        with pytest.raises(ValueError, match=f"dh_out holds {k} steps of a "
                                             f"sequence of 3"):
            nn.lstm_backward(p, tape, np.ones((k, 2, 3)))


def _used_tape(n_steps, batch, n_in, hidden, start=None):
    """A tape whose arrays, scratch included, hold another pass's values."""
    rng = np.random.default_rng(99)
    p = nn.LstmParams.init(n_in, hidden, rng)
    _, tape = nn.lstm_forward(p, rng.normal(size=(n_steps, batch, n_in)),
                              start=start)
    nn.lstm_backward(p, tape, rng.normal(size=(n_steps, batch, hidden)))
    return tape


class TestLstmReuse:
    """A forward given an earlier tape as `reuse` writes into its arrays
    and keeps the pinned bits."""

    def test_forward_writes_into_a_matching_tape(self):
        old = _used_tape(4, 8, 3, 5)
        p = nn.LstmParams.init(3, 5, np.random.default_rng(0))
        xs = np.random.default_rng(1).normal(size=(4, 8, 3))
        _, tape = nn.lstm_forward(p, xs, reuse=old)
        assert tape is old and tape.xs is xs and tape.live is None
        for other in (xs[:, :4], xs[:3], xs[:, None, 0]):
            _, tape = nn.lstm_forward(p, other, reuse=old)
            assert tape is not old
        p32 = p.with_arrays([a.astype(np.float32) for a in p.arrays()])
        _, tape = nn.lstm_forward(p32, xs, reuse=old)  # another dtype
        assert tape is not old and tape.h.dtype == np.float32

    def test_actor_shape_with_start(self):
        # the tape was used without a start mask and with another input
        # size, so its W_x gradient scratch has another shape
        start = np.arange(64) % 5
        assert _lstm_bits_sha256(4, 64, 59, 32, start=start,
                                 reuse=_used_tape(4, 64, 7, 32)) == (
            "fcf223970ef35a5e0fe3258beafe25086cbd9dae777e065389fd545b3ef54d56")

    def test_forecaster_shape(self):
        start = np.arange(360) % 25
        assert _lstm_bits_sha256(24, 360, 1, 16,
                                 reuse=_used_tape(24, 360, 1, 16, start)) == (
            "f2fd882058d5b259e21448b8561c5be8354d9cf747e90981d1223d7000d12e27")


class TestKeptWorkspaces:
    """A tape keeps its start mask, its per-step views and its working
    arrays from one call to the next. Whatever the calls before it did,
    each pass on it must give a fresh tape's bits."""

    @given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 4),
           st.integers(1, 6), st.sampled_from([np.float32, np.float64]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_reused_tape_matches_a_fresh_one(self, n_steps, batch, n_in,
                                             hidden, dtype, seed):
        rng = np.random.default_rng(seed)
        net = nn.LstmNet.init(n_in, hidden, [3, 2], ["relu", "tanh"], rng,
                              dtype=dtype)
        fresh = net.copy()
        # one start, another that masks a step of every sample, then none
        starts = [rng.integers(0, n_steps + 1, size=batch),
                  rng.integers(1, n_steps + 1, size=batch), None]
        tapes = None
        for start in starts:
            xs = rng.normal(size=(n_steps, batch, n_in))
            dout = rng.normal(size=(batch, 2))
            runs = []
            for model, reuse in ((net, tapes), (fresh, None)):
                out, used = model.forward(xs, start=start, reuse=reuse)
                grads = model.backward(used, dout)
                runs.append([used[0].h[1:].tobytes(),
                             *(a.tobytes() for a in used[1]),
                             *(g.tobytes() for g in grads)])
                if model is net:
                    assert reuse is None or used[0] is reuse[0]
                    tapes = used
            assert runs[0] == runs[1]


def _pass_bytes(p, xs, dh, start, reuse):
    """hs and the four gradient arrays of one pass, as bytes."""
    hs, tape = nn.lstm_forward(p, xs, start=start, reuse=reuse)
    out = [np.ascontiguousarray(hs).tobytes()]
    out += [g.tobytes() for g in nn.lstm_backward(p, tape, dh).arrays()]
    return out, tape


def _sliding(series, window):
    """(window, series.size - window + 1, 1) windows as one view."""
    return np.lib.stride_tricks.sliding_window_view(
        series[:, None], window, axis=0).transpose(2, 0, 1)


class TestSlidingWindows:
    """Input-size-1 windows that slide over one contiguous series (xs[t, b]
    is value t + b) project each series value once; the bits are those of
    the same windows copied out, also for a series read with another
    step, which is copied."""

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 20),
           st.sampled_from([1, 2, -1]), st.booleans(), st.booleans(),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_view_matches_its_copy(self, n_steps, batch, hidden, step,
                                   masked, reused, seed):
        rng = np.random.default_rng(seed)
        p = nn.LstmParams.init(1, hidden, rng)
        series = rng.normal(size=2 * (n_steps + batch - 1))
        series[rng.random(series.size) < 0.5] = 0.0
        series[rng.random(series.size) < 0.2] = -0.0
        series = series[::step][:n_steps + batch - 1]
        view = _sliding(series, n_steps)
        copy = np.ascontiguousarray(view)
        dh = rng.normal(size=(n_steps, batch, hidden))
        start = rng.integers(0, n_steps + 1, size=batch) if masked else None
        reuse = _used_tape(n_steps, batch, 1, hidden) if reused else None
        got, tape = _pass_bytes(p, view, dh, start, reuse)
        want, _ = _pass_bytes(p, copy, dh, start, None)
        assert got == want
        if step == 1:  # the one-series projection ran, on N + B - 1 rows
            assert tape.scratch["proj"].shape == (4, n_steps + batch - 1,
                                                  hidden)

    def test_fit_trains_on_a_view_of_the_series(self, monkeypatch):
        # every epoch's tape holds the windows as one view of the series,
        # scaled in float64 and cast to the net's float32, (series.size - 1)
        # values, not as window copies
        tapes = []
        lstm_forward = nn.lstm_forward

        def spy(params, xs, **kwargs):
            hs, tape = lstm_forward(params, xs, **kwargs)
            tapes.append(tape)
            return hs, tape

        monkeypatch.setattr(nn, "lstm_forward", spy)
        series = np.random.default_rng(3).poisson(4.0, size=120).astype(float)
        model = forecast_bike.DepartureModel.create(window=24, hidden=4)
        model.fit(series, epochs=2)
        windows = (np.stack([series[i:i + 24] for i in range(96)])
                   / model.scale).astype(np.float32)
        for tape in tapes:
            xs = tape.xs
            assert np.array_equal(xs[:, :, 0], windows.T)
            assert np.shares_memory(xs[0], xs[-1])
            low, high = np.lib.array_utils.byte_bounds(xs)
            assert high - low == (series.size - 1) * xs.itemsize


def _mapped(array):
    """Whether array lives in an anonymous mapping of its own."""
    import mmap
    while isinstance(array, np.ndarray):
        array = array.base
    if isinstance(array, memoryview):  # np.frombuffer's base
        array = array.obj
    return isinstance(array, mmap.mmap)


class TestDtype:
    """The kernels compute in their parameters' dtype. The float64 pins
    above hold the float64 path; these guard the float32 one."""

    def test_float32_net_stays_float32(self):
        rng = np.random.default_rng(21)
        net = nn.LstmNet.init(3, 5, [4, 2], ["relu", "identity"], rng,
                              dtype=np.float32)
        xs = rng.normal(size=(6, 7, 3))  # float64 input, cast on entry
        start = np.arange(7) % 4
        tapes = None
        for _ in range(2):  # the second pass writes into the first's tapes
            out, tapes = net.forward(xs, start=start, reuse=tapes)
            net.backward(tapes, rng.normal(size=out.shape))
            nn.optimizer_step(net.params, net.grads, 0.1, 1.0)
        lstm_tape, head_tape = tapes
        arrays = {"out": out, "params": net.params.vector,
                  "grads": net.grads.vector}
        for name in ("xs", "gates", "c", "h", "tanh_c", "mask", "live"):
            arrays[name] = getattr(lstm_tape, name)
        arrays.update(("scratch " + k, v)
                      for k, v in lstm_tape.scratch.items())
        arrays.update((f"head layer {k}", v) for k, v in enumerate(head_tape))
        # the backward's working arrays are among those checked
        assert {"dW_x", "dh_rec", "dc_rec"} <= lstm_tape.scratch.keys()
        assert {k: v.dtype for k, v in arrays.items()} == {
            k: np.dtype(np.float32) for k in arrays}
        fresh = nn.lstm_backward(net.lstm, lstm_tape,
                                 np.ones(lstm_tape.h[1:].shape))
        assert {g.dtype for g in fresh.arrays()} == {np.dtype(np.float32)}

    def test_float32_net_starts_from_the_rounded_float64_draws(self):
        args = (3, 5, [4, 2], ["relu", "identity"])
        net64 = nn.LstmNet.init(*args, np.random.default_rng(4))
        net32 = nn.LstmNet.init(*args, np.random.default_rng(4),
                                dtype=np.float32)
        assert net64.params.vector.dtype == np.float64
        assert np.array_equal(net32.params.vector,
                              net64.params.vector.astype(np.float32))

    def test_tape_arrays_map_by_bytes(self):
        n = nn._MAPPED_BYTES // 8  # float64 elements at the threshold
        for count, dtype, mapped in ((n, np.float32, False),
                                     (2 * n, np.float32, True),
                                     (n - 1, np.float64, False),
                                     (n, np.float64, True)):
            array = nn._tape_array((count,), dtype)
            assert array.dtype == dtype and array.shape == (count,)
            assert _mapped(array) == mapped, (count, dtype)

    def test_float32_bptt_matches_float64(self):
        # the forecaster's shape and sliding input; both nets hold the same
        # float32-rounded weights and read the same float32-rounded series
        # and output gradient, so what differs is float32 arithmetic only
        window, batch, hidden = 24, 360, 16
        args = (1, hidden, [1], ["identity"], np.random.default_rng(5))
        net32 = nn.LstmNet.init(*args, dtype=np.float32)
        net64 = nn.LstmNet.init(*args)
        net64.params.vector[:] = net32.params.vector
        rng = np.random.default_rng(6)
        series = (rng.poisson(4.0, size=window + batch - 1) / 9.0).astype(
            np.float32)
        dout = (rng.normal(size=(batch, 1)) / batch).astype(np.float32)
        for net, values in ((net32, series), (net64, series.astype(float))):
            _, tapes = net.forward(_sliding(values, window))
            # the sliding path ran: it projects N + B - 1 rows
            assert tapes[0].scratch["proj"].shape[1] == window + batch - 1
            net.backward(tapes, dout)
        want = net64.grads.vector
        err = np.max(np.abs(net32.grads.vector - want)) / np.max(np.abs(want))
        assert err <= 1e-5


class TestMlp:
    def test_forward_identity_linear(self):
        p = nn.MlpParams(weights=[np.array([[2.0], [1.0]])],
                         biases=[np.array([0.5])], activations=["identity"])
        out, _ = nn.mlp_forward(p, np.array([[3.0, 4.0]]))
        assert out[0, 0] == pytest.approx(10.5)

    def test_finite_difference(self):
        rng = np.random.default_rng(5)
        p = nn.MlpParams.init([4, 6, 3, 1], ["relu", "tanh", "identity"], rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 1))

        def loss():
            out, _ = nn.mlp_forward(p, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, tape = nn.mlp_forward(p, x)
        grads = p.with_arrays([np.empty_like(a) for a in p.arrays()])
        nn.mlp_backward(p, tape, out - target, grads=grads, input_grad=False)
        assert nn.grad_check(loss, p.arrays(), grads.arrays()) <= 1e-5


def flat(*arrays):
    return nn.FlatParams.pack([np.array(a, dtype=float) for a in arrays])


class TestOptimizer:
    def test_plain_step(self):
        params = flat([1.0, 2.0])
        grads = flat([0.5, -1.0])
        norm = nn.optimizer_step(params, grads, 0.1, 0.0)
        np.testing.assert_allclose(params.arrays[0], [0.95, 2.1])
        assert norm == pytest.approx(np.sqrt(1.25))

    def test_clipping_scales_globally(self):
        params = flat([0.0, 0.0], [0.0])
        grads = flat([3.0, 0.0], [4.0])  # norm 5
        norm = nn.optimizer_step(params, grads, 1.0, 1.0)
        assert norm == pytest.approx(5.0)  # before clipping
        np.testing.assert_allclose(params.arrays[0], [-0.6, 0.0])
        np.testing.assert_allclose(params.arrays[1], [-0.8])

    def test_no_clip_below_threshold(self):
        params = flat([0.0])
        nn.optimizer_step(params, flat([0.5]), 1.0, 10.0)
        np.testing.assert_allclose(params.arrays[0], [-0.5])

    @given(st.lists(st.lists(st.integers(1, 40), max_size=3).map(tuple),
                    min_size=1, max_size=6),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_global_norm_sums_array_by_array(self, shapes, dtype, seed):
        # the flat vector squared once and summed slice by slice gives the
        # bits of each array's own sum of squares
        rng = np.random.default_rng(seed)
        grads = nn.FlatParams.pack(
            [(rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape))
             .astype(dtype) for shape in shapes])
        want = float(np.sqrt(sum(float((g * g).sum())
                                 for g in grads.arrays)))
        assert nn.global_norm(grads).hex() == want.hex()

    def test_quadratic_converges(self):
        p = flat([5.0])
        grads = p.zeros_like()
        for _ in range(100):
            grads.vector[:] = 2 * p.vector
            nn.optimizer_step(p, grads, 0.2, 0.0)
        assert abs(p.vector[0]) < 1e-8

