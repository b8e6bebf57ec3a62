import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched import nn


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
        xs = rng.normal(size=(5, 3))
        hs, tape = nn.lstm_forward(p, xs)
        h = np.zeros(4)
        c = np.zeros(4)
        for t in range(5):
            h, c = manual_lstm_step(p, xs[t], h, c)
            np.testing.assert_allclose(hs[t], h, atol=1e-12)
            np.testing.assert_allclose(tape.c[t + 1][0], c, atol=1e-12)

    def test_batched_equals_looped(self):
        rng = np.random.default_rng(1)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(4, 5, 2))
        hs, _ = nn.lstm_forward(p, xs)
        for b in range(5):
            single, _ = nn.lstm_forward(p, xs[:, b, :])
            np.testing.assert_allclose(hs[:, b, :], single, atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_gates_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(scale=5.0, size=(6, 2))
        hs, tape = nn.lstm_forward(p, xs)
        for t in range(6):
            i, f, g, o = np.split(tape.gates[t], 4, axis=1)
            for gate in (i, f, o):
                assert np.all((gate > 0) & (gate < 1))
            assert np.all(np.abs(g) <= 1)
            assert np.all(np.abs(hs[t]) <= 1)

    def test_shape_errors(self):
        p = nn.LstmParams.zeros(2, 3)
        with pytest.raises(nn.ShapeError):
            nn.lstm_forward(p, np.zeros((4, 5)))
        with pytest.raises(nn.ShapeError):
            nn.lstm_forward(p, np.zeros((0, 2)))
        with pytest.raises(nn.ShapeError):
            nn.lstm_forward(p, np.zeros((4, 3, 2)), start=[0, 1])

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

        grads, _ = nn.lstm_backward(p, tape, weights)
        assert nn.grad_check(loss, p.arrays(), grads.arrays()) <= 1e-5

    def test_init_draws_the_per_gate_blocks_in_order(self):
        p = nn.LstmParams.init(3, 4, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        named = {}
        for name in nn.V1_NAMES:
            shape = {"W_x": (3, 4), "W_h": (4, 4)}.get(name[:3], (4,))
            named[name] = rng.uniform(-0.5, 0.5, size=shape)
        named["b_f"] += 1.0
        np.testing.assert_array_equal(p.W_x[:, 4:8], named["W_xf"])
        np.testing.assert_array_equal(p.W_h[:, 8:12], named["W_hc"])
        np.testing.assert_array_equal(p.b[4:8], named["b_f"])
        np.testing.assert_array_equal(p.peep[2], named["w_co"])


class TestLstmBackward:
    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(4, 2))
        targets = rng.normal(size=(4, 3))

        def loss():
            hs, _ = nn.lstm_forward(p, xs)
            return 0.5 * float(np.sum((hs - targets) ** 2))

        hs, tape = nn.lstm_forward(p, xs)
        grads, _ = nn.lstm_backward(p, tape, hs - targets)
        err = nn.grad_check(loss, p.arrays(), grads.arrays())
        assert err <= 1e-6

    def test_input_gradient(self):
        rng = np.random.default_rng(3)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(3, 2))
        hs, tape = nn.lstm_forward(p, xs)
        dh = np.ones_like(hs)
        _, dx = nn.lstm_backward(p, tape, dh)
        eps = 1e-6
        for t in range(3):
            for j in range(2):
                orig = xs[t, j]
                xs[t, j] = orig + eps
                up = float(np.sum(nn.lstm_forward(p, xs)[0]))
                xs[t, j] = orig - eps
                down = float(np.sum(nn.lstm_forward(p, xs)[0]))
                xs[t, j] = orig
                np.testing.assert_allclose(dx[t, j], (up - down) / (2 * eps),
                                           atol=1e-6)

    def test_batched_grads_sum_singles(self):
        rng = np.random.default_rng(4)
        p = nn.LstmParams.init(2, 3, rng)
        xs = rng.normal(size=(3, 4, 2))
        dh = rng.normal(size=(3, 4, 3))
        _, tape = nn.lstm_forward(p, xs)
        grads, _ = nn.lstm_backward(p, tape, dh)
        acc = nn.LstmParams.zeros(2, 3)
        for b in range(4):
            _, t1 = nn.lstm_forward(p, xs[:, b, :])
            g1, _ = nn.lstm_backward(p, t1, dh[:, b, :])
            for a, g in zip(acc.arrays(), g1.arrays()):
                a += g
        for a, g in zip(acc.arrays(), grads.arrays()):
            np.testing.assert_allclose(a, g, atol=1e-10)


class TestMlp:
    def test_forward_identity_linear(self):
        p = nn.MlpParams(weights=[np.array([[2.0], [1.0]])],
                         biases=[np.array([0.5])], activations=["identity"])
        out, _ = nn.mlp_forward(p, np.array([3.0, 4.0]))
        assert out[0] == pytest.approx(10.5)

    def test_finite_difference(self):
        rng = np.random.default_rng(5)
        p = nn.MlpParams.init([4, 6, 3, 1], ["relu", "tanh", "identity"], rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 1))

        def loss():
            out, _ = nn.mlp_forward(p, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, tape = nn.mlp_forward(p, x)
        grads, dx = nn.mlp_backward(p, tape, out - target)
        assert nn.grad_check(loss, p.arrays(), grads.arrays()) <= 1e-5

    def test_shape_error(self):
        rng = np.random.default_rng(6)
        p = nn.MlpParams.init([4, 2], ["identity"], rng)
        with pytest.raises(nn.ShapeError):
            nn.mlp_forward(p, np.zeros(3))


class TestOptimizer:
    def test_plain_step(self):
        params = [np.array([1.0, 2.0])]
        grads = [np.array([0.5, -1.0])]
        norm = nn.optimizer_step(params, grads,
                                 nn.OptimizerConfig(step_size=0.1))
        np.testing.assert_allclose(params[0], [0.95, 2.1])
        assert norm == pytest.approx(np.sqrt(1.25))

    def test_clipping_scales_globally(self):
        params = [np.zeros(2), np.zeros(1)]
        grads = [np.array([3.0, 0.0]), np.array([4.0])]  # norm 5
        norm = nn.optimizer_step(
            params, grads, nn.OptimizerConfig(step_size=1.0, clip_norm=1.0))
        assert norm == pytest.approx(5.0)  # before clipping
        np.testing.assert_allclose(params[0], [-0.6, 0.0])
        np.testing.assert_allclose(params[1], [-0.8])

    def test_no_clip_below_threshold(self):
        params = [np.zeros(1)]
        nn.optimizer_step(params, [np.array([0.5])],
                          nn.OptimizerConfig(step_size=1.0, clip_norm=10.0))
        np.testing.assert_allclose(params[0], [-0.5])

    def test_quadratic_converges(self):
        p = [np.array([5.0])]
        config = nn.OptimizerConfig(step_size=0.2)
        for _ in range(100):
            nn.optimizer_step(p, [2 * p[0]], config)
        assert abs(p[0][0]) < 1e-8


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
        path = tmp_path / "ck.json"
        nn.save_checkpoint(str(path), arrays, meta={"kind": "test"})
        loaded, meta = nn.load_checkpoint(str(path))
        assert meta["kind"] == "test"
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "arrays": {}}')
        with pytest.raises(ValueError, match="version"):
            nn.load_checkpoint(str(path))
