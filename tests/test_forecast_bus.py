import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urbansched.forecast_bus import fit_base, fit_line, forecast_bus, reconcile


def summing_matrix(n: int) -> np.ndarray:
    """(1+n) x n matrix: first row all ones, remaining rows identity."""
    if n < 1:
        raise ValueError("need at least one bottom-level series")
    return np.vstack([np.ones((1, n)), np.eye(n)])


def reconcile_normal_equations(base):
    """Independent oracle: solve the OLS projection with dense linalgebra."""
    base = np.asarray(base, dtype=float)
    n = base.size - 1
    S = summing_matrix(n)
    beta = np.linalg.solve(S.T @ S, S.T @ base)
    beta = np.maximum(beta, 0.0)
    return np.concatenate([[beta.sum()], beta])


class TestSummingMatrix:
    def test_structure(self):
        S = summing_matrix(3)
        np.testing.assert_array_equal(S[0], [1, 1, 1])
        np.testing.assert_array_equal(S[1:], np.eye(3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            summing_matrix(0)


class TestFitLine:
    def test_exact_line(self):
        model = fit_line(np.array([1.0, 3.0, 5.0, 7.0]), np.arange(4.0))
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(1.0)
        assert model.predict(10) == pytest.approx(21.0)

    def test_least_squares_residual(self):
        rng = np.random.default_rng(0)
        t = np.arange(30, dtype=float)
        series = 0.7 * t + 2.0 + rng.normal(scale=0.5, size=30)
        model = fit_line(series, t)
        # normal-equation oracle
        A = np.vstack([t, np.ones_like(t)]).T
        coef = np.linalg.solve(A.T @ A, A.T @ series)
        assert model.slope == pytest.approx(coef[0])
        assert model.intercept == pytest.approx(coef[1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_line(np.array([1.0]), np.zeros(1))


class TestFitBase:
    def test_trailing_window_alignment(self):
        histories = {"a": np.array([0.0, 0, 0, 10, 11, 12]),
                     "b": np.array([0.0, 0, 0, 1, 1, 1])}
        models = fit_base(histories, window=3)
        # model "a" fit on t=3..5 values 10..12, so predict(6) = 13
        assert models["a"].predict(6) == pytest.approx(13.0)
        assert models["__total__"].predict(6) == pytest.approx(14.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            fit_base({"a": np.arange(5.0)}, window=1)


class TestReconcile:
    def test_spec_case(self):
        out = reconcile(np.array([100.0, 60.0, 30.0]))
        np.testing.assert_allclose(out, [96.667, 63.333, 33.333], atol=1e-3)
        assert out[0] == pytest.approx(out[1:].sum())

    def test_coherent_input_unchanged(self):
        base = np.array([9.0, 4.0, 5.0])
        np.testing.assert_allclose(reconcile(base), base, atol=1e-12)

    def test_idempotent(self):
        base = np.array([50.0, 10.0, 20.0, 5.0])
        once = reconcile(base)
        twice = reconcile(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_negative_clamped(self):
        out = reconcile(np.array([1.0, -30.0, 5.0]))
        assert np.all(out >= 0)
        assert out[0] == pytest.approx(out[1:].sum())

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_normal_equations(self, vals):
        base = np.array(vals)
        out = reconcile(base)
        oracle = reconcile_normal_equations(base)
        np.testing.assert_allclose(out, oracle, atol=1e-9)
        assert abs(out[0] - out[1:].sum()) <= 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reconcile(np.array([1.0]))
        with pytest.raises(ValueError):
            reconcile(np.array([1.0, np.nan]))


class TestForecastBus:
    def test_trending_series_coherent(self):
        t = np.arange(30, dtype=float)
        histories = {"fwd": {"S1": 2 * t + 1, "S2": t + 3, "S3": 0.5 * t},
                     "bwd": {"S1": np.full(30, 4.0), "S2": np.full(30, 2.0),
                             "S3": np.full(30, 1.0)}}
        out = forecast_bus(histories, horizon=3, window=10)
        assert out["fwd"].shape == (3, 3)
        # linear series extrapolate exactly and are already coherent
        np.testing.assert_allclose(out["fwd"][0], [2 * 30 + 1, 30 + 3, 15.0],
                                   atol=1e-6)
        np.testing.assert_allclose(out["bwd"][2], [4.0, 2.0, 1.0], atol=1e-6)

    def test_nonnegative_output(self):
        histories = {"fwd": {"S1": np.array([5.0, 3, 1, 0, 0]),
                             "S2": np.array([1.0, 1, 1, 1, 1])}}
        out = forecast_bus(histories, horizon=4, window=5)
        assert np.all(out["fwd"] >= 0)

    @pytest.mark.parametrize("lengths", [(30, 20), (40, 30)])
    def test_series_of_different_lengths_rejected(self, lengths):
        # below the window this was a broadcast error; at or above it the
        # stops were fitted on their own time axes but forecast on A's
        histories = {"fwd": {"A": np.arange(4.0)}, "bwd": {
            "A": np.arange(float(lengths[0])),
            "B": np.arange(float(lengths[1]))}}
        with pytest.raises(ValueError, match="'bwd'.*differ in length"):
            forecast_bus(histories, horizon=2)
        with pytest.raises(ValueError, match="differ in length"):
            fit_base(histories["bwd"], window=24)

    def test_empty_direction_rejected(self):
        histories = {"fwd": {"A": np.arange(30.0)}, "bwd": {}}
        with pytest.raises(ValueError, match="'bwd'.*no series"):
            forecast_bus(histories, horizon=2)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            forecast_bus({"fwd": {"S1": np.arange(5.0)}}, horizon=0)
