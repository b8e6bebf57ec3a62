import itertools

import numpy as np
import pytest

from urbansched import forecast_bike as fb


IDS = ["A", "B", "C", "D"]


def kmeans_cost(coords, labels, k):
    cost = 0.0
    for c in range(k):
        pts = coords[labels == c]
        if pts.size:
            cost += float(np.sum((pts - pts.mean(axis=0)) ** 2))
    return cost


class TestClusterStations:
    def test_two_obvious_groups(self):
        coords = np.array([[0.0, 0], [0.1, 0], [10.0, 0], [10.1, 0]])
        out = fb.cluster_stations(IDS, coords, k=2, seed=0)
        assert out["A"] == out["B"]
        assert out["C"] == out["D"]
        assert out["A"] != out["C"]

    def test_matches_exhaustive_partition(self):
        # small enough to check Lloyd's answer against the best 2-partition
        rng = np.random.default_rng(0)
        coords = rng.uniform(size=(5, 2))
        ids = [f"S{i}" for i in range(5)]
        out = fb.cluster_stations(ids, coords, k=2, seed=1)
        labels = np.array([out[s] for s in ids])
        got = kmeans_cost(coords, labels, 2)
        best = min(
            kmeans_cost(coords, np.array(assign), 2)
            for assign in itertools.product([0, 1], repeat=5))
        assert got <= best + 1e-9

    def test_deterministic(self):
        coords = np.random.default_rng(3).uniform(size=(4, 2))
        a = fb.cluster_stations(IDS, coords, k=2, seed=7)
        b = fb.cluster_stations(IDS, coords, k=2, seed=7)
        assert a == b

    def test_validation(self):
        coords = np.zeros((4, 2))
        with pytest.raises(ValueError):
            fb.cluster_stations(IDS, coords, k=0)
        with pytest.raises(ValueError):
            fb.cluster_stations(IDS, coords, k=5)

    def test_members(self):
        coords = np.array([[0.0, 0], [0.0, 0], [9.0, 9], [9.0, 9]])
        out = fb.cluster_stations(IDS, coords, k=2, seed=0)
        for cid in (0, 1):
            members = [sid for sid, c in out.items() if c == cid]
            assert members in (["A", "B"], ["C", "D"])


class TestDepartureModel:
    def test_learns_constant_series(self):
        series = np.full(40, 6.0)
        model = fb.DepartureModel.create(window=5, hidden=8, seed=0)
        model.fit(series, epochs=200, lr=0.2)
        pred = model.predict_one(series[-5:])
        assert pred == pytest.approx(6.0, abs=0.5)

    def test_requires_fit_before_predict(self):
        model = fb.DepartureModel.create(window=5)
        with pytest.raises(ValueError, match="trained"):
            model.predict_one(np.zeros(5))
        with pytest.raises(ValueError, match="trained"):
            model.forecast(np.zeros(5), 2)

    def test_short_history_rejected(self):
        model = fb.DepartureModel.create(window=10)
        with pytest.raises(ValueError, match="shorter"):
            model.fit(np.zeros(5))

    @pytest.mark.parametrize("recent", [np.ones(4), np.zeros(0)])
    def test_input_shorter_than_the_window_rejected(self, recent):
        model = fb.DepartureModel.create(window=5, hidden=4, seed=0)
        with pytest.raises(ValueError, match="trained"):
            model.predict_one(recent)
        with pytest.raises(ValueError, match="trained"):
            model.forecast(recent, 2)
        model.fit(np.ones(10), epochs=1)
        with pytest.raises(ValueError, match="last 5 values"):
            model.predict_one(recent)
        with pytest.raises(ValueError, match="last 5 values"):
            model.forecast(recent, 2)
        assert model.forecast(np.ones(5), 2).shape == (2,)

    def test_horizon_zero_checks_its_input(self):
        model = fb.DepartureModel.create(window=5, hidden=4, seed=0)
        with pytest.raises(ValueError, match="trained"):
            model.forecast(np.ones(5), 0)
        model.fit(np.ones(10), epochs=1)
        with pytest.raises(ValueError, match="last 5 values"):
            model.forecast(np.ones(2), 0)
        assert model.forecast(np.ones(5), 0).shape == (0,)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_no_epochs_rejected(self, epochs):
        model = fb.DepartureModel.create(window=5)
        with pytest.raises(ValueError, match="epochs"):
            model.fit(np.zeros(10), epochs=epochs)
        assert not model.trained

    def test_negative_horizon_rejected(self):
        model = fb.DepartureModel.create(window=5, hidden=4, seed=0)
        model.fit(np.ones(10), epochs=1)
        with pytest.raises(ValueError, match="horizon"):
            model.forecast(np.ones(10), -1)

    def test_forecast_nonnegative_and_sized(self):
        rng = np.random.default_rng(1)
        series = np.maximum(rng.normal(3.0, 1.0, size=60), 0.0)
        model = fb.DepartureModel.create(window=8, hidden=8, seed=0)
        model.fit(series, epochs=50)
        out = model.forecast(series, horizon=4)
        assert out.shape == (4,)
        assert np.all(out >= 0)
        assert model.forecast(series, horizon=0).size == 0

    def test_beats_naive_on_periodic_counts(self):
        # daily periodic Poisson counts; last-value persistence does badly
        rng = np.random.default_rng(3)
        per_day = 24
        pattern = 4.0 + 3.0 * np.sin(2 * np.pi * np.arange(per_day) / per_day)
        rates = np.tile(pattern, 5)
        series = rng.poisson(rates).astype(float)
        split = 4 * per_day
        model = fb.DepartureModel.create(window=per_day, hidden=16, seed=0)
        model.fit(series[:split], epochs=400, lr=0.3)
        errs_model, errs_naive = [], []
        for t in range(split, series.size):
            recent = series[t - per_day:t]
            errs_model.append(model.predict_one(recent) - series[t])
            errs_naive.append(series[t - 1] - series[t])
        rmse_model = float(np.sqrt(np.mean(np.square(errs_model))))
        rmse_naive = float(np.sqrt(np.mean(np.square(errs_naive))))
        assert rmse_model < rmse_naive


class TestOdProbabilities:
    def test_row_normalization(self):
        counts = np.array([[0, 6, 2, 2], [1, 0, 0, 0],
                           [0, 0, 0, 4], [0, 0, 0, 0]])
        coords = np.array([[0.0, 0], [0.1, 0], [5.0, 0], [5.1, 0]])
        clusters = fb.cluster_stations(IDS, coords, k=2, seed=0)
        probs = fb.od_probabilities(counts, IDS, clusters)
        np.testing.assert_allclose(probs[0], [0, 0.6, 0.2, 0.2])
        np.testing.assert_allclose(probs[1], [1, 0, 0, 0])
        # empty row D falls back to uniform over its cluster mate C
        np.testing.assert_allclose(probs[3], [0, 0, 1.0, 0])

    def test_diagonal_zero_even_with_counts(self):
        counts = np.array([[9, 1], [0, 0]])
        probs = fb.od_probabilities(counts, ["A", "B"], {"A": 0, "B": 0})
        assert probs[0, 0] == 0
        np.testing.assert_allclose(probs[0], [0, 1.0])

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 10, size=(4, 4))
        probs = fb.od_probabilities(counts, IDS, dict.fromkeys(IDS, 0))
        sums = probs.sum(axis=1)
        assert np.all((np.abs(sums - 1) < 1e-12) | (sums == 0))


class TestFlow:
    def test_predict_flow_rows(self):
        counts = np.array([[0, 3, 1], [0, 0, 2], [1, 0, 0]])
        probs = fb.od_probabilities(counts, ["A", "B", "C"],
                                    dict.fromkeys("ABC", 0))
        flow = fb.predict_flow(np.array([8.0, 4.0, 0.0]), probs, segment=1)
        np.testing.assert_allclose(flow.G.sum(axis=1), [8.0, 4.0, 0.0])
        np.testing.assert_allclose(flow.G[0], [0, 6.0, 2.0])

    def test_size_mismatch(self):
        probs = fb.od_probabilities(np.zeros((2, 2)), ["A", "B"],
                                    {"A": 0, "B": 0})
        with pytest.raises(ValueError):
            fb.predict_flow(np.zeros(3), probs, segment=1)

    def test_encode_flow(self):
        G = np.array([[0.0, 2.0], [1.0, 0.0]])
        enc = fb.encode_flow(G)
        np.testing.assert_allclose(enc, [2.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            fb.encode_flow(np.zeros((2, 3)))

    def test_csv_export(self, tmp_path):
        flow = fb.FlowMatrix(G=np.array([[0.0, 1.5], [0.0, 0.0]]), segment=2)
        path = tmp_path / "flows.csv"
        fb.save_flows_csv(str(path), [flow], ["A", "B"])
        lines = path.read_text().strip().splitlines()
        assert lines[1] == "2,A,B,1.500000"
