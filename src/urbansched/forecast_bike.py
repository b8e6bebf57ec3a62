"""Bike flow forecasting: station clustering, per-station LSTM departure
models, frequency-based OD splitting, and the flow-matrix encoding fed to
the dispatcher state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import nn


# Lloyd rounds of cluster_stations at most, and the global gradient norm
# DepartureModel.fit clips to.
_KMEANS_ROUNDS = 100
_CLIP_NORM = 1.0


def cluster_stations(station_ids: list[str], coords: np.ndarray, k: int,
                     seed: int = 0) -> dict[str, int]:
    """Lloyd's k-means on planar coordinates, deterministic for a seed.
    Returns each station's cluster label."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if k > n:
        raise ValueError("k exceeds station count")
    rng = np.random.default_rng(seed)
    centroids = coords[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(_KMEANS_ROUNDS):
        dists = np.linalg.norm(coords[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = coords[mask].mean(axis=0)
    return {sid: int(c) for sid, c in zip(station_ids, labels)}


# ---------------------------------------------------------------------------
# Departure forecasting

@dataclass
class DepartureModel:
    """One LSTM per station over its normalized departure series: an
    nn.LstmNet with a linear head, fed the last `window` values.

    The net runs in float32 (nn's kernels follow their parameters'
    dtype): a fit moves half the bytes of a float64 one. Scaling is done
    in float64, and forecasts come back as float64 values."""

    net: nn.LstmNet
    scale: float
    window: int
    trained: bool = False

    @classmethod
    def create(cls, window: int = 24, hidden: int = 16,
               seed: int = 0) -> "DepartureModel":
        rng = np.random.default_rng(seed)
        return cls(net=nn.LstmNet.init(1, hidden, [1], ["identity"], rng,
                                       dtype=np.float32),
                   scale=1.0, window=window)

    def _predict_scaled(self, window_vals: np.ndarray) -> float:
        out, _ = self.net.forward(window_vals.reshape(-1, 1, 1))
        return float(out[0, 0])

    def _last_window(self, values: np.ndarray) -> np.ndarray:
        """The last `window` of values, scaled, from a trained model."""
        if not self.trained:
            raise ValueError("model has not been trained")
        values = np.asarray(values, dtype=float)
        if values.size < self.window:
            raise ValueError(f"need the last {self.window} values, "
                             f"got {values.size}")
        return values[-self.window:] / self.scale

    @nn.one_blas_thread()
    def fit(self, series: np.ndarray, epochs: int = 60, lr: float = 0.05):
        """Gradient descent on the one-step errors of every window of
        series, with one BLAS thread (nn.one_blas_thread)."""
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        series = np.asarray(series, dtype=float)
        if series.size < self.window + 1:
            raise ValueError("history shorter than the training window")
        self.scale = max(float(series.max()), 1.0)
        # in the net's dtype, so that the kernels need not copy it
        scaled = (series / self.scale).astype(self.net.params.vector.dtype)
        # (window, n_batch, 1) view of the series: xs_all[t, b] = scaled[t + b]
        xs_all = np.lib.stride_tricks.sliding_window_view(
            scaled[:-1, None], self.window, axis=0).transpose(2, 0, 1)
        targets = scaled[self.window:]
        n_batch = targets.size
        tapes = None  # each epoch writes into the arrays of the last
        for _ in range(epochs):
            out, tapes = self.net.forward(xs_all, reuse=tapes)
            err = (out[:, 0] - targets) / n_batch
            self.net.backward(tapes, err[:, None])
            nn.optimizer_step(self.net.params, self.net.grads, lr, _CLIP_NORM)
        self.trained = True

    def predict_one(self, recent: np.ndarray) -> float:
        """One-step-ahead prediction from the last `window` observations."""
        raw = self._predict_scaled(self._last_window(recent))
        return max(raw, 0.0) * self.scale

    def forecast(self, series: np.ndarray, horizon: int) -> np.ndarray:
        """Roll the model forward, feeding predictions back as inputs."""
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        window_vals = list(self._last_window(series))
        preds = []
        for _ in range(horizon):
            raw = self._predict_scaled(np.array(window_vals))
            preds.append(max(raw, 0.0) * self.scale)
            window_vals = window_vals[1:] + [max(raw, 0.0)]
        return np.array(preds)


def forecast_departures(history: np.ndarray, horizon: int, window: int = 24,
                        seed: int = 0, epochs: int = 60) -> np.ndarray:
    """Train a fresh station model on its departure series and forecast."""
    model = DepartureModel.create(window=window, seed=seed)
    model.fit(np.asarray(history, dtype=float), epochs=epochs)
    return model.forecast(history, horizon)


# ---------------------------------------------------------------------------
# OD splitting and flow encoding

def od_probabilities(counts: np.ndarray, station_ids: list[str],
                     clusters: dict[str, int]) -> np.ndarray:
    """Row-normalize historical OD counts into an (n, n) array of
    destination probabilities.

    Rows with no history fall back to uniform over the other stations of
    the same cluster (clusters maps station id to label).
    """
    counts = np.asarray(counts, dtype=float)
    n = len(station_ids)
    probs = np.zeros((n, n))
    for i in range(n):
        row = counts[i].copy()
        row[i] = 0.0
        total = row.sum()
        if total > 0:
            probs[i] = row / total
        else:
            mates = [j for j, sid in enumerate(station_ids)
                     if j != i and clusters[sid] == clusters[station_ids[i]]]
            if mates:
                probs[i, mates] = 1.0 / len(mates)
    return probs


@dataclass
class FlowMatrix:
    G: np.ndarray
    segment: int


def predict_flow(departures: np.ndarray, probabilities: np.ndarray,
                 segment: int) -> FlowMatrix:
    """G[i][j] = departures[i] * P(i -> j), P being od_probabilities'
    array; row sums equal departures."""
    departures = np.asarray(departures, dtype=float)
    if departures.size != probabilities.shape[0]:
        raise ValueError("departures length does not match OD table")
    G = departures[:, None] * probabilities
    return FlowMatrix(G=G, segment=segment)


def encode_flow(G: np.ndarray) -> np.ndarray:
    """Pool an n x n flow matrix into [row sums | column sums] (length 2n)."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("flow matrix must be square")
    return np.concatenate([G.sum(axis=1), G.sum(axis=0)])


def save_flows_csv(path: str, flows: list[FlowMatrix], station_ids: list[str]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "origin", "destination", "value"])
        for fm in flows:
            for i, origin in enumerate(station_ids):
                for j, dest in enumerate(station_ids):
                    if fm.G[i, j] != 0:
                        writer.writerow([fm.segment, origin, dest,
                                         f"{fm.G[i, j]:.6f}"])
