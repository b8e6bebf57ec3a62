"""Bike flow forecasting: station clustering, per-station LSTM departure
models, frequency-based OD splitting, and the flow-matrix encoding fed to
the dispatcher state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import nn


@dataclass
class ClusterAssignment:
    labels: dict[str, int]
    centroids: np.ndarray

    def members(self, cluster_id: int) -> list[str]:
        return [sid for sid, c in self.labels.items() if c == cluster_id]


def cluster_stations(station_ids: list[str], coords: np.ndarray, k: int,
                     seed: int = 0, max_iter: int = 100) -> ClusterAssignment:
    """Lloyd's k-means on planar coordinates, deterministic for a seed."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if k > n:
        raise ValueError("k exceeds station count")
    rng = np.random.default_rng(seed)
    centroids = coords[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = np.linalg.norm(coords[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = coords[mask].mean(axis=0)
    return ClusterAssignment(
        labels={sid: int(c) for sid, c in zip(station_ids, labels)},
        centroids=centroids,
    )


# ---------------------------------------------------------------------------
# Departure forecasting

@dataclass
class DepartureModel:
    """One LSTM per station over its normalized departure series."""

    lstm: nn.LstmParams
    head: nn.MlpParams
    scale: float
    window: int
    trained: bool = False

    @classmethod
    def create(cls, window: int = 24, hidden: int = 16,
               seed: int = 0) -> "DepartureModel":
        rng = np.random.default_rng(seed)
        return cls(
            lstm=nn.LstmParams.init(1, hidden, rng),
            head=nn.MlpParams.init([hidden, 1], ["identity"], rng),
            scale=1.0,
            window=window,
        )

    def _predict_scaled(self, window_vals: np.ndarray) -> float:
        xs = window_vals.reshape(-1, 1)
        hs, _ = nn.lstm_forward(self.lstm, xs)
        out, _ = nn.mlp_forward(self.head, hs[-1])
        return float(out[0])

    def fit(self, series: np.ndarray, epochs: int = 60, lr: float = 0.05,
            clip: float = 1.0):
        series = np.asarray(series, dtype=float)
        if series.size < self.window + 1:
            raise ValueError("history shorter than the training window")
        self.scale = max(float(series.max()), 1.0)
        scaled = series / self.scale
        windows = np.stack([scaled[i:i + self.window]
                            for i in range(series.size - self.window)])
        targets = scaled[self.window:]
        config = nn.OptimizerConfig(step_size=lr, clip_norm=clip)
        n_batch = windows.shape[0]
        xs_all = windows.T[:, :, None]  # (window, n_batch, 1)
        for _ in range(epochs):
            hs, tape = nn.lstm_forward(self.lstm, xs_all)
            out, head_tape = nn.mlp_forward(self.head, hs[-1])
            err = (out[:, 0] - targets) / n_batch
            head_grads, dh_last = nn.mlp_backward(self.head, head_tape,
                                                  err[:, None])
            dh = np.zeros_like(hs)
            dh[-1] = dh_last
            lstm_grads = nn.lstm_backward(self.lstm, tape, dh)
            nn.optimizer_step(self.lstm.arrays() + self.head.arrays(),
                              lstm_grads.arrays() + head_grads.arrays(), config)
        self.trained = True

    def predict_one(self, recent: np.ndarray) -> float:
        """One-step-ahead prediction from the last `window` observations."""
        if not self.trained:
            raise ValueError("model has not been trained")
        recent = np.asarray(recent, dtype=float)[-self.window:]
        raw = self._predict_scaled(recent / self.scale)
        return max(raw, 0.0) * self.scale

    def forecast(self, series: np.ndarray, horizon: int) -> np.ndarray:
        """Roll the model forward, feeding predictions back as inputs."""
        if horizon == 0:
            return np.zeros(0)
        if not self.trained:
            raise ValueError("model has not been trained")
        series = np.asarray(series, dtype=float)
        window_vals = list(series[-self.window:] / self.scale)
        preds = []
        for _ in range(horizon):
            raw = self._predict_scaled(np.array(window_vals))
            preds.append(max(raw, 0.0) * self.scale)
            window_vals = window_vals[1:] + [max(raw, 0.0)]
        return np.array(preds)


def forecast_departures(history: np.ndarray, horizon: int, window: int = 24,
                        hidden: int = 16, seed: int = 0,
                        epochs: int = 60) -> np.ndarray:
    """Train a fresh station model on its departure series and forecast."""
    model = DepartureModel.create(window=window, hidden=hidden, seed=seed)
    model.fit(np.asarray(history, dtype=float), epochs=epochs)
    return model.forecast(history, horizon)


# ---------------------------------------------------------------------------
# OD splitting and flow encoding

@dataclass
class OdFrequencyTable:
    station_ids: list[str]
    counts: np.ndarray
    probabilities: np.ndarray


def od_probabilities(counts: np.ndarray, station_ids: list[str],
                     clusters: ClusterAssignment | None = None,
                     smoothing: float = 0.0) -> OdFrequencyTable:
    """Row-normalize historical OD counts into destination probabilities.

    Rows with no history fall back to uniform over same-cluster stations
    (excluding self); with no cluster information, uniform over all others.
    """
    counts = np.asarray(counts, dtype=float)
    n = len(station_ids)
    probs = np.zeros((n, n))
    for i in range(n):
        row = counts[i].copy()
        row[i] = 0.0
        if smoothing > 0:
            row += smoothing
            row[i] = 0.0
        total = row.sum()
        if total > 0:
            probs[i] = row / total
        else:
            if clusters is not None:
                mates = [j for j, sid in enumerate(station_ids)
                         if j != i and clusters.labels[sid]
                         == clusters.labels[station_ids[i]]]
            else:
                mates = [j for j in range(n) if j != i]
            if mates:
                probs[i, mates] = 1.0 / len(mates)
    return OdFrequencyTable(station_ids=station_ids, counts=counts,
                            probabilities=probs)


@dataclass
class FlowMatrix:
    G: np.ndarray
    segment: int


def predict_flow(departures: np.ndarray, od_table: OdFrequencyTable,
                 segment: int) -> FlowMatrix:
    """G[i][j] = departures[i] * P(i -> j); row sums equal departures."""
    departures = np.asarray(departures, dtype=float)
    if departures.size != od_table.probabilities.shape[0]:
        raise ValueError("departures length does not match OD table")
    G = departures[:, None] * od_table.probabilities
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
