"""Hierarchical bus passenger-flow forecasting.

Independent least-squares lines per stop and for the route total, then an
OLS projection through the two-level summing matrix so station forecasts
sum to the total exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass
class LinearBaseModel:
    slope: float
    intercept: float

    def predict(self, t: float) -> float:
        return self.slope * t + self.intercept


def fit_line(series: np.ndarray, t_index: np.ndarray) -> LinearBaseModel:
    """Least-squares line through series observed at times t_index."""
    series = np.asarray(series, dtype=float)
    if series.size < 2:
        raise ValueError("linear fit needs at least 2 observations")
    slope, intercept = np.polyfit(t_index, series, 1)
    return LinearBaseModel(slope=float(slope), intercept=float(intercept))


def fit_base(histories: dict[str, np.ndarray], window: int) -> dict[str, LinearBaseModel]:
    """Fit a trailing-window line per series, plus the aggregate series.

    The series share one time axis, so they must be equally long and at
    least one must be given.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    arrays = {name: np.asarray(s, dtype=float) for name, s in histories.items()}
    lengths = {s.size for s in arrays.values()}
    if len(lengths) != 1:
        raise ValueError("no series given" if not lengths else
                         f"series differ in length: {sorted(lengths)}")
    (length,) = lengths
    t_index = np.arange(max(length - window, 0), length, dtype=float)
    models = {name: fit_line(s[-window:], t_index) for name, s in arrays.items()}
    total = reduce(np.add, (s[-window:] for s in arrays.values()))
    models["__total__"] = fit_line(total, t_index)
    return models


def reconcile(base: np.ndarray) -> np.ndarray:
    """Project a stacked [total; stations] base forecast onto coherence.

    Bottom-level estimate solves the OLS normal equations for the two-level
    summing matrix; negative station values clamp to 0 afterwards, with the
    total re-derived as the sum.
    """
    base = np.asarray(base, dtype=float)
    if base.ndim != 1 or base.size < 2:
        raise ValueError("base forecast must be a vector [total; stations]")
    if not np.all(np.isfinite(base)):
        raise ValueError("base forecast contains non-finite values")
    n = base.size - 1
    # S^T S = I + J, whose inverse is I - J/(n+1); y = S^T b
    y = base[0] + base[1:]
    beta = y - y.sum() / (n + 1)
    beta = np.maximum(beta, 0.0)
    return np.concatenate([[beta.sum()], beta])


def forecast_bus(histories: dict[str, dict[str, np.ndarray]], horizon: int,
                 window: int = 24) -> dict[str, np.ndarray]:
    """Reconciled per-stop demand forecasts for each direction.

    histories maps direction ("fwd" -> first-type demand c1, "bwd" ->
    second-type c2) to {stop_id: series}. Returns direction -> (horizon, n)
    arrays in the stop order of the input dict.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    out: dict[str, np.ndarray] = {}
    for direction, series_map in histories.items():
        stops = list(series_map)
        try:
            models = fit_base(series_map, window)
        except ValueError as exc:
            raise ValueError(f"direction {direction!r}: {exc}") from exc
        length = np.asarray(series_map[stops[0]]).size
        rows = []
        for step in range(1, horizon + 1):
            t = length - 1 + step
            base = np.array([models["__total__"].predict(t)]
                            + [models[s].predict(t) for s in stops])
            rows.append(reconcile(base)[1:])
        out[direction] = np.maximum(np.array(rows), 0.0)
    return out
