"""Evaluation statistics: heatwave runs, QQ pairs, PACF and scores.

A heatwave is a maximal run of at least three consecutive days strictly
above a threshold; counting requires a contiguous daily grid. The score
report mirrors the usual summary-table convention: MSE against the observed
series plus a Gaussian log likelihood whose variance is either supplied
per point (probabilistic candidates) or taken constant and equal to the MSE
(deterministic candidates).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .timeseries import TimeSeries

logger = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))

_MSE_FLOOR = 1e-12


def gaussian_nll_points(y, mu, sd):
    """Per-point negative log density of ``y`` under N(mu, sd^2)."""
    return 0.5 * LOG_2PI + np.log(sd) + (y - mu) ** 2 / (2.0 * sd**2)


@dataclass(frozen=True)
class HeatwaveStats:
    run_lengths: tuple[int, ...]

    def __post_init__(self):
        if any(r < 3 for r in self.run_lengths):
            raise DataError("heatwave runs must be at least 3 days")

    @property
    def count(self) -> int:
        return len(self.run_lengths)


def heatwave_count(series: TimeSeries, threshold: float) -> HeatwaveStats:
    """Count maximal runs of >= 3 consecutive days strictly above threshold."""
    if len(series) == 0:
        raise DataError("cannot count heatwaves of an empty series")
    if series.non_daily_step() is not None:
        raise DataError("heatwave counting needs a contiguous daily grid")
    above = np.concatenate([[False], series.values > threshold, [False]]).astype(int)
    edges = np.diff(above)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return HeatwaveStats(tuple(int(l) for l in (ends - starts) if l >= 3))


def relative_heatwave_error(candidate_counts, observed_count: int) -> float | None:
    """Mean over the candidate counts of 100 * |candidate - observed| / observed,
    in percent, or None when the observed count is 0.

    ``candidate_counts`` holds one count per trajectory, or is a single count
    for a deterministic series.
    """
    if observed_count == 0:
        return None
    counts = np.ravel(candidate_counts).tolist()
    return float(np.mean([100.0 * abs(c - observed_count) / observed_count for c in counts]))


def qq(series_a, series_b, n_quantiles: int) -> np.ndarray:
    """Matched empirical quantiles at evenly spaced probabilities.

    Returns an (n_quantiles, 3) array of (probability, quantile_a,
    quantile_b) rows at probabilities linspace(0, 1, n_quantiles), the
    quantiles linearly interpolated.
    """
    if n_quantiles < 2:
        raise ConfigError("n_quantiles must be >= 2")
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise DataError("qq needs nonempty series")
    probs = np.linspace(0.0, 1.0, n_quantiles)
    return np.column_stack([probs, np.quantile(a, probs), np.quantile(b, probs)])


def pacf(values, max_lag: int) -> np.ndarray:
    """Partial autocorrelations at lags 1..max_lag via Durbin-Levinson.

    Works from the biased sample autocorrelation; the series must be longer
    than max_lag and non-constant.
    """
    x = np.asarray(values, dtype=np.float64)
    if max_lag < 1:
        raise ConfigError("max_lag must be >= 1")
    n = len(x)
    if n <= max_lag:
        raise DataError("series length %d must exceed max_lag %d" % (n, max_lag))
    centered = x - np.mean(x)
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DataError("constant series has undefined partial autocorrelation")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(np.dot(centered[:-k], centered[k:])) / denom

    out = np.empty(max_lag)
    phi_prev = np.zeros(0)
    for k in range(1, max_lag + 1):
        num = rho[k] - float(np.dot(phi_prev, rho[k - 1 : 0 : -1]))
        den = 1.0 - float(np.dot(phi_prev, rho[1:k]))
        phi_kk = num / den
        phi = np.empty(k)
        phi[:-1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[-1] = phi_kk
        out[k - 1] = phi_kk
        phi_prev = phi
    return out


@dataclass
class ScoreReport:
    """Headline comparison of a candidate series against observations."""

    mse: float
    loglik: float


def score(candidate, observed, predictive_std=None) -> ScoreReport:
    """MSE and Gaussian log likelihood of a candidate against observations.

    With ``predictive_std`` given (per-point), the log likelihood treats the
    candidate values as per-point means. Otherwise the variance is constant
    and equal to the MSE (floored at 1e-12 with a logged warning, since a
    perfect match makes the density degenerate).
    """
    c = np.asarray(candidate, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if len(c) != len(o):
        raise DataError(
            "candidate has %d points, observed has %d" % (len(c), len(o))
        )
    if len(c) == 0:
        raise DataError("cannot score empty series")
    resid = o - c
    mse = float(np.mean(resid**2))
    if predictive_std is not None:
        sd = np.asarray(predictive_std, dtype=np.float64)
        if sd.shape != c.shape:
            raise DataError("predictive_std must match the candidate's shape")
        if np.any(sd <= 0):
            raise DataError("predictive_std must be positive")
    else:
        if mse < _MSE_FLOOR:
            logger.warning(
                "MSE %g below floor %g; log likelihood is degenerate", mse, _MSE_FLOOR
            )
        sd = np.sqrt(max(mse, _MSE_FLOOR))
    loglik = -float(np.mean(gaussian_nll_points(o, c, sd)))
    return ScoreReport(mse=mse, loglik=loglik)
