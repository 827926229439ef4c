"""Gaussian-process synthetic data: kernels and sampling.

This module builds the (pseudo-observation, pseudo-model) pairs used for
controlled experiments: both series come from one latent GP draw, with a
known constant bias, known temporal misalignment, and i.i.d. noise layered on
top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .rng import substream
from .timeseries import TimeSeries

RBF = "rbf"
PERIODIC = "periodic"
RATIONAL_QUADRATIC = "rational_quadratic"

KINDS = (RBF, PERIODIC, RATIONAL_QUADRATIC)

_JITTER_START = 1e-10
_JITTER_MAX = 1e-4


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance function on the time axis.

    With r = |t - t'|, ``kind`` selects

    - rbf:                  exp(-r^2 / (2 l^2))
    - periodic:             exp(-2 sin^2(pi r / p) / l^2)
    - rational_quadratic:   (1 + r^2 / (2 alpha l^2))^(-alpha)

    The periodic form is the usual one (MacKay 1998; Rasmussen & Williams
    2006, ch. 4): correlation returns to 1 at every multiple of the period
    p, and l sets how far it dips in between.
    """

    kind: str
    lengthscale: float = 1.0
    period: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("unknown kernel kind %r" % (self.kind,))
        if self.lengthscale <= 0:
            raise ConfigError("lengthscale must be positive")
        if self.kind == PERIODIC and self.period <= 0:
            raise ConfigError("period must be positive")
        if self.kind == RATIONAL_QUADRATIC and self.alpha <= 0:
            raise ConfigError("alpha must be positive")


def rbf(lengthscale: float = 1.0) -> Kernel:
    return Kernel(RBF, lengthscale=lengthscale)


def gram(kernel: Kernel, times) -> np.ndarray:
    """Gram matrix K[i, j] = k(times[i], times[j])."""
    t = np.asarray(times, dtype=np.float64)
    # every step works in place on the one buffer of distances: an n x n
    # temporary per step would cost more than the arithmetic
    r = t[:, None] - t[None, :]
    if kernel.kind == RBF:  # exp(-r^2 / (2 l^2)); the square needs no abs
        np.square(r, out=r)
        r /= -2.0 * kernel.lengthscale**2
        return np.exp(r, out=r)
    np.abs(r, out=r)
    if kernel.kind == PERIODIC:  # exp(-2 sin^2(pi r / p) / l^2)
        r *= np.pi
        r /= kernel.period
        np.sin(r, out=r)
        np.square(r, out=r)
        r *= -2.0
        r /= kernel.lengthscale**2
        return np.exp(r, out=r)
    # rational quadratic: (1 + r^2 / (2 alpha l^2))^(-alpha)
    np.square(r, out=r)
    r /= 2.0 * kernel.alpha * kernel.lengthscale**2
    r += 1.0
    r **= -kernel.alpha
    return r


def _cholesky_with_jitter(k_matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with an escalating diagonal jitter.

    Starts at 1e-10 and multiplies by 10 until 1e-4; beyond that the matrix
    is treated as genuinely non-PSD. Each attempt writes the jittered
    diagonal into ``k_matrix`` itself, which costs no second n x n matrix;
    the caller's matrix is left with the last attempt's diagonal.
    """
    diagonal = np.diag_indices(len(k_matrix))
    original = k_matrix[diagonal]
    jitter = _JITTER_START
    while jitter <= _JITTER_MAX:
        k_matrix[diagonal] = original + jitter
        try:
            return np.linalg.cholesky(k_matrix)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericError(
        "Cholesky failed even with jitter %g; kernel matrix is not PSD" % _JITTER_MAX
    )


def sample_gp(kernel: Kernel, times, rng: np.random.Generator) -> np.ndarray:
    """One zero-mean draw of the GP at ``times`` from ``rng``."""
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        raise DataError("cannot sample a GP at zero points")
    chol = _cholesky_with_jitter(gram(kernel, times))
    return chol @ rng.standard_normal(len(times))


@dataclass(frozen=True)
class SyntheticPair:
    """Pseudo-observation / pseudo-model pair built from one latent draw.

    Both series are stamped on the same canonical grid. The observation value
    at grid time t is the latent evaluated at t + time_shift (plus the
    constant bias and noise), so the two series are the same signal up to a
    bias, i.i.d. noise, and a temporal misalignment of time_shift days. The
    latent itself is kept on its grid, the union of t and t + time_shift.
    """

    obs: TimeSeries
    gcm: TimeSeries
    latent_times: np.ndarray
    latent_values: np.ndarray


def _draw(kernel, times, mean_bias, time_shift, noise_std, seed, gcm_keys):
    """One latent draw, the observations and one model series per GCM key.

    The latent is drawn on the union of the grid and its shifted copy. The
    observations read it at t + time_shift and add ``mean_bias``; each model
    series reads it at t. Every series adds i.i.d. noise from its own
    substream ``(seed, "noise", *key)``, with key ``("obs",)`` for the
    observations and each of ``gcm_keys`` for the model series.
    """
    if noise_std < 0:
        raise ConfigError("noise_std must be nonnegative")
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        raise DataError("need at least one time stamp")
    shifted = times + time_shift
    # a grid float64 rounds to fewer distinct values would draw fewer days
    if not np.all(np.diff(times) > 0):
        raise ConfigError("times must be strictly increasing")
    if not np.all(np.diff(shifted) > 0):
        raise ConfigError(
            "time_shift %r merges days: times + time_shift holds %d distinct float64 "
            "values among %d" % (time_shift, len(np.unique(shifted)), len(times))
        )
    # a shift that float64 rounds by more than a millionth of itself on some day
    # (say 0.3 on day 2**52, which rounds to 0) does not shift that day
    lost = np.flatnonzero(np.abs((shifted - times) - time_shift) > 1e-6 * abs(time_shift))
    if len(lost):
        t = float(times[lost[0]])
        raise ConfigError(
            "time_shift %r is lost to float64 rounding: at day %r, (t + time_shift) - t "
            "is %r" % (time_shift, t, float(shifted[lost[0]]) - t)
        )
    grid = np.union1d(times, shifted)
    idx_base = np.searchsorted(grid, times)
    idx_shift = np.searchsorted(grid, shifted)
    latent = sample_gp(kernel, grid, substream(int(seed), "latent"))

    def noise(*key):
        draw = substream(int(seed), "noise", *key).standard_normal(len(times))
        return noise_std * draw

    runs = [TimeSeries(times, latent[idx_base] + noise(*key)) for key in gcm_keys]
    obs = TimeSeries(times, latent[idx_shift] + mean_bias + noise("obs"))
    return grid, latent, obs, runs


def make_shifted_pair(
    kernel: Kernel,
    times,
    mean_bias: float = 0.0,
    time_shift: float = 0.0,
    noise_std: float = 0.0,
    seed: int = 0,
) -> SyntheticPair:
    """Draw one latent series and derive a biased, shifted, noisy pair."""
    grid, latent, obs, (gcm,) = _draw(
        kernel, times, mean_bias, time_shift, noise_std, seed, [("gcm",)]
    )
    return SyntheticPair(obs=obs, gcm=gcm, latent_times=grid, latent_values=latent)


def make_run_ensemble(
    kernel: Kernel,
    times,
    mean_bias: float = 0.0,
    time_shift: float = 0.0,
    noise_std: float = 0.0,
    n_runs: int = 1,
    seed: int = 0,
) -> tuple[TimeSeries, list[TimeSeries]]:
    """Shared latent draw with one model-noise realization per run."""
    if n_runs < 1:
        raise ConfigError("n_runs must be at least 1")
    _, _, obs, runs = _draw(
        kernel, times, mean_bias, time_shift, noise_std, seed,
        [("gcm", z) for z in range(n_runs)],
    )  # fmt: skip
    return obs, runs
