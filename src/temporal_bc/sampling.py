"""Autoregressive trajectory generation with a sliding conditioning window.

Generation starts on the day after the observational record ends. For each
day tau the model conditions on the trailing ``obs_window`` points of the
(partly generated) observation-side history plus all model-run points with
time in [tau - gcm_past, tau + gcm_future), predicts a Gaussian for tau,
draws a value (or takes the mean in deterministic mode), appends it to the
history, and slides forward one day. Work happens in normalized units and
trajectories are denormalized on the way out.

``predictive_nll`` runs the same windowing teacher-forced: every day is
predicted from the true observed history, which scores one-step-ahead
density forecasts on a held-out stretch. ``evaluate_nll``, training's
validation score, forecasts its held-out days the same way through the same
:func:`_one_step`.

A day's conditioning points and target are one
:func:`build_inference_example`, whose feature block alone holds each
point's time and value (see :mod:`temporal_bc.batching`). All three forecast
each day through :func:`_predict_one`, the one caller of
:func:`temporal_bc.model.forecast`: plain NumPy in float32, on parameters
that :func:`temporal_bc.model.forecast_params` casts once per forecaster,
with the day as the one target and attention over the conditioning points
alone (see :mod:`temporal_bc.model`). The checkpoint itself and training stay
float64. A forecast's (mean, std) therefore differs from training's float64
forward at float32 rounding, while a sampled, a scored and a validated
forecast of the same day and windows agree bit for bit.

Days reuse layer-0 rows. A conditioning point's six layer-0 perceptron rows
(:func:`temporal_bc.model.layer0_rows`) depend on its feature row (the four
columns of its time, value and anchor) and its block alone, and as the
windows slide one day most points keep theirs: only the new points, those
whose nearest neighbour changed and the target need new rows. A
:class:`_RowMemo` keeps each point's rows by its index in its series, beside
the feature row they came from: one memo per model run and stretch, shared
by the run's trajectories, and one per observed or sampled history, so a
memo's points share one block. A day takes a point's rows from the memo
only where the point's feature row is bit for bit the stored one, and
embeds and computes the rest with the target, in one product per
perceptron of at least two rows (a one-row product may take another BLAS
kernel and round differently). So a day that reuses rows gives the same
bits as one that computes every row, as a stretch's first day does.

A sampled or scored stretch logs each window warning at most once
(:func:`warn_about_windows`), and training checks them once per ``train``
call rather than at every validation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from . import model as tf_model
from .batching import FeatureBlock, TrainingExample, compute_features
from .errors import ConfigError, DataError, NumericError
from .metrics import gaussian_nll_points
from .model import ModelCheckpoint
from .rng import substream
from .timeseries import PairedDataset, TimeSeries

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SamplerConfig:
    obs_window: int = 60
    gcm_past: int = 60
    gcm_future: int = 120
    horizon: int = 1
    n_trajectories: int = 8
    seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.obs_window < 1:
            raise ConfigError("obs_window must be >= 1")
        if self.gcm_past < 0 or self.gcm_future < 1:
            raise ConfigError("gcm_past must be >= 0 and gcm_future >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be >= 1")


def build_inference_example(
    obs_t, obs_v, gcm_t, gcm_v, target_t: float
) -> TrainingExample:
    """Single-masked-target example from explicit conditioning arrays."""
    features = compute_features(gcm_t, gcm_v, obs_t, obs_v, [float(target_t)], None)
    return TrainingExample(None, features, len(gcm_t), 1)


# FeatureBlock's columns, each point's feature row
_COLUMNS = [column.name for column in fields(FeatureBlock)]


class _RowMemo:
    """Layer-0 rows (:func:`temporal_bc.model.layer0_rows`) of a stretch of
    one series' points, by index, each beside the feature row it was
    computed from."""

    def __init__(self, n_points: int):
        # (column, point); NaN equals no feature, so every slot starts stale
        self.features = np.full((len(_COLUMNS), n_points), np.nan)
        # (perceptron, point, width), made at the first store
        self.rows = None

    def store(self, index: np.ndarray, features: np.ndarray, rows: np.ndarray) -> None:
        if self.rows is None:
            self.rows = np.empty((len(rows), self.features.shape[1], rows.shape[2]), rows.dtype)
        self.features[:, index] = features
        self.rows[:, index] = rows


def _forecaster(
    ckpt: ModelCheckpoint,
    dataset: PairedDataset,
    run_id: int,
    config: SamplerConfig,
    start_t: float,
    last_t: float,
):
    """Normalized observations plus a one-day forecaster for one model run.

    Checks that the run exists, that ``obs_window`` observed days precede
    ``start_t`` and that the run covers [start_t - gcm_past, last_t].
    ``one_day(hist_t, hist_v, memo, tau)`` conditions on the trailing
    ``obs_window`` points of the history ``hist_t``, ``hist_v`` and the
    run's days in [tau - gcm_past, tau + gcm_future) and returns the
    normalized (mean, std) for day tau. ``memo`` is the history's
    :class:`_RowMemo`, indexed as ``hist_t`` is; the run's own memo spans
    every window of the stretch and is shared by every history forecast
    here.
    """
    run = dataset.run(run_id)
    stats = ckpt.norm_stats
    obs_t = np.array(dataset.obs.times)
    obs_v = stats.to_z(dataset.obs.values)
    gcm_t = np.array(run.times)
    gcm_v = stats.to_z(run.values)
    if ckpt.meta.get("ablate_gcm", False):
        gcm_v = np.zeros_like(gcm_v)
    n_past = int(np.count_nonzero(obs_t < start_t))
    if n_past < config.obs_window:
        raise DataError(
            "not enough observed history before t=%r: need %d days, have %d"
            % (start_t, config.obs_window, n_past)
        )
    if gcm_t[0] > start_t - config.gcm_past or gcm_t[-1] < last_t:
        raise DataError(
            "insufficient GCM coverage: need [%r, %r], run %d spans [%r, %r]"
            % (start_t - config.gcm_past, last_t, run_id, *gcm_t[[0, -1]].tolist())
        )
    params = tf_model.forecast_params(ckpt)
    # gcm_t is strictly increasing, so each day's window is the slice of days
    # in [tau - gcm_past, tau + gcm_future), and the stretch's windows lie in
    # the slice for [start_t - gcm_past, last_t + gcm_future)
    first, stop = np.searchsorted(gcm_t, (start_t - config.gcm_past, last_t + config.gcm_future))
    gcm_memo = _RowMemo(stop - first)

    def one_day(hist_t, hist_v, memo: _RowMemo, tau: float) -> tuple[float, float]:
        lo, hi = np.searchsorted(gcm_t, (tau - config.gcm_past, tau + config.gcm_future))
        at = len(hist_t) - config.obs_window
        example = build_inference_example(
            hist_t[at:], hist_v[at:], gcm_t[lo:hi], gcm_v[lo:hi], tau
        )
        return _predict_one(params, example, ((gcm_memo, lo - first), (memo, at)), ckpt.config)

    return obs_t, obs_v, one_day


def warn_about_windows(
    ckpt: ModelCheckpoint, dataset: PairedDataset, run_id: int, config: SamplerConfig, last_t
) -> None:
    """Log a warning when the run's future window truncates before day
    ``last_t``, and one when either sampler window is longer than the
    longest training window the checkpoint records (``meta["window_max"]``).

    Neither condition changes between the forecasts of one stretch, so each
    caller checks once: a sampled or scored stretch, or a ``train`` call
    for every validation it runs.
    """
    run_end = float(dataset.run(run_id).times[-1])
    if run_end < last_t + config.gcm_future - 1:
        logger.warning(
            "GCM run %d ends at t=%r; the future window truncates near the "
            "end of the stretch",
            run_id,
            run_end,
        )
    window_max = ckpt.meta.get("window_max")  # absent in older checkpoints
    gcm_span = config.gcm_past + config.gcm_future
    if window_max is not None and max(config.obs_window, gcm_span) > window_max:
        logger.warning(
            "sampler window (obs_window %d, gcm_past + gcm_future %d) exceeds the "
            "longest training window (%d days); predictions may degrade",
            config.obs_window, gcm_span, window_max,
        )  # fmt: skip


def _predict_one(params, example, memos, model_config):
    """(mean, std) of ``example``'s one target; a NumericError unless both
    are finite.

    ``memos`` pairs the model block and then the observed context with the
    :class:`_RowMemo` of its series and the memo index of its first point.
    Points whose rows the memos do not hold for their very feature row are
    computed with the target, at least two rows where the window has two,
    and stored.
    """
    f = example.features
    features = np.array([getattr(f, name) for name in _COLUMNS], dtype=np.float64)
    n_gcm, n_cond = example.n_gcm, example.n_points - 1
    (gcm_memo, gcm_at), (hist_memo, hist_at) = memos
    held = np.concatenate(
        [gcm_memo.features[:, gcm_at : gcm_at + n_gcm],
         hist_memo.features[:, hist_at : hist_at + n_cond - n_gcm]],
        axis=1,
    )  # fmt: skip
    # bit for bit: 0.0 and -0.0 are different inputs
    stale = np.any(held.view(np.uint64) != features[:, :n_cond].view(np.uint64), axis=0)
    short = min(2, n_cond) - np.count_nonzero(stale)
    if short > 0:
        stale[np.flatnonzero(~stale)[:short]] = True
    take = np.flatnonzero(np.append(stale, True))  # and the target
    sub = features[:, take]
    split = int(np.searchsorted(take, n_gcm))
    stale_rows = TrainingExample(None, FeatureBlock(*sub), split, 1)
    emb = tf_model.embed(stale_rows, model_config)
    computed = tf_model.layer0_rows(params, emb)
    gcm_memo.store(gcm_at + take[:split], sub[:, :split], computed[:, :split])
    hist_memo.store(
        hist_at - n_gcm + take[split:-1], sub[:, split:-1], computed[:, split:-1]
    )
    rows = np.empty((len(computed), n_cond + 1, computed.shape[2]), computed.dtype)
    rows[:, :n_gcm] = gcm_memo.rows[:, gcm_at : gcm_at + n_gcm]
    rows[:, n_gcm:n_cond] = hist_memo.rows[:, hist_at : hist_at + n_cond - n_gcm]
    rows[:, n_cond] = computed[:, -1]
    m, s = tf_model.forecast(params, rows, float(emb.anchors[0, 0]), model_config)
    if not (np.isfinite(m) and np.isfinite(s)):
        raise NumericError("model produced non-finite prediction during sampling")
    return m, s


def sample_trajectories(
    ckpt: ModelCheckpoint, dataset: PairedDataset, run_id: int, config: SamplerConfig
) -> list[TimeSeries]:
    """Generate ``n_trajectories`` independent series for one model run.

    Run z draws from seed ``config.seed XOR z``, so every run of a dataset
    gets its own stream from one sampler seed.
    """
    start_t = float(dataset.obs.times[-1]) + 1.0
    last_t = start_t + config.horizon - 1
    obs_t, obs_v, one_day = _forecaster(ckpt, dataset, run_id, config, start_t, last_t)
    warn_about_windows(ckpt, dataset, run_id, config, last_t)
    window = config.obs_window
    # the history: the observed tail, then the sampled days
    times = start_t + np.arange(config.horizon, dtype=np.float64)
    hist_t = np.concatenate([obs_t[-window:], times])
    out = []
    for traj in range(config.n_trajectories):
        rng = substream(config.seed ^ run_id, "trajectory", traj)
        hist_v = np.empty_like(hist_t)
        hist_v[:window] = obs_v[-window:]
        memo = _RowMemo(len(hist_t))
        for step in range(config.horizon):
            m, s = one_day(hist_t[: window + step], hist_v[: window + step], memo, times[step])
            hist_v[window + step] = m if config.deterministic else rng.normal(m, s)
        out.append(TimeSeries(times, ckpt.norm_stats.from_z(hist_v[window:])))
    return out


@dataclass(frozen=True)
class PredictiveScore:
    """Teacher-forced one-step-ahead predictions over an evaluation stretch.

    Means and stds are in natural (denormalized) units; nll is the per-point
    negative log density of the true observations, mean_nll its average.
    """

    times: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    nll: np.ndarray

    @property
    def mean_nll(self) -> float:
        return float(np.mean(self.nll))


def _one_step(ckpt, dataset, run_id: int, config: SamplerConfig, days: np.ndarray):
    """Teacher-forced forecasts of ``days`` (increasing) for one run.

    Each day is forecast from the true observed history before it. Returns
    the normalized means and stds and each day's index in the observation
    series; every day must be observed.
    """
    obs_t, obs_v, one_day = _forecaster(
        ckpt, dataset, run_id, config, float(days[0]), float(days[-1])
    )
    # obs_t is strictly increasing, so each day's past is a prefix
    n_past = np.searchsorted(obs_t, days)
    unobserved = days[obs_t[np.minimum(n_past, len(obs_t) - 1)] != days]
    if len(unobserved):
        raise DataError("no observation at evaluation day t=%r" % float(unobserved[0]))
    # the history is the observed series from the first day's window on
    first = n_past[0] - config.obs_window
    memo = _RowMemo(n_past[-1] - first)
    means = np.empty(len(days))
    stds = np.empty(len(days))
    for i, tau in enumerate(days):
        past = slice(first, n_past[i])
        means[i], stds[i] = one_day(obs_t[past], obs_v[past], memo, float(tau))
    return means, stds, n_past


def predictive_nll(
    ckpt: ModelCheckpoint,
    dataset: PairedDataset,
    run_id: int,
    start_t: float,
    n_days: int,
    config: SamplerConfig | None = None,
) -> PredictiveScore:
    """Score one-step density forecasts for days start_t..start_t+n_days-1.

    The dataset's observation series must cover the evaluation stretch and
    the ``obs_window`` days before it, and the run must cover the stretch
    and the ``gcm_past`` days before it, as for :func:`sample_trajectories`.
    """
    config = config if config is not None else SamplerConfig()
    if n_days < 1:
        raise ConfigError("n_days must be >= 1")
    times = float(start_t) + np.arange(n_days, dtype=np.float64)
    means, stds, at = _one_step(ckpt, dataset, run_id, config, times)
    warn_about_windows(ckpt, dataset, run_id, config, float(times[-1]))
    means, stds = ckpt.norm_stats.from_z(means), stds * ckpt.norm_stats.std
    nll = gaussian_nll_points(dataset.obs.values[at], means, stds)
    return PredictiveScore(times=times, means=means, stds=stds, nll=nll)


def evaluate_nll(
    ckpt: ModelCheckpoint, dataset: PairedDataset, days: np.ndarray, config: SamplerConfig
) -> float:
    """Per-point mean NLL, in z units, of one-step forecasts of ``days`` on
    every run: training's validation score.

    Each day is forecast as :func:`predictive_nll` forecasts it:
    teacher-forced on the observed history, at the windows of ``config``,
    on the checkpoint's parameters cast to float32. So, with one run, this
    is that score's ``mean_nll`` on ``days`` less the log of the
    observational std. It logs no window warning; :func:`warn_about_windows`
    is its caller's to run.
    """
    total = 0.0
    for z in range(dataset.n_runs):
        means, stds, at = _one_step(ckpt, dataset, z, config, days)
        truth = ckpt.norm_stats.to_z(dataset.obs.values[at])
        total += float(np.sum(gaussian_nll_points(truth, means, stds)))
    return total / (dataset.n_runs * len(days))
