"""Training-example construction: window slicing, pruning, point features.

Windows are drawn in index space over the aligned (observation, model-run)
daily grid: a left edge k, a right edge h between 60 and 360 steps later,
and a prediction index j splitting observed context from targets, all
1-based inclusive. Points are then dropped at random ("pruning") so the
model cannot lean on a copy-yesterday shortcut, and per-point features are
computed on whatever irregular grid survives. An example keeps its points
in its :class:`FeatureBlock` alone, model block first, then observed context
and targets: that block is the one record of each point's time and value,
and the block sizes beside it the one record of each point's series.

A point's four feature columns are its time and value and those of its
anchor n(i), the point it takes a local expansion around. The model
derives the expansion (offsets and slope) from them, see
:func:`temporal_bc.model.embed`. For observed points n(i) is the nearest
other point of the same series; for targets it is the latest earlier point
among observed context and preceding targets, never a later target and
never a model point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .timeseries import AlignedPair

_PRUNE_RETRIES = 100
# the prediction index lies at least this many steps inside each window edge
MARGIN = 5
# pruning keeps at least this many points of each block (all, if it has fewer)
MIN_KEEP = 5


@dataclass(frozen=True)
class BatchConfig:
    retain_p: float = 0.5
    window_min: int = 60
    window_max: int = 360
    ablate_gcm: bool = False

    def __post_init__(self):
        if not 0.0 < self.retain_p <= 1.0:
            raise ConfigError("retain_p must be in (0, 1], got %r" % self.retain_p)
        if self.window_min < 2 * MARGIN:
            raise ConfigError("window_min must be at least %d" % (2 * MARGIN))
        if self.window_max < self.window_min:
            raise ConfigError("window_max must be >= window_min")


@dataclass(frozen=True)
class WindowSpec:
    """1-based inclusive window [k, h] with prediction index j.

    Context runs over indices k..j, targets over j+1..h; the model block
    spans the full window k..h.
    """

    k: int
    h: int
    j: int


def draw_window(
    n: int, rng: np.random.Generator, window_min: int, window_max: int
) -> WindowSpec:
    """Uniform window and prediction-index draw over a length-n series.

    k ~ U{1..n-window_max}, h ~ U{k+window_min..k+window_max},
    j ~ U{k+MARGIN..h-MARGIN}.
    """
    if n <= window_max:
        raise DataError(
            "series too short for window drawing: n=%d needs > %d points"
            % (n, window_max)
        )
    k = int(rng.integers(1, n - window_max + 1))
    h = k + int(rng.integers(window_min, window_max + 1))
    j = int(rng.integers(k + MARGIN, h - MARGIN + 1))
    return WindowSpec(k=k, h=h, j=j)


def prune_indices(n: int, retain_p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the surviving points after independent thinning.

    Each index survives with probability retain_p; a draw keeping fewer than
    min(MIN_KEEP, n) points is redrawn (bounded, then the first points are
    kept deterministically).
    """
    floor_keep = min(MIN_KEEP, n)
    for _ in range(_PRUNE_RETRIES):
        keep = np.flatnonzero(rng.random(n) < retain_p)
        if len(keep) >= floor_keep:
            return keep
    return np.arange(floor_keep)


@dataclass(frozen=True)
class FeatureBlock:
    """Columnar per-point features in model input order (GCM, OBS, targets).

    Every array is length-N: t and value (the point itself; a target of
    unknown value has value 0), closest_value and closest_t (its anchor).
    Which block a row belongs to is the example's to say.
    """

    t: np.ndarray
    value: np.ndarray
    closest_value: np.ndarray
    closest_t: np.ndarray


@dataclass(frozen=True)
class TrainingExample:
    """One pruned window as its per-point features, which hold every point's
    time and value: the first ``n_gcm`` rows are the model block, the last
    ``n_tgt`` the targets and the rows between the observed context.

    ``window`` is the drawn window, None for inference-time examples (a
    single target of unknown value).
    """

    window: WindowSpec | None
    features: FeatureBlock
    n_gcm: int
    n_tgt: int

    @property
    def n_points(self) -> int:
        return len(self.features.t)


def _nearest_within(times: np.ndarray, values: np.ndarray):
    """Each point's anchor (value, time) inside one fully observed series:
    its closest other point.

    Ties between the left and right neighbour go to the earlier one. A
    singleton series anchors on itself.
    """
    m = len(times)
    if m < 2:
        return values.copy(), times.copy()
    gap = np.diff(times)
    take_left = np.r_[np.inf, gap] <= np.r_[gap, np.inf]
    neighbour = np.where(take_left, np.arange(m) - 1, np.arange(m) + 1)
    return values[neighbour], times[neighbour]


def _target_features(tgt_t, tgt_v, obs_t, obs_v):
    """The targets' values, then their anchors' values and times: each
    target's latest earlier available point.

    ``tgt_v`` None marks one target of unknown value (an inference example),
    which takes the value 0. Candidates are the observed context and
    strictly earlier targets (whose true values are teacher-forced during
    training); since all candidates lie before the target, the nearest is
    simply the immediately preceding one.
    """
    n = len(tgt_t)
    if len(obs_t) == 0:
        raise DataError("targets need at least one observed context point")
    if tgt_v is None and n > 1:
        raise DataError("multi-target examples require target values")
    vals = np.zeros(n) if tgt_v is None else tgt_v
    cv = np.empty(n)
    ct = np.empty(n)
    cv[0], ct[0] = obs_v[-1], obs_t[-1]
    if n > 1:
        cv[1:] = tgt_v[:-1]
        ct[1:] = tgt_t[:-1]
    return vals, cv, ct


def compute_features(gcm_t, gcm_v, obs_t, obs_v, tgt_t, tgt_v) -> FeatureBlock:
    """Per-point features over the model input order (GCM, OBS, targets);
    ``tgt_v`` is None for an inference example's one target."""
    gcm_t, gcm_v, obs_t, obs_v, tgt_t = (
        np.asarray(x, float) for x in (gcm_t, gcm_v, obs_t, obs_v, tgt_t)
    )
    tgt_v = None if tgt_v is None else np.asarray(tgt_v, float)
    # each block's columns in FeatureBlock's field order
    gcm = (gcm_t, gcm_v, *_nearest_within(gcm_t, gcm_v))
    obs = (obs_t, obs_v, *_nearest_within(obs_t, obs_v))
    tgt = (tgt_t, *_target_features(tgt_t, tgt_v, obs_t, obs_v))
    return FeatureBlock(*(np.concatenate([gcm[i], obs[i], tgt[i]]) for i in range(4)))


def _example_from_window(
    pair: AlignedPair, window: WindowSpec, rng, config: BatchConfig
) -> TrainingExample:
    ctx = slice(window.k - 1, window.j)
    tgt = slice(window.j, window.h)
    obs_t = pair.times[ctx]
    obs_v = pair.obs_values[ctx]
    tgt_t = pair.times[tgt]
    tgt_v = pair.obs_values[tgt]
    gcm_t = pair.times[window.k - 1 : window.h]
    gcm_v = pair.gcm_values[window.k - 1 : window.h]
    keep_obs = prune_indices(len(obs_t), config.retain_p, rng)
    keep_tgt = prune_indices(len(tgt_t), config.retain_p, rng)
    keep_gcm = prune_indices(len(gcm_t), config.retain_p, rng)
    tgt_v = tgt_v[keep_tgt]
    gcm_v = gcm_v[keep_gcm]
    if config.ablate_gcm:
        gcm_v = np.zeros_like(gcm_v)
    features = compute_features(
        gcm_t[keep_gcm], gcm_v, obs_t[keep_obs], obs_v[keep_obs], tgt_t[keep_tgt], tgt_v
    )
    return TrainingExample(window, features, len(keep_gcm), len(keep_tgt))


def make_batch(
    pairs: list[AlignedPair],
    batch_size: int,
    rng: np.random.Generator,
    config: BatchConfig,
) -> list[TrainingExample]:
    """Draw a batch of pruned window examples from ``pairs``, one aligned
    (observation, run) pair per run id.

    Per example the randomness is consumed in a fixed order: run choice,
    window (k, h, j), then pruning of observed context, targets and the
    model block.
    """
    if not pairs:
        raise DataError("no aligned run data to draw from")
    examples = []
    for _ in range(batch_size):
        pair = pairs[int(rng.integers(0, len(pairs)))]
        window = draw_window(len(pair), rng, config.window_min, config.window_max)
        examples.append(_example_from_window(pair, window, rng, config))
    return examples
