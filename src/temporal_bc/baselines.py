"""Classical bias-correction baselines, applied per calendar month.

All four methods learn a monthly mapping on a reference period where the
observation and the model run overlap, then apply it to a projection stretch
of the same run:

- mean: shift each month by the reference mean difference (equivalently, the
  closed-form intercept of a slope-one regression from model to observation).
- meanvar: centre on the model's monthly mean, rescale by the ratio of
  monthly standard deviations, recentre on the observed monthly mean.
- eqm: empirical quantile mapping; each projected value maps to the sorted
  reference-observation value at the position of the first sorted
  reference-model value >= it, clamped at both ends.
- ecbc: eqm followed by a rank shuffle so the corrected month's rank order
  equals the observed reference month's rank order (ties broken by time).

Monthly grouping uses day indices against a caller-supplied epoch date;
``monthly=False`` treats the whole series as a single group.
"""

from __future__ import annotations

import datetime as dt
import logging

import numpy as np

from .errors import ConfigError, DataError
from .timeseries import TimeSeries, month_of

logger = logging.getLogger(__name__)


def _groups(times: np.ndarray, epoch: dt.date, monthly: bool) -> dict[int, np.ndarray]:
    """Month -> index array (whole series under key 0 when not monthly)."""
    if not monthly:
        return {0: np.arange(len(times))}
    keys = np.array([month_of(t, epoch) for t in times])
    return {int(m): np.flatnonzero(keys == m) for m in np.unique(keys)}


# Each mapping takes one month's reference observations, reference model
# values and projection values and returns the corrected projection values.


def _mean(month, obs_ref, gcm_ref, proj):
    return proj + float(np.mean(obs_ref) - np.mean(gcm_ref))


def _meanvar(month, obs_ref, gcm_ref, proj):
    std_g = float(np.std(gcm_ref))
    if std_g == 0.0:
        raise DataError("reference model month %d has zero variance" % month)
    scale = float(np.std(obs_ref)) / std_g
    return (proj - float(np.mean(gcm_ref))) * scale + float(np.mean(obs_ref))


def _eqm(month, obs_ref, gcm_ref, proj):
    sorted_obs = np.sort(obs_ref)
    sorted_gcm = np.sort(gcm_ref)
    idx = np.searchsorted(sorted_gcm, proj, side="left")
    idx = np.minimum(idx, len(sorted_gcm) - 1)
    idx = np.minimum(idx, len(sorted_obs) - 1)
    return sorted_obs[idx]


def _ecbc(month, obs_ref, gcm_ref, proj):
    """The eqm values put in the observed month's rank order (ties broken by
    time). A month whose day count differs from the observed month's is
    trimmed to the shorter count from the tail, with a logged warning."""
    n = min(len(obs_ref), len(proj))
    if len(obs_ref) != len(proj):
        logger.warning(
            "month %d: %d observed reference days vs %d projection days; "
            "trimming to %d",
            month,
            len(obs_ref),
            len(proj),
            n,
        )
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(obs_ref[:n], kind="stable")] = np.arange(n)
    return np.sort(_eqm(month, obs_ref, gcm_ref, proj)[:n])[ranks]


_MAPPINGS = {"mean": _mean, "meanvar": _meanvar, "eqm": _eqm, "ecbc": _ecbc}
METHODS = tuple(_MAPPINGS)


def correct(
    method: str,
    obs_ref: TimeSeries,
    gcm_ref: TimeSeries,
    gcm_proj: TimeSeries,
    epoch: dt.date,
    monthly: bool = True,
) -> TimeSeries:
    """Correct ``gcm_proj`` by one of :data:`METHODS`, learnt per month from
    the reference pair; see the module docstring for the catalogue.

    Every projection month needs reference data from both series. ``ecbc``
    may omit trailing days of a month (see :func:`_ecbc`).
    """
    if method not in _MAPPINGS:
        raise ConfigError("unknown baseline %r (choose from %s)" % (method, METHODS))
    for name, series in (("obs_ref", obs_ref), ("gcm_ref", gcm_ref), ("gcm_proj", gcm_proj)):
        if len(series) == 0:
            raise DataError("%s is empty" % name)
    og = _groups(obs_ref.times, epoch, monthly)
    gg = _groups(gcm_ref.times, epoch, monthly)
    pg = _groups(gcm_proj.times, epoch, monthly)
    for m in pg:
        if m not in og or m not in gg:
            raise DataError(
                "projection month %d has no reference data "
                "(observed: %s, model: %s)" % (m, m in og, m in gg)
            )
    mapping = _MAPPINGS[method]
    out = np.empty(len(gcm_proj))
    keep = np.zeros(len(gcm_proj), dtype=bool)
    for m, idx in pg.items():
        values = mapping(
            m, obs_ref.values[og[m]], gcm_ref.values[gg[m]], gcm_proj.values[idx]
        )
        out[idx[: len(values)]] = values
        keep[idx[: len(values)]] = True
    return TimeSeries(gcm_proj.times[keep], out[keep])
