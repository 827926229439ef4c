"""Core time-series containers, CSV ingestion and normalization.

Times are real-valued day indices on a daily grid, values are daily-maximum
temperatures in degrees Celsius (or z-scored units after :func:`normalize`).
Observational and climate-model series share the immutable
:class:`TimeSeries` container and are paired per location in
:class:`PairedDataset`, and :func:`align` matches an observation series
with one model run on their common days.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import DataError

OBS = "OBS"
GCM = "GCM"

_DAY_TOL = 1e-9


def _freeze(raw) -> np.ndarray:
    arr = np.array(raw, dtype=np.float64, copy=True, ndmin=1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (time, value) sequence for one variable at one location.

    Arrays are copied on construction and marked read-only; times must be
    strictly increasing and everything must be finite.
    """

    times: np.ndarray
    values: np.ndarray
    source_tag: str = OBS

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(self.times))
        object.__setattr__(self, "values", _freeze(self.values))
        if self.source_tag not in (OBS, GCM):
            raise DataError("unknown source_tag %r" % (self.source_tag,))
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise DataError("times and values must be one-dimensional")
        if len(self.times) != len(self.values):
            raise DataError(
                "length mismatch: %d times vs %d values"
                % (len(self.times), len(self.values))
            )
        if len(self.times) and not np.all(np.isfinite(self.times)):
            raise DataError("non-finite time stamp")
        if len(self.values) and not np.all(np.isfinite(self.values)):
            raise DataError("non-finite value")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise DataError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def window(self, t_start: float, t_end: float) -> "TimeSeries":
        """Sub-series with t_start <= t <= t_end (inclusive both ends)."""
        keep = (self.times >= t_start) & (self.times <= t_end)
        return TimeSeries(self.times[keep], self.values[keep], self.source_tag)

    def is_daily(self, tol: float = _DAY_TOL) -> bool:
        """True when consecutive times differ by exactly one day."""
        if len(self) < 2:
            return True
        return bool(np.all(np.abs(np.diff(self.times) - 1.0) <= tol))


@dataclass(frozen=True)
class NormStats:
    """z-score statistics; persisted with every model checkpoint."""

    mean: float
    std: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise DataError("normalization stats must be finite")
        if self.std <= 0:
            raise DataError("normalization std must be positive, got %r" % self.std)

    @classmethod
    def from_series(cls, series: TimeSeries) -> "NormStats":
        if len(series) == 0:
            raise DataError("cannot compute normalization stats of empty series")
        std = float(np.std(series.values))
        if std <= 0:
            raise DataError("series is constant; z-scoring undefined")
        return cls(float(np.mean(series.values)), std)


def normalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    return TimeSeries(
        series.times, (series.values - stats.mean) / stats.std, series.source_tag
    )


def denormalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    return TimeSeries(
        series.times, series.values * stats.std + stats.mean, series.source_tag
    )


@dataclass(frozen=True)
class PairedDataset:
    """One observational series plus the model runs covering the same site.

    ``runs`` is ordered by run id; all runs must share an identical time grid
    and overlap the observational record.
    """

    obs: TimeSeries
    runs: tuple[TimeSeries, ...]
    location_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        if self.obs.source_tag != OBS:
            raise DataError("obs series must be tagged %s" % OBS)
        if not self.runs:
            raise DataError("dataset needs at least one model run")
        for z, run in enumerate(self.runs):
            if run.source_tag != GCM:
                raise DataError("run %d must be tagged %s" % (z, GCM))
            if not np.array_equal(run.times, self.runs[0].times):
                raise DataError("run %d is on a different time grid than run 0" % z)
        if (
            self.runs[0].times[0] > self.obs.times[-1]
            or self.runs[0].times[-1] < self.obs.times[0]
        ):
            raise DataError("model runs do not overlap the observational record")

    @property
    def n_runs(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class AlignedPair:
    """Observation and one model run matched on their common time grid."""

    times: np.ndarray
    obs_values: np.ndarray
    gcm_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(self.times))
        object.__setattr__(self, "obs_values", _freeze(self.obs_values))
        object.__setattr__(self, "gcm_values", _freeze(self.gcm_values))
        if not len(self.times) == len(self.obs_values) == len(self.gcm_values):
            raise DataError("aligned arrays must have equal length")

    def __len__(self) -> int:
        return len(self.times)

    def sliced(self, start: int, stop: int) -> "AlignedPair":
        return AlignedPair(
            self.times[start:stop],
            self.obs_values[start:stop],
            self.gcm_values[start:stop],
        )


def align(dataset: PairedDataset, run_id: int) -> AlignedPair:
    """Intersect the observational grid with one run's grid (exact times)."""
    if not 0 <= run_id < dataset.n_runs:
        raise DataError("run id %d out of range (0..%d)" % (run_id, dataset.n_runs - 1))
    run = dataset.runs[run_id]
    common, idx_obs, idx_gcm = np.intersect1d(
        dataset.obs.times, run.times, return_indices=True
    )
    if len(common) == 0:
        raise DataError("observation and run %d share no time stamps" % run_id)
    return AlignedPair(common, dataset.obs.values[idx_obs], run.values[idx_gcm])


def month_of(t: float, epoch: dt.date) -> int:
    """Calendar month (1..12) of day index ``t`` counted from ``epoch``."""
    moment = dt.datetime.combine(epoch, dt.time()) + dt.timedelta(days=float(t))
    return moment.month


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def _parse_float(raw: str, path, line_no: int, column: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise DataError("%s:%d: bad %s value %r" % (path, line_no, column, raw))
    if not np.isfinite(val):
        raise DataError("%s:%d: non-finite %s value %r" % (path, line_no, column, raw))
    return val


def _check_daily(times: np.ndarray, path, what: str) -> None:
    if len(times) > 1:
        gaps = np.diff(times)
        bad = np.abs(gaps - 1.0) > _DAY_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DataError(
                "%s: %s has a non-daily step of %r days after t=%r "
                "(missing days are rejected, not imputed)"
                % (path, what, float(gaps[i]), float(times[i]))
            )


def load_csv(path, source_tag: str):
    """Read an OBS file (``t,value``) or a GCM file (``t,run,value``).

    Returns a :class:`TimeSeries` for OBS input, or a list of per-run
    :class:`TimeSeries` (run ids must be exactly 0..R-1) for GCM input.
    Each series must sit on a contiguous daily grid.
    """
    if source_tag not in (OBS, GCM):
        raise DataError("source_tag must be %s or %s" % (OBS, GCM))
    expected = ["t", "value"] if source_tag == OBS else ["t", "run", "value"]
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError("cannot open %s: %s" % (path, exc))
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("%s: empty file, expected header %s" % (path, expected))
        if [h.strip() for h in header] != expected:
            raise DataError(
                "%s:1: expected header %s, got %s" % (path, ",".join(expected), header)
            )
        if source_tag == OBS:
            times, values = [], []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise DataError("%s:%d: expected 2 columns" % (path, line_no))
                times.append(_parse_float(row[0], path, line_no, "t"))
                values.append(_parse_float(row[1], path, line_no, "value"))
            if not times:
                raise DataError("%s: no data rows" % path)
            try:
                series = TimeSeries(np.array(times), np.array(values), OBS)
            except DataError as exc:
                raise DataError("%s: %s" % (path, exc))
            _check_daily(series.times, path, "observation series")
            return series
        by_run: dict[int, list[tuple[float, float]]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError("%s:%d: expected 3 columns" % (path, line_no))
            t = _parse_float(row[0], path, line_no, "t")
            try:
                run = int(row[1])
            except ValueError:
                raise DataError("%s:%d: bad run id %r" % (path, line_no, row[1]))
            if run < 0:
                raise DataError("%s:%d: run id must be nonnegative" % (path, line_no))
            v = _parse_float(row[2], path, line_no, "value")
            by_run.setdefault(run, []).append((t, v))
        if not by_run:
            raise DataError("%s: no data rows" % path)
        if sorted(by_run) != list(range(len(by_run))):
            raise DataError(
                "%s: run ids must be dense 0..R-1, got %s" % (path, sorted(by_run))
            )
        runs = []
        for run in range(len(by_run)):
            pairs = by_run[run]
            try:
                series = TimeSeries(
                    np.array([p[0] for p in pairs]),
                    np.array([p[1] for p in pairs]),
                    GCM,
                )
            except DataError as exc:
                raise DataError("%s: run %d: %s" % (path, run, exc))
            _check_daily(series.times, path, "run %d" % run)
            runs.append(series)
        return runs


def load_paired(obs_path, gcm_path, location_id: str = "") -> PairedDataset:
    """Assemble a :class:`PairedDataset` from an OBS and a GCM csv file."""
    obs = load_csv(obs_path, OBS)
    runs = load_csv(gcm_path, GCM)
    return PairedDataset(obs, tuple(runs), location_id)


def write_obs_csv(series: TimeSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("t,value\n")
        for t, v in zip(series.times, series.values):
            handle.write("%s,%s\n" % (_fmt(t), _fmt(v)))


def write_gcm_csv(runs, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("t,run,value\n")
        for run_id, series in enumerate(runs):
            for t, v in zip(series.times, series.values):
                handle.write("%s,%d,%s\n" % (_fmt(t), run_id, _fmt(v)))
