"""Core time-series containers, normalization and the artefact file formats.

Times are real-valued day indices on a daily grid, values are daily-maximum
temperatures in degrees Celsius (or z-scored units after
:meth:`NormStats.to_z`). Observational and climate-model series share the
immutable :class:`TimeSeries` container and are paired per location in
:class:`PairedDataset`, and :func:`common_grid` matches series on their
common days.

It also owns every file format the pipeline stages exchange: the OBS, GCM
and samples CSV files, the cells of every CSV table and the JSON layout.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# the two file layouts of load_csv
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

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(self.times))
        object.__setattr__(self, "values", _freeze(self.values))
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
        return TimeSeries(self.times[keep], self.values[keep])

    def non_daily_step(self) -> int | None:
        """Position of the first time whose step to the next is not one day,
        or None on a contiguous daily grid."""
        bad = np.abs(np.diff(self.times) - 1.0) > _DAY_TOL
        return int(np.argmax(bad)) if bad.any() else None


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
        mean, std = float(np.mean(series.values)), float(np.std(series.values))
        # np.std of equal values can round to a tiny positive number, and
        # values a few ulps apart give z-scores far from mean 0 and std 1
        if np.ptp(series.values) == 0 or std <= 1e-6 * abs(mean):
            raise DataError(
                "series is (nearly) constant: std %r is at most 1e-6 of |mean| %r; "
                "z-scoring undefined" % (std, abs(mean))
            )
        return cls(mean, std)

    def to_z(self, values):
        """z-scores of natural-unit values (array or float)."""
        return (values - self.mean) / self.std

    def from_z(self, z):
        """Natural-unit values of z-scores (array or float)."""
        return z * self.std + self.mean


@dataclass(frozen=True)
class PairedDataset:
    """One observational series plus the model runs covering the same site.

    ``runs`` is ordered by run id; all runs must share an identical time grid
    and overlap the observational record.
    """

    obs: TimeSeries
    runs: tuple[TimeSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        if not self.runs:
            raise DataError("dataset needs at least one model run")
        for z, run in enumerate(self.runs):
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

    def run(self, run_id: int) -> TimeSeries:
        """The model run ``run_id``; an id outside 0..n_runs-1 is a DataError."""
        if not 0 <= run_id < self.n_runs:
            raise DataError("run id %d out of range (0..%d)" % (run_id, self.n_runs - 1))
        return self.runs[run_id]


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


def common_grid(*series: TimeSeries) -> tuple[np.ndarray, ...]:
    """Times shared by every series, then each series' values on them.

    Times match exactly. Raises DataError when the series share no time.
    """
    times = series[0].times
    for other in series[1:]:
        times = np.intersect1d(times, other.times, assume_unique=True)
    if len(times) == 0:
        raise DataError("series share no time stamps")
    # each series' times are strictly increasing, so this finds exact matches
    return (times, *(s.values[np.searchsorted(s.times, times)] for s in series))


def align(dataset: PairedDataset, run_id: int) -> AlignedPair:
    """Intersect the observational grid with one run's grid (exact times)."""
    return AlignedPair(*common_grid(dataset.obs, dataset.run(run_id)))


def month_of(t: float, epoch: dt.date) -> int:
    """Calendar month (1..12) of day index ``t`` counted from ``epoch``."""
    try:
        moment = dt.datetime.combine(epoch, dt.time()) + dt.timedelta(days=float(t))
    except OverflowError:
        raise DataError(
            "day %r counted from epoch %s is outside the calendar" % (float(t), epoch)
        )
    return moment.month


def _fmt(x) -> str:
    """One CSV cell: a float as the shortest decimal string that round-trips
    the float64 exactly, an int as ``%d``, None as an empty cell and a string
    as it is."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    return "" if x is None else x


def is_text_cell(text: str) -> bool:
    """Whether :func:`write_csv` writes ``text`` as one cell that reads back
    as itself. Cells are written unquoted, so a text cell is not empty (an
    empty cell is None) and holds no comma, double quote or line break."""
    return text != "" and not any(char in text for char in ',"\r\n')


def write_csv(path, header, rows) -> None:
    """Write a header line, then one line per row of cells (see :func:`_fmt`
    and :func:`is_text_cell`)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(_fmt, row)) + "\n")


def write_json(path, payload) -> None:
    """Write a JSON artefact: one-space indent, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def read_json(path, error_cls):
    """Read a JSON file, raising ``error_cls`` naming ``path`` when it cannot
    be opened, does not hold JSON text, or repeats a key within one object
    (which the parser would otherwise resolve silently to the last value).
    Arrays or objects nested too deeply for the parser's recursion count as
    not JSON."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error_cls("%s repeats the key %r in one object" % (path, key))
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise error_cls("cannot open %s: %s" % (path, exc))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error_cls("%s is not valid JSON: %s" % (path, exc))


def _parse_float(raw: str, path, line_no: int, column: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise DataError("%s:%d: bad %s value %r" % (path, line_no, column, raw))
    if not math.isfinite(val):
        raise DataError("%s:%d: non-finite %s value %r" % (path, line_no, column, raw))
    return val


def _parse_id(raw: str, path, line_no: int, column: str) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise DataError("%s:%d: bad %s id %r" % (path, line_no, column, raw))
    if val < 0:
        raise DataError("%s:%d: %s id must be nonnegative" % (path, line_no, column))
    return val


def _read_series(path, header: list[str]) -> dict:
    """Read a CSV file with exactly the columns ``header`` into series.

    ``t`` and ``value`` are finite floats and every other column is a
    non-negative integer id. Rows are grouped by their id tuple, in order of
    first appearance, into a :class:`TimeSeries` each; an OBS file has the
    single key ``()``. Every error names the file, and the line where there
    is one.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError("cannot open %s: %s" % (path, exc))
    t_col, v_col = header.index("t"), header.index("value")
    id_cols = [(i, name) for i, name in enumerate(header) if name not in ("t", "value")]
    n_cols = len(header)
    groups: dict[tuple, tuple[list, list]] = {}
    with handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
            if found is None:
                raise DataError("%s: empty file, expected header %s" % (path, header))
            if [h.strip() for h in found] != header:
                raise DataError(
                    "%s:1: expected header %s, got %s" % (path, ",".join(header), found)
                )
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n_cols:
                    raise DataError("%s:%d: expected %d columns" % (path, line_no, n_cols))
                key = tuple([_parse_id(row[i], path, line_no, name) for i, name in id_cols])
                group = groups.get(key)
                if group is None:
                    group = groups[key] = ([], [])
                group[0].append(_parse_float(row[t_col], path, line_no, "t"))
                group[1].append(_parse_float(row[v_col], path, line_no, "value"))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError("%s: not readable as CSV text: %s" % (path, exc))
    if not groups:
        raise DataError("%s: no data rows" % path)
    out = {}
    for key, (times, values) in groups.items():
        where = "".join(": %s %d" % (name, k) for (_, name), k in zip(id_cols, key))
        try:
            out[key] = TimeSeries(np.array(times), np.array(values))
        except DataError as exc:
            raise DataError("%s%s: %s" % (path, where, exc))
    return out


def _check_daily(series: TimeSeries, path, what: str) -> None:
    i = series.non_daily_step()
    if i is not None:
        t = series.times
        raise DataError(
            "%s: %s has a non-daily step of %r days after t=%r "
            "(missing days are rejected, not imputed)"
            % (path, what, float(t[i + 1] - t[i]), float(t[i]))
        )


def load_csv(path, kind: str):
    """Read an OBS file (``t,value``) or a GCM file (``t,run,value``), as
    ``kind`` names it.

    Returns a :class:`TimeSeries` for OBS input, or a list of per-run
    :class:`TimeSeries` (run ids must be exactly 0..R-1) for GCM input.
    Each series must sit on a contiguous daily grid.
    """
    if kind == OBS:
        series = _read_series(path, ["t", "value"])[()]
        _check_daily(series, path, "observation series")
        return series
    if kind != GCM:
        raise DataError("file kind must be %s or %s" % (OBS, GCM))
    by_run = _read_series(path, ["t", "run", "value"])
    if sorted(by_run) != [(z,) for z in range(len(by_run))]:
        raise DataError(
            "%s: run ids must be dense 0..R-1, got %s"
            % (path, sorted(z for (z,) in by_run))
        )
    runs = [by_run[(z,)] for z in range(len(by_run))]
    for z, series in enumerate(runs):
        _check_daily(series, path, "run %d" % z)
    return runs


def load_paired(obs_path, gcm_path) -> PairedDataset:
    """Assemble a :class:`PairedDataset` from an OBS and a GCM csv file."""
    obs = load_csv(obs_path, OBS)
    runs = load_csv(gcm_path, GCM)
    return PairedDataset(obs, tuple(runs))


def load_samples_csv(path) -> dict[int, dict[int, TimeSeries]]:
    """Read a samples file (``run,trajectory,t,value``) as
    ``{run: {trajectory: series}}``, both in order of first appearance."""
    by_key = _read_series(path, ["run", "trajectory", "t", "value"])
    out: dict[int, dict[int, TimeSeries]] = {}
    for (run, traj), series in by_key.items():
        _check_daily(series, path, "run %d trajectory %d" % (run, traj))
        out.setdefault(run, {})[traj] = series
    return out


def write_obs_csv(series: TimeSeries, path) -> None:
    write_csv(path, ("t", "value"), zip(series.times.tolist(), series.values.tolist()))


def write_gcm_csv(runs, path) -> None:
    write_csv(
        path,
        ("t", "run", "value"),
        (
            (t, run_id, v)
            for run_id, series in enumerate(runs)
            for t, v in zip(series.times.tolist(), series.values.tolist())
        ),
    )


def write_samples_csv(samples: dict[int, list[TimeSeries]], path) -> None:
    """Write ``{run: [trajectory series]}`` as a samples file, runs in order."""
    write_csv(
        path,
        ("run", "trajectory", "t", "value"),
        (
            (run_id, traj_id, t, v)
            for run_id in sorted(samples)
            for traj_id, series in enumerate(samples[run_id])
            for t, v in zip(series.times.tolist(), series.values.tolist())
        ),
    )
