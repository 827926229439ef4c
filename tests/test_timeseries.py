import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from temporal_bc.errors import ConfigError, DataError
from temporal_bc.timeseries import (
    GCM,
    OBS,
    NormStats,
    PairedDataset,
    TimeSeries,
    align,
    load_csv,
    load_paired,
    load_samples_csv,
    month_of,
    read_json,
    write_csv,
    write_gcm_csv,
    write_obs_csv,
    write_samples_csv,
)


def series(values, start=0.0):
    values = np.asarray(values, dtype=float)
    return TimeSeries(start + np.arange(len(values)), values)


class TestTimeSeries:
    def test_basic_construction(self):
        ts = series([1.0, 2.0, 3.0])
        assert len(ts) == 3
        assert ts.non_daily_step() is None

    def test_arrays_are_read_only(self):
        ts = series([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_rejects_unsorted_times(self):
        with pytest.raises(DataError, match="increasing"):
            TimeSeries(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DataError, match="increasing"):
            TimeSeries(np.array([2.0, 1.0]), np.array([0.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            TimeSeries(np.array([0.0, 1.0]), np.array([0.0, np.nan]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            TimeSeries(np.array([0.0, 1.0]), np.array([0.0]))

    def test_window(self):
        ts = series([10.0, 11.0, 12.0, 13.0])
        w = ts.window(1.0, 2.0)
        assert list(w.times) == [1.0, 2.0]
        assert list(w.values) == [11.0, 12.0]


class TestNormalization:
    def test_identity_stats(self):
        ts = series([1.0, 2.0, 3.0])
        out = NormStats(0.0, 1.0).to_z(ts.values)
        assert np.array_equal(out, ts.values)

    def test_round_trip(self):
        ts = series([14.2, 18.9, 23.4, 7.7])
        stats = NormStats.from_series(ts)
        back = stats.from_z(stats.to_z(ts.values))
        assert np.allclose(back, ts.values, atol=1e-12)
        # scalars take the same expressions as arrays
        assert stats.from_z(stats.to_z(ts.values[1])) == back[1]

    @given(
        st.lists(
            st.floats(min_value=-80.0, max_value=80.0),
            min_size=2,
            max_size=40,
        )
    )
    def test_round_trip_property(self, values):
        ts = series(values)
        mean, std = float(np.mean(ts.values)), float(np.std(ts.values))
        if np.ptp(ts.values) == 0 or std <= 1e-6 * abs(mean):
            return  # (nearly) constant: rejected, see test_zero_variance_rejected
        stats = NormStats.from_series(ts)
        back = stats.from_z(stats.to_z(ts.values))
        assert np.allclose(back, ts.values, atol=1e-12)
        normed = stats.to_z(ts.values)
        assert abs(float(np.mean(normed))) < 1e-9
        assert float(np.std(normed)) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="constant"):
            NormStats.from_series(series([5.0, 5.0, 5.0]))
        # equal values whose computed std rounds to 3.6e-15, not 0
        with pytest.raises(DataError, match="constant"):
            NormStats.from_series(series([22.225760508338645] * 3))
        # values one ulp apart: std 2.05e-15, z-scores [0, 0, 1.732]
        with pytest.raises(DataError, match="constant"):
            NormStats.from_series(series([22.2, 22.2, np.nextafter(22.2, 30.0)]))

    def test_nonpositive_std_rejected(self):
        with pytest.raises(DataError, match="positive"):
            NormStats(0.0, 0.0)


class TestPairedDataset:
    def test_runs_must_share_grid(self):
        obs = series([1.0] * 4 + [2.0])
        r0 = series([0.0] * 5)
        r1 = series([0.0] * 5, start=1.0)
        with pytest.raises(DataError, match="grid"):
            PairedDataset(obs, (r0, r1))

    def test_needs_overlap(self):
        obs = series([1.0, 2.0])
        run = series([0.0, 0.0], start=100.0)
        with pytest.raises(DataError, match="overlap"):
            PairedDataset(obs, (run,))

    def test_align_intersects_exactly(self):
        obs = series(np.arange(10.0))
        run = series(np.arange(8.0) + 100.0, start=5.0)
        ds = PairedDataset(obs, (run,))
        pair = align(ds, 0)
        assert list(pair.times) == [5.0, 6.0, 7.0, 8.0, 9.0]
        assert list(pair.obs_values) == [5.0, 6.0, 7.0, 8.0, 9.0]
        assert list(pair.gcm_values) == [100.0, 101.0, 102.0, 103.0, 104.0]

    def test_align_bad_run_id(self):
        obs = series([1.0, 2.0])
        ds = PairedDataset(obs, (series([0.0, 0.0]),))
        with pytest.raises(DataError, match="range"):
            align(ds, 3)


class TestMonthOf:
    def test_epoch_start(self):
        epoch = dt.date(1948, 1, 1)
        assert month_of(0.0, epoch) == 1
        assert month_of(30.0, epoch) == 1
        assert month_of(31.0, epoch) == 2
        # 1948 is a leap year: Jan 31 + Feb 29 = day index 60 is March 1
        assert month_of(59.0, epoch) == 2
        assert month_of(60.0, epoch) == 3

    def test_fractional_day(self):
        epoch = dt.date(2000, 1, 1)
        assert month_of(30.9, epoch) == 1
        assert month_of(31.0, epoch) == 2


class TestCsv:
    def test_obs_round_trip(self, tmp_path):
        ts = series([20.5, 21.25, 19.0])
        path = tmp_path / "obs.csv"
        write_obs_csv(ts, path)
        back = load_csv(path, OBS)
        assert np.array_equal(back.times, ts.times)
        assert np.array_equal(back.values, ts.values)

    def test_gcm_round_trip(self, tmp_path):
        runs = [series([1.0, 2.0]), series([3.0, 4.0])]
        path = tmp_path / "gcm.csv"
        write_gcm_csv(runs, path)
        back = load_csv(path, GCM)
        assert len(back) == 2
        assert np.array_equal(back[1].values, [3.0, 4.0])

    def test_missing_day_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,value\n0.0,1.0\n1.0,1.5\n3.0,2.0\n")
        with pytest.raises(DataError, match="non-daily"):
            load_csv(path, OBS)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,val\n0.0,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path, OBS)

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,value\n0.0,1.0\n1.0,oops\n")
        with pytest.raises(DataError, match=r":3"):
            load_csv(path, OBS)

    def test_nan_value_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,value\n0.0,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, OBS)

    def test_sparse_run_ids_rejected(self, tmp_path):
        path = tmp_path / "gcm.csv"
        path.write_text("t,run,value\n0.0,0,1.0\n0.0,2,1.0\n")
        with pytest.raises(DataError, match="dense"):
            load_csv(path, GCM)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", OBS)

    def test_load_paired(self, tmp_path):
        write_obs_csv(series([1.0, 2.0, 3.0]), tmp_path / "obs.csv")
        write_gcm_csv([series([4.0, 5.0, 6.0])], tmp_path / "gcm.csv")
        ds = load_paired(tmp_path / "obs.csv", tmp_path / "gcm.csv")
        assert ds.n_runs == 1

    def test_float_round_trip_is_exact(self, tmp_path):
        vals = np.array([0.1 + 0.2, 1.0 / 3.0, np.pi])
        ts = TimeSeries(np.arange(3.0), vals)
        write_obs_csv(ts, tmp_path / "o.csv")
        back = load_csv(tmp_path / "o.csv", OBS)
        assert np.array_equal(back.values, vals)
        samples = {1: [ts, TimeSeries(np.arange(3.0) + 0.5, -vals)], 0: [ts]}
        write_samples_csv(samples, tmp_path / "s.csv")
        back = load_samples_csv(tmp_path / "s.csv")
        assert list(back) == [0, 1] and list(back[1]) == [0, 1]
        assert np.array_equal(back[1][1].times, np.arange(3.0) + 0.5)
        assert np.array_equal(back[1][1].values, -vals)
        assert np.array_equal(back[0][0].values, vals)
        rows = [(None, 7, vals[0]), ("x", np.int64(2), None)]
        write_csv(tmp_path / "c.csv", ("a", "b", "c"), rows)
        expected = "a,b,c\n,7,%r\nx,2,\n" % float(vals[0])
        assert (tmp_path / "c.csv").read_text() == expected


class TestReadJson:
    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot open"),
            (b"not json {", "not valid JSON"),
            (b"\xff{}", "not valid JSON"),
            (b"[" * 100_000, "not valid JSON"),  # deeper than the parser recurses
            (b'{"train": {"steps": 3}, "train": {"steps": 5}}', "repeats the key 'train'"),
            (b'{"sampler": {"horizon": 2, "horizon": 9}}', "repeats the key 'horizon'"),
        ],
        ids=["missing", "not-json", "not-utf8", "too-deep", "repeated-section",
             "repeated-field"],
    )
    def test_read_failures_raise_the_given_error(self, tmp_path, content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            read_json(path, ConfigError)
