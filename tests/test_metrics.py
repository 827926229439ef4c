import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_bc.errors import ConfigError, DataError
from temporal_bc.metrics import (
    HeatwaveStats,
    heatwave_count,
    pacf,
    qq,
    relative_heatwave_error,
    score,
)
from temporal_bc.timeseries import TimeSeries

from reference import simulate_ar


def daily(values):
    values = np.asarray(values, dtype=float)
    return TimeSeries(np.arange(float(len(values))), values)


class TestHeatwaveCount:
    def test_single_run(self):
        stats = heatwave_count(daily([0, 5, 5, 5, 0]), 4.0)
        assert stats.count == 1
        assert stats.run_lengths == (3,)

    def test_short_runs_do_not_count(self):
        stats = heatwave_count(daily([5, 5, 0, 5, 5, 0]), 4.0)
        assert stats.count == 0
        assert stats.run_lengths == ()

    def test_strictly_above(self):
        stats = heatwave_count(daily([4.0, 4.0, 4.0, 4.0]), 4.0)
        assert stats.count == 0
        stats = heatwave_count(daily([4.001, 4.001, 4.001]), 4.0)
        assert stats.count == 1

    def test_runs_touching_the_edges(self):
        stats = heatwave_count(daily([9, 9, 9, 0, 9, 9, 9, 9]), 5.0)
        assert stats.count == 2
        assert stats.run_lengths == (3, 4)

    def test_whole_series_one_run(self):
        stats = heatwave_count(daily([7] * 10), 5.0)
        assert stats.run_lengths == (10,)

    def test_gap_in_grid_rejected(self):
        t = np.array([0.0, 1.0, 3.0, 4.0])
        series = TimeSeries(t, np.ones(4))
        with pytest.raises(DataError, match="daily"):
            heatwave_count(series, 0.0)

    def test_stats_validation(self):
        with pytest.raises(DataError):
            HeatwaveStats((2,))


class TestRelativeHeatwaveError:
    def test_values(self):
        assert relative_heatwave_error(8, 10) == pytest.approx(20.0)
        assert relative_heatwave_error(12, 10) == pytest.approx(20.0)
        assert relative_heatwave_error(10, 10) == 0.0
        # one count per trajectory: the mean of their errors
        assert relative_heatwave_error([8, 10, 13], 10) == pytest.approx(50.0 / 3)

    def test_zero_observed_rejected(self):
        assert relative_heatwave_error(5, 0) is None
        assert relative_heatwave_error([5, 0], 0) is None


class TestQq:
    def test_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        pairs = qq(x, x, n_quantiles=51)
        assert pairs.shape == (51, 3)
        assert np.array_equal(pairs[:, 0], np.linspace(0.0, 1.0, 51))
        assert np.array_equal(pairs[:, 1], pairs[:, 2])

    def test_constant_shift(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        pairs = qq(x, x + 2.0, n_quantiles=101)
        assert np.allclose(pairs[:, 2] - pairs[:, 1], 2.0, atol=1e-12)

    def test_endpoints_are_extremes(self):
        x = np.array([3.0, 1.0, 2.0])
        y = np.array([10.0, 30.0])
        pairs = qq(x, y, n_quantiles=3)
        assert list(pairs[:, 0]) == [0.0, 0.5, 1.0]
        assert pairs[0, 1] == 1.0 and pairs[-1, 1] == 3.0
        assert pairs[0, 2] == 10.0 and pairs[-1, 2] == 30.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            qq([1.0], [1.0], n_quantiles=1)
        with pytest.raises(DataError):
            qq([], [1.0], n_quantiles=101)


class TestPacf:
    def test_ar2_cuts_off_after_lag_two(self):
        x = simulate_ar([0.5, 0.3], 20_000, seed=4)
        phi = pacf(x, max_lag=6)
        assert phi[1] == pytest.approx(0.3, abs=0.05)
        assert np.all(np.abs(phi[2:]) < 0.05)

    def test_white_noise_is_flat(self):
        x = np.random.default_rng(5).normal(size=20_000)
        phi = pacf(x, max_lag=10)
        assert np.all(np.abs(phi) < 0.03)

    def test_lag_one_is_the_sample_autocorrelation(self):
        x = np.random.default_rng(6).normal(size=200).cumsum()
        c = x - x.mean()
        rho1 = float(np.dot(c[:-1], c[1:]) / np.dot(c, c))
        assert pacf(x, max_lag=3)[0] == pytest.approx(rho1, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DataError, match="exceed"):
            pacf(np.arange(10.0), max_lag=14)
        with pytest.raises(DataError, match="constant"):
            pacf(np.ones(50), max_lag=3)
        with pytest.raises(ConfigError):
            pacf(np.arange(50.0), max_lag=0)

    def test_bounded_by_one_on_smooth_series(self):
        x = np.sin(np.linspace(0, 20, 400)) + 0.1 * np.random.default_rng(7).normal(size=400)
        phi = pacf(x, max_lag=14)
        assert np.all(np.abs(phi) <= 1.0 + 1e-9)


class TestScore:
    def test_perfect_match_is_degenerate(self, caplog):
        x = np.arange(10.0)
        import logging

        with caplog.at_level(logging.WARNING):
            report = score(x, x)
        assert report.mse == 0.0
        # the variance is floored at 1e-12: loglik = -0.5 * log(2 pi 1e-12)
        assert report.loglik == pytest.approx(-0.5 * np.log(2 * np.pi * 1e-12), abs=1e-12)
        assert any("degenerate" in r.message for r in caplog.records)

    def test_per_point_std_path(self):
        o = np.array([0.0, 0.0])
        c = np.array([0.0, 1.0])
        sd = np.array([1.0, 2.0])
        report = score(c, o, predictive_std=sd)
        expected = np.mean(
            -0.5 * np.log(2 * np.pi) - np.log(sd) - (o - c) ** 2 / (2 * sd**2)
        )
        assert report.loglik == pytest.approx(expected, abs=1e-12)

    def test_std_validation(self):
        with pytest.raises(DataError, match="shape"):
            score(np.ones(3), np.zeros(3), predictive_std=np.ones(2))
        with pytest.raises(DataError, match="positive"):
            score(np.ones(2), np.zeros(2), predictive_std=np.array([1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            score(np.ones(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            score(np.ones(0), np.zeros(0))
        with pytest.raises(DataError, match="empty"):
            score(np.ones(0), np.zeros(0), predictive_std=np.ones(0))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40))
    @settings(max_examples=50)
    def test_mse_is_mean_squared_residual(self, values):
        o = np.asarray(values)
        c = np.zeros(len(o))
        report = score(c, o)
        assert report.mse == pytest.approx(float(np.mean(o**2)), rel=1e-12, abs=1e-12)
