import numpy as np
import pytest

from temporal_bc.errors import ConfigError, NumericError
from temporal_bc.gp import (
    PERIODIC,
    RATIONAL_QUADRATIC,
    Kernel,
    _cholesky_with_jitter,
    gram,
    make_run_ensemble,
    make_shifted_pair,
    rbf,
    sample_gp,
)
from temporal_bc.rng import substream


class TestKernels:
    def test_rbf_values(self):
        k = rbf(2.0)
        g = gram(k, np.array([0.0, 1.0, 3.0]))
        assert g[0, 0] == pytest.approx(1.0)
        assert g[0, 1] == pytest.approx(np.exp(-1.0 / 8.0))
        assert g[0, 2] == pytest.approx(np.exp(-9.0 / 8.0))
        assert np.allclose(g, g.T)

    def test_periodic_wraps_at_the_period(self):
        # sin(pi r / p) vanishes at multiples of the period, so correlation
        # returns to 1 there and only there
        k = Kernel(PERIODIC, lengthscale=0.7, period=2.5)
        g = gram(k, np.array([0.0, 2.5, 5.0, 0.25, 1.0]))
        assert g[0, 1] == pytest.approx(1.0)
        assert g[0, 2] == pytest.approx(1.0)
        expected = np.exp(-2.0 * np.sin(np.pi * 0.25 / 2.5) ** 2 / 0.7**2)
        assert g[0, 3] == pytest.approx(expected)
        assert g[0, 4] < 0.5

    def test_periodic_period_stretches_the_lag(self):
        ga = gram(Kernel(PERIODIC, lengthscale=1.0, period=1.0), np.array([0.0, 0.3]))
        gb = gram(Kernel(PERIODIC, lengthscale=1.0, period=2.0), np.array([0.0, 0.6]))
        assert ga[0, 1] == pytest.approx(np.exp(-2.0 * np.sin(np.pi * 0.3) ** 2))
        assert gb[0, 1] == pytest.approx(ga[0, 1])

    def test_rational_quadratic_values(self):
        k = Kernel(RATIONAL_QUADRATIC, lengthscale=1.5, alpha=2.0)
        g = gram(k, np.array([0.0, 2.0]))
        expected = (1.0 + 4.0 / (2.0 * 2.0 * 1.5**2)) ** -2.0
        assert g[0, 1] == pytest.approx(expected)

    def test_rq_approaches_rbf_for_large_alpha(self):
        t = np.array([0.0, 0.5, 1.7])
        g_rq = gram(Kernel(RATIONAL_QUADRATIC, lengthscale=1.0, alpha=1e7), t)
        g_rbf = gram(rbf(1.0), t)
        assert np.allclose(g_rq, g_rbf, atol=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            rbf(0.0)
        with pytest.raises(ConfigError):
            rbf(-1.0)
        with pytest.raises(ConfigError):
            Kernel(RATIONAL_QUADRATIC, lengthscale=1.0, alpha=0.0)
        with pytest.raises(ConfigError):
            Kernel(PERIODIC, lengthscale=1.0, period=-2.0)


class TestSampleGp:
    def test_deterministic(self):
        t = np.arange(50.0)
        a = sample_gp(rbf(5.0), t, substream(7, "gp"))
        b = sample_gp(rbf(5.0), t, substream(7, "gp"))
        c = sample_gp(rbf(5.0), t, substream(8, "gp"))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_monte_carlo_covariance(self):
        # empirical covariance of many draws must converge on the Gram matrix
        t = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
        k = rbf(2.0)
        n = 4000
        draws = np.stack([sample_gp(k, t, substream(s, "gp")) for s in range(n)], axis=0)
        emp = draws.T @ draws / n
        g = gram(k, t)
        # covariance estimates have sampling error O(1/sqrt(n)) ~ 0.016
        assert np.max(np.abs(emp - g)) < 0.12
        assert np.abs(draws.mean(axis=0)).max() < 0.1

    def test_marginals_standard_normal(self):
        t = np.arange(0.0, 30.0, 3.0)
        draws = np.stack([sample_gp(rbf(1.0), t, substream(s, "gp")) for s in range(2000)])
        assert np.allclose(draws.var(axis=0), 1.0, atol=0.15)

    def test_short_lengthscale_decorrelates(self):
        t = np.array([0.0, 100.0])
        draws = np.stack([sample_gp(rbf(0.5), t, substream(s, "gp")) for s in range(2000)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.1

    def test_long_lengthscale_is_smooth(self):
        t = np.arange(100.0)
        draw = sample_gp(rbf(30.0), t, substream(4, "gp"))
        assert np.max(np.abs(np.diff(draw))) < 0.5


class TestShiftedPair:
    def test_shapes_and_grid(self):
        t = np.arange(100.0)
        pair = make_shifted_pair(
            rbf(8.0), t, mean_bias=2.0, time_shift=1.0, noise_std=0.1, seed=3
        )
        assert len(pair.obs) == 100
        assert len(pair.gcm) == 100
        assert np.array_equal(pair.obs.times, t)
        assert np.array_equal(pair.gcm.times, t)

    def test_zero_noise_zero_shift_recovers_bias_exactly(self):
        pair = make_shifted_pair(
            rbf(5.0), np.arange(60.0), mean_bias=3.5, seed=11
        )
        assert np.allclose(pair.obs.values - pair.gcm.values, 3.5, atol=1e-12)

    def test_integer_shift_is_exact_lag(self):
        # obs(t) = latent(t + shift), so obs leads the model series
        pair = make_shifted_pair(
            rbf(6.0), np.arange(80.0), time_shift=2.0, seed=5
        )
        assert np.allclose(pair.obs.values[:-2], pair.gcm.values[2:], atol=1e-12)

    def test_fractional_shift_reads_latent_at_shifted_times(self):
        pair = make_shifted_pair(
            rbf(5.0), np.arange(40.0), time_shift=0.9, seed=2
        )
        idx = np.searchsorted(pair.latent_times, pair.obs.times + 0.9)
        assert np.allclose(pair.obs.values, pair.latent_values[idx], atol=1e-12)
        idx0 = np.searchsorted(pair.latent_times, pair.gcm.times)
        assert np.allclose(pair.gcm.values, pair.latent_values[idx0], atol=1e-12)

    def test_noise_is_independent_between_series(self):
        t = np.arange(300.0)
        quiet = make_shifted_pair(rbf(5.0), t, noise_std=0.0, seed=9)
        noisy = make_shifted_pair(rbf(5.0), t, noise_std=0.5, seed=9)
        obs_noise = noisy.obs.values - quiet.obs.values
        gcm_noise = noisy.gcm.values - quiet.gcm.values
        assert np.std(obs_noise) == pytest.approx(0.5, rel=0.2)
        assert np.std(gcm_noise) == pytest.approx(0.5, rel=0.2)
        corr = np.corrcoef(obs_noise, gcm_noise)[0, 1]
        assert abs(corr) < 0.15

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            make_shifted_pair(rbf(1.0), np.arange(10.0), noise_std=-0.1)

    def test_a_grid_float64_cannot_hold_is_rejected_before_the_draw(self):
        # float64 steps by 16 near 1e17 and by 2 near 1e16, so a shift there
        # rounds 100 days to 7 and 51 values, and a start there to fewer days
        days = np.arange(100.0)
        for shift, distinct in ((1e17, 7), (1e16, 51)):
            with pytest.raises(ConfigError, match="holds %d distinct" % distinct):
                make_shifted_pair(rbf(1.0), days, time_shift=shift)
        with pytest.raises(ConfigError, match="times must be strictly increasing"):
            make_run_ensemble(rbf(1.0), 1e17 + days)
        # float64 steps by 1 from 2**52, where every t + 0.3 rounds back to t,
        # and by 2**-19 from 2**33, where t + 0.3 - t misses 0.3 by 2.5e-6 of it
        for start in (2.0**52, 2.0**33):
            with pytest.raises(ConfigError, match="time_shift 0.3 is lost"):
                make_shifted_pair(rbf(1.0), start + np.arange(50.0), time_shift=0.3)
        # from 2**29 it misses by 1.6e-7 of it, within the millionth allowed
        make_shifted_pair(rbf(1.0), 2.0**29 + np.arange(50.0), time_shift=0.3)


class TestRunEnsemble:
    def test_runs_share_latent_differ_in_noise(self):
        obs, runs = make_run_ensemble(
            rbf(6.0), np.arange(120.0), mean_bias=1.0, noise_std=0.4,
            n_runs=3, seed=21,
        )
        assert len(runs) == 3
        v0, v1 = runs[0].values, runs[1].values
        assert not np.array_equal(v0, v1)
        # same latent underneath: the difference is pure noise
        assert abs(np.mean(v0 - v1)) < 0.15
        assert np.std(v0 - v1) == pytest.approx(0.4 * np.sqrt(2), rel=0.25)

    def test_zero_noise_runs_identical(self):
        obs, runs = make_run_ensemble(
            rbf(4.0), np.arange(50.0), mean_bias=0.5, n_runs=2, seed=1
        )
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.allclose(obs.values - runs[0].values, 0.5, atol=1e-12)

    def test_deterministic_in_seed(self):
        t = np.arange(40.0)
        a = make_run_ensemble(rbf(3.0), t, 1.0, 1.0, 0.2, n_runs=2, seed=77)
        b = make_run_ensemble(rbf(3.0), t, 1.0, 1.0, 0.2, n_runs=2, seed=77)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1][1].values, b[1][1].values)

    def test_run_count_validated(self):
        with pytest.raises(ConfigError):
            make_run_ensemble(rbf(1.0), np.arange(10.0), n_runs=0)


class TestJitter:
    def test_near_duplicate_times_fail_cleanly(self):
        # two nearly identical rows push the gram matrix to the edge of PSD;
        # the jitter ladder must either rescue it or raise NumericError,
        # never leak a bare LinAlgError
        t = np.array([0.0, 1e-13, 1.0])
        try:
            sample_gp(rbf(1.0), t, substream(0, "gp"))
        except NumericError:
            pass


def _reference_gram(kernel, t):
    """The kernel formulas written out, one out-of-place step at a time."""
    r = np.abs(t[:, None] - t[None, :])
    ell = kernel.lengthscale
    if kernel.kind == "rbf":
        return np.exp(-np.square(r) / (2.0 * ell**2))
    if kernel.kind == "periodic":
        return np.exp(-2.0 * np.square(np.sin(np.pi * r / kernel.period)) / ell**2)
    return (1.0 + np.square(r) / (2.0 * kernel.alpha * ell**2)) ** -kernel.alpha


def _reference_cholesky(k_matrix):
    """The jitter ladder on a fresh copy of the matrix per attempt."""
    jitter = 1e-10
    while True:
        jittered = k_matrix.copy()
        jittered[np.diag_indices(len(k_matrix))] += jitter
        try:
            return np.linalg.cholesky(jittered), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0


class TestBitsOfTheSetUp:
    """gram and the jitter ladder work in place; the bits must not move."""

    @pytest.mark.parametrize(
        "kernel",
        [
            rbf(2.0),
            rbf(10.0),
            Kernel(PERIODIC, lengthscale=0.7, period=1.3),
            Kernel(RATIONAL_QUADRATIC, lengthscale=1.5, alpha=2.0),
        ],
        ids=["rbf", "rbf_long", "periodic", "rational_quadratic"],
    )
    @pytest.mark.parametrize("n_days, shift", [(300, 0.37), (1200, 0.0)])
    def test_draw_equals_the_out_of_place_reference(self, kernel, n_days, shift):
        pair = make_shifted_pair(kernel, np.arange(float(n_days)), time_shift=shift, seed=5)
        g = gram(kernel, pair.latent_times)
        assert np.array_equal(g, _reference_gram(kernel, pair.latent_times))
        chol, _ = _reference_cholesky(g)
        rng = substream(5, "latent")
        assert np.array_equal(pair.latent_values, chol @ rng.standard_normal(len(g)))

    def test_forced_jitter_retry(self):
        # eigenvalues 2 - 1e-8 and -1e-8: jitters up to 1e-8 cannot rescue it
        k_matrix = np.ones((2, 2)) - 1e-8 * np.eye(2)
        want, jitter = _reference_cholesky(k_matrix)
        assert jitter > 1e-9
        assert np.array_equal(_cholesky_with_jitter(k_matrix.copy()), want)
