import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_bc.batching import (
    MARGIN,
    MIN_KEEP,
    BatchConfig,
    compute_features,
    draw_window,
    make_batch,
    prune_indices,
)
from temporal_bc.errors import ConfigError, DataError
from temporal_bc.model import positional_features
from temporal_bc.sampling import build_inference_example
from temporal_bc.timeseries import (
    AlignedPair,
    PairedDataset,
    TimeSeries,
    align,
)


def tiny_config(**overrides):
    base = dict(
        retain_p=0.5,
        window_min=10,
        window_max=20,
    )
    base.update(overrides)
    return BatchConfig(**base)


def make_pair(n=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(float(n))
    return AlignedPair(
        times=t,
        obs_values=rng.normal(size=n),
        gcm_values=rng.normal(size=n),
    )


class TestDrawWindow:
    def test_ranges_over_many_draws(self):
        rng = np.random.default_rng(0)
        n = 500
        ks, lengths, js_lo, js_hi = [], [], [], []
        for _ in range(10_000):
            w = draw_window(n, rng, 60, 360)
            assert 1 <= w.k <= n - 360
            assert 60 <= w.h - w.k <= 360
            assert w.k + 5 <= w.j <= w.h - 5
            ks.append(w.k)
            lengths.append(w.h - w.k)
            js_lo.append(w.j == w.k + 5)
            js_hi.append(w.j == w.h - 5)
        # the extremes of every uniform support must actually occur
        assert min(ks) == 1 and max(ks) == n - 360
        assert min(lengths) == 60 and max(lengths) == 360
        assert any(js_lo) and any(js_hi)

    def test_short_series_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="too short"):
            draw_window(360, rng, 60, 360)
        draw_window(361, rng, 60, 360)  # boundary: one admissible k

    def test_custom_geometry(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            w = draw_window(50, rng, window_min=10, window_max=20)
            assert 10 <= w.h - w.k <= 20
            assert w.k + MARGIN <= w.j <= w.h - MARGIN


class TestPositionalFeatures:
    def test_shape_and_range(self):
        t = np.linspace(0.0, 5000.0, 300)
        p = positional_features(t, 16)
        assert p.shape == (300, 16)
        assert np.all(np.abs(p) <= 1.0)

    def test_zero_time(self):
        p = positional_features(0.0, 8)
        assert np.allclose(p[0::2], 0.0)
        assert np.allclose(p[1::2], 1.0)

    def test_first_pair_is_plain_sincos(self):
        p = positional_features(2.5, 6)
        assert p[0] == pytest.approx(np.sin(2.5))
        assert p[1] == pytest.approx(np.cos(2.5))

    def test_rates_follow_geometric_ladder(self):
        d, t = 8, 7.0
        p = positional_features(t, d)
        for ell in range(d // 2):
            angle = t / 10000.0 ** (2.0 * ell / d)
            assert p[2 * ell] == pytest.approx(np.sin(angle))
            assert p[2 * ell + 1] == pytest.approx(np.cos(angle))

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            positional_features(1.0, 7)


class TestClosestObserved:
    """The neighbour n(i) that compute_features anchors each point on."""

    def test_plain_nearest(self):
        obs_t, obs_v = np.array([0.0, 2.0, 5.0, 5.5]), np.array([10.0, 20.0, 50.0, 55.0])
        f = compute_features(np.array([0.0]), np.array([0.0]), obs_t, obs_v, np.array([6.0]), None)
        # observed points anchor on their nearest other observed point
        assert list(f.closest_t[1:5]) == [2.0, 0.0, 5.5, 5.0]
        assert list(f.closest_value[1:5]) == [20.0, 10.0, 55.0, 50.0]

    def test_tie_goes_to_earlier(self):
        obs_t, obs_v = np.array([2.0, 3.0, 4.0]), np.array([1.0, 5.0, 9.0])
        f = compute_features(np.array([0.0]), np.array([0.0]), obs_t, obs_v, np.array([6.0]), None)
        # t=3 sits one day from both neighbours and takes the earlier one
        assert (f.closest_t[2], f.closest_value[2]) == (2.0, 1.0)


class TestPrune:
    def test_retention_rate(self):
        rng = np.random.default_rng(3)
        total = sum(len(prune_indices(200, 0.5, rng)) for _ in range(200))
        assert total / (200 * 200) == pytest.approx(0.5, abs=0.02)

    def test_min_keep_enforced(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            assert len(prune_indices(10, 0.5, rng)) >= MIN_KEEP

    def test_small_n_keeps_everything_possible(self):
        rng = np.random.default_rng(5)
        keep = prune_indices(MIN_KEEP - 2, 0.5, rng)
        assert len(keep) == MIN_KEEP - 2

    def test_hopeless_retain_p_falls_back_to_prefix(self):
        rng = np.random.default_rng(6)
        keep = prune_indices(10, 1e-12, rng)
        assert np.array_equal(keep, np.arange(MIN_KEEP))

    def test_retain_one_keeps_all(self):
        rng = np.random.default_rng(7)
        assert np.array_equal(prune_indices(20, 1.0, rng), np.arange(20))

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_prune_is_ordered_subsequence(self, n, seed):
        rng = np.random.default_rng(seed)
        kept = list(prune_indices(n, 0.5, rng))
        assert kept == sorted(set(kept))
        assert set(kept) <= set(range(n))
        assert len(kept) >= min(MIN_KEEP, n)


class TestComputeFeatures:
    def test_hand_worked_example(self):
        gcm_t = np.array([0.0, 1.0, 3.0])
        gcm_v = np.array([10.0, 11.0, 14.0])
        obs_t = np.array([0.0, 2.0])
        obs_v = np.array([5.0, 6.0])
        tgt_t = np.array([3.0, 5.0])
        tgt_v = np.array([7.0, 9.0])
        f = compute_features(gcm_t, gcm_v, obs_t, obs_v, tgt_t, tgt_v)
        assert list(f.t) == [0.0, 1.0, 3.0, 0.0, 2.0, 3.0, 5.0]
        assert list(f.value) == [10.0, 11.0, 14.0, 5.0, 6.0, 7.0, 9.0]
        # model point 0 anchors right (t=1), point 1 ties -> earlier (t=0),
        # point 2 anchors left (t=1)
        assert list(f.closest_t[:3]) == [1.0, 0.0, 1.0]
        assert list(f.closest_value[:3]) == [11.0, 10.0, 11.0]
        # the two observed points anchor on each other
        assert list(f.closest_t[3:5]) == [2.0, 0.0]
        assert list(f.closest_value[3:5]) == [6.0, 5.0]
        # first target anchors on the last observed point, second on the
        # (teacher-forced) first target
        assert list(f.closest_t[5:]) == [2.0, 3.0]
        assert list(f.closest_value[5:]) == [6.0, 7.0]

    def test_singleton_series_self_anchor(self):
        f = compute_features(
            np.array([4.0]), np.array([2.0]),
            np.array([1.0]), np.array([3.0]),
            np.array([2.0]), np.array([5.0]),
        )
        # a one-point block anchors on itself
        assert (f.closest_value[0], f.closest_t[0]) == (2.0, 4.0)
        assert (f.closest_value[1], f.closest_t[1]) == (3.0, 1.0)

    def test_masked_single_target(self):
        f = compute_features(
            np.array([0.0, 1.0]), np.array([1.0, 2.0]),
            np.array([0.0, 1.0]), np.array([3.0, 4.0]),
            np.array([2.0]), None,
        )
        # masked target: a zero placeholder value, anchored on the last
        # observed point
        assert f.value[-1] == 0.0
        assert (f.closest_value[-1], f.closest_t[-1]) == (4.0, 1.0)

    def test_masked_multi_target_rejected(self):
        with pytest.raises(DataError, match="target values"):
            compute_features(
                np.array([0.0]), np.array([1.0]),
                np.array([0.0]), np.array([1.0]),
                np.array([1.0, 2.0]), None,
            )

    def test_targets_need_context(self):
        with pytest.raises(DataError, match="context"):
            compute_features(
                np.array([0.0]), np.array([1.0]),
                np.array([]), np.array([]),
                np.array([1.0]), np.array([2.0]),
            )


class TestFeatureColumns:
    """An example's feature rows are its points in model order: ``n_gcm``
    model-block rows, then the observed context, then ``n_tgt`` targets."""

    def test_training_example(self):
        pair = make_pair(n=96, seed=3)
        for ex in make_batch([pair], 8, np.random.default_rng(4), tiny_config()):
            f = ex.features
            # the observed rows up to the prediction index
            last_ctx_t = pair.times[ex.window.j - 1]
            n_obs = np.count_nonzero(f.t[ex.n_gcm :] <= last_ctx_t)
            assert ex.n_points - ex.n_gcm - ex.n_tgt == n_obs

    def test_inference_example(self):
        rng = np.random.default_rng(6)
        obs_t, obs_v = np.arange(5.0), rng.normal(size=5)
        gcm_t, gcm_v = np.arange(2.0, 9.0), rng.normal(size=7)
        ex = build_inference_example(obs_t, obs_v, gcm_t, gcm_v, 5.0)
        f = ex.features
        assert ex.window is None
        assert (ex.n_gcm, ex.n_tgt) == (7, 1)
        assert ex.n_points - ex.n_gcm - ex.n_tgt == len(obs_t)
        assert np.array_equal(f.t, np.concatenate([gcm_t, obs_t, [5.0]]))
        # the target's value is unknown and enters as 0
        assert np.array_equal(f.value, np.concatenate([gcm_v, obs_v, [0.0]]))


class TestMakeBatch:
    def test_deterministic_given_rng_state(self):
        pair = make_pair()
        cfg = tiny_config()
        a = make_batch([pair], 4, np.random.default_rng(42), cfg)
        b = make_batch([pair], 4, np.random.default_rng(42), cfg)
        assert len(a) == len(b) == 4
        for ea, eb in zip(a, b):
            assert ea.window == eb.window
            assert (ea.n_gcm, ea.n_tgt) == (eb.n_gcm, eb.n_tgt)
            for name, column in vars(ea.features).items():
                assert np.array_equal(column, getattr(eb.features, name))

    def test_accepts_paired_dataset_and_tags_runs(self):
        t = np.arange(64.0)
        rng = np.random.default_rng(2)
        obs = TimeSeries(t, rng.normal(size=64))
        runs = tuple(TimeSeries(t, rng.normal(size=64)) for _ in range(3))
        ds = PairedDataset(obs, runs)
        pairs = [align(ds, z) for z in range(ds.n_runs)]
        batch = make_batch(pairs, 32, np.random.default_rng(0), tiny_config())
        seen = set()
        for ex in batch:
            # the run whose values the model block holds
            days = ex.features.t[: ex.n_gcm].astype(int)
            gcm_v = ex.features.value[: ex.n_gcm]
            (z,) = [z for z, run in enumerate(runs) if np.array_equal(run.values[days], gcm_v)]
            seen.add(z)
        assert seen <= {0, 1, 2}
        assert len(seen) > 1

    def test_ablate_gcm_zeroes_values_keeps_times(self):
        pair = make_pair(n=96, seed=9)
        cfg = tiny_config(ablate_gcm=True)
        for ex in make_batch([pair], 8, np.random.default_rng(5), cfg):
            n_gcm = ex.n_gcm
            assert np.all(ex.features.value[:n_gcm] == 0.0)
            assert n_gcm > 0
            assert np.all(ex.features.t[:n_gcm] >= 0)
            # the model block's anchors hold the zeroed values too
            assert np.all(ex.features.closest_value[:n_gcm] == 0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="no aligned"):
            make_batch([], 1, np.random.default_rng(0), tiny_config())


class TestBatchConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            BatchConfig(retain_p=0.0)
        with pytest.raises(ConfigError):
            BatchConfig(retain_p=1.5)
        with pytest.raises(ConfigError):
            BatchConfig(window_max=10, window_min=60)
        with pytest.raises(TypeError):
            BatchConfig(feature_dim=8)  # feature geometry belongs to ModelConfig
        with pytest.raises(ConfigError, match="at least 10"):
            BatchConfig(window_min=2 * MARGIN - 1)  # no room for the margins
