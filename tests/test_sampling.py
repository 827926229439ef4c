from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from temporal_bc import model, sampling
from temporal_bc.autodiff import Tensor
from temporal_bc.batching import SERIES_GCM, SERIES_OBS
from temporal_bc.errors import ConfigError, DataError
from temporal_bc.metrics import LOG_2PI
from temporal_bc.model import (
    SIGMA_FLOOR,
    ModelConfig,
    checkpoint_from_params,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from temporal_bc.rng import substream
from temporal_bc.sampling import (
    SamplerConfig,
    build_inference_example,
    evaluate_nll,
    predictive_nll,
    sample_trajectories,
)
from temporal_bc.timeseries import GCM, OBS, NormStats, PairedDataset, TimeSeries

TINY = ModelConfig(n_layers=1, n_heads=2, model_dim=8, feature_dim=8, hidden_dim=8)


def make_dataset(n_obs=100, n_gcm=300, n_runs=1, seed=0):
    rng = np.random.default_rng(seed)
    obs_t = np.arange(float(n_obs))
    gcm_t = np.arange(float(n_gcm))
    obs = TimeSeries(obs_t, 15.0 + rng.normal(size=n_obs), OBS)
    runs = tuple(
        TimeSeries(gcm_t, 13.0 + rng.normal(size=n_gcm), GCM)
        for _ in range(n_runs)
    )
    return PairedDataset(obs, runs)


def anchor_checkpoint(dataset, meta=None):
    """Zero-head checkpoint: the mean prediction is exactly the anchor."""
    params = init_params(TINY, np.random.default_rng(0))
    stats = NormStats.from_series(dataset.obs)
    return checkpoint_from_params(TINY, params, stats, meta=meta or {})


def value_sensitive_checkpoint(dataset, meta=None, seed=1):
    params = init_params(TINY, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 50)
    params["head.w2"] = Tensor(0.2 * rng.standard_normal(params["head.w2"].shape))
    stats = NormStats.from_series(dataset.obs)
    return checkpoint_from_params(TINY, params, stats, meta=meta or {})


class TestBuildInferenceExample:
    def test_single_masked_target(self):
        ex = build_inference_example(
            [0.0, 1.0], [1.0, 2.0], [0.0, 1.0, 2.0], [0.1, 0.2, 0.3], 2.0
        )
        assert ex.tgt_v is None
        assert ex.n_tgt == 1
        assert ex.window is None
        assert ex.features.closest_value[-1] == 2.0  # anchors on last obs

    def test_ordering_gcm_then_obs_then_masked(self):
        ex = build_inference_example(
            [0.0, 1.0], [1.0, 2.0], [0.0, 1.0, 2.0], [5.0, 6.0, 7.0], 2.5
        )
        # model block first, then observed context, then the masked target
        assert list(ex.features.series_id) == [SERIES_GCM] * 3 + [SERIES_OBS] * 3
        assert list(ex.features.value[:-1]) == [5.0, 6.0, 7.0, 1.0, 2.0]
        assert ex.features.t[-1] == 2.5 and ex.tgt_v is None


class TestSampleTrajectories:
    def test_starts_after_observations_end(self):
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds)
        cfg = SamplerConfig(horizon=4, n_trajectories=2, seed=3)
        trajs = sample_trajectories(ckpt, ds, 0, cfg)
        assert len(trajs) == 2
        for traj in trajs:
            assert np.array_equal(traj.times, [100.0, 101.0, 102.0, 103.0])

    def test_deterministic_mode_holds_anchor(self):
        # with a zero head the model predicts exactly its anchor, and the
        # anchor chains forward, so the whole trajectory is the last obs value
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds)
        cfg = SamplerConfig(horizon=5, n_trajectories=1, deterministic=True)
        (traj,) = sample_trajectories(ckpt, ds, 0, cfg)
        assert np.allclose(traj.values, ds.obs.values[-1], atol=1e-9)

    def test_seed_determinism(self):
        ds = make_dataset()
        ckpt = value_sensitive_checkpoint(ds)
        cfg = SamplerConfig(horizon=3, n_trajectories=2, seed=9)
        a = sample_trajectories(ckpt, ds, 0, cfg)
        b = sample_trajectories(ckpt, ds, 0, cfg)
        c = sample_trajectories(ckpt, ds, 0, SamplerConfig(horizon=3, n_trajectories=2, seed=10))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.values, tb.values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_trajectories_are_independent_substreams(self):
        ds = make_dataset()
        ckpt = value_sensitive_checkpoint(ds)
        cfg = SamplerConfig(horizon=3, n_trajectories=4, seed=5)
        trajs = sample_trajectories(ckpt, ds, 0, cfg)
        flat = {tuple(t.values) for t in trajs}
        assert len(flat) == 4

    def test_conditioning_window_contents(self, monkeypatch):
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds)
        seen = []

        def spy(params, example, memos, model_config):
            seen.append(example)
            return 0.0, 1.0

        monkeypatch.setattr(sampling, "_predict_one", spy)
        cfg = SamplerConfig(
            obs_window=60, gcm_past=60, gcm_future=120, horizon=3,
            n_trajectories=1, deterministic=True,
        )
        sample_trajectories(ckpt, ds, 0, cfg)
        assert len(seen) == 3
        for step, ex in enumerate(seen):
            tau = 100.0 + step
            gcm_t, obs_t = ex.features.t[: ex.n_gcm], ex.features.t[ex.n_gcm : -1]
            assert ex.features.t[-1] == tau
            assert len(obs_t) == 60
            # trailing history: the last 60 of (observations + generated days)
            assert obs_t[-1] == tau - 1
            assert obs_t[0] == tau - 60
            assert gcm_t[0] >= tau - 60
            assert gcm_t[-1] < tau + 120
            # the window is dense on the model grid
            assert len(gcm_t) == 180

    def test_gcm_outside_window_is_ignored(self):
        ds = make_dataset(seed=2)
        # double every model value before t=30: far outside any [tau-60, ...)
        # window once generation starts at t=100 with a 10-day horizon
        bumped_values = np.array(ds.runs[0].values)
        bumped_values[:30] += 50.0
        ds2 = PairedDataset(
            ds.obs, (TimeSeries(ds.runs[0].times, bumped_values, GCM),)
        )
        ckpt = value_sensitive_checkpoint(ds)
        cfg = SamplerConfig(horizon=10, n_trajectories=1, seed=4)
        a = sample_trajectories(ckpt, ds, 0, cfg)
        b = sample_trajectories(ckpt, ds2, 0, cfg)
        assert np.array_equal(a[0].values, b[0].values)

    def test_gcm_inside_window_matters(self):
        ds = make_dataset(seed=2)
        bumped_values = np.array(ds.runs[0].values)
        bumped_values[100:140] += 5.0
        ds2 = PairedDataset(
            ds.obs, (TimeSeries(ds.runs[0].times, bumped_values, GCM),)
        )
        ckpt = value_sensitive_checkpoint(ds)
        cfg = SamplerConfig(horizon=5, n_trajectories=1, seed=4)
        a = sample_trajectories(ckpt, ds, 0, cfg)
        b = sample_trajectories(ckpt, ds2, 0, cfg)
        assert not np.array_equal(a[0].values, b[0].values)

    def test_ablated_checkpoint_ignores_gcm_entirely(self):
        ds = make_dataset(seed=7)
        shifted = PairedDataset(
            ds.obs,
            (TimeSeries(ds.runs[0].times, ds.runs[0].values + 100.0, GCM),),
        )
        ckpt = value_sensitive_checkpoint(ds, meta={"ablate_gcm": True})
        cfg = SamplerConfig(horizon=4, n_trajectories=1, seed=0)
        a = sample_trajectories(ckpt, ds, 0, cfg)
        b = sample_trajectories(ckpt, shifted, 0, cfg)
        assert np.array_equal(a[0].values, b[0].values)

    def test_insufficient_gcm_coverage(self):
        # model run ends the day generation starts: no room for the horizon
        rng = np.random.default_rng(0)
        t = np.arange(100.0)
        obs = TimeSeries(t, rng.normal(size=100), OBS)
        gcm = TimeSeries(t, rng.normal(size=100), GCM)
        ds = PairedDataset(obs, (gcm,))
        ckpt = anchor_checkpoint(ds)
        with pytest.raises(DataError, match="coverage"):
            sample_trajectories(ckpt, ds, 0, SamplerConfig(horizon=5))

    def test_bad_run_id(self):
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds)
        with pytest.raises(DataError, match="run id"):
            sample_trajectories(ckpt, ds, 5, SamplerConfig(horizon=1))


class TestSampleAllRuns:
    def test_runs_use_xored_seeds(self):
        # three copies of one run: run z must draw what run 0 draws from
        # seed 12 XOR z
        one = make_dataset(seed=5)
        ds = PairedDataset(one.obs, one.runs * 3)
        ckpt = value_sensitive_checkpoint(ds)
        cfg = SamplerConfig(horizon=3, n_trajectories=2, seed=12)
        per_run = [sample_trajectories(ckpt, ds, z, cfg) for z in range(3)]
        for z in range(3):
            expected = sample_trajectories(ckpt, ds, 0, replace(cfg, seed=12 ^ z))
            for ta, tb in zip(per_run[z], expected):
                assert np.array_equal(ta.values, tb.values)
        assert not np.array_equal(per_run[0][0].values, per_run[1][0].values)


class TestPredictiveNll:
    def test_anchor_model_closed_form(self):
        ds = make_dataset(n_obs=200)
        ckpt = anchor_checkpoint(ds)
        score = predictive_nll(ckpt, ds, 0, start_t=150.0, n_days=20)
        stats = ckpt.norm_stats
        sigma_n = np.log(2.0) + SIGMA_FLOOR
        std_c = sigma_n * stats.std
        obs_v = ds.obs.values
        expected_means = obs_v[149:169]
        assert np.allclose(score.means, expected_means, atol=1e-9)
        assert np.allclose(score.stds, std_c, atol=1e-12)
        truth = obs_v[150:170]
        expected_nll = (
            0.5 * LOG_2PI
            + np.log(std_c)
            + (truth - expected_means) ** 2 / (2 * std_c**2)
        )
        assert np.allclose(score.nll, expected_nll, atol=1e-9)
        assert score.mean_nll == pytest.approx(float(np.mean(expected_nll)))

    def test_needs_observation_at_each_day(self):
        ds = make_dataset(n_obs=100)
        ckpt = anchor_checkpoint(ds)
        # the first unobserved day is named, whether some days are observed
        # or none
        for start_t in (95.0, 100.0):
            with pytest.raises(DataError, match=r"no observation .* t=100\.0$"):
                predictive_nll(ckpt, ds, 0, start_t=start_t, n_days=20)

    def test_needs_enough_history(self):
        ds = make_dataset(n_obs=100)
        ckpt = anchor_checkpoint(ds)
        with pytest.raises(DataError, match="history"):
            predictive_nll(ckpt, ds, 0, start_t=10.0, n_days=5)

    def test_validates_inputs(self):
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds)
        with pytest.raises(ConfigError):
            predictive_nll(ckpt, ds, 0, 90.0, 0)
        with pytest.raises(DataError, match="range"):
            predictive_nll(ckpt, ds, 9, 90.0, 1)

    def test_needs_gcm_coverage(self):
        # the run starts 20 days before the stretch, short of gcm_past = 60
        rng = np.random.default_rng(0)
        obs = TimeSeries(np.arange(200.0), rng.normal(size=200), OBS)
        gcm = TimeSeries(np.arange(130.0, 300.0), rng.normal(size=170), GCM)
        ds = PairedDataset(obs, (gcm,))
        ckpt = anchor_checkpoint(ds)
        with pytest.raises(DataError, match="coverage"):
            predictive_nll(ckpt, ds, 0, start_t=150.0, n_days=10)
        # and it must last until the stretch's final day
        short = make_dataset(n_obs=200, n_gcm=160)
        with pytest.raises(DataError, match="coverage"):
            predictive_nll(ckpt, short, 0, start_t=150.0, n_days=20)

    def test_scores_the_sampler_window(self):
        # teacher forcing from the end of the record is the sampler's first day
        full = make_dataset(n_obs=120, n_runs=2, seed=3)
        ds = PairedDataset(full.obs.window(0, 99), full.runs)
        ckpt = value_sensitive_checkpoint(ds)
        cfg = SamplerConfig(horizon=1, n_trajectories=1, deterministic=True)
        for z in range(2):
            (first,) = sample_trajectories(ckpt, ds, z, cfg)
            score = predictive_nll(ckpt, full, z, start_t=100.0, n_days=3, config=cfg)
            assert first.values[0] == score.means[0]


def test_sampling_and_scoring_compute_in_float32(monkeypatch):
    ds = make_dataset(n_obs=120)
    ckpt = value_sensitive_checkpoint(ds)
    seen = []
    real = model.forecast

    def spy(params, rows, anchor, config):
        seen.append({arr.dtype for arr in [*params.values(), rows]})
        return real(params, rows, anchor, config)

    monkeypatch.setattr(model, "forecast", spy)
    sample_trajectories(ckpt, ds, 0, SamplerConfig(horizon=2, n_trajectories=2))
    predictive_nll(ckpt, ds, 0, start_t=100.0, n_days=2)
    # one forecast per sampled or scored day
    assert seen == [{np.dtype(np.float32)}] * (2 * 2 + 2)
    assert all(arr.dtype == np.float64 for arr in ckpt.params.values())


class TestRowMemo:
    """A forecast day takes a conditioning point's layer-0 rows from the
    memo of its series wherever the memo computed them from the point's
    very feature row, and computes the rest. Its forecast must equal, bit
    for bit, the same day's forecast with nothing to reuse."""

    @staticmethod
    def checked(mp) -> list:
        """Spy on every forecast day: assert it equals the day's cold
        forecast, that every product over fresh rows has two rows or more
        (or the window's one), that the fresh rows' example counts their
        model-block rows as its ``n_gcm``, and record (conditioning points,
        fresh conditioning rows) per day."""
        days, fresh = [], []
        real_predict, real_rows, real_embed = (
            sampling._predict_one, model.layer0_rows, model.embed
        )

        def embed_spy(example, config):
            n_gcm_rows = np.count_nonzero(example.features.series_id == SERIES_GCM)
            assert example.n_gcm == n_gcm_rows
            return real_embed(example, config)

        def rows_spy(params, emb):
            fresh.append(emb.n_conditioning)
            return real_rows(params, emb)

        def predict_spy(params, example, memos, config):
            n_cond = example.n_points - 1
            got = real_predict(params, example, memos, config)
            (n_fresh,) = fresh
            assert n_fresh >= min(2, n_cond)
            sizes = (example.n_gcm, n_cond - example.n_gcm)
            cold = [(sampling._RowMemo(n), 0) for n in sizes]
            assert got == real_predict(params, example, cold, config)
            del fresh[:]
            days.append((n_cond, n_fresh))
            return got

        mp.setattr(model, "embed", embed_spy)
        mp.setattr(model, "layer0_rows", rows_spy)
        mp.setattr(sampling, "_predict_one", predict_spy)
        return days

    @given(
        seed=st.integers(0, 2**16),
        obs_window=st.integers(1, 5),
        gcm_past=st.integers(0, 4),
        gcm_future=st.integers(1, 6),
        horizon=st.integers(1, 6),
        keep=st.sampled_from([0.5, 0.8, 1.0]),
    )
    def test_memoized_forecasts_equal_cold_ones(
        self, seed, obs_window, gcm_past, gcm_future, horizon, keep
    ):
        rng = np.random.default_rng(seed)
        # observed days 0..29 with gaps, except for a dense first five days and
        # a dense scored stretch 24..29; the runs' shared grid has gaps too and
        # may end before the last sampled day's future window does
        days = np.arange(30.0)
        obs_t = days[(rng.random(30) < keep) | (days < 5) | (days >= 24)]
        n_gcm = 30 + horizon + int(rng.integers(0, gcm_future + 1))
        gcm_t = np.flatnonzero(rng.random(n_gcm) < keep)
        gcm_t = np.union1d(gcm_t, [0, n_gcm - 1]).astype(float)
        obs = TimeSeries(obs_t, 15.0 + rng.normal(size=len(obs_t)), OBS)
        runs = [TimeSeries(gcm_t, 13.0 + rng.normal(size=len(gcm_t)), GCM) for _ in range(2)]
        ds = PairedDataset(obs, runs)
        ckpt = value_sensitive_checkpoint(ds, seed=seed % 7)
        config = SamplerConfig(
            obs_window, gcm_past, gcm_future, horizon, n_trajectories=2, seed=seed
        )
        validated = obs_t[obs_t >= 5.0]
        validated = validated[rng.random(len(validated)) < 0.5][:8]
        with pytest.MonkeyPatch.context() as mp:
            forecasts = self.checked(mp)
            for z in range(2):
                for deterministic in (False, True):
                    sample_trajectories(ckpt, ds, z, replace(config, deterministic=deterministic))
                predictive_nll(ckpt, ds, z, start_t=24.0, n_days=6, config=config)
            if len(validated):
                evaluate_nll(ckpt, ds, validated, config)
        assert len(forecasts) == 2 * (2 * 2 * horizon + 6) + 2 * len(validated)

    def test_memoized_forecasts_equal_cold_ones_across_the_max_shift_fallback(self):
        # q and k weights scaled by 5.5 scale the main stack's logits by
        # 30.25: on some scored days a raw exp overflows float32 (a logit
        # above 88.7), so that day's attention subtracts each row's max,
        # and on others every row's largest logit lies within (-69, 69),
        # whose exponents are normal, so it does not
        ds = make_dataset(n_obs=200)
        ckpt = value_sensitive_checkpoint(ds, seed=0)
        for name in ("q.w2", "q.b2", "k.w2", "k.b2"):
            ckpt.params[name] *= 5.5
        row_peaks = []  # each call's largest logit per query row
        real_attend = model._attend

        def attend_spy(q, k, v, n_heads):
            heads = (q.reshape(len(q), n_heads, -1), k.reshape(len(k), n_heads, -1))
            logits = np.einsum("rhw,khw->hrk", *(x.astype(np.float64) for x in heads))
            row_peaks.append(logits.max(axis=-1))
            return real_attend(q, k, v, n_heads)

        with pytest.MonkeyPatch.context() as mp:
            days = self.checked(mp)
            mp.setattr(model, "_attend", attend_spy)
            predictive_nll(ckpt, ds, 0, start_t=150.0, n_days=20)
        calls_per_day = len(row_peaks) // len(days)
        by_day = [row_peaks[i : i + calls_per_day] for i in range(0, len(row_peaks), calls_per_day)]
        overflows = [any(p.max() > 90 for p in day) for day in by_day]
        in_range = [all(-69 < p.min() and p.max() < 69 for p in day) for day in by_day]
        assert len(days) == 20 and any(overflows) and any(in_range)

    def test_a_warm_day_on_a_daily_grid_computes_the_rows_that_changed(self):
        # as the windows slide one day, the points whose neighbour changes are
        # the model block's new first and last and the history's new first
        # and last; every other point keeps its feature row
        ds = make_dataset(n_runs=2)
        ckpt = value_sensitive_checkpoint(ds)
        config = SamplerConfig(horizon=4, n_trajectories=2)
        with pytest.MonkeyPatch.context() as mp:
            days = self.checked(mp)
            sample_trajectories(ckpt, ds, 0, config)
            predictive_nll(ckpt, make_dataset(n_obs=200), 0, start_t=150.0, n_days=4)
        n_cond = 60 + 180
        warm = [(n_cond, 4)] * 3
        # the second trajectory shares the run's memo. On its first day the
        # model points that were the first trajectory's later first points
        # have their interior neighbour back, and its history is new; on its
        # warm days the model block's new last point is already stored
        second = [(n_cond, 3 + 60)] + [(n_cond, 3)] * 3
        assert days == [(n_cond, n_cond)] + warm + second + [(n_cond, n_cond)] + warm


class TestTrainedWindowWarning:
    """The sampler warns when its windows are longer than any training window."""

    def _warnings(self, caplog, ckpt, config):
        caplog.clear()
        with caplog.at_level("WARNING", logger="temporal_bc.sampling"):
            trajs = sample_trajectories(ckpt, make_dataset(), 0, config)
        assert all(np.all(np.isfinite(traj.values)) for traj in trajs)
        return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    def test_one_warning_when_a_window_exceeds_window_max(self, caplog):
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds, meta={"window_max": 60})
        for config in (
            SamplerConfig(obs_window=61, gcm_past=30, gcm_future=30, horizon=3),
            SamplerConfig(obs_window=30, gcm_past=30, gcm_future=31, horizon=3),
        ):
            (message,) = self._warnings(caplog, ckpt, config)
            assert "exceeds the longest training window (60 days)" in message

    def test_no_warning_within_window_max(self, caplog):
        ds = make_dataset()
        ckpt = anchor_checkpoint(ds, meta={"window_max": 60})
        config = SamplerConfig(obs_window=60, gcm_past=30, gcm_future=30, horizon=3)
        assert self._warnings(caplog, ckpt, config) == []

    def test_legacy_checkpoint_samples_without_warning(self, caplog, tmp_path):
        # written before checkpoints recorded their window geometry
        ds = make_dataset()
        path = tmp_path / "legacy.json"
        save_checkpoint(anchor_checkpoint(ds, meta={"seed": 3, "ablate_gcm": False}), path)
        ckpt = load_checkpoint(path)
        assert "window_max" not in ckpt.meta
        config = SamplerConfig(obs_window=90, gcm_past=60, gcm_future=120, horizon=3)
        assert self._warnings(caplog, ckpt, config) == []


class TestSamplerConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            SamplerConfig(obs_window=0)
        with pytest.raises(ConfigError):
            SamplerConfig(horizon=0)
        with pytest.raises(ConfigError):
            SamplerConfig(gcm_future=0)
        with pytest.raises(ConfigError):
            SamplerConfig(n_trajectories=0)
