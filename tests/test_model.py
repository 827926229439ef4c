import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from temporal_bc import autodiff as ad
from temporal_bc.autodiff import Tape, Tensor, backward
from temporal_bc import model, sampling, training
from temporal_bc.batching import (
    SERIES_GCM,
    SERIES_OBS,
    BatchConfig,
    TrainingExample,
    compute_features,
    make_batch,
)
from temporal_bc.errors import ConfigError, DataError, NumericError
from temporal_bc.metrics import LOG_2PI, gaussian_nll_points
from temporal_bc.model import (
    SIGMA_FLOOR,
    ModelConfig,
    checkpoint_from_params,
    embed,
    forecast,
    forecast_params,
    forward,
    gaussian_nll,
    init_params,
    layer0_rows,
    load_checkpoint,
    param_shapes,
    positional_features,
    save_checkpoint,
)
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import AlignedPair, NormStats

from reference import gradcheck

TINY = ModelConfig(
    n_layers=2, n_heads=2, model_dim=8, feature_dim=8, hidden_dim=8
)
# the benchmark's two geometries: model, training batches, sampler windows
GEOMETRIES = {
    "paper-study": (
        ModelConfig(n_layers=2, n_heads=2, model_dim=32, feature_dim=16, hidden_dim=32),
        BatchConfig(window_min=30, window_max=60, retain_p=0.8),
        SamplerConfig(obs_window=30, gcm_past=30, gcm_future=30),
    ),
    "default": (ModelConfig(), BatchConfig(), SamplerConfig()),
}


def geometry_examples(geometry, n_batch=4, seed=17):
    """Training examples of the geometry plus one sampler-style example."""
    _, batch_config, sampler = GEOMETRIES[geometry]
    rng = np.random.default_rng(seed)
    t = np.arange(800.0)
    pair = AlignedPair(t, rng.normal(size=800), rng.normal(size=800))
    examples = make_batch([pair], n_batch, rng, batch_config)
    day = 500
    tau = t[day]
    obs = slice(day - sampler.obs_window, day)
    gcm = (t >= tau - sampler.gcm_past) & (t < tau + sampler.gcm_future)
    examples.append(
        sampling.build_inference_example(
            t[obs], pair.obs_values[obs], t[gcm], pair.gcm_values[gcm], tau
        )
    )
    return examples


def build_example(gcm_t, gcm_v, obs_t, obs_v, tgt_t, tgt_v):
    features = compute_features(gcm_t, gcm_v, obs_t, obs_v, tgt_t, tgt_v)
    tv = None if tgt_v is None else np.asarray(tgt_v, dtype=float)
    return TrainingExample(None, features, len(gcm_t), len(tgt_t), tv)


def one_target(ex):
    """``ex`` with its first target alone, as a sampler's example has."""
    f, n_gcm, n_cond = ex.features, ex.n_gcm, ex.n_points - ex.n_tgt
    return build_example(
        f.t[:n_gcm], f.value[:n_gcm], f.t[n_gcm:n_cond], f.value[n_gcm:n_cond],
        f.t[n_cond : n_cond + 1], None if ex.tgt_v is None else ex.tgt_v[:1],
    )  # fmt: skip


def default_example(tgt_v=(1.5, 2.5, 0.5)):
    return build_example(
        gcm_t=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        gcm_v=[0.3, -0.1, 0.4, 0.2, 0.0, 0.1],
        obs_t=[0.0, 1.0, 3.0],
        obs_v=[1.0, 2.0, 1.2],
        tgt_t=[4.0, 5.0, 6.0],
        tgt_v=list(tgt_v),
    )


class TestEmbed:
    def test_query_input_hides_value_slots(self):
        emb = embed(default_example(), TINY)
        d = TINY.feature_dim
        # layout: pos(d), onehot(2), delta, dist, deriv, closest_value, ...
        delta_col, dist_col, deriv_col = d + 2, d + 3, d + 4
        assert np.all(emb.q_in[:, delta_col] == 0.0)
        assert np.all(emb.q_in[:, deriv_col] == 0.0)
        # everything else matches the key/value input
        keep = [c for c in range(emb.q_in.shape[1]) if c not in (delta_col, deriv_col)]
        assert np.array_equal(emb.q_in[:, keep], emb.kv_in[:, keep])
        assert emb.kv_in.shape[1] == TINY.qkv_in_dim
        assert np.any(emb.kv_in[:, delta_col] != 0.0)

    def test_mask_structure(self):
        ex = default_example()
        emb = embed(ex, TINY)
        n_cond, n_tgt = emb.n_conditioning, emb.n_targets
        allowed = ~emb.blocked
        # conditioning sees all conditioning, never any target
        assert np.all(allowed[:n_cond, :n_cond])
        assert not np.any(allowed[:n_cond, n_cond:])
        # target p sees conditioning plus strictly earlier targets
        for p in range(n_tgt):
            row = allowed[n_cond + p]
            assert np.all(row[:n_cond])
            assert np.all(row[n_cond : n_cond + p])
            assert not np.any(row[n_cond + p :])

    def test_anchors_are_teacher_forced_chain(self):
        ex = default_example(tgt_v=(1.5, 2.5, 0.5))
        emb = embed(ex, TINY)
        # first anchor: last observed value; then each previous target value
        assert list(emb.anchors[:, 0]) == [1.2, 1.5, 2.5]

    def test_positional_blocks_follow_the_model_geometry(self):
        ex = default_example()
        times = ex.features.t
        for config in (
            TINY,
            ModelConfig(n_layers=1, n_heads=2, model_dim=8, feature_dim=16),
        ):
            emb = embed(ex, config)
            d = config.feature_dim
            assert emb.kv_in.shape == (ex.n_points, config.qkv_in_dim)
            # own time at the front, the neighbour's time after the scalars
            assert np.array_equal(emb.kv_in[:, :d], positional_features(times, d))
            assert np.array_equal(
                emb.kv_in[:, d + 6 : 2 * d + 6],
                positional_features(ex.features.closest_t, d),
            )
            assert np.array_equal(emb.xqk_in[:, :d], emb.kv_in[:, :d])

    @pytest.mark.parametrize(
        "n_gcm, n_obs, n_tgt", [(6, 3, 1), (6, 3, 3), (0, 2, 4), (1, 1, 7), (40, 20, 25)]
    )
    def test_target_mask_equals_the_loop_built_mask(self, n_gcm, n_obs, n_tgt):
        rng = np.random.default_rng(n_gcm + n_obs + n_tgt)
        ex = build_example(
            gcm_t=np.arange(float(n_gcm)),
            gcm_v=rng.normal(size=n_gcm),
            obs_t=np.arange(float(n_obs)),
            obs_v=rng.normal(size=n_obs),
            tgt_t=n_obs + np.arange(float(n_tgt)),
            tgt_v=rng.normal(size=n_tgt),
        )
        emb = embed(ex, TINY)
        n_cond = n_gcm + n_obs
        n = n_cond + n_tgt
        allowed = np.zeros((n, n), dtype=bool)
        allowed[:, :n_cond] = True
        for p in range(n_tgt):
            allowed[n_cond + p, n_cond : n_cond + p] = True
        assert emb.blocked.dtype == bool
        assert np.array_equal(emb.blocked, ~allowed)
        # every query sees every conditioning key, so a one-target forecast
        # attends over the conditioning rows with no mask
        assert not emb.blocked[:, : emb.n_conditioning].any()

    @pytest.mark.parametrize("geometry", ["paper-study", "default"])
    def test_inputs_equal_one_positional_call_per_time_block(self, geometry):
        # embed evaluates positional features once per distinct time and
        # fills one input array; the features are elementwise in t, so its
        # inputs must equal, bit for bit, those concatenated from one call
        # on the point times and one on the neighbour times. They must be
        # C-contiguous float64 too, as the concatenation's are, since a
        # product can round differently on another memory layout. The last
        # example is a sampler's, with no target values
        config = GEOMETRIES[geometry][0]
        examples = geometry_examples(geometry)
        assert examples[-1].tgt_v is None
        for ex in examples:
            emb = embed(ex, config)
            for got, want in zip(
                (emb.q_in, emb.kv_in, emb.xqk_in), _two_call_inputs(ex, config)
            ):
                assert np.array_equal(got, want)
                assert got.dtype == np.float64 and got.flags.c_contiguous


def _two_call_inputs(ex, config):
    """q_in, kv_in and xqk_in concatenated from their blocks, with one
    positional call on the point times and one on the neighbour times."""
    f = ex.features
    times = f.t
    pos_enc = positional_features(times, config.feature_dim)
    closest_pos_enc = positional_features(f.closest_t, config.feature_dim)
    n = len(times)
    onehot = np.stack([f.series_id == SERIES_OBS, f.series_id == SERIES_GCM], axis=1)
    onehot = onehot.astype(float)

    def stack(delta, deriv):
        scalars = np.stack([delta, f.dist, deriv, f.closest_value], axis=1)
        return np.concatenate([pos_enc, onehot, scalars, closest_pos_enc, onehot], axis=1)

    return (
        stack(np.zeros(n), np.zeros(n)),
        stack(f.delta, f.deriv),
        np.concatenate([pos_enc, onehot], axis=1),
    )


class TestForward:
    def test_initial_mean_equals_anchor_exactly(self):
        ex = default_example()
        params = init_params(TINY, np.random.default_rng(0))
        emb = embed(ex, TINY)
        mu, sigma = forward(params, emb, TINY)
        assert np.array_equal(mu.data, emb.anchors)
        expected_sigma = np.log(2.0) + SIGMA_FLOOR
        assert np.allclose(sigma.data, expected_sigma)

    def test_shapes(self):
        ex = default_example()
        params = init_params(TINY, np.random.default_rng(1))
        mu, sigma = forward(params, embed(ex, TINY), TINY)
        assert mu.shape == (3, 1)
        assert sigma.shape == (3, 1)

    def test_sigma_respects_floor(self):
        ex = default_example()
        params = init_params(TINY, np.random.default_rng(2))
        # force the raw std channel strongly negative
        params["head.w2"] = Tensor(np.zeros_like(params["head.w2"].data))
        b2 = np.array([0.0, -40.0])
        params["head.b2"] = Tensor(b2)
        _, sigma = forward(params, embed(ex, TINY), TINY)
        assert np.all(sigma.data >= SIGMA_FLOOR)
        assert np.allclose(sigma.data, SIGMA_FLOOR, atol=1e-12)


def trained_like_params(seed=3, config=TINY):
    """Random params with a non-zero head so predictions actually move."""
    params = init_params(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    params["head.w2"] = Tensor(0.3 * rng.standard_normal(params["head.w2"].shape))
    params["head.b2"] = Tensor(0.1 * rng.standard_normal(params["head.b2"].shape))
    return params


class TestCausality:
    def test_own_value_cannot_reach_own_prediction(self):
        params = trained_like_params()
        base = default_example(tgt_v=(1.5, 2.5, 0.5))
        bumped = default_example(tgt_v=(9.9, 2.5, 0.5))
        mu_a, sd_a = forward(params, embed(base, TINY), TINY)
        mu_b, sd_b = forward(params, embed(bumped, TINY), TINY)
        assert mu_a.data[0, 0] == mu_b.data[0, 0]
        assert sd_a.data[0, 0] == sd_b.data[0, 0]

    def test_earlier_targets_unaffected_by_later_values(self):
        params = trained_like_params()
        base = default_example(tgt_v=(1.5, 2.5, 0.5))
        bumped = default_example(tgt_v=(1.5, 2.5, 123.0))
        mu_a, _ = forward(params, embed(base, TINY), TINY)
        mu_b, _ = forward(params, embed(bumped, TINY), TINY)
        # last value feeds nothing: every prediction identical
        assert np.array_equal(mu_a.data, mu_b.data)

    def test_teacher_forcing_feeds_later_targets(self):
        params = trained_like_params()
        base = default_example(tgt_v=(1.5, 2.5, 0.5))
        bumped = default_example(tgt_v=(9.9, 2.5, 0.5))
        mu_a, _ = forward(params, embed(base, TINY), TINY)
        mu_b, _ = forward(params, embed(bumped, TINY), TINY)
        assert mu_a.data[1, 0] != mu_b.data[1, 0]

    def test_conditioning_reaches_all_targets(self):
        params = trained_like_params()
        a = default_example()
        b = build_example(
            gcm_t=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            gcm_v=[5.3, -0.1, 0.4, 0.2, 0.0, 0.1],
            obs_t=[0.0, 1.0, 3.0],
            obs_v=[1.0, 2.0, 1.2],
            tgt_t=[4.0, 5.0, 6.0],
            tgt_v=[1.5, 2.5, 0.5],
        )
        mu_a, _ = forward(params, embed(a, TINY), TINY)
        mu_b, _ = forward(params, embed(b, TINY), TINY)
        assert not np.array_equal(mu_a.data, mu_b.data)


class TestGradients:
    def test_full_model_gradcheck(self):
        ex = default_example()
        emb = embed(ex, TINY)
        params = init_params(TINY, np.random.default_rng(7))
        # nudge the head off its zero init so its gradient path is generic
        params["head.w2"] = Tensor(
            0.05 * np.random.default_rng(8).standard_normal(params["head.w2"].shape)
        )
        names = sorted(params)
        tensors = [params[n] for n in names]

        def loss_fn(*leaves):
            p = dict(zip(names, leaves))
            mu, sigma = forward(p, emb, TINY)
            return gaussian_nll(mu, sigma, ex.tgt_v)

        report = gradcheck(loss_fn, tensors, tol=1e-3, step=1e-5)
        assert report.passed, "max grad error %g" % report.max_error


class TestLikelihood:
    def test_standard_normal_at_mode(self):
        with Tape():
            mu = Tensor(np.zeros((1, 1)))
            sigma = Tensor(np.ones((1, 1)))
            out = gaussian_nll(mu, sigma, np.zeros((1, 1)))
        assert out.data == pytest.approx(0.9189385332046727, abs=1e-9)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(5, 1))
        sd = np.abs(rng.normal(size=(5, 1))) + 0.5
        y = rng.normal(size=(5, 1))
        out = gaussian_nll(Tensor(mu), Tensor(sd), y)
        expected = np.mean(
            0.5 * LOG_2PI + np.log(sd) + (y - mu) ** 2 / (2 * sd**2)
        )
        assert out.data == pytest.approx(expected, abs=1e-12)

    def test_nll_helper_agrees(self):
        # the NumPy per-point form, by hand and against the autodiff form
        got = gaussian_nll_points(np.array([0.0, 2.0]), np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        expected = [0.5 * LOG_2PI, 0.5 * LOG_2PI + np.log(2.0) + 1.0 / 8.0]
        assert got == pytest.approx(expected, abs=1e-12)
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(6, 1))
        sd = np.abs(rng.normal(size=(6, 1))) + 0.5
        y = rng.normal(size=(6, 1))
        autodiff_form = gaussian_nll(Tensor(mu), Tensor(sd), y).data
        assert autodiff_form == pytest.approx(np.mean(gaussian_nll_points(y, mu, sd)), abs=1e-12)


class TestPredict:
    def test_returns_distributions(self):
        ex = default_example()
        params = init_params(TINY, np.random.default_rng(5))
        mu, sigma = forward(params, embed(ex, TINY), TINY)
        assert mu.shape == sigma.shape == (3, 1)
        assert np.all(np.isfinite(mu.data))
        assert np.all(sigma.data >= SIGMA_FLOOR)

    def test_prediction_validation(self):
        # the sampler's one-target prediction rejects non-finite output
        ex = one_target(default_example())
        ckpt = checkpoint_from_params(
            TINY, init_params(TINY, np.random.default_rng(5)), NormStats(0.0, 1.0)
        )
        params = forecast_params(ckpt)

        def predict():
            n_obs = ex.n_points - ex.n_gcm - ex.n_tgt
            memos = [(sampling._RowMemo(n), 0) for n in (ex.n_gcm, n_obs)]
            return sampling._predict_one(params, ex, memos, TINY)

        assert np.isfinite(predict()).all()
        params["head.b2"] = np.array([np.nan, 0.0], dtype=params["head.b2"].dtype)
        with pytest.raises(NumericError, match="non-finite"):
            predict()


class TestMakeBatchIntegration:
    def test_forward_on_sampled_batch(self):
        rng = np.random.default_rng(11)
        t = np.arange(64.0)
        pair = AlignedPair(t, rng.normal(size=64), rng.normal(size=64))
        cfg = BatchConfig(window_min=10, window_max=20)
        params = init_params(TINY, rng)
        for ex in make_batch([pair], 4, rng, cfg):
            mu, sigma = forward(params, embed(ex, TINY), TINY)
            assert mu.shape == (ex.n_tgt, 1)
            assert np.all(np.isfinite(mu.data))
            assert np.all(sigma.data >= SIGMA_FLOOR)


class TestTapeSize:
    def test_one_example_records_24_nodes_at_paper_study_geometry(self):
        # the geometry of acceptance test 04 and the benchmark's paper-study
        config = ModelConfig(
            n_layers=2, n_heads=2, model_dim=32, feature_dim=16, hidden_dim=32
        )
        rng = np.random.default_rng(5)
        t = np.arange(200.0)
        pair = AlignedPair(t, rng.normal(size=200), rng.normal(size=200))
        batch_config = BatchConfig(window_min=30, window_max=60, retain_p=0.8)
        (example,) = make_batch([pair], 1, rng, batch_config)
        params = init_params(config, rng)
        with Tape() as tape:
            mu, sigma = forward(params, embed(example, config), config)
            gaussian_nll(mu, sigma, example.tgt_v)
        # 11 perceptrons, 4 attention layers, the head's two slices and
        # concat, mu's slice and anchor, sigma's slice, softplus and floor,
        # and the NLL
        assert len(tape.nodes) == 24


def _float64(params):
    return {name: p.data for name, p in params.items()}


def cold_forecast(params, emb, config):
    """The forecast of ``emb``'s one target with every layer-0 row computed
    from ``emb`` itself, as a forecast day with nothing to reuse does."""
    return forecast(params, layer0_rows(params, emb), float(emb.anchors[0, 0]), config)


class TestInferenceRows:
    """:func:`model.forecast`, the untaped one-target forward that samples,
    scores and validates, against training's taped forward."""

    def _assert_matches_forward(self, params, ex, config, tol):
        emb = embed(ex, config)
        with Tape():
            mu, sigma = forward(params, emb, config)
        mean, std = cold_forecast(_float64(params), emb, config)
        assert type(mean) is float and type(std) is float
        # a mean can cross zero, so its error is relative to the largest
        # mean; a std is at least SIGMA_FLOOR, so its error is pointwise
        assert abs(mean - mu.data[0, 0]) <= tol * np.abs(mu.data).max()
        assert abs(std - sigma.data[0, 0]) <= tol * sigma.data[0, 0]

    @pytest.mark.parametrize("geometry", ["paper-study", "default"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_untaped_forward_matches_the_taped_forward(self, geometry, n_layers):
        config = replace(GEOMETRIES[geometry][0], n_layers=n_layers)
        params = trained_like_params(seed=n_layers, config=config)
        examples = geometry_examples(geometry, n_batch=2)
        assert examples[-1].n_tgt == 1 and examples[-1].tgt_v is None
        for ex in examples[-1:] + [one_target(ex) for ex in examples[:-1]]:
            self._assert_matches_forward(params, ex, config, 1e-12)

    @given(
        n_gcm=st.integers(0, 12),
        n_obs=st.integers(1, 12),
        n_layers=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_forecast_matches_the_taped_forward(self, n_gcm, n_obs, n_layers, seed):
        rng = np.random.default_rng(seed)
        ex = build_example(
            gcm_t=np.arange(float(n_gcm)),
            gcm_v=rng.normal(size=n_gcm),
            obs_t=np.arange(float(n_obs)),
            obs_v=rng.normal(size=n_obs),
            tgt_t=[float(n_obs)],
            tgt_v=None,
        )
        config = replace(TINY, n_layers=n_layers)
        self._assert_matches_forward(trained_like_params(seed, config), ex, config, 1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forecast_never_reads_its_targets_key_or_value(self, dtype):
        params = {
            name: p.data.astype(dtype) for name, p in trained_like_params(seed=6).items()
        }
        emb = embed(one_target(default_example()), TINY)
        kv_in, xv_in = emb.kv_in.copy(), emb.xv_in.copy()
        kv_in[-1] = 1e3 * np.random.default_rng(0).standard_normal(kv_in.shape[1])
        xv_in[-1] = -7.5
        bumped = replace(emb, kv_in=kv_in, xv_in=xv_in)
        assert cold_forecast(params, bumped, TINY) == cold_forecast(params, emb, TINY)
        # a conditioning point's value does reach the forecast
        xv_in[0] = -7.5
        assert cold_forecast(params, replace(emb, xv_in=xv_in), TINY) != cold_forecast(
            params, emb, TINY
        )

    def test_forecast_refuses_more_than_one_target(self):
        params = _float64(trained_like_params())
        with pytest.raises(DataError, match="one target, got 3"):
            layer0_rows(params, embed(default_example(), TINY))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_only_the_last_layer_drops_conditioning_queries(self, monkeypatch, n_layers):
        config = replace(GEOMETRIES["paper-study"][0], n_layers=n_layers)
        params = init_params(config, np.random.default_rng(0))
        ex = geometry_examples("paper-study", n_batch=1)[-1]
        emb = embed(ex, config)
        n, n_cond = ex.n_points, emb.n_conditioning
        calls = []
        real_taped, real_forecast = ad.attention, model._attend

        def taped_spy(q, k, v, bias, n_heads, skip):
            calls.append((q.shape[0], k.shape[0], v.shape[0], bias.shape, skip))
            return real_taped(q, k, v, bias, n_heads, skip)

        def forecast_spy(q, k, v, n_heads):
            calls.append((q.shape[0], k.shape[0], v.shape[0]))
            return real_forecast(q, k, v, n_heads)

        monkeypatch.setattr(ad, "attention", taped_spy)
        monkeypatch.setattr(model, "_attend", forecast_spy)
        # forward's last layer takes every row and skips the conditioning ones
        with Tape():
            forward(params, emb, config)
        full = [(n, n, n, (n, n), 0)] * (2 * (n_layers - 1))
        assert calls == full + [(n, n, n, (n, n), n_cond)] * 2
        del calls[:]
        # a forecast's keys and values are the conditioning rows, and its
        # last layer takes the target's query alone
        cold_forecast(_float64(params), emb, config)
        assert calls == [(n, n_cond, n_cond)] * (2 * (n_layers - 1)) + [(1, n_cond, n_cond)] * 2


class TestUntapedAttention:
    """A forecast's attention against the taped float64 op under embed's
    mask, in float32 and float64: at ordinary logits, whose raw exponents
    stay in range, and at logits whose raw exponents overflow or all
    underflow, which take the max-shifted fallback."""

    @given(
        n_gcm=st.integers(0, 12),
        n_obs=st.integers(1, 12),
        n_heads=st.integers(1, 4),
        target_only=st.booleans(),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.float32, np.float64]),
        # 0 for ordinary logits, 1 and -1 to send every raw exponent over
        # or under the dtype's range
        logit_sign=st.sampled_from([0, 1, -1]),
    )
    def test_matches_autodiff_attention(
        self, n_gcm, n_obs, n_heads, target_only, seed, dtype, logit_sign
    ):
        rng = np.random.default_rng(seed)
        ex = build_example(
            gcm_t=np.arange(float(n_gcm)),
            gcm_v=rng.normal(size=n_gcm),
            obs_t=np.arange(float(n_obs)),
            obs_v=rng.normal(size=n_obs),
            tgt_t=[float(n_obs)],
            tgt_v=None,
        )
        emb = embed(ex, TINY)
        n, n_cond = ex.n_points, emb.n_conditioning
        q, k, v = (3.0 * rng.standard_normal((n, 3 * n_heads)) for _ in range(3))
        if logit_sign:
            # each head's first slot is 1 in every key and, in every query, a
            # shift that takes every logit's raw exp past the dtype's largest
            # exponent (overflow) or below its smallest (underflow)
            k[:, 0::3], q[:, 0::3] = 1.0, 0.0
            logits = np.einsum("rhw,khw->hrk", q.reshape(n, n_heads, 3), k.reshape(n, n_heads, 3))
            reach = np.abs(logits).max() + np.log(np.finfo(dtype).max)
            q[:, 0::3] = logit_sign * reach
        q, k, v = (x.astype(dtype) for x in (q, k, v))
        rows = slice(n_cond if target_only else 0, None)
        got = model._attend(q[rows], k[:n_cond], v[:n_cond], n_heads)
        bias = emb.blocked[rows] * ad.MASK_FILL
        q, k, v = (Tensor(x.astype(np.float64)) for x in (q[rows], k, v))
        want = ad.attention(q, k, v, bias, n_heads).data
        assert got.dtype == dtype and got.shape == want.shape
        # 1e-12 of the largest output in float64, and as many of its eps in
        # float32
        tol = 1e-12 * np.finfo(dtype).eps / np.finfo(np.float64).eps
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())


@functools.lru_cache(maxsize=None)
def _layer0_inputs(geometry):
    """The sampler-style example's perceptron inputs at ``geometry``, with
    trained-like float64 parameters."""
    config = GEOMETRIES[geometry][0]
    emb = embed(geometry_examples(geometry)[-1], config)
    params = _float64(trained_like_params(seed=2, config=config))
    inputs = {"q": emb.q_in, "k": emb.kv_in, "v": emb.kv_in, "xq": emb.xqk_in, "xk": emb.xqk_in,
              "xv": emb.xv_in}  # fmt: skip
    return params, inputs


class TestLayer0Blocks:
    """The sampler's row memo rests on a property of the BLAS: a perceptron
    over any gathered block of two or more rows reproduces, bit for bit,
    those rows of the product over the whole window. A one-row product may
    take another kernel (gemv) and round differently, which is why a
    forecast day computes at least two rows. A BLAS that breaks this fails
    here, not as a sampler mismatch."""

    @pytest.mark.parametrize("geometry", ["paper-study", "default"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        size=st.one_of(st.integers(2, 8), st.integers(2, 300)),
        seed=st.integers(0, 2**16),
    )
    def test_a_block_of_two_rows_or_more_equals_the_whole_windows_rows(
        self, geometry, dtype, size, seed
    ):
        params, inputs = _layer0_inputs(geometry)
        n = len(inputs["q"])
        rows = np.sort(np.random.default_rng(seed).choice(n, min(size, n), replace=False))
        for name, x in inputs.items():
            weights = [params[name + part].astype(dtype) for part in (".w1", ".b1", ".w2", ".b2")]
            x = x.astype(dtype)
            whole = ad.perceptron(x, *weights)[1]
            block = ad.perceptron(x[rows], *weights)[1]
            assert block.dtype == dtype
            assert np.array_equal(block, whole[rows]), name


class TestTapedRows:
    """Under a tape the last layer's softmax skips the conditioning rows;
    training's loss and gradients stay those of every row computed."""

    @pytest.mark.parametrize("geometry", ["paper-study", "default"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_batch_loss_and_gradients_equal_every_row_bit_for_bit(
        self, monkeypatch, geometry, n_layers
    ):
        config = replace(GEOMETRIES[geometry][0], n_layers=n_layers)
        batch = geometry_examples(geometry)[:-1]
        assert all(ex.n_points > ex.n_tgt > 0 for ex in batch)
        real = ad.attention

        def step():
            params = trained_like_params(seed=n_layers, config=config)
            for p in params.values():
                p.requires_grad = True
            with Tape():
                # the step's loss recorded on one tape for the whole batch
                total = training._batch_loss(params, batch[0], config)
                for example in batch[1:]:
                    total = total + training._batch_loss(params, example, config)
                loss = total * (1.0 / sum(example.n_tgt for example in batch))
                backward(loss)
            return loss.data, {name: p.grad for name, p in params.items()}

        loss, grads = step()
        monkeypatch.setattr(
            ad, "attention", lambda q, k, v, bias, n_heads, skip: real(q, k, v, bias, n_heads)
        )
        every_row_loss, every_row_grads = step()
        assert np.array_equal(loss, every_row_loss)
        assert grads.keys() == every_row_grads.keys()
        for name, grad in grads.items():
            assert np.any(grad != 0.0), name
            assert np.array_equal(grad, every_row_grads[name]), name


class TestFloat32Forward:
    """Sampling and scoring forecast on float32 copies of the checkpoint's
    parameters; training runs the forward in float64 under a tape."""

    def test_checkpoint_tensors_are_untaped_float32_copies(self):
        params = trained_like_params(seed=5)
        ckpt = checkpoint_from_params(TINY, params, NormStats(0.0, 1.0))
        arrays = forecast_params(ckpt)
        assert sorted(arrays) == sorted(ckpt.params)
        for name, arr in arrays.items():
            assert type(arr) is np.ndarray and arr.dtype == np.float32, name
            assert np.array_equal(arr, ckpt.params[name].astype(np.float32)), name
            assert ckpt.params[name].dtype == np.float64, name

    @pytest.mark.parametrize("geometry", ["paper-study", "default"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_the_float64_taped_forward(self, geometry, n_layers):
        config = replace(GEOMETRIES[geometry][0], n_layers=n_layers)
        params = trained_like_params(seed=n_layers, config=config)
        f32 = forecast_params(checkpoint_from_params(config, params, NormStats(0.0, 1.0)))
        examples = geometry_examples(geometry, n_batch=2)
        for ex in examples[-1:] + [one_target(ex) for ex in examples[:-1]]:
            emb = embed(ex, config)
            with Tape():
                mu, sigma = forward(params, emb, config)
            mean, std = cold_forecast(f32, emb, config)
            # as in TestInferenceRows: a mean's error relative to the mean, a
            # std's pointwise
            assert mean == pytest.approx(mu.data[0, 0], rel=0, abs=1e-5 * abs(mu.data[0, 0]))
            assert std == pytest.approx(sigma.data[0, 0], rel=1e-5, abs=0)

    def test_a_taped_forward_refuses_float32_parameters(self):
        params = trained_like_params(seed=4)
        f32 = {name: Tensor(p.data.astype(np.float32)) for name, p in params.items()}
        emb = embed(default_example(), TINY)
        with pytest.raises(NumericError, match="float64"):
            forward(f32, emb, TINY)
        with Tape():
            with pytest.raises(NumericError, match="float64"):
                forward(f32, emb, TINY)
            forward(params, emb, TINY)  # float64 still records


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(TINY, np.random.default_rng(13))
        stats = NormStats(mean=14.2578125, std=3.0000000000000004)
        ckpt = checkpoint_from_params(
            TINY, params, stats, meta={"seed": 3, "ablate_gcm": False}
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.config == TINY
        assert back.norm_stats.mean == stats.mean
        assert back.norm_stats.std == stats.std
        assert back.meta == {"seed": 3, "ablate_gcm": False}
        assert sorted(back.params) == sorted(ckpt.params)
        for name in ckpt.params:
            assert np.array_equal(back.params[name], ckpt.params[name]), name

    def test_round_trip_preserves_predictions(self, tmp_path):
        ex = one_target(default_example())
        params = trained_like_params(seed=17)
        ckpt = checkpoint_from_params(TINY, params, NormStats(0.0, 1.0))
        before = cold_forecast(forecast_params(ckpt), embed(ex, TINY), TINY)
        save_checkpoint(ckpt, tmp_path / "c.json")
        back = load_checkpoint(tmp_path / "c.json")
        assert cold_forecast(forecast_params(back), embed(ex, back.config), back.config) == before

    def test_missing_param_rejected(self, tmp_path):
        import json

        params = init_params(TINY, np.random.default_rng(0))
        ckpt = checkpoint_from_params(TINY, params, NormStats(0.0, 1.0))
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        del payload["params"]["head.w2"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="missing"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        import json

        params = init_params(TINY, np.random.default_rng(0))
        ckpt = checkpoint_from_params(TINY, params, NormStats(0.0, 1.0))
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        payload["params"]["head.b2"]["shape"] = [3]
        payload["params"]["head.b2"]["data"] = [0.0, 0.0, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="shape"):
            load_checkpoint(path)

    def test_non_finite_rejected(self, tmp_path):
        import json

        params = init_params(TINY, np.random.default_rng(0))
        ckpt = checkpoint_from_params(TINY, params, NormStats(0.0, 1.0))
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        payload["params"]["head.b2"]["data"] = [0.0, None]
        path.write_text(json.dumps(payload).replace("null", "NaN"))
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("window_max", ["360", True, [360]])
    def test_non_numeric_window_max_rejected(self, tmp_path, window_max):
        params = init_params(TINY, np.random.default_rng(0))
        meta = {"window_max": window_max}
        ckpt = checkpoint_from_params(TINY, params, NormStats(0.0, 1.0), meta=meta)
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        with pytest.raises(DataError, match="window_max"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value, loads",
        [("t_max", 10000, True), ("delta_t", True, False), ("sigma_floor", "0.001", False)],
    )
    def test_retired_field_loads_only_at_its_constant(self, tmp_path, key, value, loads):
        import json

        params = init_params(TINY, np.random.default_rng(0))
        path = tmp_path / "c.json"
        save_checkpoint(checkpoint_from_params(TINY, params, NormStats(0.0, 1.0)), path)
        payload = json.loads(path.read_text())
        payload["config"][key] = value
        path.write_text(json.dumps(payload))
        if loads:
            assert load_checkpoint(path).config == TINY
        else:
            with pytest.raises(DataError, match=key):
                load_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("not json {")
        with pytest.raises(DataError, match="JSON"):
            load_checkpoint(path)
        with pytest.raises(DataError, match="cannot open"):
            load_checkpoint(tmp_path / "absent.json")


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="multiple"):
            ModelConfig(n_heads=3, model_dim=64)

    def test_feature_geometry(self):
        with pytest.raises(ConfigError, match="feature_dim"):
            ModelConfig(feature_dim=7)

    def test_param_shapes_cover_init(self):
        shapes = param_shapes(TINY)
        params = init_params(TINY, np.random.default_rng(0))
        assert set(shapes) == set(params)
        for name, tensor in params.items():
            assert tensor.shape == shapes[name]
