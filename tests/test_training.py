from dataclasses import replace

import numpy as np
import pytest

from temporal_bc import sampling, training
from temporal_bc.autodiff import Tape, Tensor, backward
from temporal_bc.batching import MARGIN, BatchConfig
from temporal_bc.errors import ConfigError, DataError
from temporal_bc.model import ModelConfig, init_params
from temporal_bc.rng import substream
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import NormStats, PairedDataset, TimeSeries, align
from temporal_bc.training import (
    Adam,
    MetricsRow,
    TrainConfig,
    train,
    write_metrics_csv,
)

TINY_MODEL = ModelConfig(
    n_layers=1, n_heads=2, model_dim=8, feature_dim=8, hidden_dim=8
)
TINY_BATCH = BatchConfig(window_min=10, window_max=20)


def toy_dataset(n=200, bias=2.0, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(float(n))
    signal = 10.0 + 3.0 * np.sin(2.0 * np.pi * t / 30.0)
    obs = signal + bias + noise * rng.normal(size=n)
    gcm = signal + noise * rng.normal(size=n)
    return PairedDataset(
        TimeSeries(t, obs), (TimeSeries(t, gcm),)
    )


class TestAdam:
    def test_single_step_is_signed_lr(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -3.0])
        opt = Adam({"p": p}, learning_rate=0.1)
        opt.step(opt.gradient())
        # first step: m_hat = g, v_hat = g^2, so the move is lr * sign(g)
        assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_none_grad_leaves_params_unchanged(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.5)
        opt.zero_grad()
        opt.step(opt.gradient())
        assert np.array_equal(p.data, [3.0])

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        opt = Adam({"p": p}, learning_rate=1e-3)
        opt.zero_grad()
        assert p.grad is None

    def test_constant_gradient_converges_steadily(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.01)
        for _ in range(10):
            p.grad = np.array([1.0])
            opt.step(opt.gradient())
        assert p.data[0] == pytest.approx(-0.1, abs=1e-4)


    def test_flat_update_equals_per_parameter_update_bit_for_bit(self):
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "s": (), "idle": (2, 2)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        params = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
        opt = Adam(params, learning_rate=0.05)
        # the per-parameter update, written out
        want = {name: a.copy() for name, a in start.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 7):
            grads = {name: rng.standard_normal(shapes[name]) for name in ("w", "b", "s")}
            for name, p in params.items():
                p.grad = grads.get(name)  # "idle" has no gradient
            opt.step(opt.gradient())
            for name, shape in shapes.items():
                g = grads.get(name, np.zeros(shape))
                m[name] = 0.9 * m[name] + (1 - 0.9) * g
                v[name] = 0.999 * v[name] + (1 - 0.999) * g**2
                m_hat = m[name] / (1 - 0.9**t)
                v_hat = v[name] / (1 - 0.999**t)
                want[name] = want[name] - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for name, p in params.items():
                assert np.array_equal(p.data, want[name]), (t, name)
                assert np.shares_memory(p.data, opt.data), name
        assert np.array_equal(params["idle"].data, start["idle"])


class TestTrainConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(eval_interval=0)
        with pytest.raises(ConfigError):
            TrainConfig(plateau_patience=0)


class TestTrain:
    def test_deterministic(self):
        ds = toy_dataset()
        cfg = TrainConfig(steps=5, batch_size=2, seed=11)
        a = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        b = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        for name in a.checkpoint.params:
            assert np.array_equal(a.checkpoint.params[name], b.checkpoint.params[name])
        assert [r.train_nll for r in a.metrics] == [r.train_nll for r in b.metrics]
        assert [r.val_nll for r in a.metrics] == [r.val_nll for r in b.metrics]

    def test_seed_changes_run(self):
        ds = toy_dataset()
        a = train(ds, TINY_MODEL, TrainConfig(steps=3, seed=1), TINY_BATCH)
        b = train(ds, TINY_MODEL, TrainConfig(steps=3, seed=2), TINY_BATCH)
        assert any(
            not np.array_equal(a.checkpoint.params[n], b.checkpoint.params[n])
            for n in a.checkpoint.params
        )

    def test_step_zero_row_and_metric_cadence(self):
        ds = toy_dataset()
        cfg = TrainConfig(steps=6, batch_size=2, eval_interval=3)
        result = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        rows = result.metrics
        assert rows[0].step == 0
        assert rows[0].train_nll is None
        assert rows[0].val_nll is not None and np.isfinite(rows[0].val_nll)
        assert [r.step for r in rows] == [0, 1, 2, 3, 4, 5, 6]
        assert all(r.train_nll is not None for r in rows[1:])
        assert [r.val_nll is not None for r in rows[1:]] == [
            False, False, True, False, False, True,
        ]

    def test_normalization_comes_from_observations(self):
        ds = toy_dataset()
        result = train(
            ds, TINY_MODEL, TrainConfig(steps=2), TINY_BATCH
        )
        stats = NormStats.from_series(ds.obs)
        assert result.checkpoint.norm_stats.mean == stats.mean
        assert result.checkpoint.norm_stats.std == stats.std
        assert result.checkpoint.meta["n_train_points"] == 180

    def test_checkpoint_records_the_training_window_geometry(self):
        result = train(
            toy_dataset(), TINY_MODEL, TrainConfig(steps=2), TINY_BATCH
        )
        meta = result.checkpoint.meta
        assert (meta["window_min"], meta["window_max"]) == (10, 20)
        assert (meta["margin"], meta["retain_p"]) == (MARGIN, TINY_BATCH.retain_p)

    def test_loss_improves_on_toy_problem(self):
        ds = toy_dataset(n=300, seed=4)
        cfg = TrainConfig(
            steps=60, batch_size=4, learning_rate=3e-3, eval_interval=30, seed=5
        )
        result = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        first = np.mean([r.train_nll for r in result.metrics[1:6]])
        last = np.mean([r.train_nll for r in result.metrics[-5:]])
        assert last < first
        assert result.stop_reason in ("max_steps", "val_plateau")
        assert not result.aborted

    def test_plateau_stop(self):
        ds = toy_dataset()
        # an oversized step ruins the near-optimal anchor init immediately,
        # so validation never improves on step 0 and patience runs out
        cfg = TrainConfig(
            steps=50, batch_size=2, learning_rate=0.5, eval_interval=1,
            plateau_patience=3,
        )
        result = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        assert result.stop_reason == "val_plateau"
        assert result.metrics[-1].step < 50

    def test_abort_on_non_finite_loss(self, monkeypatch):
        ds = toy_dataset()

        calls = {"n": 0}
        real = training._batch_loss

        def poisoned(params, example, config):
            calls["n"] += 1
            # two examples a step: the sixth call is the second example step
            # 3 runs, after the first has swept its gradients into the params
            if calls["n"] >= 6:
                return Tensor(np.array(np.nan))
            return real(params, example, config)

        monkeypatch.setattr(training, "_batch_loss", poisoned)
        cfg = TrainConfig(steps=20, batch_size=2, seed=9)
        result = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        monkeypatch.undo()
        assert calls["n"] == 6
        assert result.aborted
        assert result.stop_reason == "non_finite_loss"
        # parameters roll back to the last finite step (2 updates applied)
        assert result.metrics[-1].step == 2
        two_steps = train(ds, TINY_MODEL, replace(cfg, steps=2), TINY_BATCH)
        for name, arr in result.checkpoint.params.items():
            assert np.all(np.isfinite(arr)), name
            assert np.array_equal(arr, two_steps.checkpoint.params[name]), name

    def test_abort_on_non_finite_gradient(self, monkeypatch):
        ds = toy_dataset()
        seen = {"sweeps": 0}
        real_loss, real_backward = training._batch_loss, training.backward

        def capture(params, example, config):
            seen["params"] = params
            return real_loss(params, example, config)

        def poisoned(loss):
            real_backward(loss)
            seen["sweeps"] += 1
            # two examples a step: the fifth sweep is step 3's first
            if seen["sweeps"] == 5:  # finite loss, NaN gradient
                head = seen["params"]["head.b2"]
                head.grad = np.full_like(head.grad, np.nan)

        monkeypatch.setattr(training, "_batch_loss", capture)
        monkeypatch.setattr(training, "backward", poisoned)
        cfg = TrainConfig(steps=20, batch_size=2, seed=9)
        result = train(ds, TINY_MODEL, cfg, TINY_BATCH)
        monkeypatch.undo()
        assert result.aborted
        assert result.stop_reason == "non_finite_gradient"
        assert result.metrics[-1].step == 2
        # the checkpoint holds exactly the parameters after step 2
        two_steps = train(ds, TINY_MODEL, replace(cfg, steps=2), TINY_BATCH)
        for name, arr in result.checkpoint.params.items():
            assert np.all(np.isfinite(arr)), name
            assert np.array_equal(arr, two_steps.checkpoint.params[name]), name

    def test_interim_checkpoints_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "CHECKPOINT_INTERVAL", 2)
        ds = toy_dataset()
        cfg = TrainConfig(steps=4, batch_size=2)
        asked = []

        def path(name):
            asked.append(name)
            return str(tmp_path / name)

        train(ds, TINY_MODEL, cfg, TINY_BATCH, checkpoint_path=path)
        # step 4 is the final step, so only step 2 gets an interim snapshot
        assert asked == ["checkpoint_step000002.json"]
        assert [q.name for q in tmp_path.iterdir()] == asked

    def test_stop_step_gets_no_interim_checkpoint(self, tmp_path, monkeypatch):
        # a plateau stop ends training, so its step has only checkpoint.json
        monkeypatch.setattr(training, "CHECKPOINT_INTERVAL", 1)
        cfg = TrainConfig(
            steps=50, batch_size=2, learning_rate=0.5, eval_interval=1,
            plateau_patience=3,
        )
        result = train(
            toy_dataset(), TINY_MODEL, cfg, TINY_BATCH,
            checkpoint_path=lambda name: str(tmp_path / name),
        )  # fmt: skip
        assert result.stop_reason == "val_plateau"
        last = result.metrics[-1].step
        names = ["checkpoint_step%06d.json" % step for step in range(1, last)]
        assert sorted(q.name for q in tmp_path.iterdir()) == names

    def test_too_short_dataset_rejected(self):
        ds = toy_dataset(n=22)
        with pytest.raises(DataError, match="too short"):
            train(ds, TINY_MODEL, TrainConfig(steps=1), TINY_BATCH)


class TestValidation:
    # windows that fit TINY_BATCH's window_max of 20
    SAMPLER = SamplerConfig(obs_window=20, gcm_past=10, gcm_future=10)

    def trained(self):
        ds = toy_dataset(n=400, seed=3)
        result = train(ds, TINY_MODEL, TrainConfig(steps=3, batch_size=2),
                       TINY_BATCH, self.SAMPLER)  # fmt: skip
        tail = align(ds, 0).times[result.checkpoint.meta["n_train_points"] :]
        return ds, result, tail, training._validation_days(tail)

    def test_days_are_evenly_spaced_over_the_tail(self):
        tail = np.arange(360.0, 400.0)
        days = training._validation_days(tail)
        assert len(days) == training.VAL_DAYS
        assert (days[0], days[-1]) == (tail[0], tail[-1])
        assert set(np.diff(days)) == {1.0, 2.0}
        short = tail[: training.VAL_DAYS - 1]
        assert np.array_equal(training._validation_days(short), short)

    def test_validation_nll_is_the_held_out_score_in_z_units(self):
        ds, result, tail, days = self.trained()
        assert len(days) < len(tail)  # a subset of the held-out days
        ckpt = result.checkpoint
        val = training.evaluate_nll(ckpt, ds, days, self.SAMPLER)
        # the last evaluation scored the checkpoint's parameters
        assert result.metrics[-1].val_nll == val
        score = sampling.predictive_nll(
            ckpt, ds, 0, start_t=tail[0], n_days=len(tail), config=self.SAMPLER
        )
        expected = np.mean(score.nll[np.isin(score.times, days)])
        expected -= np.log(ckpt.norm_stats.std)
        assert val == pytest.approx(expected, rel=1e-12, abs=0)

    def test_validation_forecasts_are_the_sampler_forecasts(self, monkeypatch):
        ds, result, _, days = self.trained()
        forecasts = []
        real = sampling._predict_one

        def recorded(*args):
            forecasts.append(real(*args))
            return forecasts[-1]

        monkeypatch.setattr(sampling, "_predict_one", recorded)
        training.evaluate_nll(result.checkpoint, ds, days, self.SAMPLER)
        validated = forecasts[:]
        del forecasts[:]
        first_day = replace(self.SAMPLER, horizon=1, n_trajectories=1, deterministic=True)
        for tau in days:
            past = PairedDataset(ds.obs.window(0.0, tau - 1.0), ds.runs)
            sampling.sample_trajectories(result.checkpoint, past, 0, first_day)
        assert len(validated) == len(days)
        assert forecasts == validated

    def test_window_warnings_are_logged_once_per_train_call(self, caplog):
        # a 40-day GCM window, longer than TINY_BATCH's window_max of 20,
        # whose future part runs past the run's last day at the last
        # validation day
        sampler = SamplerConfig(obs_window=20, gcm_past=10, gcm_future=30)
        with caplog.at_level("WARNING", logger="temporal_bc.sampling"):
            result = train(toy_dataset(n=400, seed=3), TINY_MODEL,
                           TrainConfig(steps=30, batch_size=2, eval_interval=10),
                           TINY_BATCH, sampler)  # fmt: skip
        assert sum(row.val_nll is not None for row in result.metrics) == 4
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert "future window truncates" in messages[0]
        assert "exceeds the longest training window (20 days)" in messages[1]

    @pytest.mark.parametrize(
        "sampler",
        [SamplerConfig(obs_window=181), SamplerConfig(gcm_past=181)],
        ids=["obs_window-longer-than-the-split", "gcm-before-the-tail-missing"],
    )
    def test_unforecastable_tail_fails_before_the_first_step(self, monkeypatch, sampler):
        # toy_dataset's 200 days leave a 180-day training split
        batches = []
        monkeypatch.setattr(training, "make_batch", lambda *args: batches.append(args))
        with pytest.raises(DataError, match="held-out tail"):
            train(toy_dataset(), TINY_MODEL, TrainConfig(steps=2), TINY_BATCH, sampler)
        assert batches == []


def whole_batch_loss(params, batch, config):
    """A step's loss recorded on one tape for the whole batch: the oracle
    for the order in which ``train``'s per-example sweeps add gradients."""
    total = None
    n_points = 0
    for example in batch:
        weighted = training._batch_loss(params, example, config)
        total = weighted if total is None else total + weighted
        n_points += example.n_tgt
    return total * (1.0 / n_points)


def test_per_example_sweeps_equal_one_whole_batch_sweep_bit_for_bit(monkeypatch):
    batches, seen = [], []
    real_make_batch, real_step = training.make_batch, Adam.step

    def recorded_make_batch(*args, **kwargs):
        batch = real_make_batch(*args, **kwargs)
        batches.append(batch)
        return batch

    def recorded_step(self, grad):
        seen.append({name: p.grad.copy() for name, p in self.params.items()})
        real_step(self, grad)

    monkeypatch.setattr(training, "make_batch", recorded_make_batch)
    monkeypatch.setattr(Adam, "step", recorded_step)
    cfg = TrainConfig(steps=3, batch_size=4, learning_rate=3e-3, seed=6)
    result = train(toy_dataset(), TINY_MODEL, cfg, BatchConfig(window_min=10, window_max=40))
    monkeypatch.undo()
    assert len(batches) == len(seen) == 3

    # the same batches from the same start, each step swept on one tape
    params = init_params(TINY_MODEL, substream(cfg.seed, "init"))
    optimizer = Adam(params, learning_rate=cfg.learning_rate)
    for batch, grads, row in zip(batches, seen, result.metrics[1:]):
        assert len({example.n_points for example in batch}) > 1
        optimizer.zero_grad()
        with Tape():
            loss = whole_batch_loss(params, batch, TINY_MODEL)
            backward(loss)
        assert np.array_equal(loss.data, row.train_nll)
        assert grads.keys() == params.keys()
        for name, p in params.items():
            assert np.array_equal(p.grad, grads[name]), (row.step, name)
        optimizer.step(optimizer.gradient())


class TestMetricsCsv:
    def test_format(self, tmp_path):
        rows = [
            MetricsRow(step=0, train_nll=None, val_nll=1.25),
            MetricsRow(step=1, train_nll=0.5, val_nll=None),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        text = path.read_text()
        assert text == "step,train_nll,val_nll\n0,,1.25\n1,0.5,\n"
