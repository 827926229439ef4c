"""The benchmark's instruments patch package functions by name.

``perfbench/tracing.py`` replaces functions at the module attributes their
callers look up. These tests install both instruments, so a rename in the
package fails here rather than in a benchmark run, and they pin the calls
the benchmark's timings count on: one training ``make_batch`` call per
step, one ``_batch_loss`` and one ``backward`` call per example, and one
``build_inference_example`` call per forecast day.
"""

import os
import sys

import numpy as np
import pytest

from temporal_bc import sampling
from temporal_bc.batching import BatchConfig
from temporal_bc.model import ModelConfig, checkpoint_from_params, init_params
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import NormStats, PairedDataset, TimeSeries
from temporal_bc.training import TrainConfig, train

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import tracing  # noqa: E402

TINY = ModelConfig(n_layers=1, n_heads=2, model_dim=8, feature_dim=8, hidden_dim=8)


@pytest.mark.parametrize("instrument", ["marks", "tracer"])
def test_every_patch_resolves_and_restores(instrument):
    patches = tracing.Patches()
    try:
        if instrument == "marks":
            tracing.Marks(lambda: None, 1.0).install(patches)
        else:
            tracing.Tracer().install(patches)
        # wrap() looks each name up, so a missing one has raised by now
        saved = list(patches._saved)
        assert saved
        for owner, name, original in saved:
            assert getattr(owner, name) is not original, name
    finally:
        patches.restore()
    for owner, name, original in saved:
        assert getattr(owner, name) is original, name


def test_each_step_is_marked_once_and_traced_per_example():
    # the benchmark marks a step at each training make_batch call and times
    # its forward and backward from the batch_loss and backward spans
    patches = tracing.Patches()
    marks, tracer = tracing.Marks(lambda: None, 1.0), tracing.Tracer()
    try:
        marks.install(patches)
        tracer.install(patches)
        marks.start("train")
        train(
            _dataset(n_obs=200, n_gcm=200),
            TINY,
            TrainConfig(steps=3, batch_size=4),
            BatchConfig(window_min=10, window_max=20),
        )
        marks.start(None)
    finally:
        patches.restore()
    totals = tracer.totals()
    assert len(marks.times["train"][0]) == 3
    assert tracer.counts["train_batches"] == 3
    assert totals["training.batch_loss"]["calls"] == 3 * 4
    assert totals["autodiff.backward"]["calls"] == 3 * 4


def _dataset(n_obs=100, n_gcm=300):
    rng = np.random.default_rng(0)
    obs = TimeSeries(np.arange(float(n_obs)), rng.normal(size=n_obs))
    gcm = TimeSeries(np.arange(float(n_gcm)), rng.normal(size=n_gcm))
    return PairedDataset(obs, (gcm,))


def test_one_inference_example_per_forecast_day(monkeypatch):
    calls = []
    real = sampling.build_inference_example

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling, "build_inference_example", counted)
    ds = _dataset()
    params = init_params(TINY, np.random.default_rng(0))
    ckpt = checkpoint_from_params(TINY, params, NormStats.from_series(ds.obs))

    sampling.sample_trajectories(ckpt, ds, 0, SamplerConfig(horizon=4, n_trajectories=3))
    assert len(calls) == 4 * 3
    del calls[:]
    sampling.predictive_nll(ckpt, _dataset(n_obs=200), 0, start_t=150.0, n_days=5)
    assert calls == [150.0, 151.0, 152.0, 153.0, 154.0]
