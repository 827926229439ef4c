"""Smoke runs of both sub-commands of scripts/study.py, and its cases' settings."""

import re
from dataclasses import fields, is_dataclass


def _numbers(line: str) -> list[float]:
    return [float(x) for x in re.findall(r"[-+]?\d+\.\d+", line)]


def test_synthetic(study, capsys):
    got = study.main([
        "synthetic", "--n-train", "400", "--n-gen", "20", "--steps", "3",
        "--n-trajectories", "2",
    ])  # fmt: skip
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("numeric environment: BLAS ")
    assert lines[1].startswith("trained 3 steps")
    assert lines[2].startswith("one-step predictive NLL  model")
    assert _numbers(lines[2]) == [round(got["model_nll"], 4), round(got["baseline_nll"], 4)]
    assert "over 20 generated days" in lines[3]
    assert lines[4].startswith("heatwaves above 1.5")


def test_asynchrony(study, capsys):
    got = study.main([
        "asynchrony", "--n-days", "300", "--n-train", "200", "--n-eval", "20",
        "--steps", "3",
    ])  # fmt: skip
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("numeric environment: BLAS ")
    labels = [line[:18].rstrip() for line in lines[1:]]
    assert labels == ["with simulation", "simulation zeroed"] == list(got)
    for line, nll in zip(lines[1:], got.values()):
        assert _numbers(line) == [round(nll, 4)]
        assert "(trained 3 steps, stop=max_steps)" in line


def _leaves(config, prefix=""):
    """Every field of a case, its configs' fields named ``config.field``."""
    out = {}
    for field in fields(config):
        value = getattr(config, field.name)
        if is_dataclass(value):
            out.update(_leaves(value, field.name + "."))
        else:
            out[prefix + field.name] = value
    return out


# the recipes of acceptance tests 04 and 05; a changed setting fails here
# under its own name
SYNTHETIC = {
    "n_days": 2620, "n_train": 2000, "lengthscale": 2.0, "mean_bias": 2.0,
    "time_shift": 0.0, "noise_std": 0.3, "data_seed": 101,
    "batch.retain_p": 0.8, "batch.window_min": 30, "batch.window_max": 60,
    "batch.ablate_gcm": False,
    "train.steps": 800, "train.batch_size": 8, "train.learning_rate": 3e-3,
    "train.seed": 3, "train.eval_interval": 100, "train.plateau_patience": 49,
    "sampler.obs_window": 30, "sampler.gcm_past": 30, "sampler.gcm_future": 30,
    "sampler.horizon": 1, "sampler.n_trajectories": 16, "sampler.seed": 11,
    "sampler.deterministic": False,
    "eval_gap": 0, "n_eval": 500,
}
ASYNCHRONY = {
    "n_days": 1000, "n_train": 800, "lengthscale": 1.5, "mean_bias": 1.0,
    "time_shift": 1.0, "noise_std": 0.1, "data_seed": 202,
    "batch.retain_p": 0.5, "batch.window_min": 60, "batch.window_max": 120,
    "batch.ablate_gcm": False,
    "train.steps": 1000, "train.batch_size": 8, "train.learning_rate": 3e-3,
    "train.seed": 5, "train.eval_interval": 100, "train.plateau_patience": 10,
    "sampler.obs_window": 60, "sampler.gcm_past": 60, "sampler.gcm_future": 120,
    "sampler.horizon": 1, "sampler.n_trajectories": 8, "sampler.seed": 0,
    "sampler.deterministic": False,
    "eval_gap": 10, "n_eval": 100,
}  # fmt: skip


def test_defaults_follow_each_study(study):
    assert _leaves(study.SYNTHETIC) == SYNTHETIC
    assert _leaves(study.ASYNCHRONY) == ASYNCHRONY
    # each flag's default is its case's setting
    synthetic = study.parse_args(["synthetic"])
    asynchrony = study.parse_args(["asynchrony"])
    assert (synthetic.n_train, synthetic.steps, synthetic.data_seed) == (2000, 800, 101)
    assert (synthetic.n_gen, synthetic.sample_seed, synthetic.heat_threshold) == (500, 11, 1.5)
    assert (asynchrony.n_train, asynchrony.steps, asynchrony.data_seed) == (
        800, 1000, 202
    )
    assert (asynchrony.n_days, asynchrony.n_eval, asynchrony.train_seed) == (1000, 100, 5)
    assert asynchrony.time_shift == 1.0 and synthetic.time_shift == 0.0
