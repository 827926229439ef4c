import argparse
import json
import os
import platform
import warnings

import numpy as np
import pytest

from temporal_bc import cli, gp, metrics, training
from temporal_bc.cli import main
from temporal_bc.model import (
    ModelConfig,
    checkpoint_from_params,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from temporal_bc.timeseries import (
    GCM,
    OBS,
    NormStats,
    TimeSeries,
    load_csv,
    write_gcm_csv,
    write_obs_csv,
    write_samples_csv,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

# above and below a heatwave threshold of 10
H, L = 11.0, 0.0

# train and sample read this one file, and each validates all four sections
TINY_CONFIG = {
    "model": {
        "n_layers": 1, "n_heads": 2, "model_dim": 8,
        "feature_dim": 8, "hidden_dim": 8,
    },
    "batch": {"window_min": 10, "window_max": 20},
    "train": {"steps": 3, "batch_size": 2},
    "sampler": {"horizon": 5},
}


def write_pair(dirpath, n_obs=450, n_gcm=480, seed=0, n_runs=1):
    rng = np.random.default_rng(seed)
    obs_t = np.arange(float(n_obs))
    gcm_t = np.arange(float(n_gcm))
    base = 15.0 + 3.0 * np.sin(2 * np.pi * gcm_t / 40.0)
    obs = TimeSeries(obs_t, base[:n_obs] + 2.0 + 0.2 * rng.normal(size=n_obs), OBS)
    runs = [TimeSeries(gcm_t, base + 0.2 * rng.normal(size=n_gcm), GCM) for _ in range(n_runs)]
    obs_path = os.path.join(dirpath, "obs.csv")
    gcm_path = os.path.join(dirpath, "gcm.csv")
    write_obs_csv(obs, obs_path)
    write_gcm_csv(runs, gcm_path)
    return obs_path, gcm_path


def read_table(path):
    """A report table's header, and its value rows as arrays grouped by
    their (method, run, trajectory) key."""
    lines = open(path, encoding="utf-8").read().splitlines()
    groups = {}
    for line in lines[1:]:
        method, run, traj, *cells = line.split(",")
        groups.setdefault((method, run, traj), []).append([float(c) for c in cells])
    return lines[0], {key: np.array(rows) for key, rows in groups.items()}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


class TestSynth:
    def test_happy_path(self, tmp_path):
        out = str(tmp_path / "synth")
        code = main([
            "synth", "--out-dir", out, "--n-days", "50", "--n-runs", "2",
            "--mean-bias", "2.0", "--noise-std", "0.1", "--seed", "7",
        ])
        assert code == 0
        obs = load_csv(os.path.join(out, "obs.csv"), OBS)
        runs = load_csv(os.path.join(out, "gcm.csv"), GCM)
        assert len(obs) == 50
        assert len(runs) == 2
        truth = json.loads((tmp_path / "synth" / "truth.json").read_text())
        assert truth["mean_bias"] == 2.0
        manifest = json.loads((tmp_path / "synth" / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seeds"] == {"seed": 7}
        assert manifest["outputs"] == ["gcm.csv", "obs.csv", "truth.json"]

    def test_manifest_records_the_numeric_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["synth", "--out-dir", str(tmp_path / "s"), "--n-days", "10"]) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"]  # the BLAS name and version
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "3"
        # the SIMD kernels of exp and tanh, None on NumPy before 2.0
        assert "simd" in env
        if env["simd"] is not None:
            assert sorted(env["simd"]) == ["exp", "tanh"]
            assert all(sorted(sigs) == ["dd", "ff"] for sigs in env["simd"].values())
        assert env["threads"]["OMP_NUM_THREADS"] is None

    def test_byte_identical_across_invocations(self, tmp_path):
        args = ["--n-days", "40", "--noise-std", "0.3", "--seed", "5"]
        main(["synth", "--out-dir", str(tmp_path / "a")] + args)
        main(["synth", "--out-dir", str(tmp_path / "b")] + args)
        for name in ("obs.csv", "gcm.csv", "truth.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("kind", gp.KINDS)
    def test_each_kernel_writes_the_direct_draw(self, tmp_path, kind):
        out = str(tmp_path / kind)
        assert main([
            "synth", "--out-dir", out, "--n-days", "60", "--n-runs", "2",
            "--kernel", kind, "--lengthscale", "3.0", "--period", "1.7",
            "--alpha", "2.5", "--mean-bias", "1.0", "--time-shift", "0.9",
            "--noise-std", "0.3", "--start-day", "5", "--seed", "9",
        ]) == 0
        kernel = gp.Kernel(kind, lengthscale=3.0, period=1.7, alpha=2.5)
        obs, runs = gp.make_run_ensemble(
            kernel, 5.0 + np.arange(60.0), mean_bias=1.0, time_shift=0.9,
            noise_std=0.3, n_runs=2, seed=9,
        )
        got_obs = load_csv(os.path.join(out, "obs.csv"), OBS)
        got_runs = load_csv(os.path.join(out, "gcm.csv"), GCM)
        assert np.array_equal(got_obs.times, obs.times)
        assert np.array_equal(got_obs.values, obs.values)
        assert len(got_runs) == 2
        for got, want in zip(got_runs, runs):
            assert np.array_equal(got.values, want.values)
        truth = json.loads((tmp_path / kind / "truth.json").read_text())
        assert truth["kernel"] == kind

    def test_periodic_kernel_draws_a_series_with_its_period(self, tmp_path):
        # on a daily grid the latent repeats every 7 days, and varies within
        # them far beyond the Cholesky jitter's scale
        out = str(tmp_path / "p")
        assert main([
            "synth", "--out-dir", out, "--n-days", "200", "--kernel", "periodic",
            "--period", "7", "--lengthscale", "1.0", "--seed", "3",
        ]) == 0
        latent = load_csv(os.path.join(out, "obs.csv"), OBS).values
        assert np.std(latent) > 0.1
        assert np.corrcoef(latent[:-7], latent[7:])[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert np.corrcoef(latent[:-1], latent[1:])[0, 1] < 0.99

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-days", "1"], "n-days must be >= 2"),
            (["--lengthscale", "-1"], "lengthscale must be positive"),
            (["--n-runs", "0"], "n_runs must be at least 1"),
            # kernels that cannot vary on the daily grid
            (["--kernel", "periodic"], "--kernel periodic needs --period"),
            (
                ["--kernel", "rational_quadratic", "--alpha", "1e300"],
                "correlation 1 at a lag of 1 day",
            ),
            (["--lengthscale", "1e-300"], "is not finite at lags 0 and 1 day"),
        ],
        ids=[
            "one-day", "negative-lengthscale", "no-runs", "periodic-default-period",
            "rational-quadratic-huge-alpha", "lengthscale-underflows",
        ],
    )
    def test_rejected_settings_write_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before NumPy warns
            code = main(["synth", "--out-dir", str(out), "--n-days", "50"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_bias_is_recovered_in_the_data(self, tmp_path):
        out = str(tmp_path / "s")
        main([
            "synth", "--out-dir", out, "--n-days", "400",
            "--mean-bias", "3.0", "--seed", "1",
        ])
        obs = load_csv(os.path.join(out, "obs.csv"), OBS)
        (run,) = load_csv(os.path.join(out, "gcm.csv"), GCM)
        assert np.allclose(obs.values - run.values, 3.0, atol=1e-9)


class TestTrainSample:
    def test_train_then_sample(self, tmp_path, config_path):
        obs_path, gcm_path = write_pair(str(tmp_path))
        train_dir = str(tmp_path / "train")
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", train_dir, "--config", config_path, "--seed", "3",
        ])
        assert code == 0
        ckpt_path = os.path.join(train_dir, "checkpoint.json")
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.meta["seed"] == 3
        assert ckpt.meta["steps_run"] == 3
        assert not ckpt.meta["ablate_gcm"]
        metrics_lines = (tmp_path / "train" / "metrics.csv").read_text().splitlines()
        assert metrics_lines[0] == "step,train_nll,val_nll"
        assert len(metrics_lines) == 5  # header + step0 + 3 steps
        manifest = json.loads((tmp_path / "train" / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"obs", "gcm"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64

        sample_dir = str(tmp_path / "samples")
        code = main([
            "sample", "--checkpoint", ckpt_path, "--obs", obs_path,
            "--gcm", gcm_path, "--out-dir", sample_dir, "--config", config_path,
            "--n-trajectories", "2", "--seed", "11",
        ])
        assert code == 0
        lines = (tmp_path / "samples" / "samples.csv").read_text().splitlines()
        assert lines[0] == "run,trajectory,t,value"
        assert len(lines) == 1 + 2 * 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and float(first[2]) == 450.0

    def test_sample_single_run_and_determinism(self, tmp_path, config_path):
        obs_path, gcm_path = write_pair(str(tmp_path))
        train_dir = str(tmp_path / "train")
        main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", train_dir, "--config", config_path,
        ])
        ckpt = os.path.join(train_dir, "checkpoint.json")
        base = [
            "sample", "--checkpoint", ckpt, "--obs", obs_path,
            "--gcm", gcm_path, "--horizon", "3", "--n-trajectories", "2",
            "--seed", "4",
        ]
        main(base + ["--out-dir", str(tmp_path / "s1"), "--run", "0"])
        main(base + ["--out-dir", str(tmp_path / "s2"), "--run", "all"])
        a = (tmp_path / "s1" / "samples.csv").read_bytes()
        b = (tmp_path / "s2" / "samples.csv").read_bytes()
        # one run in the dataset: explicit --run 0 equals --run all
        assert a == b
        main(base + ["--out-dir", str(tmp_path / "s3"), "--run", "0"])
        assert (tmp_path / "s3" / "samples.csv").read_bytes() == a

    def test_sample_all_runs_equals_each_run_sampled_alone(self, tmp_path, config_path):
        obs_path, gcm_path = write_pair(str(tmp_path), n_runs=2)
        train_dir = str(tmp_path / "train")
        main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", train_dir, "--config", config_path,
        ])
        base = [
            "sample", "--checkpoint", os.path.join(train_dir, "checkpoint.json"),
            "--obs", obs_path, "--gcm", gcm_path, "--horizon", "3",
            "--n-trajectories", "2", "--seed", "4",
        ]
        bodies = []
        for run in ("all", "0", "1"):
            out = tmp_path / ("s_" + run)
            assert main(base + ["--out-dir", str(out), "--run", run]) == 0
            bodies.append((out / "samples.csv").read_text().splitlines()[1:])
        every_run, run0, run1 = bodies
        # run z draws from seed 4 XOR z whichever runs are sampled with it
        assert every_run == run0 + run1
        assert {line.split(",")[0] for line in every_run} == {"0", "1"}
        assert [line.split(",")[3] for line in run0] != [line.split(",")[3] for line in run1]

    def test_ablate_flag_lands_in_checkpoint(self, tmp_path):
        obs_path, gcm_path = write_pair(str(tmp_path))
        config_file = tmp_path / "config.json"
        batch = {**TINY_CONFIG["batch"], "ablate_gcm": True}
        config_file.write_text(json.dumps({**TINY_CONFIG, "batch": batch}))
        train_dir = str(tmp_path / "train")
        main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", train_dir, "--config", str(config_file),
        ])
        ckpt = load_checkpoint(os.path.join(train_dir, "checkpoint.json"))
        assert ckpt.meta["ablate_gcm"] is True

    def test_manifest_hash_covers_the_sampler_section(self, tmp_path):
        # train validates at the sampler windows, so they are its settings too
        obs_path, gcm_path = write_pair(str(tmp_path))
        hashes = []
        for gcm_future in (120, 121):
            config_file = tmp_path / ("config%d.json" % gcm_future)
            sampler = {**TINY_CONFIG["sampler"], "gcm_future": gcm_future}
            config_file.write_text(json.dumps({**TINY_CONFIG, "sampler": sampler}))
            train_dir = tmp_path / ("train%d" % gcm_future)
            assert main([
                "train", "--obs", obs_path, "--gcm", gcm_path,
                "--out-dir", str(train_dir), "--config", str(config_file),
            ]) == 0
            manifest = json.loads((train_dir / "manifest.json").read_text())
            hashes.append(manifest["config_hash"])
        assert hashes[0] != hashes[1]

    def test_unforecastable_validation_tail_is_data_error(self, tmp_path, capsys):
        # 450 observed days leave 405 for training, fewer than obs_window
        obs_path, gcm_path = write_pair(str(tmp_path))
        config_file = tmp_path / "config.json"
        sampler = {**TINY_CONFIG["sampler"], "obs_window": 406}
        config_file.write_text(json.dumps({**TINY_CONFIG, "sampler": sampler}))
        out = tmp_path / "out"
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(out), "--config", str(config_file),
        ])
        assert code == 3
        assert "held-out tail" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_config_error(self, tmp_path):
        obs_path, gcm_path = write_pair(str(tmp_path))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"stepz": 3}}))
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(tmp_path / "t"), "--config", str(bad),
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_unknown_config_section_is_config_error(self, tmp_path, capsys, command):
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        ckpt_path = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "trian": {"steps": 3}}))
        out = tmp_path / "out"
        argv = [
            command, "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(out), "--config", str(bad),
        ]
        if command == "sample":
            argv += ["--checkpoint", str(ckpt_path)]
        assert main(argv) == 2
        assert "'trian'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_repeated_config_key_is_config_error(self, tmp_path, capsys, command):
        # a JSON parser left to itself keeps the last "train" and runs 5 steps
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        ckpt_path = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"steps": 3}, "train": {"steps": 5}}')
        out = tmp_path / "out"
        argv = [
            command, "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(out), "--config", str(bad),
        ]
        if command == "sample":
            argv += ["--checkpoint", str(ckpt_path)]
        assert main(argv) == 2
        assert "repeats the key 'train'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_checkpoint_key_is_data_error(self, tmp_path, capsys):
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        ckpt_path = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        text = ckpt_path.read_text()
        assert text.startswith("{") and '"meta"' in text
        ckpt_path.write_text('{"meta": {"window_max": 5},' + text[1:])
        out = tmp_path / "out"
        code = main([
            "sample", "--checkpoint", str(ckpt_path), "--obs", obs_path,
            "--gcm", gcm_path, "--out-dir", str(out), "--horizon", "2",
        ])
        assert code == 3
        assert "repeats the key 'meta'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, bad",
        [
            ("model", {"n_layerz": 2}),
            ("batch", {"retain_p": "half"}),
            ("train", {"steps": "many"}),
        ],
        ids=["model", "batch", "train"],
    )
    def test_sample_rejects_a_bad_training_section(self, tmp_path, capsys, section, bad):
        # sample reads no model, batch or train setting, but one file gets one
        # verdict from both commands
        obs_path, gcm_path = write_pair(str(tmp_path))
        ckpt_path = tmp_path / "checkpoint.json"
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({section: bad, "sampler": {"horizon": 2}}))
        out = tmp_path / "out"
        code = main([
            "sample", "--checkpoint", str(ckpt_path), "--obs", obs_path,
            "--gcm", gcm_path, "--config", str(config_file), "--out-dir", str(out),
        ])
        assert code == 2
        assert "config section %r is invalid" % section in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_storing_the_retired_model_fields_samples_the_same(self, tmp_path):
        # checkpoints once stored sigma_floor, t_max and delta_t in their
        # config; at the constants' values such a file loads and samples the
        # same bytes as one without them
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        params["head.w2"].data[:] = np.random.default_rng(1).normal(size=(8, 2))
        new_path = tmp_path / "new.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), new_path)
        payload = json.loads(new_path.read_text())
        assert not {"sigma_floor", "t_max", "delta_t"} & set(payload["config"])
        payload["config"].update(sigma_floor=0.001, t_max=10000.0, delta_t=1.0)
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        assert load_checkpoint(old_path).config == config
        samples = []
        for path in (new_path, old_path):
            out = tmp_path / ("samples_" + path.stem)
            assert main([
                "sample", "--checkpoint", str(path), "--obs", obs_path,
                "--gcm", gcm_path, "--out-dir", str(out), "--horizon", "3",
                "--n-trajectories", "2", "--seed", "4",
            ]) == 0
            samples.append((out / "samples.csv").read_bytes())
        assert samples[0] == samples[1]

    @pytest.mark.parametrize("key", ["feature_dim", "batch_size"])
    def test_batch_section_has_no_geometry_keys(self, tmp_path, key):
        # feature geometry lives in "model" and the batch size in "train"
        obs_path, gcm_path = write_pair(str(tmp_path))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "batch": {**TINY_CONFIG["batch"], key: 8}}))
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(tmp_path / "t"), "--config", str(bad),
        ])
        assert code == 2
        assert not (tmp_path / "t" / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda ckpt: ckpt["params"]["head.w1"].pop("shape"),
            lambda ckpt: ckpt["params"]["head.w1"].pop("data"),
            lambda ckpt: ckpt["params"]["head.w1"]["data"].__setitem__(0, "warm"),
            lambda ckpt: ckpt["params"]["head.w1"]["data"].pop(),
            lambda ckpt: ckpt.update(params=5),
            lambda ckpt: ckpt.update(meta=5),
            lambda ckpt: ckpt.update(meta=[["window_max", 5]]),
            lambda ckpt: ckpt["config"].update(n_heads=3),
            lambda ckpt: ckpt.update(config=[list(kv) for kv in ckpt["config"].items()]),
            lambda ckpt: ckpt["norm_stats"].update(std=True),
            lambda ckpt: ckpt.update(meta={"ablate_gcm": "false"}),
        ],
        ids=[
            "no-shape", "no-data", "non-numeric-data", "short-data", "params-5",
            "meta-5", "meta-as-pairs", "invalid-config", "config-as-pairs", "norm-stats-bool",
            "ablate-gcm-string",
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, damage):
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        ckpt_path = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        payload = json.loads(ckpt_path.read_text())
        damage(payload)
        ckpt_path.write_text(json.dumps(payload))
        out = tmp_path / "samples"
        code = main([
            "sample", "--checkpoint", str(ckpt_path), "--obs", obs_path,
            "--gcm", gcm_path, "--out-dir", str(out), "--horizon", "2",
        ])
        assert code == 3
        assert not (out / "samples.csv").exists()

    def test_sampler_horizon_comes_from_config(self, tmp_path):
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**TINY_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        ckpt_path = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"sampler": {"horizon": 4}}))
        code = main([
            "sample", "--checkpoint", str(ckpt_path), "--obs", obs_path,
            "--gcm", gcm_path, "--config", str(config_file),
            "--out-dir", str(tmp_path / "s"), "--n-trajectories", "2",
        ])
        assert code == 0
        lines = (tmp_path / "s" / "samples.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4

    @pytest.mark.parametrize(
        "section, key, value, code",
        [
            ("train", "steps", 2.5, 2),
            ("sampler", "n_trajectories", 2.0, 2),
            ("sampler", "deterministic", "no", 2),
            ("checkpoint", "n_layers", 2.0, 3),
            ("train", "learning_rate", float("nan"), 2),
            ("train", "learning_rate", float("inf"), 2),
            ("checkpoint", "t_max", float("inf"), 3),
            ("checkpoint", "t_max", 500.0, 3),
            ("checkpoint", "delta_t", 2.0, 3),
            ("checkpoint", "sigma_floor", 0.01, 3),
        ],
        ids=[
            "train-steps-2.5", "sampler-n_trajectories-2.0",
            "sampler-deterministic-no", "checkpoint-n_layers-2.0",
            "train-learning_rate-nan", "train-learning_rate-inf", "checkpoint-t_max-inf",
            "checkpoint-t_max-500.0", "checkpoint-delta_t-2.0", "checkpoint-sigma_floor-0.01",
        ],
    )
    def test_mistyped_value_is_rejected(self, tmp_path, section, key, value, code):
        obs_path, gcm_path = write_pair(str(tmp_path))
        config = ModelConfig(**{**TINY_CONFIG["model"], "n_layers": 2})
        params = init_params(config, np.random.default_rng(0))
        ckpt_path = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint_from_params(config, params, NormStats(15.0, 3.0)), ckpt_path)
        settings = dict(TINY_CONFIG)
        if section == "checkpoint":
            payload = json.loads(ckpt_path.read_text())
            payload["config"][key] = value
            ckpt_path.write_text(json.dumps(payload))
        else:
            settings[section] = {**settings.get(section, {}), key: value}
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(settings))
        out = tmp_path / "out"
        common = [
            "--obs", obs_path, "--gcm", gcm_path, "--config", str(config_file),
            "--out-dir", str(out),
        ]
        if section == "train":
            argv = ["train", *common]
        else:
            argv = ["sample", "--checkpoint", str(ckpt_path), *common, "--horizon", "2"]
        assert main(argv) == code
        assert not out.exists()


class TestBaseline:
    def test_golden_eqm_bytes(self, tmp_path):
        out = str(tmp_path / "eqm")
        code = main([
            "baseline", "--method", "eqm",
            "--obs", os.path.join(DATA, "golden_obs.csv"),
            "--gcm", os.path.join(DATA, "golden_gcm.csv"),
            "--out-dir", out,
            "--ref-start", "0", "--ref-end", "58",
            "--proj-start", "365", "--proj-end", "423",
            "--epoch", "2001-01-01",
        ])
        assert code == 0
        got = (tmp_path / "eqm" / "corrected.csv").read_bytes()
        expected = open(os.path.join(DATA, "golden_eqm_corrected.csv"), "rb").read()
        assert got == expected

    def test_golden_ecbc_bytes(self, tmp_path):
        out = str(tmp_path / "ecbc")
        code = main([
            "baseline", "--method", "ecbc",
            "--obs", os.path.join(DATA, "golden_obs.csv"),
            "--gcm", os.path.join(DATA, "golden_gcm.csv"),
            "--out-dir", out,
            "--ref-start", "0", "--ref-end", "58",
            "--proj-start", "365", "--proj-end", "423",
            "--epoch", "2001-01-01",
        ])
        assert code == 0
        got = (tmp_path / "ecbc" / "corrected.csv").read_bytes()
        expected = open(os.path.join(DATA, "golden_ecbc_corrected.csv"), "rb").read()
        assert got == expected

    def test_golden_values_match_naive_oracle(self):
        # guards the committed bytes themselves against silent drift
        import csv

        obs = load_csv(os.path.join(DATA, "golden_obs.csv"), OBS)
        (run,) = load_csv(os.path.join(DATA, "golden_gcm.csv"), GCM)
        with open(os.path.join(DATA, "golden_eqm_corrected.csv")) as handle:
            rows = list(csv.DictReader(handle))
        got = {float(r["t"]): float(r["value"]) for r in rows}

        def naive(o, g, p):
            so, sg = sorted(o), sorted(g)
            out = []
            for v in p:
                j = 0
                while j < len(sg) and sg[j] < v:
                    j += 1
                out.append(so[min(j, len(sg) - 1, len(so) - 1)])
            return out

        jan_ref = slice(0, 31)
        jan_proj_t = np.arange(365.0, 396.0)
        expected = naive(
            obs.values[jan_ref], run.values[jan_ref],
            [run.values[int(t)] for t in jan_proj_t],
        )
        for t, e in zip(jan_proj_t, expected):
            assert got[t] == e

    def test_mean_method_runs(self, tmp_path):
        code = main([
            "baseline", "--method", "mean",
            "--obs", os.path.join(DATA, "golden_obs.csv"),
            "--gcm", os.path.join(DATA, "golden_gcm.csv"),
            "--out-dir", str(tmp_path / "m"),
            "--ref-start", "0", "--ref-end", "58",
            "--proj-start", "365", "--proj-end", "423",
            "--epoch", "2001-01-01",
        ])
        assert code == 0


class TestReport:
    def _write_inputs(self, tmp_path):
        rng = np.random.default_rng(1)
        t = np.arange(450.0, 460.0)
        obs_v = 20.0 + rng.normal(size=10)
        write_obs_csv(TimeSeries(t, obs_v, OBS), tmp_path / "observed.csv")
        with open(tmp_path / "samples.csv", "w") as handle:
            handle.write("run,trajectory,t,value\n")
            for run in (0, 1):
                for traj in (0, 1):
                    for day in t:
                        v = 20.0 + rng.normal()
                        handle.write(
                            "%d,%d,%r,%r\n" % (run, traj, float(day), float(v))
                        )
        with open(tmp_path / "corrected.csv", "w") as handle:
            handle.write("t,run,value\n")
            for run in (0, 1):
                for day in t:
                    handle.write(
                        "%r,%d,%r\n" % (float(day), run, float(20.0 + rng.normal()))
                    )

    def test_happy_path(self, tmp_path):
        self._write_inputs(tmp_path)
        out = str(tmp_path / "report")
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--samples", str(tmp_path / "samples.csv"),
            "--baseline", "eqm=%s" % (tmp_path / "corrected.csv"),
            "--threshold", "25.0", "--out-dir", out,
        ])
        assert code == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert set(report["model"]["per_run"]) == {"0", "1"}
        assert set(report["baselines"]) == {"eqm"}
        assert set(report["summary"]) == {"model", "eqm"}
        summary_lines = (tmp_path / "report" / "summary.csv").read_text().splitlines()
        assert summary_lines[0] == "method,mse,loglik,relative_heatwave_error_pct"
        assert len(summary_lines) == 3
        # model run 0's trajectories, then run 1's, then the baseline's runs
        order = [
            ("model", "0", "0"), ("model", "0", "1"), ("model", "1", "0"),
            ("model", "1", "1"), ("eqm", "0", ""), ("eqm", "1", ""),
        ]
        for name, rows_per_key in (("heatwave_counts.csv", 1), ("qq.csv", 101)):
            lines = (tmp_path / "report" / name).read_text().splitlines()
            keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
            assert keys == [key for key in order for _ in range(rows_per_key)]
        # 10-day series are too short for 14 PACF lags
        pacf_lines = (tmp_path / "report" / "pacf.csv").read_text().splitlines()
        assert pacf_lines == ["method,run,trajectory,lag,observed,candidate"]

    def test_every_series_gets_qq_pacf_and_run_lengths(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.arange(200.0)
        obs_v = 15.0 + 5.0 * np.sin(2 * np.pi * t / 50.0) + rng.normal(size=200)
        write_obs_csv(TimeSeries(t, obs_v, OBS), tmp_path / "observed.csv")
        # baseline run 0 tracks the observations, run 1 is constant
        runs = [obs_v + 0.5 * rng.normal(size=200), np.full(200, 18.5)]
        write_gcm_csv([TimeSeries(t, v, GCM) for v in runs], tmp_path / "corrected.csv")
        trajs = [obs_v + rng.normal(size=200) for _ in range(2)]
        write_samples_csv(
            {0: [TimeSeries(t, v, OBS) for v in trajs]}, tmp_path / "samples.csv"
        )
        out = tmp_path / "report"
        for argv in (
            ["--samples", str(tmp_path / "samples.csv")],
            [],  # baseline only
        ):
            code = main([
                "report", "--observed", str(tmp_path / "observed.csv"), *argv,
                "--baseline", "eqm=%s" % (tmp_path / "corrected.csv"),
                "--threshold", "18.0", "--out-dir", str(out),
            ])
            assert code == 0
            candidates = {("eqm", "0", ""): runs[0], ("eqm", "1", ""): runs[1]}
            if argv:
                candidates.update({("model", "0", str(k)): v for k, v in enumerate(trajs)})
            header, qq_rows = read_table(out / "qq.csv")
            assert header == "method,run,trajectory,prob,observed,candidate"
            assert set(qq_rows) == set(candidates)
            header, pacf_rows = read_table(out / "pacf.csv")
            assert header == "method,run,trajectory,lag,observed,candidate"
            # the constant run gets no PACF rows
            assert set(pacf_rows) == set(candidates) - {("eqm", "1", "")}
            header, run_rows = read_table(out / "heatwave_runs.csv")
            assert header == "method,run,trajectory,run_length"
            # one observed set per run, however many methods score it
            assert set(run_rows) == set(candidates) | {("observed", "0", ""), ("observed", "1", "")}
            for key, cand in candidates.items():
                assert np.array_equal(qq_rows[key][:, 0], np.linspace(0.0, 1.0, 101))
                assert np.array_equal(qq_rows[key], metrics.qq(obs_v, cand, 101))
                if key in pacf_rows:
                    assert np.array_equal(pacf_rows[key][:, 0], np.arange(1.0, 15.0))
                    assert np.array_equal(pacf_rows[key][:, 1], metrics.pacf(obs_v, 14))
                    assert np.array_equal(pacf_rows[key][:, 2], metrics.pacf(cand, 14))
                expected = metrics.heatwave_count(TimeSeries(t, cand), 18.0).run_lengths
                assert np.array_equal(run_rows[key][:, 0], expected)
            observed_runs = metrics.heatwave_count(TimeSeries(t, obs_v), 18.0).run_lengths
            for run in ("0", "1"):
                assert np.array_equal(run_rows[("observed", run, "")][:, 0], observed_runs)

        report = json.loads((out / "report.json").read_text())
        assert "model" not in report
        assert set(report["summary"]) == {"eqm"}
        assert len((out / "summary.csv").read_text().splitlines()) == 2

    def test_neither_samples_nor_baseline_is_config_error(self, tmp_path, capsys):
        self._write_inputs(tmp_path)
        out = tmp_path / "r"
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--threshold", "25.0", "--out-dir", str(out),
        ])
        assert code == 2
        assert "--samples, --baseline or both" in capsys.readouterr().err
        assert not out.exists()

    def test_relative_heatwave_error(self, tmp_path):
        # threshold 10, observed count 2: trajectories with 1 and 2
        # heatwaves give 50 % and 0 %, so the run reads their mean, 25 %;
        # the baseline has 3 heatwaves, 50 %
        t = np.arange(16.0)
        observed = [H, H, H, L, H, H, H, L, L, L, L, L, L, L, L, L]
        traj_0 = [H, H, H, L, L, L, L, L, L, L, L, L, L, L, L, L]
        traj_1 = [L, L, L, L, H, H, H, L, H, H, H, L, L, L, L, L]
        corrected = [H, H, H, L, H, H, H, L, H, H, H, L, L, L, L, L]
        write_samples_csv(
            {0: [TimeSeries(t, traj_0, OBS), TimeSeries(t, traj_1, OBS)]},
            tmp_path / "samples.csv",
        )
        write_gcm_csv([TimeSeries(t, corrected, GCM)], tmp_path / "corrected.csv")
        for name, obs_v in (("two", observed), ("none", [L] * 16)):
            write_obs_csv(TimeSeries(t, obs_v, OBS), tmp_path / "observed.csv")
            code = main([
                "report", "--observed", str(tmp_path / "observed.csv"),
                "--samples", str(tmp_path / "samples.csv"),
                "--baseline", "eqm=%s" % (tmp_path / "corrected.csv"),
                "--threshold", "10.0", "--out-dir", str(tmp_path / name),
            ])
            assert code == 0

        report = json.loads((tmp_path / "two" / "report.json").read_text())
        model_run = report["model"]["per_run"]["0"]
        assert model_run["trajectory_heatwave_counts"] == {"0": 1, "1": 2}
        assert model_run["observed_heatwave_count"] == 2
        assert model_run["relative_heatwave_error_pct"] == 25.0
        baseline_run = report["baselines"]["eqm"]["per_run"]["0"]
        assert baseline_run["heatwave_count"] == 3
        assert baseline_run["relative_heatwave_error_pct"] == 50.0
        assert report["summary"]["model"]["relative_heatwave_error_pct"] == 25.0
        assert report["summary"]["eqm"]["relative_heatwave_error_pct"] == 50.0
        rows = (tmp_path / "two" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in rows] == [
            "relative_heatwave_error_pct", "25.0", "50.0",
        ]

        report = json.loads((tmp_path / "none" / "report.json").read_text())
        assert report["model"]["per_run"]["0"]["relative_heatwave_error_pct"] is None
        assert report["baselines"]["eqm"]["per_run"]["0"]["relative_heatwave_error_pct"] is None
        assert report["summary"]["model"]["relative_heatwave_error_pct"] is None
        rows = (tmp_path / "none" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in rows[1:]] == ["", ""]

    def test_observed_must_cover_samples(self, tmp_path):
        self._write_inputs(tmp_path)
        short_t = np.arange(450.0, 455.0)
        write_obs_csv(
            TimeSeries(short_t, np.full(5, 20.0), OBS), tmp_path / "short.csv"
        )
        for candidate in (
            ["--samples", str(tmp_path / "samples.csv")],
            ["--baseline", "eqm=%s" % (tmp_path / "corrected.csv")],
        ):
            code = main([
                "report", "--observed", str(tmp_path / "short.csv"), *candidate,
                "--threshold", "25.0", "--out-dir", str(tmp_path / "r"),
            ])
            assert code == 3
            assert not (tmp_path / "r").exists()

    def test_duplicate_baseline_name_is_config_error(self, tmp_path):
        self._write_inputs(tmp_path)
        corrected = tmp_path / "corrected.csv"
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--samples", str(tmp_path / "samples.csv"),
            "--baseline", "eqm=%s" % corrected, "--baseline", "eqm=%s" % corrected,
            "--threshold", "25.0", "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 2
        assert not (tmp_path / "r" / "report.json").exists()

    @pytest.mark.parametrize("name", ["model", "observed"])
    def test_reserved_baseline_name_is_config_error(self, tmp_path, name):
        self._write_inputs(tmp_path)
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--samples", str(tmp_path / "samples.csv"),
            "--baseline", "%s=%s" % (name, tmp_path / "corrected.csv"),
            "--threshold", "25.0", "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "row", ["0,0,451.0,nan", "0,-1,451.0,20.0"], ids=["nan-value", "negative-id"]
    )
    def test_bad_samples_row_names_file_and_line(self, tmp_path, capsys, row):
        self._write_inputs(tmp_path)
        bad = tmp_path / "bad_samples.csv"
        bad.write_text("run,trajectory,t,value\n0,0,450.0,20.0\n%s\n" % row)
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--samples", str(bad),
            "--threshold", "25.0", "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 3
        assert "%s:3:" % bad in capsys.readouterr().err
        assert not (tmp_path / "r" / "report.json").exists()

    def test_samples_off_the_daily_grid_name_file_run_and_trajectory(self, tmp_path, capsys):
        write_obs_csv(TimeSeries(np.arange(4.0), np.full(4, 20.0), OBS), tmp_path / "o.csv")
        samples = tmp_path / "gappy_samples.csv"
        samples.write_text(
            "run,trajectory,t,value\n0,1,0.0,20.0\n0,1,1.0,20.0\n0,1,3.0,20.0\n"
        )
        out = tmp_path / "r"
        code = main([
            "report", "--observed", str(tmp_path / "o.csv"), "--samples", str(samples),
            "--threshold", "25.0", "--out-dir", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "%s: run 0 trajectory 1 has a non-daily step" % samples in err
        assert not out.exists()

    def test_trajectories_on_different_days_name_file_run_and_trajectories(
        self, tmp_path, capsys
    ):
        t = np.arange(10.0)
        write_obs_csv(TimeSeries(t, np.full(10, 20.0), OBS), tmp_path / "o.csv")
        samples = tmp_path / "ragged_samples.csv"
        # trajectory 0 on days 0-8, trajectory 1 on days 0-9
        short, full = TimeSeries(t[:9], np.full(9, 20.0)), TimeSeries(t, np.full(10, 21.0))
        write_samples_csv({0: [short, full]}, samples)
        out = tmp_path / "r"
        code = main([
            "report", "--observed", str(tmp_path / "o.csv"), "--samples", str(samples),
            "--threshold", "25.0", "--out-dir", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "%s: run 0 trajectories 0 and 1 cover different days" % samples in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a,b", "", 'say "eqm"', "eq\nm"])
    def test_baseline_name_that_is_no_csv_cell_is_config_error(self, tmp_path, capsys, name):
        self._write_inputs(tmp_path)
        out = tmp_path / "r"
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--baseline", "%s=%s" % (name, tmp_path / "corrected.csv"),
            "--threshold", "25.0", "--out-dir", str(out),
        ])
        assert code == 2
        assert "--baseline name %r must be non-empty" % name in capsys.readouterr().err
        assert not out.exists()

    def test_bad_baseline_spec(self, tmp_path):
        self._write_inputs(tmp_path)
        code = main([
            "report", "--observed", str(tmp_path / "observed.csv"),
            "--samples", str(tmp_path / "samples.csv"),
            "--baseline", "nopath",
            "--threshold", "25.0", "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 2


class TestErrorHandling:
    def test_missing_input_is_data_error(self, tmp_path):
        code = main([
            "train", "--obs", str(tmp_path / "nope.csv"),
            "--gcm", str(tmp_path / "nope2.csv"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_unusable_out_dir_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["synth", "--out-dir", str(blocker), "--n-days", "10"])
        assert code == 2
        assert blocker.read_text() == "not a directory"

    def test_unwritable_output_file_is_config_error(self, tmp_path, config_path, capsys):
        obs_path, gcm_path = write_pair(str(tmp_path))
        out = tmp_path / "out"
        (out / "metrics.csv").mkdir(parents=True)
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(out), "--config", config_path,
        ])
        assert code == 2
        assert "cannot write %s" % (out / "metrics.csv") in capsys.readouterr().err
        # the checkpoint written before the failure is removed
        assert os.listdir(out) == ["metrics.csv"]

    def test_failed_train_removes_its_interim_checkpoints(
        self, tmp_path, monkeypatch, capsys
    ):
        # interim checkpoints at steps 2 and 4; the one at step 4 cannot be
        # written, so the one at step 2 must go with the rest
        monkeypatch.setattr(training, "CHECKPOINT_INTERVAL", 2)
        obs_path, gcm_path = write_pair(str(tmp_path))
        config_file = tmp_path / "config.json"
        train_section = {**TINY_CONFIG["train"], "eval_interval": 5000}
        config_file.write_text(json.dumps({**TINY_CONFIG, "train": train_section}))
        out = tmp_path / "out"
        (out / "checkpoint_step000004.json").mkdir(parents=True)
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path, "--steps", "5",
            "--out-dir", str(out), "--config", str(config_file),
        ])
        assert code == 2
        assert "cannot write %s" % (out / "checkpoint_step000004.json") in capsys.readouterr().err
        assert os.listdir(out) == ["checkpoint_step000004.json"]

    def test_bad_epoch_is_config_error(self, tmp_path):
        code = main([
            "baseline", "--method", "mean",
            "--obs", os.path.join(DATA, "golden_obs.csv"),
            "--gcm", os.path.join(DATA, "golden_gcm.csv"),
            "--out-dir", str(tmp_path / "out"),
            "--ref-start", "0", "--ref-end", "58",
            "--proj-start", "365", "--proj-end", "423",
            "--epoch", "January 1st",
        ])
        assert code == 2

    def test_numeric_error_maps_to_exit_4(self, tmp_path, monkeypatch):
        from temporal_bc.errors import NumericError

        def explode(args):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_synth", explode)
        code = main(["synth", "--out-dir", str(tmp_path / "s")])
        assert code == 4

    @pytest.mark.parametrize(
        "module, name", [(gp, "make_run_ensemble"), (cli, "write_gcm_csv")],
        ids=["in-the-draw", "after-obs-csv-is-written"],
    )
    def test_out_of_memory_is_exit_4_and_discards_the_outputs(
        self, tmp_path, monkeypatch, capsys, module, name
    ):
        def exhaust(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(module, name, exhaust)
        out = tmp_path / "s"
        assert main(["synth", "--out-dir", str(out), "--n-days", "10"]) == 4
        assert capsys.readouterr().err == "numeric error: out of memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("existed", [False, True], ids=["new-out-dir", "existing-out-dir"])
    def test_failed_train_removes_only_the_directories_it_made(
        self, tmp_path, monkeypatch, config_path, existed
    ):
        def exhaust(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "train", exhaust)
        obs_path, gcm_path = write_pair(str(tmp_path))
        out = tmp_path / "runs" / "train"
        if existed:
            out.mkdir(parents=True)
        code = main([
            "train", "--obs", obs_path, "--gcm", gcm_path,
            "--out-dir", str(out), "--config", config_path,
        ])
        assert code == 4
        assert out.exists() == existed and (tmp_path / "runs").exists() == existed
        if existed:
            assert os.listdir(out) == []

    def test_failed_command_cleans_partial_outputs(self, tmp_path):
        # projection month without reference data fails after corrected.csv
        # has been opened; the partial file and manifest must be removed
        t = np.arange(31.0)
        write_obs_csv(TimeSeries(t, np.ones(31) * 2, OBS), tmp_path / "o.csv")
        write_gcm_csv(
            [TimeSeries(np.arange(90.0), np.ones(90), GCM)], tmp_path / "g.csv"
        )
        out = tmp_path / "out"
        code = main([
            "baseline", "--method", "mean",
            "--obs", str(tmp_path / "o.csv"), "--gcm", str(tmp_path / "g.csv"),
            "--out-dir", str(out),
            "--ref-start", "0", "--ref-end", "30",
            "--proj-start", "31", "--proj-end", "89",
            "--epoch", "2001-01-01",
        ])
        assert code == 3
        assert not (out / "corrected.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "day, epoch", [(1e12, "2001-01-01"), (1.0, "9999-12-31")],
        ids=["day-1e12", "epoch-9999-12-31"],
    )
    def test_day_outside_the_calendar_is_data_error(self, tmp_path, capsys, day, epoch):
        write_obs_csv(TimeSeries([day], [1.0], OBS), tmp_path / "o.csv")
        write_gcm_csv([TimeSeries([day], [2.0], GCM)], tmp_path / "g.csv")
        out = tmp_path / "out"
        code = main([
            "baseline", "--method", "mean",
            "--obs", str(tmp_path / "o.csv"), "--gcm", str(tmp_path / "g.csv"),
            "--out-dir", str(out),
            "--ref-start", "0", "--ref-end", "2e12",
            "--proj-start", "0", "--proj-end", "2e12",
            "--epoch", epoch,
        ])
        assert code == 3
        assert "outside the calendar" in capsys.readouterr().err
        assert not (out / "corrected.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_real_valued_flags_reject_non_finite_values(self, capsys, raw):
        # every real-valued flag, so a new one that accepts NaN fails here
        commands = [
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ][0].choices
        flags = [
            (command, action.option_strings[0])
            for command, sub in commands.items()
            for action in sub._actions
            if action.type in (float, cli._finite_float)
        ]
        assert len(flags) >= 12
        for command, flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, "%s=%s" % (flag, raw)])
            assert exc.value.code == 2, (command, flag)
            err = capsys.readouterr().err
            assert err.startswith("usage: temporal-bc %s" % command), (command, flag)
            assert "argument %s: %r is not a finite number" % (flag, raw) in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == cli.__version__
