"""The benchmark's two workloads.

Each workload has a fixed data seed and training seed, so its dataset and
its training run are the same on every benchmark run; the benchmark's
``--seed`` selects the sampler's draws. Both workloads train, sample and
score held-out days, the three stages a user of the package runs:

- ``paper-study``: the synthetic study of acceptance test 04, end to end
  through the command-line pipeline (train, sample, four baselines, report),
  then teacher-forced scoring of the held-out stretch. Small examples, so
  per-op dispatch dominates.
- ``wide``: the default model, batch and sampler geometry, through the
  library. The n-squared masked softmax and the backward pass dominate the
  steps; days are forward-only and read one target row of about 240.

Each step and day is timed by the CPU-clock marks of ``tracing.Marks``;
``run.py`` pools them into medians and tails. Each workload names the
geometry of its reference kernel (points, model dim, heads, layers), which
follows the host's speed, and that kernel's time at the speed every timing
is scaled to.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from temporal_bc import cli, gp, model, sampling, training
from temporal_bc.model import ModelConfig
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import (
    PairedDataset,
    load_paired,
    write_gcm_csv,
    write_obs_csv,
)
from temporal_bc.training import TrainConfig
from tracing import clock

# the GP pair of acceptance test 04: rbf lengthscale 2, bias 2, noise 0.3
KERNEL_LENGTHSCALE = 2.0
MEAN_BIAS = 2.0
NOISE_STD = 0.3


def shifted_pair(n_days: int, seed: int):
    return gp.make_shifted_pair(
        gp.rbf(KERNEL_LENGTHSCALE),
        np.arange(n_days, dtype=np.float64),
        mean_bias=MEAN_BIAS,
        time_shift=0.0,
        noise_std=NOISE_STD,
        seed=seed,
    )


@dataclass
class Pass:
    """What one pass over a workload measured and produced.

    ``spans`` are the timed stretches, each (start, end) on ``Marks.clock``;
    ``wall_s`` is their wall time. ``artefacts`` holds outputs that a traced
    and an untraced pass must reproduce exactly.
    """

    spans: list[tuple[float, float]] = field(default_factory=list)
    wall_s: float = 0.0
    heldout_nll: float = math.nan
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    artefacts: dict[str, object] = field(default_factory=dict)

    def count(self, values) -> None:
        """Count each finite value as a completed operation, others as failed."""
        n_bad = int(np.count_nonzero(~np.isfinite(values)))
        self.attempted += np.size(values)
        self.failed += n_bad

    def check(self, name: str, ok) -> None:
        """Record a check; a name checked more than once must pass every time."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)


class PaperStudy:
    """Acceptance test 04's recipe, run through the command-line pipeline."""

    name = "paper-study"
    reference = (96, 32, 2, 2)
    reference_ms = 0.40
    data_seed = 101
    train_seed = 3
    n_train = 2000
    n_gen = 500
    n_days = n_train + n_gen + 120
    n_trajectories = 4
    heat_threshold = 3.0
    epoch = "2001-01-01"
    config = {
        "model": {
            "n_layers": 2,
            "n_heads": 2,
            "model_dim": 32,
            "feature_dim": 16,
            "hidden_dim": 32,
        },
        "batch": {"window_min": 30, "window_max": 60, "retain_p": 0.8},
        "train": {
            "steps": 800,
            "batch_size": 8,
            "learning_rate": 3e-3,
            "seed": train_seed,
            "eval_interval": 100,
            "plateau_patience": 49,
        },
        "sampler": {"obs_window": 30, "gcm_past": 30, "gcm_future": 30},
    }

    def setup(self, work: str) -> dict:
        pair = shifted_pair(self.n_days, self.data_seed)
        paths = {
            name: os.path.join(work, name)
            for name in ("obs.csv", "obs_train.csv", "gcm.csv", "config.json")
        }
        write_obs_csv(pair.obs, paths["obs.csv"])
        write_obs_csv(pair.obs.window(0, self.n_train - 1), paths["obs_train.csv"])
        write_gcm_csv([pair.gcm], paths["gcm.csv"])
        with open(paths["config.json"], "w", encoding="utf-8") as handle:
            json.dump(self.config, handle, indent=1, sort_keys=True)
        truth = pair.obs.window(self.n_train, self.n_train + self.n_gen - 1).values
        return {"paths": paths, "truth": truth}

    def run(self, data: dict, out: str, marks, seed: int, scale: float) -> Pass:
        p = Pass()
        paths = data["paths"]
        common = ["--obs", paths["obs_train.csv"], "--gcm", paths["gcm.csv"]]

        def stage(label: str, argv: list[str]) -> None:
            with contextlib.redirect_stdout(sys.stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            p.attempted += 1
            p.failed += code != 0
            p.check("cli %s exits 0" % label, code == 0)

        t0, c0 = clock(), marks.clock()
        marks.start("train")
        stage("train", ["train", *common, "--config", paths["config.json"],
                        "--out-dir", os.path.join(out, "train")])  # fmt: skip
        trained = os.path.join(out, "train", "checkpoint.json")
        marks.start("sample")
        stage("sample", [
            "sample", "--checkpoint", trained, *common, "--config", paths["config.json"],
            "--out-dir", os.path.join(out, "sample"), "--horizon", str(self.n_gen),
            "--n-trajectories", str(self.n_trajectories), "--seed", str(seed),
        ])  # fmt: skip
        marks.start(None)
        samples = os.path.join(out, "sample", "samples.csv")
        report_args = []
        for method in ("mean", "meanvar", "eqm", "ecbc"):
            corrected = os.path.join(out, "baseline_" + method)
            stage("baseline " + method, [
                "baseline", "--method", method, *common,
                "--ref-start", "0", "--ref-end", str(self.n_train - 1),
                "--proj-start", str(self.n_train),
                "--proj-end", str(self.n_train + self.n_gen - 1),
                "--epoch", self.epoch, "--out-dir", corrected,
            ])  # fmt: skip
            corrected_csv = os.path.join(corrected, "corrected.csv")
            report_args += ["--baseline", "%s=%s" % (method, corrected_csv)]
        stage("report", [
            "report", "--observed", paths["obs.csv"], "--samples", samples,
            *report_args, "--threshold", str(self.heat_threshold),
            "--out-dir", os.path.join(out, "report"),
        ])  # fmt: skip
        marks.start("score")
        scored = sampling.predictive_nll(
            model.load_checkpoint(trained),
            load_paired(paths["obs.csv"], paths["gcm.csv"]),
            0,
            start_t=float(self.n_train),
            n_days=self.n_gen,
            config=SamplerConfig(n_trajectories=1, **self.config["sampler"]),
        )
        marks.start(None)
        p.spans, p.wall_s = [(c0, marks.clock())], clock() - t0

        losses = np.loadtxt(
            os.path.join(out, "train", "metrics.csv"), delimiter=",", skiprows=2,
            usecols=1, ndmin=1,
        )  # fmt: skip
        rows = np.loadtxt(samples, delimiter=",", skiprows=1, ndmin=2)
        ensemble = rows[:, 3].reshape(self.n_trajectories, self.n_gen)
        for values in (losses, ensemble, scored.nll):
            p.count(values)
        p.check("every training loss is finite", np.all(np.isfinite(losses)))
        p.check("every sampled day is finite", np.all(np.isfinite(ensemble)))
        p.check("every scored day is finite", np.all(np.isfinite(scored.nll)))
        p.heldout_nll = scored.mean_nll
        with open(os.path.join(out, "report", "report.json"), encoding="utf-8") as handle:
            mean_shift_nll = -json.load(handle)["summary"]["mean"]["loglik"]
        bias = float(np.mean(ensemble.mean(axis=0) - data["truth"]))
        p.check(
            "held-out NLL %.4f < mean-shift NLL %.4f" % (p.heldout_nll, mean_shift_nll),
            p.heldout_nll < mean_shift_nll,
        )
        p.check("|ensemble-mean bias| %.3f <= 0.5" % abs(bias), abs(bias) <= 0.5)
        with open(samples, "rb") as handle:
            p.artefacts["samples.csv"] = handle.read()
        p.artefacts["heldout_nll"] = p.heldout_nll
        return p


class Wide:
    """Default geometry throughout, in rounds through the library.

    Each round trains with the default model, batch and train config, then
    samples and scores at the default sampler geometry (about 240 context
    points, one target). Every round repeats the same work from the same
    seeds, so the rounds must agree exactly. Rounds interleave steps and
    days, so both see the same mix of host load; each round is a span, and
    ``wall_s`` is the median round's.
    """

    name = "wide"
    reference = (240, 64, 4, 1)
    reference_ms = 2.2
    data_seed = 303
    train_seed = 7
    n_obs = 1000
    n_days = 1200
    rounds = 6
    steps = 14
    sample_days = 60
    score_days = 30

    def setup(self, work: str) -> dict:
        pair = shifted_pair(self.n_days, self.data_seed)
        return {
            "train": PairedDataset(pair.obs.window(0, self.n_obs - 1), [pair.gcm]),
            "full": PairedDataset(pair.obs, [pair.gcm]),
        }

    def run(self, data: dict, out: str, marks, seed: int, scale: float) -> Pass:
        p = Pass()
        steps = max(3, round(self.steps * scale))
        sample_days = max(3, round(self.sample_days * scale))
        score_days = max(3, round(self.score_days * scale))
        round_wall_s = []
        for r in range(self.rounds):
            t0, c0 = clock(), marks.clock()
            marks.start("train")
            result = training.train(
                data["train"], ModelConfig(), TrainConfig(steps=steps, seed=self.train_seed)
            )
            marks.start("sample")
            (trajectory,) = sampling.sample_trajectories(
                result.checkpoint, data["train"], 0,
                SamplerConfig(horizon=sample_days, n_trajectories=1, seed=seed),
            )  # fmt: skip
            marks.start("score")
            scored = sampling.predictive_nll(
                result.checkpoint, data["full"], 0,
                start_t=float(self.n_obs), n_days=score_days, config=SamplerConfig(),
            )  # fmt: skip
            marks.start(None)
            p.spans.append((c0, marks.clock()))
            round_wall_s.append(clock() - t0)

            losses = np.array([m.train_nll for m in result.metrics[1:]])
            for values in (losses, trajectory.values, scored.nll):
                p.count(values)
            p.check("every training loss is finite", np.all(np.isfinite(losses)))
            p.check("training ran to its last step", not result.aborted)
            p.check("every sampled day is finite", np.all(np.isfinite(trajectory.values)))
            p.check("every scored day is finite", np.all(np.isfinite(scored.nll)))
            outputs = {
                "losses": losses.tobytes(),
                "trajectories": trajectory.values.tobytes(),
                "heldout_nll": scored.mean_nll,
            }
            if r == 0:
                p.artefacts = outputs
            else:
                p.check("round %d repeats round 1 exactly" % (r + 1), outputs == p.artefacts)
        p.wall_s = float(np.median(round_wall_s))
        p.heldout_nll = scored.mean_nll

        # the sampler and the scorer must window the first day identically
        (first,) = sampling.sample_trajectories(
            result.checkpoint, data["train"], 0,
            SamplerConfig(horizon=1, n_trajectories=1, deterministic=True),
        )  # fmt: skip
        p.check(
            "deterministic first day equals predictive_nll's first mean",
            first.values[0] == scored.means[0],
        )
        return p


WORKLOADS = {w.name: w for w in (PaperStudy(), Wide())}
