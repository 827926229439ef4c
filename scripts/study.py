"""Studies on synthetic pairs with a known bias and a known time shift.

Each sub-command draws one Gaussian-process pair (an rbf latent, a
pseudo-observation series that runs ``--mean-bias`` degrees warm and leads
the simulated series by ``--time-shift`` days, i.i.d. noise on both), fits
the sequence model, and scores it on withheld days:

- ``synthetic``: fits the first ``--n-train`` days, then scores the
  generated continuation against the withheld truth: one-step predictive NLL
  against the classical mean-shift baseline, ensemble-mean bias, and
  heatwave counts.
- ``asynchrony``: does the model read the simulated series, or just its own
  past? Trains the model twice, once as-is and once with the simulated
  series zeroed out of every training example, and compares held-out
  one-step predictive NLL. If conditioning on the simulation carries signal,
  the intact model must win despite the timing mismatch.

Run from the repository root:

    python scripts/study.py synthetic
    python scripts/study.py synthetic --steps 1500 --lengthscale 2.0
    python scripts/study.py asynchrony --time-shift 2 --steps 2000
"""

import argparse
import datetime as dt
import time
from dataclasses import replace

import numpy as np

from temporal_bc import baselines, gp, metrics, sampling
from temporal_bc.batching import BatchConfig
from temporal_bc.model import ModelConfig
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import PairedDataset
from temporal_bc.training import TrainConfig, train

MODEL_CONFIG = ModelConfig(
    n_layers=2, n_heads=2, model_dim=32, feature_dim=16, hidden_dim=32
)

# flag, type, then its default for the synthetic and the asynchrony study
SHARED_FLAGS = (
    ("--n-train", int, 2000, 800),
    ("--lengthscale", float, 2.0, 1.5),
    ("--mean-bias", float, 2.0, 1.0),
    ("--time-shift", float, 0.0, 1.0),
    ("--noise-std", float, 0.3, 0.1),
    ("--data-seed", int, 101, 202),
    ("--steps", int, 800, 1000),
    ("--train-seed", int, 3, 5),
)


def shifted_pair(args, n_days: int) -> gp.SyntheticPair:
    return gp.make_shifted_pair(
        gp.rbf(lengthscale=args.lengthscale),
        np.arange(n_days, dtype=np.float64),
        mean_bias=args.mean_bias,
        time_shift=args.time_shift,
        noise_std=args.noise_std,
        seed=args.data_seed,
    )


def synthetic(args) -> None:
    pair = shifted_pair(args, args.n_train + args.n_gen + 120)
    obs_train = pair.obs.window(0, args.n_train - 1)
    dataset = PairedDataset(obs_train, [pair.gcm])
    truth_series = pair.obs.window(args.n_train, args.n_train + args.n_gen - 1)
    truth = truth_series.values

    batch_cfg = BatchConfig(window_min=30, window_max=60, retain_p=0.8)
    train_cfg = TrainConfig(
        steps=args.steps, batch_size=args.batch_size, learning_rate=args.learning_rate,
        seed=args.train_seed, eval_interval=100, plateau_patience=49,
    )

    # per-step windows mirror the training geometry; a wider GCM span than
    # the trained window_max dilutes the learned attention pattern.
    # Validation forecasts at the same windows
    sampler_cfg = SamplerConfig(
        horizon=args.n_gen, n_trajectories=args.n_trajectories,
        seed=args.sample_seed, obs_window=30, gcm_past=30, gcm_future=30,
    )
    t0 = time.time()
    result = train(dataset, MODEL_CONFIG, train_cfg, batch_cfg, sampler_cfg)
    val_nll = [m.val_nll for m in result.metrics if m.val_nll is not None][-1]
    print("trained %d steps in %.0fs (stop=%s, last one-step validation NLL %.3f, "
          "z units)" % (result.metrics[-1].step, time.time() - t0, result.stop_reason,
                        val_nll))  # fmt: skip
    trajs = sampling.sample_trajectories(result.checkpoint, dataset, 0, sampler_cfg)
    ens_mean = np.stack([t.values for t in trajs]).mean(axis=0)

    predictive = sampling.predictive_nll(
        result.checkpoint, PairedDataset(pair.obs, [pair.gcm]), 0,
        start_t=float(args.n_train), n_days=args.n_gen, config=sampler_cfg,
    )
    corrected = baselines.correct(
        "mean", obs_train, pair.gcm.window(0, args.n_train - 1),
        pair.gcm.window(args.n_train, args.n_train + args.n_gen - 1),
        epoch=dt.date(2001, 1, 1),
    )
    base = metrics.score(corrected.values, truth)

    print("one-step predictive NLL  model %.4f   mean shift %.4f" % (
        predictive.mean_nll, -base.loglik))
    print("ensemble-mean bias       %+.3f degC over %d generated days" % (
        float(np.mean(ens_mean - truth)), args.n_gen))
    obs_count = metrics.heatwave_count(truth_series, args.heat_threshold).count
    samp_counts = [
        metrics.heatwave_count(t, args.heat_threshold).count for t in trajs
    ]
    base_count = metrics.heatwave_count(corrected, args.heat_threshold).count
    print("heatwaves above %.1f      truth %d   sampler %.1f±%.1f   mean shift %d" % (
        args.heat_threshold, obs_count,
        float(np.mean(samp_counts)), float(np.std(samp_counts)), base_count))


def asynchrony(args) -> None:
    pair = shifted_pair(args, args.n_days)
    train_ds = PairedDataset(pair.obs.window(0, args.n_train - 1), [pair.gcm])
    eval_ds = PairedDataset(pair.obs, [pair.gcm])

    batch_cfg = BatchConfig(window_min=60, window_max=120)
    train_cfg = TrainConfig(
        steps=args.steps, batch_size=8, learning_rate=3e-3,
        seed=args.train_seed, eval_interval=100, plateau_patience=10,
    )

    for label, ablate in (("with simulation", False), ("simulation zeroed", True)):
        result = train(
            train_ds, MODEL_CONFIG, train_cfg, replace(batch_cfg, ablate_gcm=ablate)
        )
        score = sampling.predictive_nll(
            result.checkpoint, eval_ds, 0,
            start_t=float(args.n_train) + 10, n_days=args.n_eval,
        )
        print(
            "%-18s held-out NLL %.4f  (trained %d steps, stop=%s)"
            % (label, score.mean_nll, result.metrics[-1].step, result.stop_reason)
        )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="study", required=True)
    studies = (
        sub.add_parser("synthetic", help="model against mean shift on withheld days"),
        sub.add_parser("asynchrony", help="model against its GCM-ablated twin"),
    )
    for column, p in enumerate(studies):
        for flag, kind, *defaults in SHARED_FLAGS:
            p.add_argument(flag, type=kind, default=defaults[column])
    p = studies[0]
    p.set_defaults(run=synthetic)
    p.add_argument("--n-gen", type=int, default=500)
    p.add_argument("--learning-rate", type=float, default=3e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--n-trajectories", type=int, default=16)
    p.add_argument("--sample-seed", type=int, default=11)
    p.add_argument("--heat-threshold", type=float, default=1.5)
    p = studies[1]
    p.set_defaults(run=asynchrony)
    p.add_argument("--n-days", type=int, default=1000)
    p.add_argument("--n-eval", type=int, default=100)
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()
