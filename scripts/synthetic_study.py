"""End-to-end study on a synthetic pair with known bias.

Generates a GP pair whose "simulation" runs 2 degrees cold relative to the
pseudo-observations, fits the sequence model on the first block of days,
then scores the generated continuation against the withheld truth: one-step
predictive NLL against the classical mean-shift baseline, ensemble-mean
bias, and heatwave counts.

Run from the repository root:

    python scripts/synthetic_study.py
    python scripts/synthetic_study.py --steps 1500 --lengthscale 2.0
"""
import argparse
import datetime as dt
import time

import numpy as np

from temporal_bc import baselines, gp, metrics, sampling
from temporal_bc.batching import BatchConfig
from temporal_bc.model import ModelConfig
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import PairedDataset
from temporal_bc.training import TrainConfig, train


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-gen", type=int, default=500)
    p.add_argument("--lengthscale", type=float, default=2.0)
    p.add_argument("--mean-bias", type=float, default=2.0)
    p.add_argument("--time-shift", type=float, default=0.0)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--data-seed", type=int, default=101)
    p.add_argument("--steps", type=int, default=800)
    p.add_argument("--learning-rate", type=float, default=3e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--train-seed", type=int, default=3)
    p.add_argument("--n-trajectories", type=int, default=16)
    p.add_argument("--sample-seed", type=int, default=11)
    p.add_argument("--heat-threshold", type=float, default=1.5)
    return p.parse_args()


def main():
    args = parse_args()
    times = np.arange(args.n_train + args.n_gen + 120, dtype=np.float64)
    pair = gp.make_shifted_pair(
        gp.rbf(lengthscale=args.lengthscale),
        times,
        mean_bias=args.mean_bias,
        time_shift=args.time_shift,
        noise_std=args.noise_std,
        seed=args.data_seed,
    )
    obs_train = pair.obs.window(0, args.n_train - 1)
    dataset = PairedDataset(obs_train, [pair.gcm])
    truth_series = pair.obs.window(args.n_train, args.n_train + args.n_gen - 1)
    truth = truth_series.values

    model_cfg = ModelConfig(
        n_layers=2, n_heads=2, model_dim=32, feature_dim=16, hidden_dim=32
    )
    batch_cfg = BatchConfig(window_min=30, window_max=60, retain_p=0.8)
    train_cfg = TrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.train_seed,
        eval_interval=100,
        plateau_patience=49,
    )

    t0 = time.time()
    result = train(dataset, model_cfg, train_cfg, batch_cfg)
    print(
        "trained %d steps in %.0fs (stop=%s, final val NLL %.3f)"
        % (
            result.metrics[-1].step,
            time.time() - t0,
            result.stop_reason,
            [m.val_nll for m in result.metrics if m.val_nll is not None][-1],
        )
    )

    # per-step windows mirror the training geometry; a wider GCM span than
    # the trained window_max dilutes the learned attention pattern
    sampler_cfg = SamplerConfig(
        horizon=args.n_gen, n_trajectories=args.n_trajectories,
        seed=args.sample_seed, obs_window=30, gcm_past=30, gcm_future=30,
    )
    trajs = sampling.sample_trajectories(result.checkpoint, dataset, 0, sampler_cfg)
    ens = np.stack([t.values for t in trajs])
    ens_mean = ens.mean(axis=0)

    predictive = sampling.predictive_nll(
        result.checkpoint,
        PairedDataset(pair.obs, [pair.gcm]),
        0,
        start_t=float(args.n_train),
        n_days=args.n_gen,
        config=sampler_cfg,
    )

    corrected = baselines.correct(
        "mean",
        obs_train,
        pair.gcm.window(0, args.n_train - 1),
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


if __name__ == "__main__":
    main()
