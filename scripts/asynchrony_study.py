"""Does the model actually read the simulated series, or just its own past?

Builds a pair whose simulation leads the pseudo-observations by exactly one
day (plus a mean bias), trains the same model twice — once as-is, once with
the simulated series zeroed out of every training example — and compares
held-out one-step predictive NLL. If conditioning on the simulation carries
signal, the intact model must win despite the timing mismatch.

Run from the repository root:

    python scripts/asynchrony_study.py
    python scripts/asynchrony_study.py --time-shift 2 --steps 2000
"""
import argparse
from dataclasses import replace

import numpy as np

from temporal_bc import gp, sampling
from temporal_bc.batching import BatchConfig
from temporal_bc.model import ModelConfig
from temporal_bc.timeseries import PairedDataset
from temporal_bc.training import TrainConfig, train


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-days", type=int, default=1000)
    p.add_argument("--n-train", type=int, default=800)
    p.add_argument("--n-eval", type=int, default=100)
    p.add_argument("--lengthscale", type=float, default=1.5)
    p.add_argument("--mean-bias", type=float, default=1.0)
    p.add_argument("--time-shift", type=float, default=1.0)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--data-seed", type=int, default=202)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--train-seed", type=int, default=5)
    return p.parse_args()


def main():
    args = parse_args()
    times = np.arange(args.n_days, dtype=np.float64)
    pair = gp.make_shifted_pair(
        gp.rbf(lengthscale=args.lengthscale),
        times,
        mean_bias=args.mean_bias,
        time_shift=args.time_shift,
        noise_std=args.noise_std,
        seed=args.data_seed,
    )
    train_ds = PairedDataset(pair.obs.window(0, args.n_train - 1), [pair.gcm])
    eval_ds = PairedDataset(pair.obs, [pair.gcm])

    model_cfg = ModelConfig(
        n_layers=2, n_heads=2, model_dim=32, feature_dim=16, hidden_dim=32
    )
    batch_cfg = BatchConfig(window_min=60, window_max=120)
    train_cfg = TrainConfig(
        steps=args.steps, batch_size=8, learning_rate=3e-3,
        seed=args.train_seed, eval_interval=100, plateau_patience=10,
    )

    for label, ablate in (("with simulation", False), ("simulation zeroed", True)):
        result = train(
            train_ds, model_cfg, train_cfg, replace(batch_cfg, ablate_gcm=ablate)
        )
        score = sampling.predictive_nll(
            result.checkpoint, eval_ds, 0,
            start_t=float(args.n_train) + 10, n_days=args.n_eval,
        )
        print(
            "%-18s held-out NLL %.4f  (trained %d steps, stop=%s)"
            % (label, score.mean_nll, result.metrics[-1].step, result.stop_reason)
        )


if __name__ == "__main__":
    main()
