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

A :class:`Case` holds a study's settings and :func:`score` fits and scores
it. The defaults, ``SYNTHETIC`` and ``ASYNCHRONY``, are the recipes of
acceptance tests 04 and 05.

Run from the repository root:

    python scripts/study.py synthetic
    python scripts/study.py synthetic --steps 1500 --lengthscale 2.0
    python scripts/study.py asynchrony --time-shift 2 --steps 2000
"""

import argparse
import datetime as dt
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from temporal_bc import baselines, gp, metrics, sampling
from temporal_bc.batching import BatchConfig
from temporal_bc.cli import numeric_environment
from temporal_bc.model import ModelConfig
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import PairedDataset
from temporal_bc.training import TrainConfig, train

MODEL_CONFIG = ModelConfig(
    n_layers=2, n_heads=2, model_dim=32, feature_dim=16, hidden_dim=32
)


@dataclass(frozen=True)
class Case:
    """One study: the pair drawn, the settings the model is fitted with, and
    the held-out stretch it is scored on."""

    n_days: int  # of the pair, from day 0
    n_train: int  # the leading days fitted
    lengthscale: float
    mean_bias: float
    time_shift: float
    noise_std: float
    data_seed: int
    batch: BatchConfig
    train: TrainConfig
    sampler: SamplerConfig
    eval_gap: int  # days between the fitted days and the held-out stretch
    n_eval: int  # held-out days scored


# days the synthetic pair runs past its generated stretch, more than the
# sampler's gcm_future reads ahead
SPARE_DAYS = 120
HEAT_THRESHOLD = 1.5

SYNTHETIC = Case(
    n_days=2000 + 500 + SPARE_DAYS, n_train=2000, lengthscale=2.0, mean_bias=2.0,
    time_shift=0.0, noise_std=0.3, data_seed=101,
    batch=BatchConfig(window_min=30, window_max=60, retain_p=0.8),
    train=TrainConfig(
        steps=800, batch_size=8, learning_rate=3e-3, seed=3,
        eval_interval=100, plateau_patience=49,
    ),
    # the sampler's per-step windows mirror the training geometry (a GCM span
    # wider than any training window dilutes the learned attention pattern),
    # and validation forecasts at the same windows
    sampler=SamplerConfig(n_trajectories=16, seed=11, obs_window=30, gcm_past=30, gcm_future=30),
    eval_gap=0, n_eval=500,
)  # fmt: skip

ASYNCHRONY = Case(
    n_days=1000, n_train=800, lengthscale=1.5, mean_bias=1.0,
    time_shift=1.0, noise_std=0.1, data_seed=202,
    batch=BatchConfig(window_min=60, window_max=120),
    train=TrainConfig(
        steps=1000, batch_size=8, learning_rate=3e-3, seed=5,
        eval_interval=100, plateau_patience=10,
    ),
    sampler=SamplerConfig(),
    eval_gap=10, n_eval=100,
)  # fmt: skip


def score(case: Case) -> tuple:
    """Draw the case's pair, fit its first ``n_train`` days, and score the
    one-step predictive NLL of its held-out stretch; returns the pair, the
    training result and that NLL per day."""
    pair = gp.make_shifted_pair(
        gp.rbf(lengthscale=case.lengthscale), np.arange(case.n_days, dtype=np.float64),
        mean_bias=case.mean_bias, time_shift=case.time_shift,
        noise_std=case.noise_std, seed=case.data_seed,
    )  # fmt: skip
    fitted = PairedDataset(pair.obs.window(0, case.n_train - 1), [pair.gcm])
    result = train(fitted, MODEL_CONFIG, case.train, case.batch, case.sampler)
    predictive = sampling.predictive_nll(
        result.checkpoint, PairedDataset(pair.obs, [pair.gcm]), 0,
        start_t=float(case.n_train + case.eval_gap), n_days=case.n_eval,
        config=case.sampler,
    )  # fmt: skip
    return pair, result, predictive.mean_nll


def synthetic(case: Case, heat_threshold: float = HEAT_THRESHOLD) -> dict:
    """The model against mean shift on the held-out stretch, which the
    sampler also generates; so it must follow the fitted days (``eval_gap``
    0). Returns the numbers printed, by name."""
    t0 = time.time()
    pair, result, model_nll = score(case)
    seconds = time.time() - t0
    n_train, n_gen = case.n_train, case.n_eval
    obs_train = pair.obs.window(0, n_train - 1)
    trajs = sampling.sample_trajectories(
        result.checkpoint, PairedDataset(obs_train, [pair.gcm]), 0,
        replace(case.sampler, horizon=n_gen),
    )  # fmt: skip
    truth = pair.obs.window(n_train, n_train + n_gen - 1)
    corrected = baselines.correct(
        "mean", obs_train, pair.gcm.window(0, n_train - 1),
        pair.gcm.window(n_train, n_train + n_gen - 1), epoch=dt.date(2001, 1, 1),
    )  # fmt: skip
    counts = [metrics.heatwave_count(t, heat_threshold).count for t in trajs]
    got = {
        "steps": result.metrics[-1].step,
        "val_nll": [m.val_nll for m in result.metrics if m.val_nll is not None][-1],
        "model_nll": model_nll,
        "baseline_nll": -metrics.score(corrected.values, truth.values).loglik,
        "bias": float(np.mean(np.mean([t.values for t in trajs], axis=0) - truth.values)),
        # in the truth, the sampler's mean and std, and mean shift
        "heatwaves": (
            metrics.heatwave_count(truth, heat_threshold).count, float(np.mean(counts)),
            float(np.std(counts)), metrics.heatwave_count(corrected, heat_threshold).count,
        ),
    }
    print("trained %d steps in %.0fs (stop=%s, last one-step validation NLL %.3f, "
          "z units)" % (got["steps"], seconds, result.stop_reason, got["val_nll"]))
    print("one-step predictive NLL  model %(model_nll).4f   mean shift %(baseline_nll).4f"
          % got)
    print("ensemble-mean bias       %+.3f degC over %d generated days" % (got["bias"], n_gen))
    print("heatwaves above %.1f      truth %d   sampler %.1f±%.1f   mean shift %d"
          % (heat_threshold, *got["heatwaves"]))
    return got


def asynchrony(case: Case) -> dict:
    """The held-out NLL of the model and of its GCM-ablated twin, by label."""
    nll = {}
    for label, ablate in (("with simulation", False), ("simulation zeroed", True)):
        twin = replace(case, batch=replace(case.batch, ablate_gcm=ablate))
        _, result, nll[label] = score(twin)
        print("%-18s held-out NLL %.4f  (trained %d steps, stop=%s)"
              % (label, nll[label], result.metrics[-1].step, result.stop_reason))
    return nll


def environment_line() -> str:
    """The BLAS library and its thread settings, which decide the bits of every
    matrix product and so the asynchrony verdict at its defaults."""
    env = numeric_environment()
    threads = ["%s=%s" % item for item in env["threads"].items() if item[1] is not None]
    if not threads:
        threads = ["unset, so the BLAS picks its own count (%d CPUs)" % os.cpu_count()]
    return "numeric environment: BLAS %s; threads %s" % (env["blas"], ", ".join(threads))


# the pair settings both sub-commands take as flags, each named after its field
PAIR_FIELDS = ("n_train", "lengthscale", "mean_bias", "time_shift", "noise_std", "data_seed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="study", required=True)
    syn = sub.add_parser("synthetic", help="model against mean shift on withheld days")
    asy = sub.add_parser("asynchrony", help="model against its GCM-ablated twin")
    for p, case in ((syn, SYNTHETIC), (asy, ASYNCHRONY)):
        for name in PAIR_FIELDS:
            flag, kind = "--" + name.replace("_", "-"), Case.__annotations__[name]
            p.add_argument(flag, type=kind, default=getattr(case, name))
        p.add_argument("--steps", type=int, default=case.train.steps)
        p.add_argument("--train-seed", type=int, default=case.train.seed)
    syn.add_argument("--n-gen", type=int, default=SYNTHETIC.n_eval)
    syn.add_argument("--learning-rate", type=float, default=SYNTHETIC.train.learning_rate)
    syn.add_argument("--batch-size", type=int, default=SYNTHETIC.train.batch_size)
    syn.add_argument("--n-trajectories", type=int, default=SYNTHETIC.sampler.n_trajectories)
    syn.add_argument("--sample-seed", type=int, default=SYNTHETIC.sampler.seed)
    syn.add_argument("--heat-threshold", type=float, default=HEAT_THRESHOLD)
    asy.add_argument("--n-days", type=int, default=ASYNCHRONY.n_days)
    asy.add_argument("--n-eval", type=int, default=ASYNCHRONY.n_eval)
    return parser.parse_args(argv)


def main(argv=None) -> dict:
    """Print the numeric environment, then run one sub-command; returns the
    numbers it prints."""
    args = parse_args(argv)
    print(environment_line())
    case = SYNTHETIC if args.study == "synthetic" else ASYNCHRONY
    case = replace(
        case, **{name: getattr(args, name) for name in PAIR_FIELDS},
        train=replace(case.train, steps=args.steps, seed=args.train_seed),
    )  # fmt: skip
    if args.study == "asynchrony":
        return asynchrony(replace(case, n_days=args.n_days, n_eval=args.n_eval))
    return synthetic(replace(
        case, n_days=args.n_train + args.n_gen + SPARE_DAYS, n_eval=args.n_gen,
        train=replace(case.train, learning_rate=args.learning_rate, batch_size=args.batch_size),
        sampler=replace(case.sampler, n_trajectories=args.n_trajectories, seed=args.sample_seed),
    ), args.heat_threshold)  # fmt: skip


if __name__ == "__main__":
    main()
