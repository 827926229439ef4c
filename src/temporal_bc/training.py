"""Maximum-likelihood training with adaptive-moment gradient descent.

The trainer z-scores both series with the observational statistics, reserves
the trailing fraction of the aligned grid for validation, and then repeats:
draw a batch of pruned windows, evaluate the per-point Gaussian NLL of the
targets under teacher forcing, backpropagate, and apply an Adam update. At a
regular cadence, validation forecasts a fixed set of held-out days one step
ahead with :func:`temporal_bc.sampling.evaluate_nll`, the sampler's own
windowing and float32 forecast at the sampler geometry, so it scores what
:func:`temporal_bc.sampling.predictive_nll` scores; its NLL drives
plateau-based early stopping (Prechelt 1998).
It forecasts the same ``VAL_DAYS`` days on every run of the dataset, so an
evaluation's cost grows with the number of runs. The sampler's window
warnings cannot change between evaluations, so ``train`` logs them once
per run, after the first. Everything is deterministic given the seed.

A step records and sweeps one example's tape at a time, last example first,
with gradients accumulating on the parameters. One sweep over a tape of the
whole batch would reach the last example's nodes first and the first
example's last, so the parameters' gradients add up in that same order and
stay equal to the whole-batch sweep's bit for bit. Each tape is dropped once
its sweep ends, so training holds one example's graph at a time whatever
the batch size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import model as tf_model
from .autodiff import Tape, Tensor, backward
from .batching import MARGIN, BatchConfig, TrainingExample, make_batch
from .errors import ConfigError, DataError
from .model import ModelCheckpoint, ModelConfig
from .rng import substream
from .sampling import SamplerConfig, evaluate_nll, warn_about_windows
from .timeseries import AlignedPair, NormStats, PairedDataset, align, write_csv

logger = logging.getLogger(__name__)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# the trailing share of the aligned grid held out for validation, the number
# of evenly spaced days of it that validation forecasts, and the steps
# between interim checkpoints
VAL_FRACTION = 0.1
VAL_DAYS = 32
CHECKPOINT_INTERVAL = 500


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    eval_interval: int = 100
    plateau_patience: int = 10

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.eval_interval < 1:
            raise ConfigError("eval_interval must be >= 1")
        if self.plateau_patience < 1:
            raise ConfigError("plateau_patience must be >= 1")


class Adam:
    """Standard adaptive-moment optimizer over a named parameter dict.

    The parameters and both moments each live in one flat float64 buffer,
    and every parameter's ``data`` is rebound to a view into the parameter
    buffer, so one update over the buffers moves every parameter. The
    update is elementwise, so it equals a per-parameter update bit for bit,
    and it runs in place, rounding each operation as the out-of-place
    expressions do.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.t = 0
        self.data = np.concatenate([p.data.ravel() for p in params.values()])
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._move = np.empty_like(self.data)  # scratch for step()
        self._denom = np.empty_like(self.data)
        self._slices = []
        start = 0
        for p in params.values():
            block = slice(start, start + p.data.size)
            p.data = self.data[block].reshape(p.data.shape)
            self._slices.append(block)
            start = block.stop

    def gradient(self) -> np.ndarray:
        """Every parameter's gradient in one flat vector, zeros where none."""
        grad = np.zeros_like(self.data)
        for p, block in zip(self.params.values(), self._slices):
            if p.grad is not None:
                grad[block] = p.grad.ravel()
        return grad

    def step(self, grad: np.ndarray) -> None:
        """One update from ``grad``, a flat vector as :meth:`gradient` gives."""
        self.t += 1
        # in place, in the order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2
        # and p -= lr m_hat / (sqrt(v_hat) + eps), so every operation rounds as before
        m, v, move, denom = self.m, self.v, self._move, self._denom
        m *= BETA1
        m += np.multiply(grad, 1 - BETA1, out=move)
        v *= BETA2
        v += np.multiply(np.square(grad, out=move), 1 - BETA2, out=move)
        np.divide(m, 1 - BETA1**self.t, out=move)
        move *= self.learning_rate
        np.sqrt(np.divide(v, 1 - BETA2**self.t, out=denom), out=denom)
        denom += EPS
        move /= denom
        self.data -= move

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass
class MetricsRow:
    step: int
    train_nll: float | None
    val_nll: float | None


@dataclass
class TrainResult:
    checkpoint: ModelCheckpoint
    metrics: list[MetricsRow]
    stop_reason: str
    aborted: bool = False


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    write_csv(
        path,
        ("step", "train_nll", "val_nll"),
        [(row.step, row.train_nll, row.val_nll) for row in rows],
    )


def _batch_loss(params, example: TrainingExample, config: ModelConfig):
    """One example's NLL summed over its targets (as a Tensor).

    A step's loss is the per-point mean over the batch: these sums added in
    batch order, times one over the batch's target count.
    """
    mu, sigma = tf_model.forward(params, tf_model.embed(example, config), config)
    targets = example.features.value[-example.n_tgt :]
    return tf_model.gaussian_nll(mu, sigma, targets) * float(example.n_tgt)


def _validation_days(tail: np.ndarray) -> np.ndarray:
    """``VAL_DAYS`` evenly spaced days of the held-out ``tail``, first and
    last included, or every day of a shorter tail."""
    index = np.linspace(0, len(tail) - 1, min(VAL_DAYS, len(tail)))
    return tail[np.round(index).astype(int)]


def train(
    dataset: PairedDataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    batch_config: BatchConfig | None = None,
    sampler_config: SamplerConfig | None = None,
    checkpoint_path=None,
) -> TrainResult:
    """Fit the model on a paired dataset; see the module docstring.

    Validation forecasts at the windows of ``sampler_config``, by default
    :class:`SamplerConfig`'s; a held-out tail they cannot forecast is a
    DataError before the first step.

    With ``checkpoint_path`` set, an interim checkpoint is written every
    ``CHECKPOINT_INTERVAL`` steps that training continues past, to the path
    ``checkpoint_path`` returns for its file name.

    The returned checkpoint holds the parameters of the last step run (of
    the step before, on an abort), not those with the best validation NLL.
    Its ``meta["best_val_nll"]`` is the best validation NLL seen, which may
    belong to earlier parameters: a plateau stop comes ``plateau_patience``
    evaluations after the best one.
    """
    bcfg = batch_config if batch_config is not None else BatchConfig()
    stats = NormStats.from_series(dataset.obs)
    pairs_full = [
        AlignedPair(pair.times, stats.to_z(pair.obs_values), stats.to_z(pair.gcm_values))
        for pair in (align(dataset, z) for z in range(dataset.n_runs))
    ]
    n = len(pairs_full[0])
    n_train = int(n * (1.0 - VAL_FRACTION))
    if n_train <= bcfg.window_max:
        raise DataError(
            "training split too short: %d points after reserving validation, "
            "need > %d" % (n_train, bcfg.window_max)
        )
    pairs_train = [pair.sliced(0, n_train) for pair in pairs_full]
    val_days = _validation_days(pairs_full[0].times[n_train:])
    scfg = sampler_config if sampler_config is not None else SamplerConfig()

    batch_rng = substream(train_config.seed, "batchgen")
    init_rng = substream(train_config.seed, "init")

    params = tf_model.init_params(model_config, init_rng)
    optimizer = Adam(params, learning_rate=train_config.learning_rate)

    def snapshot(meta_extra) -> ModelCheckpoint:
        meta = {
            "seed": train_config.seed,
            "ablate_gcm": bcfg.ablate_gcm,
            "n_train_points": n_train,
            "window_min": bcfg.window_min,
            "window_max": bcfg.window_max,
            "margin": MARGIN,
            "retain_p": bcfg.retain_p,
        }
        meta.update(meta_extra)
        return tf_model.checkpoint_from_params(model_config, params, stats, meta)

    def validate() -> float:
        return evaluate_nll(snapshot({}), dataset, val_days, scfg)

    rows: list[MetricsRow] = []
    evals_since_best = 0
    stop_reason = "max_steps"
    aborted = False

    try:
        best_val = validate()
    except DataError as exc:
        raise DataError("cannot forecast the held-out tail at the sampler windows: %s" % exc)
    # the windows are the same at every validation, so they are checked once
    initial = snapshot({})
    for z in range(dataset.n_runs):
        warn_about_windows(initial, dataset, z, scfg, float(val_days[-1]))
    rows.append(MetricsRow(step=0, train_nll=None, val_nll=best_val))

    for step in range(1, train_config.steps + 1):
        batch = make_batch(pairs_train, train_config.batch_size, batch_rng, bcfg)
        optimizer.zero_grad()
        n_points = sum(example.n_tgt for example in batch)
        sums = []
        for example in reversed(batch):
            with Tape():
                weighted = _batch_loss(params, example, model_config)
                sums.append(float(weighted.data))
                if not np.isfinite(sums[-1]):
                    break
                backward(weighted * (1.0 / n_points))
        # added in batch order, as the whole-batch loss adds them
        total = sums[-1]
        for value in sums[-2::-1]:
            total += value
        train_nll = total * (1.0 / n_points)
        finite = bool(np.isfinite(train_nll))
        if finite:
            grad = optimizer.gradient()
            finite = bool(np.all(np.isfinite(grad)))
        if not finite:
            # an update from a non-finite loss or gradient would poison the
            # parameters, so training stops with those of the previous step
            stop_reason = (
                "non_finite_gradient" if np.isfinite(train_nll) else "non_finite_loss"
            )
            logger.warning(
                "%s at step %d; stopping with the parameters from step %d",
                stop_reason,
                step,
                step - 1,
            )
            aborted = True
            break
        optimizer.step(grad)

        val_nll = None
        if step % train_config.eval_interval == 0 or step == train_config.steps:
            val_nll = validate()
            if val_nll < best_val:
                best_val = val_nll
                evals_since_best = 0
            else:
                evals_since_best += 1
        rows.append(MetricsRow(step=step, train_nll=train_nll, val_nll=val_nll))

        if val_nll is not None and evals_since_best >= train_config.plateau_patience:
            stop_reason = "val_plateau"
            break
        if (
            checkpoint_path is not None
            and step % CHECKPOINT_INTERVAL == 0
            and step != train_config.steps
        ):
            tf_model.save_checkpoint(
                snapshot({"steps_run": step, "stop_reason": "interval"}),
                checkpoint_path("checkpoint_step%06d.json" % step),
            )

    checkpoint = snapshot(
        {"steps_run": rows[-1].step, "stop_reason": stop_reason, "best_val_nll": best_val}
    )
    return TrainResult(
        checkpoint=checkpoint,
        metrics=rows,
        stop_reason=stop_reason,
        aborted=aborted,
    )
