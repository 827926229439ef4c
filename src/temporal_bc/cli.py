"""Command-line pipeline: synth, train, sample, baseline, report.

``report`` is the one scoring command. It scores each run of the model's
samples (by its ensemble mean and spread) and each run of every baseline
against the observed record, and writes per run the MSE, log likelihood
and heatwave-count error. It also scores every series on its own, each
model trajectory and each baseline run, and writes its QQ pairs, PACF and
heatwave run lengths against the observed record on the same days.

Every command writes its artifacts plus a ``manifest.json`` recording the
resolved-settings hash, seeds, sha256 digests of the inputs, the relative
output paths and the numeric environment (Python, NumPy and BLAS versions
and the BLAS/OpenMP thread settings, which can change the bits of training
and synthesis), so identical invocations in one environment are
byte-for-byte reproducible and auditable. On failure, partially written
outputs are removed.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import json
import logging
import math
import os
import platform
import sys

import numpy as np

from . import __version__, gp, metrics
from . import baselines as bl
from .batching import BatchConfig
from .errors import ConfigError, DataError, NumericError, ToolkitError, config_from_dict
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .sampling import SamplerConfig, sample_trajectories
from .timeseries import (
    GCM,
    OBS,
    TimeSeries,
    common_grid,
    is_text_cell,
    load_csv,
    load_paired,
    load_samples_csv,
    read_json,
    write_csv,
    write_gcm_csv,
    write_json,
    write_obs_csv,
    write_samples_csv,
)
from .training import TrainConfig, train, write_metrics_csv

logger = logging.getLogger(__name__)

_DEFAULT_EPOCH = "1948-01-01"
# the sections of a --config file and their settings classes; train and
# sample each build all four from the one file
_CONFIG_SECTIONS = {
    "model": ModelConfig,
    "batch": BatchConfig,
    "train": TrainConfig,
    "sampler": SamplerConfig,
}
_ENSEMBLE_STD_FLOOR = 1e-6
# report's QQ pairs sit at this many evenly spaced probabilities, its PACF
# at lags 1.._MAX_LAG
_N_QUANTILES = 101
_MAX_LAG = 14
# the thread-count variables a BLAS or OpenMP runtime reads when NumPy loads
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _numeric_environment() -> dict:
    """Python, NumPy and BLAS versions plus the BLAS/OpenMP thread settings,
    which decide the bits of every matrix product, and the SIMD kernel NumPy
    dispatches ``exp`` and ``tanh`` to on this CPU for float32 (``ff``) and
    float64 (``dd``), which decides the bits of every attention and
    perceptron."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict form
        blas_id = None
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy before 2.0 has no introspect module
        simd = None
    else:
        found = opt_func_info(func_name="^(exp|tanh)$")
        simd = {
            func: {sig: found.get(func, {}).get(sig, {}).get("current") for sig in ("ff", "dd")}
            for func in ("exp", "tanh")
        }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "simd": simd,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _write_manifest(outputs: "_Outputs", command, settings, seeds, inputs) -> None:
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(
            json.dumps(settings, sort_keys=True).encode()
        ).hexdigest(),
        "seeds": seeds,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
        "outputs": sorted(outputs.names),
        "version": __version__,
        "environment": _numeric_environment(),
    }
    write_json(os.path.join(outputs.out_dir, "manifest.json"), manifest)


def _finite_float(raw: str) -> float:
    """The argparse type of every real-valued flag: NaN and infinity exit 2
    with a usage message, as they do in a config file."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("%r is not a finite number" % raw)
    return value


def _parse_epoch(raw: str) -> dt.date:
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise ConfigError("epoch must be an ISO date (YYYY-MM-DD), got %r" % raw)


def _load_config_file(path) -> dict:
    """Section name -> settings object for all four sections of the config
    file at ``path``, each built whole; an absent file or section gives the
    defaults. ``train`` and ``sample`` both call this before any output, so
    one file gets one verdict from both."""
    cfg = {} if path is None else read_json(path, ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError("config %s must hold a JSON object" % path)
    unknown = sorted(set(cfg) - set(_CONFIG_SECTIONS))
    if unknown:
        raise ConfigError(
            "config %s has unknown sections %s; the sections are %s"
            % (path, unknown, ", ".join(_CONFIG_SECTIONS))
        )
    configs = {}
    for name, cls in _CONFIG_SECTIONS.items():
        try:
            configs[name] = config_from_dict(cls, cfg.get(name, {}))
        except TypeError as exc:
            raise ConfigError("config section %r is invalid: %s" % (name, exc))
    return configs


def _apply_flags(config, args, keys):
    """Replace the fields of ``config`` named in ``keys`` whose command-line
    flag was given (each flag's default is None)."""
    given = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return dataclasses.replace(config, **given)


_ACTIVE_OUTPUTS: list["_Outputs"] = []


class _Outputs:
    """Create a command's output directory and track the files written there
    so failures can clean them up.

    ``keep = True`` marks outputs that must survive an error exit (for
    example the last good checkpoint of an aborted training run). Otherwise
    a failure also removes the directories this created, once they are
    empty, and never one that existed before.
    """

    def __init__(self, out_dir: str):
        self.made_dirs: list[str] = []  # deepest first
        head = os.path.abspath(out_dir)
        while not os.path.exists(head):
            self.made_dirs.append(head)
            head = os.path.dirname(head)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot create output directory %s: %s" % (out_dir, exc))
        self.out_dir = out_dir
        self.names: list[str] = []
        self.keep = False
        _ACTIVE_OUTPUTS.append(self)

    def path(self, name: str) -> str:
        self.names.append(name)
        return os.path.join(self.out_dir, name)

    def discard_all(self) -> None:
        if self.keep:
            return
        for name in self.names + ["manifest.json"]:
            target = os.path.join(self.out_dir, name)
            if os.path.isfile(target):
                os.remove(target)
        for made in self.made_dirs:
            try:
                os.rmdir(made)
            except OSError:  # not empty, so neither is any parent
                break


def _check_daily_kernel(kernel: gp.Kernel) -> None:
    """ConfigError unless ``kernel`` can vary on the daily grid: its Gram
    matrix over days 0 and 1 must be finite with a lag-1 correlation below 1.
    A correlation of exactly 1 draws one value for every day, up to the
    Cholesky jitter (a periodic kernel whose period divides 1 day, or a
    lengthscale or alpha so large that the kernel rounds to 1)."""
    with np.errstate(all="ignore"):
        k = gp.gram(kernel, [0.0, 1.0])
    if not np.all(np.isfinite(k)):
        raise ConfigError("kernel %s is not finite at lags 0 and 1 day" % (kernel,))
    if k[0, 1] == k[0, 0]:  # the kernel is stationary, so k[1, 1] is k[0, 0]
        raise ConfigError(
            "kernel %s has correlation 1 at a lag of 1 day, so it draws a flat "
            "series on the daily grid" % (kernel,)
        )


def _cmd_synth(args) -> int:
    if args.kernel == gp.PERIODIC and args.period is None:
        raise ConfigError("--kernel periodic needs --period")
    # the other kernels ignore the period, and truth.json records 1.0 for them
    period = 1.0 if args.period is None else args.period
    kernel = gp.Kernel(args.kernel, lengthscale=args.lengthscale, period=period, alpha=args.alpha)
    _check_daily_kernel(kernel)
    if args.n_days < 2:
        raise ConfigError("n-days must be >= 2")
    times = args.start_day + np.arange(args.n_days, dtype=np.float64)
    obs, runs = gp.make_run_ensemble(
        kernel,
        times,
        mean_bias=args.mean_bias,
        time_shift=args.time_shift,
        noise_std=args.noise_std,
        n_runs=args.n_runs,
        seed=args.seed,
    )
    # the draw checks the remaining settings, so a rejected one writes nothing
    outputs = _Outputs(args.out_dir)
    write_obs_csv(obs, outputs.path("obs.csv"))
    write_gcm_csv(runs, outputs.path("gcm.csv"))
    truth = {
        "kernel": args.kernel,
        "lengthscale": args.lengthscale,
        "period": period,
        "alpha": args.alpha,
        "mean_bias": args.mean_bias,
        "time_shift": args.time_shift,
        "noise_std": args.noise_std,
        "n_days": args.n_days,
        "n_runs": args.n_runs,
        "start_day": args.start_day,
        "seed": args.seed,
    }
    write_json(outputs.path("truth.json"), truth)
    _write_manifest(outputs, "synth", truth, {"seed": args.seed}, {})
    print("wrote %d-day pair with %d run(s) to %s" % (args.n_days, args.n_runs, args.out_dir))
    return 0


def _cmd_train(args) -> int:
    configs = _load_config_file(args.config)
    configs["train"] = train_config = _apply_flags(configs["train"], args, ("steps", "seed"))

    dataset = load_paired(args.obs, args.gcm)
    outputs = _Outputs(args.out_dir)
    result = train(
        dataset, configs["model"], train_config, configs["batch"], configs["sampler"],
        checkpoint_path=outputs.path,
    )  # fmt: skip
    save_checkpoint(result.checkpoint, outputs.path("checkpoint.json"))
    write_metrics_csv(result.metrics, outputs.path("metrics.csv"))
    # validation forecasts at the sampler windows, so all four sections count
    settings = {name: dataclasses.asdict(config) for name, config in configs.items()}
    _write_manifest(
        outputs,
        "train",
        settings,
        {"seed": train_config.seed},
        {"obs": args.obs, "gcm": args.gcm},
    )
    final = result.metrics[-1]
    print(
        "trained %d steps (%s); final train NLL %s, best val NLL %s"
        % (
            final.step,
            result.stop_reason,
            "n/a" if final.train_nll is None else "%.4f" % final.train_nll,
            "%.4f" % result.checkpoint.meta["best_val_nll"],
        )
    )
    if result.aborted:
        outputs.keep = True
        raise NumericError(
            "training aborted on a non-finite loss or gradient; the checkpoint "
            "holds the parameters from before that step"
        )
    return 0


def _parse_run(raw: str) -> int | None:
    if raw == "all":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("--run must be an integer or 'all', got %r" % raw)


def _cmd_sample(args) -> int:
    configs = _load_config_file(args.config)
    sampler_config = _apply_flags(
        configs["sampler"], args, ("horizon", "n_trajectories", "seed")
    )

    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_paired(args.obs, args.gcm)
    run_id = _parse_run(args.run)
    outputs = _Outputs(args.out_dir)
    run_ids = range(dataset.n_runs) if run_id is None else [run_id]
    samples = {z: sample_trajectories(ckpt, dataset, z, sampler_config) for z in run_ids}
    write_samples_csv(samples, outputs.path("samples.csv"))
    _write_manifest(
        outputs,
        "sample",
        dataclasses.asdict(sampler_config),
        {"seed": sampler_config.seed},
        {"checkpoint": args.checkpoint, "obs": args.obs, "gcm": args.gcm},
    )
    n_series = sum(len(v) for v in samples.values())
    print(
        "sampled %d trajectories x %d days across %d run(s) into %s"
        % (n_series, sampler_config.horizon, len(samples), args.out_dir)
    )
    return 0


def _cmd_baseline(args) -> int:
    epoch = _parse_epoch(args.epoch)
    if args.ref_end < args.ref_start or args.proj_end < args.proj_start:
        raise ConfigError("period ends must not precede their starts")
    obs = load_csv(args.obs, OBS)
    runs = load_csv(args.gcm, GCM)
    monthly = not args.no_monthly
    outputs = _Outputs(args.out_dir)
    corrected = []
    for run in runs:
        obs_ref = obs.window(args.ref_start, args.ref_end)
        gcm_ref = run.window(args.ref_start, args.ref_end)
        gcm_proj = run.window(args.proj_start, args.proj_end)
        corrected.append(
            bl.correct(args.method, obs_ref, gcm_ref, gcm_proj, epoch, monthly)
        )
    # canonical run-file format, so the output feeds straight into `report`
    write_gcm_csv(corrected, outputs.path("corrected.csv"))
    settings = {
        "method": args.method,
        "ref_start": args.ref_start,
        "ref_end": args.ref_end,
        "proj_start": args.proj_start,
        "proj_end": args.proj_end,
        "epoch": args.epoch,
        "monthly": monthly,
    }
    inputs = {"obs": args.obs, "gcm": args.gcm}
    _write_manifest(outputs, "baseline", settings, {}, inputs)
    print("wrote %s correction for %d run(s) to %s" % (args.method, len(runs), args.out_dir))
    return 0


def _ensemble_stats(trajs: dict[int, TimeSeries], path, run_id: int):
    """Days plus per-day ensemble mean and floored std of one run's
    trajectories, which must all cover the same days."""
    (first_id, first), *rest = trajs.items()
    for traj_id, series in rest:
        if not np.array_equal(series.times, first.times):
            raise DataError(
                "%s: run %d trajectories %d and %d cover different days "
                "(t=%g..%g and t=%g..%g)"
                % (path, run_id, first_id, traj_id, first.times[0], first.times[-1],
                   series.times[0], series.times[-1])
            )
    arr = np.vstack([series.values for series in trajs.values()])
    mean = arr.mean(axis=0)
    std = np.maximum(arr.std(axis=0), _ENSEMBLE_STD_FLOOR)
    return first.times, mean, std


def _series_rows(tables: dict, key: tuple, candidate, observed, run_lengths) -> None:
    """Append one scored series' rows to ``tables``: its QQ pairs and PACF
    against the observed values on the same days, and its heatwave run
    lengths, each row led by ``key`` (method, run, trajectory). A series of
    ``_MAX_LAG`` days or fewer, or one that is constant or whose observed
    values are, gets no PACF rows."""
    tables["qq"] += [(*key, *row) for row in metrics.qq(observed, candidate, _N_QUANTILES)]
    if len(candidate) > _MAX_LAG and np.std(candidate) > 0 and np.std(observed) > 0:
        lags = range(1, _MAX_LAG + 1)
        both = zip(lags, metrics.pacf(observed, _MAX_LAG), metrics.pacf(candidate, _MAX_LAG))
        tables["pacf"] += [(*key, lag, o, c) for lag, o, c in both]
    tables["runs"] += [(*key, n) for n in run_lengths]


def _cmd_report(args) -> int:
    if args.samples is None and not args.baseline:
        raise ConfigError("report needs --samples, --baseline or both")
    observed = load_csv(args.observed, OBS)
    inputs = {"observed": args.observed}
    # each candidate is (method, run, members by trajectory, scored series,
    # spread): a model run scores its ensemble mean with the ensemble spread,
    # a baseline run is its own one member, keyed None, scored with none
    candidates = []
    if args.samples is not None:
        inputs["samples"] = args.samples
        for run_id, trajs in sorted(load_samples_csv(args.samples).items()):
            times, ens_mean, ens_std = _ensemble_stats(trajs, args.samples, run_id)
            members = dict(sorted(trajs.items()))
            candidates.append(("model", run_id, members, TimeSeries(times, ens_mean), ens_std))
    for spec in args.baseline or []:
        if "=" not in spec:
            raise ConfigError("--baseline expects name=path, got %r" % spec)
        name, path = spec.split("=", 1)
        if not is_text_cell(name):
            raise ConfigError(
                "--baseline name %r must be non-empty, with no comma, double quote "
                "or line break: it is a cell of the report's CSV tables" % name
            )
        if "baseline:%s" % name in inputs:
            raise ConfigError("--baseline name %r is given twice" % name)
        if name in ("model", "observed"):
            raise ConfigError("--baseline name %r is reserved" % name)
        inputs["baseline:%s" % name] = path
        runs = enumerate(load_csv(path, GCM))
        candidates += [(name, run_id, {None: series}, series, None) for run_id, series in runs]

    outputs = _Outputs(args.out_dir)
    count_rows: list[tuple[str, int, int | None, int]] = []
    tables: dict[str, list[tuple]] = {"qq": [], "pacf": [], "runs": []}
    observed_stats = {}
    per_run: dict[str, dict] = {}
    for method, run_id, members, scored, spread in candidates:
        common, obs_v, _ = common_grid(observed, scored)
        if len(common) != len(scored):
            raise DataError(
                "observed record does not cover the evaluation stretch "
                "(%d of %d days present)" % (len(common), len(scored))
            )
        span = (run_id, common[0], len(common))
        hw_obs = observed_stats.get(span)
        if hw_obs is None:
            hw_obs = metrics.heatwave_count(TimeSeries(common, obs_v), args.threshold)
            tables["runs"] += [("observed", run_id, None, n) for n in hw_obs.run_lengths]
            observed_stats[span] = hw_obs
        stats = {
            member: metrics.heatwave_count(series, args.threshold)
            for member, series in members.items()
        }
        counts = {member: hw.count for member, hw in stats.items()}
        count_rows += [(method, run_id, member, n) for member, n in counts.items()]
        rep = metrics.score(scored.values, obs_v, predictive_std=spread)
        for member, hw in stats.items():
            key = (method, run_id, member)
            _series_rows(tables, key, members[member].values, obs_v, hw.run_lengths)
        row = {
            "mse": rep.mse,
            "loglik": rep.loglik,
            "observed_heatwave_count": hw_obs.count,
            "relative_heatwave_error_pct": metrics.relative_heatwave_error(
                list(counts.values()), hw_obs.count
            ),
        }
        if method == "model":
            row["trajectory_heatwave_counts"] = counts
        else:
            row["heatwave_count"] = counts[None]
        per_run.setdefault(method, {})[str(run_id)] = row

    summary = {method: _summarize(rows) for method, rows in per_run.items()}
    payload = {"threshold": args.threshold, "summary": summary}
    payload["baselines"] = {m: {"per_run": rows} for m, rows in per_run.items() if m != "model"}
    if "model" in per_run:
        payload["model"] = {"per_run": per_run["model"]}
    write_json(outputs.path("report.json"), payload)
    write_csv(
        outputs.path("heatwave_counts.csv"),
        ("method", "run", "trajectory", "count"),
        count_rows,
    )
    write_csv(
        outputs.path("summary.csv"),
        ("method", "mse", "loglik", "relative_heatwave_error_pct"),
        [
            (method, row["mse"], row["loglik"], row["relative_heatwave_error_pct"])
            for method, row in summary.items()
        ],
    )
    key = ("method", "run", "trajectory")
    write_csv(outputs.path("qq.csv"), key + ("prob", "observed", "candidate"), tables["qq"])
    write_csv(outputs.path("pacf.csv"), key + ("lag", "observed", "candidate"), tables["pacf"])
    write_csv(outputs.path("heatwave_runs.csv"), key + ("run_length",), tables["runs"])
    _write_manifest(outputs, "report", {"threshold": args.threshold}, {}, inputs)
    for method, row in summary.items():
        print(
            "%s: mse %.4f, loglik %.4f, heatwave rel err %s"
            % (
                method,
                row["mse"],
                row["loglik"],
                "n/a"
                if row["relative_heatwave_error_pct"] is None
                else "%.1f%%" % row["relative_heatwave_error_pct"],
            )
        )
    return 0


def _summarize(per_run: dict) -> dict:
    rels = [
        row["relative_heatwave_error_pct"]
        for row in per_run.values()
        if row["relative_heatwave_error_pct"] is not None
    ]
    return {
        "mse": float(np.mean([row["mse"] for row in per_run.values()])),
        "loglik": float(np.mean([row["loglik"] for row in per_run.values()])),
        "relative_heatwave_error_pct": None if not rels else float(np.mean(rels)),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temporal-bc",
        description="Temporal stochastic bias correction of daily series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic obs/model pair")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-days", type=int, default=1000)
    p.add_argument("--n-runs", type=int, default=1)
    p.add_argument("--start-day", type=_finite_float, default=0.0)
    p.add_argument("--kernel", choices=gp.KINDS, default=gp.RBF)
    p.add_argument("--lengthscale", type=_finite_float, default=10.0)
    p.add_argument("--period", type=_finite_float)
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--mean-bias", type=_finite_float, default=0.0)
    p.add_argument("--time-shift", type=_finite_float, default=0.0)
    p.add_argument("--noise-std", type=_finite_float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit the attention model to a paired dataset")
    p.add_argument("--obs", required=True)
    p.add_argument("--gcm", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="generate corrected trajectories")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--gcm", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--horizon", type=int)
    p.add_argument("--n-trajectories", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--run", default="all")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("baseline", help="apply a classical correction method")
    p.add_argument("--method", choices=bl.METHODS, required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--gcm", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ref-start", type=_finite_float, required=True)
    p.add_argument("--ref-end", type=_finite_float, required=True)
    p.add_argument("--proj-start", type=_finite_float, required=True)
    p.add_argument("--proj-end", type=_finite_float, required=True)
    p.add_argument("--epoch", default=_DEFAULT_EPOCH)
    p.add_argument("--no-monthly", action="store_true")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser(
        "report", help="score model samples and baseline runs against observations"
    )
    p.add_argument("--observed", required=True)
    p.add_argument("--samples")
    p.add_argument("--baseline", action="append", metavar="NAME=PATH")
    p.add_argument("--threshold", type=_finite_float, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError, MemoryError) as exc:
        for outputs in _ACTIVE_OUTPUTS:
            outputs.discard_all()
        if isinstance(exc, MemoryError):
            exc = NumericError("out of memory")
        elif isinstance(exc, OSError):  # an output that could not be written
            exc = ConfigError("cannot write %s: %s" % (exc.filename or "an output", exc.strerror))
        if isinstance(exc, ConfigError):
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        if isinstance(exc, DataError):
            print("data error: %s" % exc, file=sys.stderr)
            return 3
        print("numeric error: %s" % exc, file=sys.stderr)
        return 4
    finally:
        _ACTIVE_OUTPUTS.clear()


if __name__ == "__main__":
    sys.exit(main())
