"""Acceptance suite: one test per headline guarantee, at its stated tolerance.

Every test prints a single summary line with the measured numbers (visible
with ``pytest -v -s``); the test name doubles as the criterion label. The two
tests that train models from scratch (04 and 05) run the two cases of
``scripts/study.py`` (the ``study`` fixture of ``conftest.py``) and take
tens of seconds each; everything else runs in seconds.
"""

import datetime as dt
import json
import os
import time

import numpy as np
import pytest

from temporal_bc import autodiff as ad
from temporal_bc import baselines, metrics
from temporal_bc.autodiff import Tensor
from temporal_bc.batching import (
    MARGIN,
    MIN_KEEP,
    BatchConfig,
    TrainingExample,
    compute_features,
    make_batch,
)
from temporal_bc.cli import main as cli_main
from temporal_bc.model import ModelConfig, embed, forward, gaussian_nll, init_params
from temporal_bc.rng import substream
from temporal_bc.timeseries import (
    PairedDataset,
    TimeSeries,
    align,
    write_gcm_csv,
    write_obs_csv,
)

from reference import gradcheck, heatwave_runs, simulate_ar

DATA = os.path.join(os.path.dirname(__file__), "data")
EPOCH = dt.date(2001, 1, 1)


def _report(label: str, detail: str) -> None:
    print("\n[ACCEPT] %s: PASS — %s" % (label, detail))


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _tiny_example():
    gcm_t = np.arange(6.0)
    gcm_v = np.array([0.3, -0.1, 0.4, 0.2, 0.0, 0.1])
    obs_t = np.array([0.0, 1.0, 3.0])
    obs_v = np.array([1.0, 2.0, 1.2])
    tgt_t = np.array([4.0, 5.0, 6.0])
    tgt_v = np.array([1.5, 2.5, 0.5])
    features = compute_features(gcm_t, gcm_v, obs_t, obs_v, tgt_t, tgt_v)
    return TrainingExample(None, features, len(gcm_t), len(tgt_t))


def test_01_every_op_and_the_full_nll_pass_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def T(*shape):
        return Tensor(rng.standard_normal(shape))

    def Tpos(*shape):
        return Tensor(np.abs(rng.standard_normal(shape)) + 0.5)

    mask = rng.random((4, 6)) < 0.3
    mask[:, -1] = False
    w_fixed = Tensor(rng.standard_normal((4, 6)))
    mask_bias = np.where(mask, ad.MASK_FILL, 0.0)
    fancy = np.array([0, 2, 2, 1])
    nll_targets = np.array([[0.3], [-1.2], [0.8], [2.0]])

    op_checks = [
        ("add", lambda x, y: ad.reduce_sum(x + y), [T(3, 4), T(3, 4)]),
        ("sub", lambda x, y: ad.reduce_mean(ad.sub(x, y)), [T(3, 4), T(3, 4)]),
        ("mul", lambda x, y: ad.reduce_sum(x * y), [T(3, 4), T(4)]),
        ("div", lambda x, y: ad.reduce_sum(ad.div(x, y)), [T(3, 4), Tpos(4)]),
        ("matmul", lambda x, y: ad.reduce_sum(ad.matmul(x, y)), [T(3, 4), T(4, 2)]),
        ("matmul_batched", lambda x, y: ad.reduce_sum(ad.matmul(x, y)),
         [T(2, 3, 4), T(2, 4, 2)]),
        ("concat", lambda x, y, z: ad.reduce_sum(ad.concat([x, y, z], axis=-1)),
         [T(2, 3), T(2, 1), T(2, 2)]),
        ("index_slice", lambda x: ad.reduce_sum(x[1:3, 0:2]), [T(4, 5)]),
        ("index_fancy", lambda x: ad.reduce_sum(x[fancy]), [T(3, 5)]),
        ("transpose_last_two",
         lambda x: ad.reduce_sum(ad.matmul(x, ad.transpose_last_two(x))), [T(3, 4)]),
        ("reduce_sum", lambda x: ad.reduce_sum(ad.reduce_sum(x, axis=0)), [T(3, 4)]),
        ("reduce_mean", lambda x: ad.reduce_sum(ad.reduce_mean(x, axis=-1)), [T(3, 4)]),
        ("exp", lambda x: ad.reduce_sum(ad.exp(x)), [T(3, 3)]),
        ("log", lambda x: ad.reduce_sum(ad.log(x)), [Tpos(3, 3)]),
        ("tanh", lambda x: ad.reduce_sum(ad.tanh(x)), [T(3, 3)]),
        ("softplus", lambda x: ad.reduce_sum(ad.softplus(x)), [T(3, 3)]),
        ("masked_softmax",
         lambda x: ad.reduce_sum(ad.masked_softmax(x, mask) * w_fixed), [T(4, 6)]),
        ("attention",
         lambda x, y, z: ad.reduce_sum(ad.attention(x, y, z, mask_bias, 2) * w_fixed),
         [T(4, 6), T(6, 6), T(6, 6)]),
        ("mlp", lambda x, *p: ad.reduce_sum(ad.mlp(x, *p) * w_fixed),
         [T(4, 3), T(3, 5), T(5), T(5, 6), T(6)]),
        ("gaussian_nll", lambda m, s: ad.gaussian_nll(m, s, nll_targets, 0.9),
         [T(4, 1), Tpos(4, 1)]),
        # broadcasts, keepdims, a full reduction and a column slice
        ("sub_broadcast", lambda x, y: ad.reduce_mean(ad.sub(x, y)), [T(3, 4), T(4)]),
        ("mul_broadcast", lambda x, y: ad.reduce_sum(x * y), [T(3, 4), T(1, 4)]),
        ("matmul_broadcast_batch", lambda x, y: ad.reduce_sum(ad.matmul(x, y)),
         [T(2, 3, 4), T(4, 2)]),
        ("reduce_sum_keepdims",
         lambda x: ad.reduce_sum(ad.reduce_sum(x, axis=1, keepdims=True)), [T(3, 4)]),
        ("reduce_mean_all", lambda x: ad.reduce_mean(x), [T(3, 4)]),
        ("index_column", lambda x: ad.reduce_mean(x[:, 0:1]), [T(5, 6)]),
    ]
    failures = []
    worst = 0.0
    for name, fn, tensors in op_checks:
        rep = gradcheck(fn, tensors, tol=1e-4)
        worst = max(worst, rep.max_error)
        if not rep.passed:
            failures.append("%s (max rel err %g)" % (name, rep.max_error))
    assert not failures, "op gradient checks failed: %s" % ", ".join(failures)

    # full model: NLL of a small example w.r.t. every parameter
    config = ModelConfig(n_layers=2, n_heads=2, model_dim=8, feature_dim=8, hidden_dim=8)
    example = _tiny_example()
    emb = embed(example, config)
    params = init_params(config, np.random.default_rng(7))
    # nudge the head off its zero init so its gradient path is generic
    params["head.w2"] = Tensor(
        0.05 * np.random.default_rng(8).standard_normal(params["head.w2"].shape)
    )
    names = sorted(params)
    tensors = [params[n] for n in names]

    def loss_fn(*leaves):
        p = dict(zip(names, leaves))
        mu, sigma = forward(p, emb, config)
        return gaussian_nll(mu, sigma, example.features.value[-example.n_tgt :])

    model_rep = gradcheck(loss_fn, tensors, tol=1e-3)
    elapsed = time.time() - t0
    assert model_rep.passed, "full-model max rel err %g" % model_rep.max_error
    assert elapsed < 60.0, "gradient checks took %.1fs (budget 60s)" % elapsed
    _report(
        "gradient correctness",
        "%d ops ≤1e-4 (worst %.2e), full NLL ≤1e-3 (worst %.2e), %.1fs"
        % (len(op_checks), worst, model_rep.max_error, elapsed),
    )


# ---------------------------------------------------------------------------
# 2. baseline correction oracles


def _months(times):
    """One day mask per calendar month that ``times`` (days after EPOCH) touch."""
    month = np.array([(EPOCH + dt.timedelta(days=int(d))).month for d in times])
    return [month == m for m in np.unique(month)]


def test_02_baseline_corrections_match_oracles(tmp_path):
    rng = np.random.default_rng(42)

    # (a) mean shift equals the SSE-minimizing constant per month, to 1e-10,
    # applied to the reference stretch and to the same months a year later
    t = np.arange(120.0)
    o = TimeSeries(t, 10.0 + rng.normal(size=120))
    g = TimeSeries(t, 7.0 + rng.normal(size=120))
    later = TimeSeries(t + 365.0, rng.normal(size=120))
    worst_mean = 0.0
    for proj in (g, later):
        corrected = baselines.correct("mean", o, g, proj, EPOCH, monthly=True)
        for sel in _months(t):
            closed_form = np.mean(o.values[sel]) - np.mean(g.values[sel])
            applied = corrected.values[sel] - proj.values[sel]
            worst_mean = max(worst_mean, float(np.max(np.abs(applied - closed_form))))
    assert worst_mean <= 1e-10

    # (b) mean+variance correction reproduces observed monthly moments to 1e-10,
    # also where both series change their mean and spread from month to month
    rng_b = np.random.default_rng(2)
    t59 = t[:59]  # January and February
    o59 = TimeSeries(t59, np.concatenate(
        [5 + 2 * rng_b.normal(size=31), 9 + 0.5 * rng_b.normal(size=28)]))
    g59 = TimeSeries(t59, np.concatenate(
        [1 + 4 * rng_b.normal(size=31), 2 + 3 * rng_b.normal(size=28)]))
    worst_moment = 0.0
    for obs, run in ((o, g), (o59, g59)):
        corrected = baselines.correct("meanvar", obs, run, run, EPOCH, monthly=True)
        for sel in _months(run.times):
            worst_moment = max(
                worst_moment,
                abs(np.mean(corrected.values[sel]) - np.mean(obs.values[sel])),
                abs(np.std(corrected.values[sel]) - np.std(obs.values[sel])),
            )
    assert worst_moment <= 1e-10

    # (c) EQM and EC-BC reproduce the golden hand-trace files byte-exactly
    for method in ("eqm", "ecbc"):
        out = str(tmp_path / method)
        code = cli_main([
            "baseline", "--method", method,
            "--obs", os.path.join(DATA, "golden_obs.csv"),
            "--gcm", os.path.join(DATA, "golden_gcm.csv"),
            "--out-dir", out,
            "--ref-start", "0", "--ref-end", "58",
            "--proj-start", "365", "--proj-end", "423",
            "--epoch", "2001-01-01",
        ])
        assert code == 0
        got = open(os.path.join(out, "corrected.csv"), "rb").read()
        golden = open(
            os.path.join(DATA, "golden_%s_corrected.csv" % method), "rb"
        ).read()
        assert got == golden, "%s output differs from golden file" % method

    # (d) EC-BC on its own reference period hands back the observed values,
    # in the observations' rank order, as one group and grouped by month
    t31 = np.arange(31.0)
    o31 = TimeSeries(t31, rng.permutation(31).astype(float))
    g31 = TimeSeries(t31, np.sort(rng.normal(size=31)) * 3.0)
    ranks = lambda v: np.argsort(np.argsort(v, kind="stable"), kind="stable")
    for monthly in (False, True):
        out = baselines.correct("ecbc", o31, g31, g31, EPOCH, monthly=monthly)
        assert np.array_equal(ranks(out.values), ranks(o31.values))
        assert np.array_equal(np.sort(out.values), np.sort(o31.values))

    _report(
        "baseline oracles",
        "closed form %.1e, moments %.1e, eqm+ecbc golden bytes equal, "
        "ecbc ranks and values equal" % (worst_mean, worst_moment),
    )


# ---------------------------------------------------------------------------
# 3. climate metric oracles


def test_03_climate_metrics_match_oracles():
    # heatwave runs vs the day-by-day scan on 10^4 integer-valued series,
    # which force plenty of exact threshold ties, and 300 random walks
    rng = np.random.default_rng(3)
    walk_rng = np.random.default_rng(0)
    cases = []
    for _ in range(10_000):
        n = int(rng.integers(1, 80))
        cases.append((rng.integers(-3, 4, size=n).astype(float), float(rng.integers(-2, 3))))
    for _ in range(300):
        n = int(walk_rng.integers(3, 60))
        cases.append((walk_rng.normal(size=n).cumsum(), float(walk_rng.normal())))
    disagreements = 0
    for values, threshold in cases:
        series = TimeSeries(np.arange(float(len(values))), values)
        got = metrics.heatwave_count(series, threshold).run_lengths
        if list(got) != heatwave_runs(values, threshold):
            disagreements += 1
    assert disagreements == 0, "%d/%d series disagree" % (disagreements, len(cases))

    # PACF on AR(1) recovers phi at lag 1 and ~0 beyond (index 0 is lag 1)
    pacf_figures = []
    for seed in (9, 3):
        p = metrics.pacf(simulate_ar([0.6], 20_000, seed=seed), max_lag=14)
        assert abs(p[0] - 0.6) <= 0.05, "seed %d: lag-1 PACF %.4f" % (seed, p[0])
        tail = float(np.max(np.abs(p[1:])))
        assert tail < 0.05, "seed %d: max |PACF| at lags 2..14 is %.4f" % (seed, tail)
        pacf_figures.append("lag1 %.3f tail %.3f" % (p[0], tail))

    # score() at mse == 1 reproduces the analytic constant-variance loglik
    for candidate, observed in (
        (np.zeros(100), np.tile([1.0, -1.0], 50)),
        (np.ones(100), np.zeros(100)),
    ):
        rep = metrics.score(candidate, observed)
        assert rep.mse == 1.0
        assert rep.loglik == pytest.approx(-1.4189385332046727, abs=1e-6)

    _report(
        "metric oracles",
        "heatwave runs %d/%d agree, pacf %s, loglik(mse=1) %.7f"
        % (len(cases), len(cases), " and ".join(pacf_figures), rep.loglik),
    )


# ---------------------------------------------------------------------------
# 4. synthetic end-to-end: learn a 2 °C bias and beat the mean-shift baseline


def test_04_synthetic_pipeline_beats_mean_shift_baseline(study):
    t0 = time.time()
    got = study.synthetic(study.SYNTHETIC)
    assert got["steps"] <= 5000
    elapsed = time.time() - t0
    assert elapsed < 1800.0, "end-to-end run took %.0fs (budget 30 min)" % elapsed
    assert got["model_nll"] < got["baseline_nll"], (
        "held-out NLL %(model_nll).4f does not beat mean-shift baseline %(baseline_nll).4f"
        % got
    )
    assert abs(got["bias"]) <= 0.5, "ensemble-mean bias %.3f °C over %d days" % (
        got["bias"], study.SYNTHETIC.n_eval
    )
    _report(
        "synthetic end-to-end",
        "held-out NLL %.4f < baseline %.4f, |bias| %.3f ≤ 0.5 °C, %d steps, %.0fs"
        % (got["model_nll"], got["baseline_nll"], abs(got["bias"]), got["steps"], elapsed),
    )


# ---------------------------------------------------------------------------
# 5. asynchrony: a 1-day time shift still lets the model exploit the GCM


def test_05_shifted_pair_model_beats_its_gcm_ablated_twin(study):
    nll = study.asynchrony(study.ASYNCHRONY)
    full, ablated = nll["with simulation"], nll["simulation zeroed"]
    assert full < ablated, "held-out NLL %.4f (with GCM) vs %.4f (ablated)" % (full, ablated)
    _report(
        "asynchrony",
        "held-out NLL %.4f with GCM < %.4f ablated (1-day shift)" % (full, ablated),
    )


# ---------------------------------------------------------------------------
# 6. determinism: identical seeds give byte-identical artefacts


PIPELINE_CONFIG = {
    "model": {
        "n_layers": 1, "n_heads": 2, "model_dim": 8,
        "feature_dim": 8, "hidden_dim": 8,
    },
    "batch": {"window_min": 10, "window_max": 20},
    "train": {"steps": 40, "batch_size": 2},
}

COMPARED_ARTEFACTS = (
    ("train", "metrics.csv"),
    ("train", "checkpoint.json"),
    ("samples", "samples.csv"),
    ("baseline", "corrected.csv"),
    ("report", "report.json"),
    ("report", "summary.csv"),
    ("report", "heatwave_counts.csv"),
    ("report", "qq.csv"),
    ("report", "pacf.csv"),
    ("report", "heatwave_runs.csv"),
)


def _run_pipeline(root, obs_train, obs_eval, gcm_path, config_path):
    dirs = {name: os.path.join(root, name) for name, _ in COMPARED_ARTEFACTS}
    assert cli_main([
        "train", "--obs", obs_train, "--gcm", gcm_path,
        "--out-dir", dirs["train"], "--config", config_path, "--seed", "3",
    ]) == 0
    ckpt = os.path.join(dirs["train"], "checkpoint.json")
    assert cli_main([
        "sample", "--checkpoint", ckpt, "--obs", obs_train, "--gcm", gcm_path,
        "--out-dir", dirs["samples"], "--horizon", "12",
        "--n-trajectories", "3", "--seed", "11",
    ]) == 0
    assert cli_main([
        "baseline", "--method", "eqm", "--obs", obs_train, "--gcm", gcm_path,
        "--out-dir", dirs["baseline"],
        "--ref-start", "0", "--ref-end", "449",
        "--proj-start", "450", "--proj-end", "461",
        "--epoch", "2001-01-01",
    ]) == 0
    assert cli_main([
        "report", "--observed", obs_eval,
        "--samples", os.path.join(dirs["samples"], "samples.csv"),
        "--baseline", "eqm=%s" % os.path.join(dirs["baseline"], "corrected.csv"),
        "--threshold", "18.0", "--out-dir", dirs["report"],
    ]) == 0
    return {
        (d, f): open(os.path.join(root, d, f), "rb").read()
        for d, f in COMPARED_ARTEFACTS
    }


def test_06_identical_seeds_give_byte_identical_artefacts(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(480.0)
    base = 15.0 + 3.0 * np.sin(2 * np.pi * t / 40.0)
    obs = TimeSeries(t, base + 2.0 + 0.2 * rng.normal(size=480))
    run = TimeSeries(t, base + 0.2 * rng.normal(size=480))
    obs_train = str(tmp_path / "obs_train.csv")
    obs_eval = str(tmp_path / "obs_eval.csv")
    gcm_path = str(tmp_path / "gcm.csv")
    write_obs_csv(obs.window(0, 449), obs_train)
    write_obs_csv(obs.window(450, 461), obs_eval)
    write_gcm_csv([run], gcm_path)
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as handle:
        json.dump(PIPELINE_CONFIG, handle)

    first = _run_pipeline(str(tmp_path / "a"), obs_train, obs_eval, gcm_path, config_path)
    second = _run_pipeline(str(tmp_path / "b"), obs_train, obs_eval, gcm_path, config_path)

    differing = [
        "%s/%s" % key for key in first if first[key] != second[key]
    ]
    assert not differing, "artefacts differ between executions: %s" % differing
    _report(
        "determinism",
        "%d artefacts byte-identical across two executions"
        % len(COMPARED_ARTEFACTS),
    )


# ---------------------------------------------------------------------------
# 7. batch pipeline invariants over 10^4 drawn examples


def _aligned_pair(n):
    """``n`` days of unrelated standard-normal observations and model run."""
    rng = np.random.default_rng(1)
    t = np.arange(float(n))
    obs, run = TimeSeries(t, rng.normal(size=n)), TimeSeries(t, rng.normal(size=n))
    return align(PairedDataset(obs, [run]), 0)


def test_07_training_examples_satisfy_window_invariants():
    # 10^4 examples at the default window geometry and pruning, and 64 from
    # a short series with 10-20-day windows that keep half their points
    geometries = (
        (500, BatchConfig(), substream(11, "batchgen"), 100, 100),
        (128, BatchConfig(retain_p=0.5, window_min=10, window_max=20),
         np.random.default_rng(7), 1, 64),
    )  # fmt: skip

    violations = []

    def check(cond, label, example_no):
        if not cond:
            violations.append("example %d: %s" % (example_no, label))

    drawn = 0
    for n, cfg, rng, n_batches, batch_size in geometries:
        pair = _aligned_pair(n)
        t = pair.times
        for _ in range(n_batches):
            for ex in make_batch([pair], batch_size, rng, cfg):
                i = drawn
                drawn += 1
                w = ex.window
                check(1 <= w.k <= n - cfg.window_max, "window start out of range", i)
                check(cfg.window_min <= w.h - w.k <= cfg.window_max, "window length", i)
                check(w.k + MARGIN <= w.j <= w.h - MARGIN, "prediction index", i)
                # the feature rows hold the model block, observed context, targets
                f, n_gcm, n_cond = ex.features, ex.n_gcm, ex.n_points - ex.n_tgt
                gcm_t, gcm_v = f.t[:n_gcm], f.value[:n_gcm]
                obs_t, obs_v = f.t[n_gcm:n_cond], f.value[n_gcm:n_cond]
                tgt_t, tgt_v = f.t[n_cond:], f.value[n_cond:]
                # retained points are ordered subsequences of their window slices
                for name, times_kept, lo, hi in (
                    ("obs", obs_t, w.k - 1, w.j),
                    ("tgt", tgt_t, w.j, w.h),
                    ("gcm", gcm_t, w.k - 1, w.h),
                ):
                    check(np.all(np.diff(times_kept) > 0), name + " not increasing", i)
                    check(np.all(np.isin(times_kept, t[lo:hi])), name + " outside window", i)
                    check(
                        len(times_kept) >= min(MIN_KEEP, hi - lo),
                        name + " pruned below floor", i,
                    )
                check(ex.n_tgt >= 1 and len(obs_t) >= 1, "empty block", i)
                check(obs_t[-1] < tgt_t[0], "targets precede context end", i)
                # each value is its own series' value on its day
                for name, times_kept, values, series in (
                    ("gcm", gcm_t, gcm_v, pair.gcm_values),
                    ("obs", obs_t, obs_v, pair.obs_values),
                    ("tgt", tgt_t, tgt_v, pair.obs_values),
                ):
                    check(
                        np.array_equal(values, series[times_kept.astype(int)]),
                        name + " values from the wrong series or day", i,
                    )
                # teacher-forced anchor chain: last context point, then previous target
                anchor_t = f.closest_t[-ex.n_tgt:]
                anchor_v = f.closest_value[-ex.n_tgt:]
                check(anchor_t[0] == obs_t[-1], "first anchor time", i)
                check(anchor_v[0] == obs_v[-1], "first anchor value", i)
                check(np.array_equal(anchor_t[1:], tgt_t[:-1]), "anchor chain times", i)
                check(np.array_equal(anchor_v[1:], tgt_v[:-1]), "anchor chain values", i)

    assert drawn == 10_064
    assert not violations, "%d violations, first: %s" % (
        len(violations), violations[0]
    )
    _report(
        "pipeline invariants",
        "%d examples drawn in two window geometries, 0 violations" % drawn,
    )
