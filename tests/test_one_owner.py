"""Each decision below has one owner in the package source, and each
test-side oracle one copy in ``tests/reference.py``.

Each pattern marks the one place that decides a file format, a constant or
a rule; a second match means a second copy of that decision has appeared,
which should call the owner instead.
"""

import glob
import os
import re

import pytest

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, os.pardir, "src", "temporal_bc")

OWNED = {
    # timeseries.write_json
    "json-layout": re.escape("json.dump("),
    # timeseries.read_json: config files and checkpoints are read, and their
    # errors mapped, in one place
    "json-reader": re.escape("json.load("),
    # timeseries._read_series
    "csv-reader": re.escape("csv.reader("),
    # timeseries.common_grid
    "time-grid-intersection": re.escape("np.intersect1d("),
    # timeseries._fmt
    "float-cell-format": re.escape("repr(float("),
    # metrics
    "log-2pi": re.escape("LOG_2PI ="),
    # TimeSeries.non_daily_step
    "daily-grid-rule": r"[<>]=?\s*_DAY_TOL\b",
    # baselines._groups, the one caller of month_of
    "calendar-month-grouping": r"(?<!def )\bmonth_of\(",
    # gp._draw: the observation and model-run noise of synthetic pairs
    "synthetic-noise-recipe": r"substream\(.*\"noise\"",
    # gp.KINDS: every list or branch over kernel names holds this one
    "kernel-names": r"[\"']rational_quadratic[\"']",
    # timeseries._DAY_TOL: days match exactly or within this one tolerance
    "day-tolerance": r"\b1e-9\b",
    # cli._cmd_report's candidate loop: report is the one scoring command,
    # and the model runs and baseline runs are its candidates alike
    "score-call": re.escape("metrics.score("),
    "series-rows-call": r"(?<!def )\b_series_rows\(",
    # model.forecast_params: sampling and scoring compute in float32, and the
    # forecaster's parameters are cast there and nowhere else
    "inference-dtype": r"\bnp\.float32\b|[\"']float32[\"']",
    # sampling._predict_one: sampling, scoring and training's validation
    # forecast every day through one call
    "forecast-call": r"(?<!def )\bforecast\(",
    # sampling._forecaster: sampling, scoring and training's validation
    # window every forecast day in one place
    "inference-windowing": r"(?<!def )\bbuild_inference_example\(",
    # model.EmbeddedExample.blocked: the attention mask of training and the
    # tracer's counts, built from the example's block sizes when read
    "attention-mask-rule": re.escape("np.triu("),
    # model._slope: the finite-difference slope of every point's local
    # expansion, computed where the model embeds the point
    "finite-difference-slope": re.escape("delta / np.where(dist != 0.0"),
    # model.embed: the value offset from each point's anchor, computed from
    # the feature columns where the model embeds the point
    "anchor-offsets": r"\bvalue - [\w.]*closest_value\b",
    # model.embed: a point's series one-hot comes from its example's block
    # sizes, the first n_gcm points being the model block
    "series-one-hot-from-block-size": r"arange\(\w+\) < [\w.]*n_gcm\b",
    # batching.compute_features: points take the model order (model block,
    # observed context, targets) in one concatenation of three blocks, and
    # the model reads the columns it returns
    "point-order-concatenation": r"concatenate\(\[\S*g\S*, \S*o\S*, \S*t\S*\]",
    # batching._target_features: a target of unknown value enters as 0
    "unknown-target-zero-fill": r"zeros\(\w+\) if [\w.]*tgt_v is None",
    # autodiff.perceptron: training's mlp node and the forecast share one
    # perceptron arithmetic
    "perceptron-arithmetic": re.escape("np.tanh(y, out=y)"),
    # timeseries.PairedDataset.run: every lookup of a run by id is checked
    # against one range rule
    "run-id-range-rule": r"0 <= run_id <",
    # metrics.qq: the QQ probabilities come from where the quantiles are taken
    "qq-probability-grid": re.escape("np.linspace(0.0, 1.0"),
}


# test modules hold none of these: the one copy of each oracle lives in
# tests/reference.py, and a script is imported by name from scripts/, which
# conftest.py puts on the import path
TEST_SIDE = {
    "script-loader": r"\bimportlib\b",
    # reference.heatwave_runs: a run closes as a heatwave at 3 days or more
    "heatwave-scan": r"\bif \w+ >= 3:",
    # reference.simulate_ar: the days an autoregressive series drops first
    "ar-simulator-burn-in": r"\bburn\b",
}


def _matches(pattern: str, directory: str = SRC, skip=()) -> list[str]:
    found = []
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        if os.path.basename(path) in skip:
            continue
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if re.search(pattern, line):
                    found.append("%s:%d" % (os.path.basename(path), line_no))
    return found


@pytest.mark.parametrize("decision", sorted(OWNED))
def test_decision_has_one_owner(decision):
    found = _matches(OWNED[decision])
    assert len(found) == 1, "%s found at %s" % (decision, found)


@pytest.mark.parametrize("oracle", sorted(TEST_SIDE))
def test_no_test_module_holds_a_second_copy(oracle):
    found = _matches(TEST_SIDE[oracle], TESTS, skip=("reference.py", "test_one_owner.py"))
    assert not found, "%s found at %s" % (oracle, found)
