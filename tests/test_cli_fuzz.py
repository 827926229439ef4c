"""Malformed CSV and JSON inputs make ``train``, ``sample``, ``baseline`` and
``report`` exit with a documented error code (2, 3 or 4), never a traceback,
and leave no outputs behind.

Each input is a valid file with one defect drawn by hypothesis, so every
drawn case is an error by construction: a wrong header, a bad cell, a cell
longer than the csv module reads, a row with the wrong number of columns, a
repeated or missing day, an empty file, bytes that are not UTF-8 text, or a
config file that is not JSON, not an object, or holds a key or value its
dataclass rejects.
"""

import csv
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from temporal_bc.batching import BatchConfig
from temporal_bc.cli import main
from temporal_bc.model import (
    ModelConfig,
    checkpoint_from_params,
    init_params,
    save_checkpoint,
)
from temporal_bc.sampling import SamplerConfig
from temporal_bc.timeseries import NormStats
from temporal_bc.training import TrainConfig

# long enough for training windows in the training split and for validation's
# forecasts of the held-out tenth (training.VAL_FRACTION) at the sampler windows
N_DAYS = 60
ERROR_CODES = {2, 3, 4}

SMALL_CONFIG = {
    "model": {"n_layers": 1, "n_heads": 2, "model_dim": 8, "feature_dim": 8, "hidden_dim": 8},
    "batch": {"window_min": 10, "window_max": 20},
    "train": {"steps": 2, "batch_size": 2},
    "sampler": {"obs_window": 10, "gcm_past": 10, "gcm_future": 10, "horizon": 2},
}
# every config field, by section; train and sample each validate all four
CONFIG_FIELDS = {
    section: [field.name for field in dataclasses.fields(cls)]
    for section, cls in (
        ("model", ModelConfig),
        ("batch", BatchConfig),
        ("train", TrainConfig),
        ("sampler", SamplerConfig),
    )
}


def _rows(header, n_days, ids=((),)):
    """Valid CSV lines: one daily series per id tuple."""
    rng = np.random.default_rng(len(header))
    lines = [",".join(header)]
    for key in ids:
        for day in range(n_days):
            cells = {"t": repr(float(day)), "value": repr(float(20.0 + rng.normal()))}
            cells.update(zip([h for h in header if h not in ("t", "value")], map(str, key)))
            lines.append(",".join(cells[h] for h in header))
    return lines


def _not_a_finite_float(token: str) -> bool:
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return True


def _not_an_id(token: str) -> bool:
    try:
        return int(token) < 0
    except ValueError:
        return True


# cell text without the characters that would change the row's structure
_cell_text = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8)


@st.composite
def broken_csv(draw, lines):
    """The valid CSV ``lines`` with one defect, as bytes."""
    header = lines[0].split(",")
    body = list(lines[1:])
    defect = draw(st.sampled_from(
        ["header", "cell", "huge_cell", "columns", "repeat_day", "skip_day", "empty",
         "header_only", "not_utf8"]
    ))
    if defect == "empty":
        return b""
    if defect == "header_only":
        return (lines[0] + "\n").encode()
    if defect == "not_utf8":
        junk = draw(st.binary(min_size=1, max_size=16))
        return (lines[0] + "\n").encode() + b"\xff" + junk + b"\n"
    if defect == "header":
        found = draw(_cell_text.map(lambda s: s.strip()).filter(lambda s: s != lines[0]))
        return "\n".join([found] + body).encode() + b"\n"
    # a row inside its series, so a repeated or missing day is a defect
    days = [float(row.split(",")[header.index("t")]) for row in body]
    i = draw(st.sampled_from(
        [j for j, day in enumerate(days) if 0.0 < day < max(days)]
    ))
    cells = body[i].split(",")
    if defect == "cell":
        col = draw(st.integers(0, len(header) - 1))
        bad = _not_a_finite_float if header[col] in ("t", "value") else _not_an_id
        cells[col] = draw(_cell_text.filter(bad))
        body[i] = ",".join(cells)
    elif defect == "huge_cell":  # longer than the csv module's field limit
        cells[draw(st.integers(0, len(header) - 1))] = "1" * (csv.field_size_limit() + 1)
        body[i] = ",".join(cells)
    elif defect == "columns":
        body[i] = ",".join(cells[:-1] if draw(st.booleans()) else cells + ["1.0"])
    elif defect == "repeat_day":
        cells[header.index("t")] = body[i - 1].split(",")[header.index("t")]
        body[i] = ",".join(cells)
    else:  # skip_day
        del body[i]
    return "\n".join([lines[0]] + body).encode() + b"\n"


def _wrong_value():
    """A value no config field accepts: every field is a bool, an int or a
    float, and must be finite."""
    return st.one_of(
        st.text(max_size=4),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )


@st.composite
def broken_config(draw):
    """Config file bytes the train and sample commands must reject."""
    defect = draw(st.sampled_from(["text", "not_object", "section", "key", "value"]))
    if defect == "text":
        text = draw(st.text(max_size=20))
        try:
            assume(not isinstance(json.loads(text), dict))
        except ValueError:
            pass
        return text.encode()
    if defect == "not_object":
        return json.dumps(draw(st.lists(st.integers(), max_size=2))).encode()
    config = {name: dict(values) for name, values in SMALL_CONFIG.items()}
    section = draw(st.sampled_from(sorted(CONFIG_FIELDS)))
    if defect == "section":
        config[section] = draw(st.one_of(st.integers(), st.text(max_size=4), st.none()))
    elif defect == "key":
        key = draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in CONFIG_FIELDS[section]
        ))
        config[section][key] = 1
    else:
        config[section][draw(st.sampled_from(CONFIG_FIELDS[section]))] = draw(_wrong_value())
    return json.dumps(config).encode()


class _Inputs:
    """A temporary directory holding valid inputs for every command."""

    FILES = {
        "obs.csv": _rows(["t", "value"], N_DAYS),
        # runs past the observed days, so sample has model days to correct
        "gcm.csv": _rows(["t", "run", "value"], N_DAYS + 5, ids=[(0,)]),
        "observed.csv": _rows(["t", "value"], 10),
        "samples.csv": _rows(["run", "trajectory", "t", "value"], 10, ids=[(0, 0), (0, 1)]),
        "corrected.csv": _rows(["t", "run", "value"], 10, ids=[(0,)]),
    }

    def __enter__(self):
        self._tmp = tempfile.TemporaryDirectory()
        for name, lines in self.FILES.items():
            self.write(name, ("\n".join(lines) + "\n").encode())
        self.write("config.json", json.dumps(SMALL_CONFIG).encode())
        config = ModelConfig(**SMALL_CONFIG["model"])
        params = init_params(config, np.random.default_rng(0))
        ckpt = checkpoint_from_params(config, params, NormStats(20.0, 1.0))
        save_checkpoint(ckpt, self.path("checkpoint.json"))
        return self

    def __exit__(self, *exc):
        self._tmp.cleanup()
        return False

    def path(self, name):
        return os.path.join(self._tmp.name, name)

    def write(self, name, data: bytes) -> None:
        with open(self.path(name), "wb") as handle:
            handle.write(data)

    def argv(self, command):
        """The command line of ``command`` on these inputs, writing to ``out``."""
        p = self.path
        args = {
            "train": ["--obs", p("obs.csv"), "--gcm", p("gcm.csv"),
                      "--config", p("config.json")],
            "sample": ["--checkpoint", p("checkpoint.json"), "--obs", p("obs.csv"),
                       "--gcm", p("gcm.csv"), "--config", p("config.json")],
            "baseline": ["--method", "mean", "--no-monthly",
                         "--obs", p("obs.csv"), "--gcm", p("gcm.csv"),
                         "--ref-start", "0", "--ref-end", "19",
                         "--proj-start", "20", "--proj-end", str(N_DAYS - 1)],
            "report": ["--observed", p("observed.csv"), "--samples", p("samples.csv"),
                       "--baseline", "eqm=%s" % p("corrected.csv"), "--threshold", "21.0"],
        }[command]
        return [command, *args, "--out-dir", p("out")]


@st.composite
def broken_input(draw, names):
    name = draw(st.sampled_from(names))
    if name == "config.json":
        return name, draw(broken_config())
    return name, draw(broken_csv(_Inputs.FILES[name]))


def _check_rejected(command, case):
    with _Inputs() as inputs:
        inputs.write(*case)
        code = main(inputs.argv(command))
        assert code in ERROR_CODES, "%s exited %r" % (command, code)
        out = inputs.path("out")
        assert not os.path.exists(out) or os.listdir(out) == []


@given(broken_input(["obs.csv", "gcm.csv", "config.json"]))
def test_train_rejects_malformed_input(case):
    _check_rejected("train", case)


@given(broken_input(["config.json"]))
def test_sample_rejects_malformed_config(case):
    _check_rejected("sample", case)


@given(broken_input(["obs.csv", "gcm.csv"]))
def test_baseline_rejects_malformed_input(case):
    _check_rejected("baseline", case)


@given(broken_input(["observed.csv", "samples.csv", "corrected.csv"]))
def test_report_rejects_malformed_input(case):
    _check_rejected("report", case)


def test_the_unbroken_inputs_are_accepted():
    # so the drawn defect is what the commands above reject
    for command in ("train", "sample", "baseline", "report"):
        with _Inputs() as inputs:
            assert main(inputs.argv(command)) == 0, command
