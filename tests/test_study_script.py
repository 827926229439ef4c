"""Smoke runs of both sub-commands of scripts/study.py at a few steps."""

import importlib.util
import os
import re

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "study.py")


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numbers(line: str) -> list[float]:
    return [float(x) for x in re.findall(r"[-+]?\d+\.\d+", line)]


def test_synthetic(study, capsys):
    study.main([
        "synthetic", "--n-train", "400", "--n-gen", "20", "--steps", "3",
        "--n-trajectories", "2",
    ])  # fmt: skip
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("trained 3 steps")
    assert lines[1].startswith("one-step predictive NLL  model")
    assert len(_numbers(lines[1])) == 2
    assert "over 20 generated days" in lines[2]
    assert lines[3].startswith("heatwaves above 1.5")


def test_asynchrony(study, capsys):
    study.main([
        "asynchrony", "--n-days", "300", "--n-train", "200", "--n-eval", "20",
        "--steps", "3",
    ])  # fmt: skip
    lines = capsys.readouterr().out.splitlines()
    labels = [line[:18].rstrip() for line in lines]
    assert labels == ["with simulation", "simulation zeroed"]
    for line in lines:
        assert len(_numbers(line)) == 1
        assert "(trained 3 steps, stop=max_steps)" in line


def test_defaults_follow_each_study(study):
    synthetic = study.parse_args(["synthetic"])
    asynchrony = study.parse_args(["asynchrony"])
    assert (synthetic.n_train, synthetic.steps, synthetic.data_seed) == (2000, 800, 101)
    assert (asynchrony.n_train, asynchrony.steps, asynchrony.data_seed) == (
        800, 1000, 202
    )
    assert asynchrony.time_shift == 1.0 and synthetic.time_shift == 0.0
