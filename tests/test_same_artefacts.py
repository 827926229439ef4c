"""The file comparison of scripts/same_artefacts.py, on made-up trees."""

import numpy as np

import same_artefacts  # conftest.py puts scripts/ on the import path


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text.replace("{root}", str(root)), encoding="utf-8")
    return root


def _manifest(path):
    return '{"inputs": {"obs": "{root}/setup/%s"}}\n' % path


SAME = {
    "out/train/checkpoint.json": '{"w": [1.0, 2.0]}\n',
    "out/sample/samples.csv": "run,traj,t,value\n0,0,2000,1.5\n",
    "out/train/manifest.json": _manifest("obs_train.csv"),
}


def test_identical_trees_differ_nowhere_once_manifests_are_masked(tmp_path):
    # the two roots have different lengths, so unmasked manifests differ
    base = _tree(tmp_path / "base", SAME)
    change = _tree(tmp_path / "change", SAME)
    assert (base / "out/train/manifest.json").read_bytes() != (
        change / "out/train/manifest.json"
    ).read_bytes()
    assert same_artefacts.differing_files(base, change) == []


def test_every_difference_is_named(tmp_path):
    base = _tree(tmp_path / "base", dict(SAME, **{"out/report/only_base.csv": "x\n"}))
    change = _tree(tmp_path / "change", dict(SAME, **{
        # one bit of one float, a manifest input that is not the root, and
        # a file only the change wrote
        "out/train/checkpoint.json": '{"w": [1.0, 2.0000000000000004]}\n',
        "out/train/manifest.json": _manifest("obs.csv"),
        "heldout_nll.txt": "0.5\n",
    }))  # fmt: skip
    assert same_artefacts.differing_files(base, change) == [
        "heldout_nll.txt",
        "out/report/only_base.csv",
        "out/train/checkpoint.json",
        "out/train/manifest.json",
    ]


def test_a_masked_path_in_any_other_file_still_counts(tmp_path):
    # only manifests record input paths; elsewhere a run's root is content
    files = {"out/report/report.json": '{"observed": "{root}/setup/obs.csv"}\n'}
    base = _tree(tmp_path / "base", files)
    change = _tree(tmp_path / "change", files)
    assert same_artefacts.differing_files(base, change) == ["out/report/report.json"]


def test_each_difference_is_sized(tmp_path):
    base = _tree(tmp_path / "base", {
        "metrics.csv": "step,train_nll,val_nll\n0,,1.5\n10,2.0,\n",
        "checkpoint.json": '{"w": [1.0, 2.0], "meta": {"ok": true, "best": 4.0}}\n',
        "heldout_nll.txt": "0.5\n",
        "manifest.json": '{"sha256": "ab12", "n": 3}\n',
    })  # fmt: skip
    change = _tree(tmp_path / "change", {
        "metrics.csv": "step,train_nll,val_nll\n0,,1.5000003\n10,2.0,\n",
        "checkpoint.json": '{"w": [1.0, 2.5], "meta": {"ok": false, "best": 2.0}}\n',
        "heldout_nll.txt": "0.5\n",
        "manifest.json": '{"sha256": "cd34", "n": 3}\n',
    })  # fmt: skip
    (base / "samples.csv").write_text("t,value\n0,4.0\n1,-0.001\n", encoding="utf-8")
    (change / "samples.csv").write_text("t,value\n0,4.0\n1,-0.0010001\n", encoding="utf-8")
    np.array([1.0, np.nan, -4.0]).tofile(base / "losses.bin")
    np.array([1.0, np.nan, -4.000004]).tofile(change / "losses.bin")

    def sized(rel):
        return same_artefacts.size_difference(base / rel, change / rel)

    # one val_nll of the four filled cells, at 2e-7 relative; 3e-7 against
    # the file's largest number, the step 10
    assert sized("metrics.csv") == (
        "1 of 4 numbers differ, largest relative difference 2e-07, "
        "largest difference over the largest magnitude 3e-08"
    )
    # booleans are not numbers; 2.5 against 2.0 is 0.2, 2.0 against 4.0 is 0.5
    assert sized("checkpoint.json") == (
        "2 of 3 numbers differ, largest relative difference 0.5, "
        "largest difference over the largest magnitude 0.5"
    )
    assert sized("losses.bin") == (
        "1 of 3 numbers differ, largest relative difference 1e-06, "
        "largest difference over the largest magnitude 1e-06"
    )
    # near zero, a difference at rounding reads large relative to its number
    # and small relative to the file's largest
    assert sized("samples.csv") == (
        "1 of 4 numbers differ, largest relative difference 0.0001, "
        "largest difference over the largest magnitude 2.5e-08"
    )
    assert sized("heldout_nll.txt") == "0 of 1 numbers differ"
    # a file whose numbers all agree differs in its text
    assert sized("manifest.json") == "0 of 1 numbers differ"
    (change / "heldout_nll.txt").write_text("0.5\n0.25\n", encoding="utf-8")
    assert sized("heldout_nll.txt") == "1 against 2 numbers"
