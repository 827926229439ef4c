"""Byte-compare the paper-study recipe's output files from two checkouts.

Runs the ``PaperStudy`` workload of ``perfbench/workloads.py`` (train,
sample, four baselines, report, then teacher-forced scoring) and one round
of its ``Wide`` workload (training, sampling and scoring at the default
geometry, about 240 points per example) once from a base checkout and once
from a changed checkout, each in its own process with every BLAS thread
count pinned to 1 and sampler seed 1. Then it compares every file the two
runs wrote, byte for byte: the set-up's inputs, the checkpoints,
``metrics.csv``, ``samples.csv``, every ``corrected.csv`` and every report
file, plus ``heldout_nll.txt``, the ``repr`` of the scored held-out NLL;
and for the wide round ``wide/losses.bin`` and ``wide/trajectories.bin``,
the raw bytes of its training losses and sampled trajectory, and
``wide/heldout_nll.txt``. A ``manifest.json`` records the paths of its
inputs, which name the run's own directory, so that directory is masked in
both manifests before they are compared.

Run from the repository root, with both checkouts holding ``perfbench/``:

    python scripts/same_artefacts.py --base ../parent --change .

It prints each file that differs or exists on one side only. For a file on
both sides it also sizes the difference: how many of the file's numbers
differ, the largest relative difference among them, |a - b| / max(|a|,
|b|), and the largest |a - b| over the largest magnitude of any number in
either file. A relative difference is large at a number near zero even when
the change is at rounding; the second figure is not. The numbers are the float64 words of a ``.bin`` file, the numeric
leaves of a JSON file, and the cells of any other file, read as CSV, that
parse as floats (``heldout_nll.txt`` holds one). So a change at float32
rounding (about 1e-7 relative) can be told from a real one, and a file whose
numbers all agree differs in its text alone. The exit code is 1 if any file
differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# run in a child process whose import path holds one checkout's src/ and
# perfbench/; argv[1] is the directory the run writes everything under
RECIPE = """
import os, sys
from tracing import Marks
from workloads import PaperStudy, Wide
root = sys.argv[1]
work, out, wide = (os.path.join(root, d) for d in ("setup", "out", "wide"))
for d in (work, out, wide):
    os.makedirs(d)
study = PaperStudy()
p = study.run(study.setup(work), out, Marks(lambda: None, 1.0), seed=1, scale=1.0)
with open(os.path.join(root, "heldout_nll.txt"), "w", encoding="utf-8") as handle:
    handle.write(repr(p.heldout_nll) + "\\n")
checks = dict(p.checks)
study = Wide()
study.rounds = 1
p = study.run(study.setup(wide), wide, Marks(lambda: None, 1.0), seed=1, scale=1.0)
for name in ("losses", "trajectories"):
    with open(os.path.join(wide, name + ".bin"), "wb") as handle:
        handle.write(p.artefacts[name])
with open(os.path.join(wide, "heldout_nll.txt"), "w", encoding="utf-8") as handle:
    handle.write(repr(p.heldout_nll) + "\\n")
checks.update(("wide: " + name, ok) for name, ok in p.checks.items())
for name, ok in checks.items():
    print("%s: %s" % ("passed" if ok else "FAILED", name))
"""
# the thread counts perfbench/run.py pins
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MASK = b"<run>"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, type=Path, help="checkout compared against")
    p.add_argument("--change", required=True, type=Path, help="checkout under test")
    return p.parse_args(argv)


def run_recipe(checkout: Path, root: Path) -> None:
    """Run the recipe from ``checkout``, writing under ``root``."""
    checkout = checkout.resolve()
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", RECIPE, str(root)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )  # fmt: skip
    if proc.returncode != 0:
        raise SystemExit("%s: the recipe failed\n%s" % (checkout, proc.stderr))
    print("%s: %s" % (checkout, proc.stdout.strip().replace("\n", "; ")))


def _masked(path: Path, root: Path) -> bytes:
    return path.read_bytes().replace(os.fsencode(root), MASK)


def differing_files(base: Path, change: Path) -> list[str]:
    """Relative paths of the files under ``base`` and ``change`` that differ
    or exist under one only; ``manifest.json`` files are compared with each
    side's root directory masked."""
    sides = [
        {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
        for root in (base, change)
    ]
    differ = []
    for rel in sorted(sides[0] | sides[1]):
        a, b = base / rel, change / rel
        if rel not in sides[0] or rel not in sides[1]:
            same = False
        elif a.name == "manifest.json":
            same = _masked(a, base) == _masked(b, change)
        else:
            same = filecmp.cmp(a, b, shallow=False)
        if not same:
            differ.append(rel)
    return differ


def _json_numbers(item):
    if isinstance(item, dict):
        item = list(item.values())
    if isinstance(item, list):
        for value in item:
            yield from _json_numbers(value)
    elif isinstance(item, (int, float)) and not isinstance(item, bool):
        yield float(item)


def _numbers(path: Path) -> np.ndarray:
    """Every number in ``path``, in file order (see the module docstring)."""
    if path.suffix == ".bin":
        return np.frombuffer(path.read_bytes(), dtype=np.float64)
    if path.suffix == ".json":
        return np.array(list(_json_numbers(json.loads(path.read_text(encoding="utf-8")))))
    found = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            for cell in row:
                try:
                    found.append(float(cell))
                except ValueError:
                    pass
    return np.array(found)


def size_difference(a: Path, b: Path) -> str:
    """How many numbers of ``a`` and ``b`` differ, the largest relative
    difference among them, and the largest difference over the largest
    magnitude in either file; NaN equals NaN, and NaN against a number is a
    difference of NaN."""
    x, y = _numbers(a), _numbers(b)
    if len(x) != len(y):
        return "%d against %d numbers" % (len(x), len(y))
    differ = (x != y) & ~(np.isnan(x) & np.isnan(y))
    if not differ.any():
        return "0 of %d numbers differ" % len(x)
    largest = np.nanmax(np.abs(np.concatenate([x, y])))
    x, y = x[differ], y[differ]
    with np.errstate(invalid="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    return (
        "%d of %d numbers differ, largest relative difference %.3g, "
        "largest difference over the largest magnitude %.3g"
        % (len(rel), len(differ), rel.max(), np.abs(x - y).max() / largest)
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in ("base", "change")}
        run_recipe(args.base, roots["base"])
        run_recipe(args.change, roots["change"])
        n_files = sum(1 for p in roots["base"].rglob("*") if p.is_file())
        differ = differing_files(roots["base"], roots["change"])
        for rel in differ:
            a, b = roots["base"] / rel, roots["change"] / rel
            if a.is_file() and b.is_file():
                print("differs: %s: %s" % (rel, size_difference(a, b)))
            else:
                print("differs: %s: only in %s" % (rel, "base" if a.is_file() else "change"))
    print("%d of %d files differ" % (len(differ), n_files))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
