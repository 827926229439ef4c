"""Paired benchmark runs of two checkouts: per-pair values, medians, wins.

Runs ``perfbench/run.py --trace 0`` from a base checkout and a changed
checkout once per seed, alternating which side runs first, so slow and fast
stretches of a shared host fall on both sides alike. For every end-to-end
metric of ``BENCHMARK.json`` it prints each pair's values, each side's
median and quartiles, how many pairs the change wins, whether the
change's median beats the base's by more than the base's interquartile
range, and whether it is worse than the base's by more than the metric's
relative ``bound`` in ``BENCHMARK.json``. That last verdict reads
"unresolved" instead of "no" where the base's interquartile range,
relative to its median, is wider than the bound and not every change run
beats every base run. A metric that reads one value on every base run
(``heldout_nll`` does, at a fixed thread count) also says whether every
change run reads exactly that value. Every timed metric is printed a
second time unscaled, from the ``notes`` of each run's
``.perfbench/results/*.json``: the scaled figures divide by a reference
kernel's speed in the same process, and that kernel's speed can differ
between the two checkouts' processes. The last line names every median,
scaled or unscaled, that is worse beyond its bound, every one that is
unresolved, and every one-valued metric that a change run does not read
exactly.

Run from the repository root, with both checkouts holding ``perfbench/``:

    python scripts/bench_pairs.py --base ../parent --change . \\
        --workload paper-study,wide --seeds 901-910 --seconds 40 --save pairs.json

``--workload`` takes one workload or a comma-separated list. With several,
each seed runs every workload, in an order that alternates from seed to
seed; each workload gets its own table, each name in the last line is
prefixed with its workload, and that one line covers them all.
``--seeds`` takes a comma-separated list of seeds and ``a-b`` ranges.
``run.py`` pins every BLAS thread count to 1 itself. The exit code is 0 when
every run passed its checks with no failed operation.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

UNSCALED = re.compile(r"unscaled ([-+0-9.eE]+)")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, type=Path, help="checkout compared against")
    p.add_argument("--change", required=True, type=Path, help="checkout under test")
    p.add_argument("--workload", required=True, type=lambda text: text.split(","))
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--save", type=Path, help="write every run's record here (JSON)")
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its metrics, scaled and unscaled."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s: run.py printed nothing\n%s" % (checkout, proc.stderr))
    result = json.loads(lines[-1])
    record_path = checkout / ".perfbench" / "results" / (
        "%s-seed%d-trace0.json" % (workload, seed)
    )
    notes = json.loads(record_path.read_text(encoding="utf-8"))["notes"]
    unscaled = {}
    for name, note in notes.items():
        found = UNSCALED.search(note)
        if found:
            unscaled[name] = float(found.group(1))
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "unscaled": unscaled,
        "reference": notes.get("reference"),
    }


def summarise(name: str, better: str, bound: float, base: list, change: list) -> str:
    """Print one metric's pairs and medians and return its verdict: "YES"
    if the change's median is worse than the base's by more than ``bound``
    (relative), else "unresolved" if the base's interquartile range is
    wider than ``bound`` relative to its median and not every change run
    beats every base run, else "no"."""
    base, change = np.asarray(base), np.asarray(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = int(np.sum(sign * (change - base) < 0))
    b25, b50, b75 = np.percentile(base, [25, 50, 75])
    c25, c50, c75 = np.percentile(change, [25, 50, 75])
    gap = sign * (b50 - c50)
    rel = (c50 - b50) / b50 if b50 else float("nan")
    worse = -gap / abs(b50) > bound if b50 else False
    spread = (b75 - b25) / abs(b50) > bound if b50 else False
    all_beat = np.max(sign * change) < np.min(sign * base)
    verdict = "YES" if worse else "unresolved" if spread and not all_beat else "no"
    pairs = ", ".join("%.4g->%.4g" % pair for pair in zip(base, change))
    print("%s: %s" % (name, pairs))
    print(
        "  median %.4g -> %.4g (%+.1f%%), base IQR [%.4g, %.4g], change IQR "
        "[%.4g, %.4g]; change wins %d of %d; gain beyond base IQR: %s; "
        "worse beyond the %g%% bound: %s"
        % (b50, c50, 100.0 * rel, b25, b75, c25, c75, wins, len(base),
           "yes" if gap > b75 - b25 else "no", 100.0 * bound, verdict)  # fmt: skip
    )
    return verdict


def same_value(base: list, change: list, seeds: list) -> bool | None:
    """If every base run reads one value, print whether every change run
    reads exactly it, naming the seeds that do not, and return that; else
    return None."""
    if len(set(base)) != 1:
        return None
    off = ["%d: %r" % (seed, c) for seed, c in zip(seeds, change) if c != base[0]]
    print("  every base run reads %r; every change run too: %s"
          % (base[0], "no (%s)" % ", ".join(off) if off else "yes"))  # fmt: skip
    return not off


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    workloads = args.workload
    runs = {workload: {"base": [], "change": []} for workload in workloads}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads if i % 2 == 0 else workloads[::-1]:
            for side in order:
                checkout = args.base if side == "base" else args.change
                record = run_once(checkout, workload, seed, args.seconds)
                record["seed"] = seed
                runs[workload][side].append(record)
                print("# seed %d %s %s done (correct %s, first %s)"
                      % (seed, workload, side, record["correct"], order[0]),
                      file=sys.stderr)  # fmt: skip
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")

    verdicts = {"YES": [], "unresolved": [], "no": []}
    moved = []
    ok = True
    for workload in workloads:
        passed, named, moved_here = summarise_workload(
            workload, runs[workload], metrics, args.seeds, args.seconds
        )
        ok &= passed
        # a name in the last line says its workload when there are several
        prefix = workload + " " if len(workloads) > 1 else ""
        for verdict, name in named:
            verdicts[verdict].append(prefix + name)
        moved += [prefix + name for name in moved_here]
    print("# medians worse than the base's beyond their bound: %s; unresolved "
          "(base spread wider than the bound): %s; one value on every base run "
          "but not on every change run: %s"
          % (", ".join(verdicts["YES"]) or "none",
             ", ".join(verdicts["unresolved"]) or "none",
             ", ".join(moved) or "none"))  # fmt: skip
    return 0 if ok else 1


def summarise_workload(workload: str, runs: dict, metrics: list, seeds: list, seconds: int):
    """Print one workload's table. Return whether every run passed its
    checks with no failed operation, each (verdict, name) of its medians,
    and the one-valued metrics that a change run does not read exactly."""

    def series(key: str, name: str) -> tuple[list, list]:
        return tuple([r[key][name] for r in runs[side]] for side in ("base", "change"))

    ok = {side: all(r["correct"] and r["failed"] == 0 for r in rs) for side, rs in runs.items()}
    print("# %s, seeds %s, %d s requested; pairs are base->change"
          % (workload, seeds, seconds))  # fmt: skip
    print("# every run correct: base %s, change %s" % (ok["base"], ok["change"]))
    named, moved = [], []
    for m in metrics:
        values = series("metrics", m["name"])
        named.append((summarise(m["name"], m["better"], m["bound"], *values), m["name"]))
        if same_value(*values, [r["seed"] for r in runs["change"]]) is False:
            moved.append(m["name"])
    print("# unscaled CPU time (run.py notes)")
    for m in metrics:
        name = m["name"] + " unscaled"
        if all(m["name"] in r["unscaled"] for rs in runs.values() for r in rs):
            values = series("unscaled", m["name"])
            named.append((summarise(name, m["better"], m["bound"], *values), name))
    print("# reference kernel per pair: %s" % "; ".join(
        "%s | %s" % (b["reference"], c["reference"])
        for b, c in zip(runs["base"], runs["change"])
    ))  # fmt: skip
    return all(ok.values()), named, moved


if __name__ == "__main__":
    sys.exit(main())
