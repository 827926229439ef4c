"""Benchmark for temporal-bc: one workload per run, one JSON line of results.

Run from the repository root:

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 40 --trace 0

The workloads are in ``perfbench/workloads.py``; the metric names and units
are in ``BENCHMARK.json``. With ``--trace 0`` the run measures the end-to-end
metrics with no instrumentation beyond one CPU-clock read per training step
and per forecast day. With ``--trace 1`` it runs the workload twice, untraced
and then traced, checks that both give identical outputs, and reports
per-layer metrics from the traced pass plus the tracing overhead: the
difference of the two passes' median step and median day.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the numeric environment and every metric in words. A copy of all of
it, with every step's and day's time, and in traced runs the spans, is
written under ``.perfbench/results``.
The exit code is 0 when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every BLAS/OpenMP runtime NumPy might load reads these once, when it loads
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# counts derived from array shapes rather than measured; they repeat exactly
COMPUTED = {
    "autodiff.masked_softmax.cells",
    "autodiff.matmul.gflop",
    "autodiff.tape_nodes",
    "model.points_per_example",
    "model.attn_allowed_ratio",
    "model.query_rows_used_ratio",
    "sampling.context_points",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError("a tail needs more than %d samples, got %d" % (TAIL_BEYOND, n))
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], "p%.1f of %d samples" % (pct, n)


# a day is any one-step forecast: sampled and scored days cost the same
UNITS = {"train_step": ("train",), "day": ("sample", "score")}


def end_to_end(p, marks, setup_times) -> tuple[dict, dict]:
    """End-to-end metric values, plus notes on the samples behind them.

    Every time is CPU time at the workload's reference speed (see
    ``tracing.Marks``); the notes give the unscaled CPU time beside it.
    """
    import numpy as np

    values, notes = {}, {}
    for unit, stages in UNITS.items():
        ms = marks.unit_ms(stages)
        raw = marks.unit_ms(stages, scaled=False)
        values[unit + "_ms_p50"] = float(np.median(ms))
        notes[unit + "_ms_p50"] = "of %d; unscaled %.6g" % (len(ms), np.median(raw))
        values[unit + "_ms_tail"], where = tail(ms)
        notes[unit + "_ms_tail"] = "%s; unscaled %.6g" % (where, tail(raw)[0])
    cpu = [marks.scaled(*span) for span in p.spans]
    raw = [end - start for start, end in p.spans]
    values.update(
        setup_s=statistics.median(s for s, _ in setup_times),
        cpu_s=statistics.median(cpu),
        heldout_nll=p.heldout_nll,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    notes["setup_s"] = "median of %d set-ups; unscaled %.6g" % (
        len(setup_times), statistics.median(r for _, r in setup_times)
    )
    notes["cpu_s"] = "median of %d span(s); unscaled %.6g; wall %.6g" % (
        len(cpu), statistics.median(raw), p.wall_s
    )
    speed = np.asarray(marks.ref_ms)
    notes["reference"] = "%d timings, median %.4g ms, scaled to %.4g ms" % (
        len(speed), np.median(speed), marks.reference_ms
    )
    return values, notes


def per_layer(tracer, traced_marks, untraced_marks) -> dict:
    """Per-layer metric values from the traced pass's spans and counts.

    The tracing overhead is the traced pass's median step and day minus the
    untraced pass's, both from the clock marks that each pass records, and
    the cost of one span times the number of spans.
    """
    import numpy as np

    totals = tracer.totals()
    counts = tracer.counts

    def ms(name):
        return totals.get(name, {}).get("ms", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counts["train_batches"]
    days = calls("sampling.build_inference_example")
    values = {
        "autodiff.masked_softmax.ms": ms("autodiff.masked_softmax"),
        "autodiff.masked_softmax.calls": calls("autodiff.masked_softmax"),
        "autodiff.masked_softmax.cells": counts["masked_softmax.cells"],
        "autodiff.matmul.ms": ms("autodiff.matmul"),
        "autodiff.matmul.calls": calls("autodiff.matmul"),
        "autodiff.matmul.gflop": counts["matmul.gflop"],
        "autodiff.backward.ms": ms("autodiff.backward"),
        "autodiff.tape_nodes": ratio(counts["tape_nodes"], counts["tapes"]),
        "autodiff.index.calls": calls("autodiff.index"),
        "autodiff.concat.calls": calls("autodiff.concat"),
        "autodiff.elementwise.ms": ms("autodiff.elementwise"),
        "autodiff.elementwise.calls": calls("autodiff.elementwise"),
        "model.forward.ms": ms("model.forward"),
        "model.forward.self_ms": totals.get("model.forward", {}).get("self_ms", 0.0),
        "model.forward.calls": calls("model.forward"),
        "model.embed.ms": ms("model.embed"),
        "model.gaussian_nll.ms": ms("model.gaussian_nll"),
        "model.points_per_example": ratio(counts["embed_points"], counts["embeds"]),
        "model.attn_allowed_ratio": ratio(counts["attn_allowed"], counts["attn_cells"]),
        "model.query_rows_used_ratio": ratio(
            counts["inference_targets"], counts["inference_points"]
        ),
        "model.save_checkpoint.ms": ms("model.save_checkpoint"),
        "model.load_checkpoint.ms": ms("model.load_checkpoint"),
        "batching.make_batch.ms": ms("batching.make_batch"),
        "batching.compute_features.ms": ms("batching.compute_features"),
        "batching.compute_features.calls": calls("batching.compute_features"),
        "batching.window_accept_ratio": ratio(counts["examples"], counts["window_draws"]),
        "training.step.batch_ms": ratio(ms("batching.make_batch"), steps),
        "training.step.forward_ms": ratio(ms("training.batch_loss"), steps),
        "training.step.backward_ms": ratio(ms("autodiff.backward"), steps),
        "training.step.adam_ms": ratio(ms("training.adam_step"), steps),
        "training.step.val_ms": ratio(ms("training.evaluate_nll"), steps),
        "training.evaluate_nll.calls": calls("training.evaluate_nll"),
        "sampling.day.build_ms": ratio(ms("sampling.build_inference_example"), days),
        "sampling.day.forward_ms": ratio(
            ms("sampling.predict_one"), calls("sampling.predict_one")
        ),
        "sampling.context_points": ratio(counts["context_points"], days),
        "sampling.sample_trajectories.ms": ms("sampling.sample_trajectories"),
        "sampling.predictive_nll.ms": ms("sampling.predictive_nll"),
        "metrics.score.ms": ms("metrics.score"),
        "metrics.heatwave_count.ms": ms("metrics.heatwave_count"),
        "timeseries.load_csv.ms": ms("timeseries.load_csv"),
        "gp.make_shifted_pair.ms": ms("gp.make_shifted_pair"),
    }
    values["trace.spans"] = len(tracer.start)
    values["trace.span_cost_us"] = span_cost_us()
    for unit, stages in UNITS.items():
        values["trace.overhead_%s_ms" % unit] = float(
            np.median(traced_marks.unit_ms(stages))
            - np.median(untraced_marks.unit_ms(stages))
        )
    for method in ("mean", "meanvar", "eqm", "ecbc"):
        values["baselines.correct.%s.ms" % method] = ms("baselines.correct." + method)
    for command in ("train", "sample", "baseline", "report"):
        values["cli.%s.ms" % command] = ms("cli." + command)
    return values


def span_cost_us() -> float:
    """CPU microseconds one span adds to a call: a traced no-op against a
    plain one, each the best of five batches of 20,000 calls."""
    from tracing import Tracer, cpu_clock

    def noop():
        return None

    calls, best = 20000, []
    for fn in (noop, Tracer().wrapper("noop")(noop)):
        batches = []
        for _ in range(5):
            t0 = cpu_clock()
            for _ in range(calls):
                fn()
            batches.append(cpu_clock() - t0)
        best.append(min(batches))
    return (best[1] - best[0]) / calls * 1e6


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def one_pass(workload, work: Path, seed: int, scale: float, tracer=None, setups=1):
    """Set up ``setups`` times, then run the workload once on the last set-up.

    Returns the pass, the clock marks and the set-up times, each scaled to
    reference speed and unscaled. With a tracer, set-up and run are both
    traced.
    """
    from tracing import Marks, Patches, reference_kernel

    marks = Marks(reference_kernel(*workload.reference), workload.reference_ms)
    patches = Patches()
    marks.install(patches)
    if tracer is not None:
        tracer.install(patches)
    try:
        setup_times = []
        for i in range(setups):
            data_dir = work / ("setup%d" % i)
            data_dir.mkdir(parents=True)
            marks.calibrate()
            t0 = marks.clock()
            data = workload.setup(str(data_dir))
            t1 = marks.clock()
            marks.calibrate()
            setup_times.append((marks.scaled(t0, t1), t1 - t0))
        out = work / "out"
        out.mkdir()
        p = workload.run(data, str(out), marks, seed, scale)
    finally:
        patches.restore()
    return p, marks, setup_times


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import temporal_bc  # noqa: F401  (NumPy loads here, after the pinning)
    except ImportError as exc:
        print("cannot import temporal_bc from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_seconds = spec["run_seconds"]
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("unknown workload %r (choose from %s)" % (args.workload, sorted(WORKLOADS)),
              file=sys.stderr)  # fmt: skip
        return 2
    workload = WORKLOADS[args.workload]
    scale = args.seconds / run_seconds
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = ROOT / ".perfbench" / ("work-%s-%d" % (tag, os.getpid()))
    try:
        if args.trace:
            untraced, untraced_marks, _ = one_pass(
                workload, work / "untraced", args.seed, scale
            )
            tracer = Tracer()
            p, marks, _ = one_pass(workload, work / "traced", args.seed, scale, tracer)
            for key, value in untraced.artefacts.items():
                p.check("traced %s equals untraced" % key, p.artefacts.get(key) == value)
            for key, ok in untraced.checks.items():
                p.check("untraced: " + key, ok)
            values = per_layer(tracer, marks, untraced_marks)
            notes = {}
            tracer.save(results / (tag + "-spans.npz"))
            section = spec["per_layer"]
        else:
            p, marks, setup_times = one_pass(
                workload, work, args.seed, scale, setups=SETUP_REPEATS
            )
            values, notes = end_to_end(p, marks, setup_times)
            section = spec["end_to_end"]
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(values):
        print("metrics disagree with BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(units) - set(values)), sorted(set(values) - set(units))),
              file=sys.stderr)  # fmt: skip
        return 1
    correct = all(p.checks.values()) and p.failed == 0
    env = environment()
    print("# %s seed %d trace %d, %s s requested" % (args.workload, args.seed, args.trace,
                                                    args.seconds))  # fmt: skip
    print("# env " + json.dumps(env, sort_keys=True))
    if "reference" in notes:
        print("# reference kernel: " + notes["reference"])
    for name in units:
        label = " [computed]" if name in COMPUTED else ""
        note = " (%s)" % notes[name] if name in notes else ""
        print("%-34s %14.6g %s%s%s" % (name, values[name], units[name], label, note))
    for name, ok in p.checks.items():
        print("check %-60s %s" % (name, "ok" if ok else "FAILED"))
    print("# %d of %d operations failed" % (p.failed, p.attempted))
    result = {
        "correct": correct,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = dict(result, environment=env, notes=notes, checks=p.checks,
                  computed=sorted(COMPUTED & set(units)), seed=args.seed,
                  seconds=args.seconds,
                  unit_ms={unit: marks.unit_ms(stages).tolist()
                           for unit, stages in UNITS.items()},
                  unscaled_unit_ms={unit: marks.unit_ms(stages, scaled=False).tolist()
                                    for unit, stages in UNITS.items()},
                  reference_ms=marks.ref_ms)  # fmt: skip
    (results / (tag + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
