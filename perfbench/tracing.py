"""Clock marks for untraced runs and layer spans for traced runs.

Both instruments work by replacing a function at the module attribute its
caller looks up (``training`` calls ``make_batch`` through its own module
globals, ``Tensor.__matmul__`` through ``autodiff.matmul``, and so on), and
both are undone by :meth:`Patches.restore`. Nothing under ``src/`` changes.

- :class:`Marks` reads the CPU clock once per training step (each
  training-batch ``make_batch`` call inside ``training.train``) and once per
  forecast day (each ``build_inference_example`` call inside ``sampling``),
  and times a fixed reference kernel four times a CPU second to follow the
  host's speed. It is the only instrumentation of an untraced run.
- :class:`Tracer` records a span (name, start, end, parent) around each call
  to the public functions of every layer, plus counts computed from argument
  and result shapes. Spans sit in flat arrays in memory and are written once,
  when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from temporal_bc import autodiff, baselines, batching, cli, gp, metrics, model
from temporal_bc import sampling, timeseries, training

clock = time.perf_counter
# the process's CPU clock: it stands still while the hypervisor gives this
# vCPU to another guest (steal time), which a wall clock counts
cpu_clock = time.process_time

ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "exp", "log", "tanh", "softplus")
REDUCE_OPS = ("reduce_sum", "reduce_mean")
# CPU seconds between timings of the reference kernel: often enough to follow
# the host's changes of speed, which last seconds or longer
REFERENCE_EVERY_S = 0.25


class Patches:
    """Module-attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def reference_kernel(n_points: int, dim: int, n_heads: int, n_layers: int):
    """A fixed attention stack in plain NumPy: the yardstick for host speed.

    It does the work of a forecast day or a training step (small matmuls, a
    row softmax, elementwise ops) at a workload's geometry, but it is not
    the package's code, so a change to the package leaves its time alone.
    What moves its time is how fast the host runs this process at the
    moment.
    """
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((n_points, dim))
    wq, wk, wv, wo = (rng.standard_normal((dim, dim)) / np.sqrt(dim) for _ in range(4))
    width = dim // n_heads

    def run() -> np.ndarray:
        x = x0
        for _ in range(n_layers):
            q, k, v = x @ wq, x @ wk, x @ wv
            heads = []
            for h in range(0, dim, width):
                s = q[:, h : h + width] @ k[:, h : h + width].T
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                heads.append(e / e.sum(axis=-1, keepdims=True) @ v[:, h : h + width])
            x = x + np.tanh(np.concatenate(heads, axis=-1) @ wo)
        return x

    return run


class Marks:
    """CPU-clock marks per training step and forecast day, scaled to a
    reference speed.

    ``times[stage]`` holds one list of marks per round of that stage.
    :meth:`start` opens a round of a stage ("train", "sample" or "score");
    ``start(None)`` stops marking. Training-step marks come from
    training-batch ``make_batch`` calls, day marks from
    ``build_inference_example`` calls. A unit (step or day) runs from its
    mark to the next.

    At every stage boundary, and at the first mark after each
    ``REFERENCE_EVERY_S`` CPU seconds, :meth:`calibrate` times ``reference`` once. :meth:`clock`
    leaves that time out, so no unit includes it. :meth:`scaled` converts
    :meth:`clock` time to CPU time at reference speed: each stretch is
    multiplied by ``reference_ms`` over the reference's time nearest before
    it (a running median of three timings). A shared host runs this process
    at speeds up to 1.7 times apart for seconds or minutes at a time; the
    scaling removes most of that.
    """

    def __init__(self, reference, reference_ms: float):
        self.reference = reference
        self.reference_ms = reference_ms
        self.stage: str | None = None
        self.times: dict[str, list[list[float]]] = {"train": [], "sample": [], "score": []}
        self.ref_at: list[float] = []
        self.ref_ms: list[float] = []
        self._left_out = 0.0
        self._due = float("-inf")

    def clock(self) -> float:
        """CPU seconds of this process, less the reference timings."""
        return cpu_clock() - self._left_out

    def calibrate(self) -> None:
        t0 = cpu_clock()
        self.reference()
        took = cpu_clock() - t0
        self._left_out += took
        now = self.clock()
        self.ref_at.append(now)
        self.ref_ms.append(took * 1e3)
        self._due = now + REFERENCE_EVERY_S

    def start(self, stage: str | None) -> None:
        self.calibrate()
        self.stage = stage
        if stage is not None:
            self.times[stage].append([])

    def _mark(self, stage: str) -> None:
        if self.clock() >= self._due:
            self.calibrate()
        self.times[stage][-1].append(self.clock())

    def _factor(self, at) -> np.ndarray:
        """Scale factor in force at each clock time in ``at``."""
        ms = np.asarray(self.ref_ms)
        if len(ms) >= 3:
            ms = np.median([np.r_[ms[0], ms[:-1]], ms, np.r_[ms[1:], ms[-1]]], axis=0)
        k = np.searchsorted(self.ref_at, at, side="right") - 1
        return self.reference_ms / ms[np.clip(k, 0, None)]

    def scaled(self, start: float, end: float) -> float:
        """CPU seconds from ``start`` to ``end`` (:meth:`clock` times) at
        reference speed."""
        at = np.asarray(self.ref_at)
        edges = np.r_[start, at[(at > start) & (at < end)], end]
        return float(np.sum(np.diff(edges) * self._factor(edges[:-1])))

    def unit_ms(self, stages, scaled: bool = True) -> np.ndarray:
        """Every unit's time in ms, pooled over the stages' rounds."""
        rounds = [np.asarray(m) for stage in stages for m in self.times[stage]]
        starts = np.concatenate([m[:-1] for m in rounds])
        ms = np.concatenate([np.diff(m) for m in rounds]) * 1e3
        return ms * self._factor(starts) if scaled else ms

    def install(self, patches: Patches) -> None:
        def on_make_batch(make_batch):
            def marked(*args, **kwargs):
                if self.stage == "train" and kwargs.get("min_prediction_index") is None:
                    self._mark("train")
                return make_batch(*args, **kwargs)

            return marked

        def on_build(build):
            def marked(*args, **kwargs):
                if self.stage in ("sample", "score"):
                    self._mark(self.stage)
                return build(*args, **kwargs)

            return marked

        patches.wrap(training, "make_batch", on_make_batch)
        patches.wrap(sampling, "build_inference_example", on_build)


class Tracer:
    """In-memory spans plus shape-derived counts.

    Span i has name ``names[name_id[i]]``, runs from ``start[i]`` to
    ``end[i]`` (seconds on the ``perf_counter`` clock) and was opened while
    span ``parent[i]`` was open (-1 for none).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def wrapper(self, name: str | None, count=None):
        """Factory for :meth:`Patches.wrap`.

        Each call becomes a span called ``name`` (no span when ``name`` is
        None); ``count(counts, args, kwargs, result)`` then adds computed counts.
        """

        def make(fn):
            if name is None:

                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    count(self.counts, args, kwargs, result)
                    return result

                return counted

            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            nid = self._ids[name]
            name_id, parent, start, end, stack = (
                self.name_id, self.parent, self.start, self.end, self._open
            )

            def traced(*args, **kwargs):
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                if count is not None:
                    count(self.counts, args, kwargs, result)
                return result

            return traced

        return make

    def install(self, patches: Patches) -> None:
        """Wrap every layer's public functions at the names callers use."""
        w = self.wrapper

        # autodiff: ops resolve through module globals, Tensor sugar included
        for op in ELEMENTWISE_OPS:
            patches.wrap(autodiff, op, w("autodiff.elementwise"))
        for op in REDUCE_OPS:
            patches.wrap(autodiff, op, w("autodiff.reduce"))
        patches.wrap(autodiff, "index", w("autodiff.index"))
        patches.wrap(autodiff, "concat", w("autodiff.concat"))
        patches.wrap(autodiff, "transpose_last_two", w("autodiff.transpose"))
        patches.wrap(autodiff, "matmul", w("autodiff.matmul", _count_matmul))
        patches.wrap(
            autodiff, "masked_softmax", w("autodiff.masked_softmax", _count_softmax)
        )
        patches.wrap(autodiff.Tape, "__exit__", w(None, _count_tape))

        # training
        patches.wrap(training, "make_batch", w("batching.make_batch", _count_batch))
        patches.wrap(training, "_batch_loss", w("training.batch_loss"))
        patches.wrap(training, "backward", w("autodiff.backward"))
        patches.wrap(training.Adam, "step", w("training.adam_step"))
        patches.wrap(training, "evaluate_nll", w("training.evaluate_nll"))

        # model, looked up as ``tf_model.<name>`` by training and sampling
        patches.wrap(model, "forward", w("model.forward"))
        patches.wrap(model, "embed", w("model.embed", _count_embed))
        patches.wrap(model, "gaussian_nll", w("model.gaussian_nll"))
        patches.wrap(model, "save_checkpoint", w("model.save_checkpoint"))
        patches.wrap(model, "load_checkpoint", w("model.load_checkpoint"))
        patches.wrap(cli, "save_checkpoint", w("model.save_checkpoint"))
        patches.wrap(cli, "load_checkpoint", w("model.load_checkpoint"))

        # batching
        patches.wrap(batching, "draw_window", w(None, _count_draw))
        patches.wrap(batching, "compute_features", w("batching.compute_features"))
        patches.wrap(sampling, "compute_features", w("batching.compute_features"))

        # sampling
        patches.wrap(sampling, "sample_trajectories", w("sampling.sample_trajectories"))
        patches.wrap(cli, "sample_trajectories", w("sampling.sample_trajectories"))
        patches.wrap(sampling, "predictive_nll", w("sampling.predictive_nll"))
        patches.wrap(
            sampling,
            "build_inference_example",
            w("sampling.build_inference_example", _count_inference),
        )
        patches.wrap(sampling, "_predict_one", w("sampling.predict_one"))

        # one span name per baseline method and per CLI command
        patches.wrap(baselines, "correct", self._by_first_arg("baselines.correct."))
        patches.wrap(cli, "main", self._by_first_arg("cli."))

        # metrics, timeseries, gp
        patches.wrap(metrics, "score", w("metrics.score"))
        patches.wrap(metrics, "heatwave_count", w("metrics.heatwave_count"))
        patches.wrap(timeseries, "load_csv", w("timeseries.load_csv"))
        patches.wrap(cli, "load_csv", w("timeseries.load_csv"))
        patches.wrap(gp, "make_shifted_pair", w("gp.make_shifted_pair"))

    def _by_first_arg(self, prefix: str):
        """Wrapper factory naming each span ``prefix`` + the first argument's
        first item (``correct("mean", ...)``, ``main(["train", ...])``)."""

        def make(fn):
            traced: dict[str, object] = {}

            def dispatch(first, *args, **kwargs):
                key = first if isinstance(first, str) else first[0]
                if key not in traced:
                    traced[key] = self.wrapper(prefix + key)(fn)
                return traced[key](first, *args, **kwargs)

            return dispatch

        return make

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms.

        Self time is a span's duration minus the time its direct children
        cover; spans on one thread nest, so that is the sum of their
        durations.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][nested], weights=dur[nested], minlength=len(dur)
        )
        own = dur - covered
        calls = np.bincount(a["name_id"], minlength=n_names)
        total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        self_total = np.bincount(a["name_id"], weights=own, minlength=n_names)
        return {
            name: {
                "calls": int(calls[i]),
                "ms": float(total[i]) * 1e3,
                "self_ms": float(self_total[i]) * 1e3,
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# counts computed from shapes ------------------------------------------------


def _count_matmul(counts, args, kwargs, out):
    counts["matmul.gflop"] += 2.0 * out.data.size * args[0].shape[-1] / 1e9


def _count_softmax(counts, args, kwargs, out):
    counts["masked_softmax.cells"] += out.data.size


def _count_tape(counts, args, kwargs, out):
    counts["tape_nodes"] += len(args[0].nodes)
    counts["tapes"] += 1


def _count_batch(counts, args, kwargs, examples):
    counts["examples"] += len(examples)
    if kwargs.get("min_prediction_index") is None:
        counts["train_batches"] += 1


def _count_draw(counts, args, kwargs, window):
    counts["window_draws"] += 1


def _count_embed(counts, args, kwargs, emb):
    n = emb.q_in.shape[0]
    counts["embeds"] += 1
    counts["embed_points"] += n
    counts["attn_cells"] += n * n
    counts["attn_allowed"] += n * n - np.count_nonzero(emb.blocked)


def _count_inference(counts, args, kwargs, example):
    counts["inference_points"] += example.n_points
    counts["inference_targets"] += example.n_tgt
    counts["context_points"] += example.n_points - example.n_tgt
