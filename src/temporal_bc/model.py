"""Attention model over the points of one example, with a Gaussian head.

An example's points are its model block, its observed context and its
targets, in that order. Each point enters as its local-expansion features
(see :mod:`temporal_bc.batching`), a series one-hot and sinusoidal
positional features of its own time and of its neighbour's time. Their
width is :class:`ModelConfig`'s ``feature_dim``; their time scales are the
constants :data:`T_MAX` and :data:`DELTA_T`.

Two attention stacks run side by side. The main stack embeds each point's
local-expansion features into queries, keys and values with two-layer
perceptrons; later layers reuse the previous layer's output directly as
query, key and value, with a fresh output perceptron per layer. An auxiliary
stack builds queries and keys from positional features alone and its values
from the raw series value, so it can mix values across time guided purely by
position; its value map is shared across layers. Attention weights are a
masked softmax of plain query-key dot products (no scale factor), split over
heads along the feature axis. Under a tape each layer's attention is one
:func:`temporal_bc.autodiff.attention` op, one tape node, and the mask enters
it as an additive n x n bias that :func:`forward` builds once for every
layer. Each two-layer perceptron is likewise one
:func:`temporal_bc.autodiff.mlp` node, and :func:`gaussian_nll` one
:func:`temporal_bc.autodiff.gaussian_nll` node.

Conditioning points (model block and observed context) attend freely to each
other; each target attends to the conditioning points and to strictly
earlier targets only, and nothing attends to a target from the conditioning
side, so a target's value can never reach its own prediction. The head maps
the concatenated outputs of both stacks to a per-target (mean, std); the
mean is an offset from the nearest earlier available value and the std goes
through a softplus plus the hard floor :data:`SIGMA_FLOOR`. The head's final
layer starts at zero, so an untrained model predicts exactly that nearest
value.

The head reads the target rows only. A forward that records a tape
(training) passes every query row to every layer, and every product keeps
its full shape, so training's rounding stays that of the full computation;
only the last layer's softmax, on each stack, skips the conditioning rows
that nothing reads. A forward with no tape (sampling, held-out scoring,
validation) runs the last layer of each stack on the target queries alone,
against the keys and values of every point. Its attention builds no n x n
bias: all heads share one logits product and one value product, only the
target-key columns are masked (every query may see every conditioning
point), and each row is divided by its sum of exponents after the value
product rather than before it. That arithmetic rounds differently from the
taped op's; in float64 the two agree to about 1e-15 of the largest output.

The forward computes in its parameters' dtype. Training passes float64
parameters, and a taped forward refuses any other. Sampling, scoring and
validation pass the float32 copies of :func:`tensors_from_checkpoint`, the
one place that cast happens: the perceptrons and attentions run in float32,
and the anchor and the std floor are added in float64. So an untaped
forward's (mean, std) match the taped forward's to float32 rounding (about
1e-6 relative to the largest mean), not bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .batching import SERIES_GCM, SERIES_OBS, TrainingExample
from .errors import ConfigError, DataError, NumericError, config_from_dict
from .metrics import LOG_2PI
from .timeseries import NormStats, read_json, write_json

_SERIES_CODES = (SERIES_OBS, SERIES_GCM)  # one-hot slots

# the floor under every predicted std, and the positional features' longest
# period and time unit
SIGMA_FLOOR = 1e-3
T_MAX = 10000.0
DELTA_T = 1.0
# ModelConfig fields that became the constants above: a checkpoint that
# stores one at its constant's value loads, and any other value is refused
_RETIRED_FIELDS = {"sigma_floor": SIGMA_FLOOR, "t_max": T_MAX, "delta_t": DELTA_T}


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    n_heads: int = 4
    model_dim: int = 64
    feature_dim: int = 32
    hidden_dim: int = 64

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be >= 1")
        if self.model_dim < 1 or self.model_dim % self.n_heads:
            raise ConfigError(
                "model_dim (%d) must be a positive multiple of n_heads (%d)"
                % (self.model_dim, self.n_heads)
            )
        if self.feature_dim <= 0 or self.feature_dim % 2:
            raise ConfigError("feature_dim must be positive and even")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")

    @property
    def point_dim(self) -> int:
        """Positional features plus the series one-hot."""
        return self.feature_dim + len(_SERIES_CODES)

    @property
    def qkv_in_dim(self) -> int:
        """point_dim + (delta, dist, deriv, closest_value) + closest point_dim."""
        return 2 * self.point_dim + 4


def positional_features(t, d: int) -> np.ndarray:
    """Sinusoidal features of continuous time: sin at even slots, cos at odd.

    Slot pair l in 0..d/2-1 uses angle (t / DELTA_T) / (T_MAX / DELTA_T)^(2l/d).
    Accepts a scalar or array of times; output has shape (..., d) in [-1, 1].
    """
    if d <= 0 or d % 2:
        raise ConfigError("positional feature dim must be positive even, got %d" % d)
    t = np.asarray(t, dtype=np.float64)
    half = np.arange(d // 2)
    rates = (T_MAX / DELTA_T) ** (2.0 * half / d)
    angles = (t[..., None] / DELTA_T) / rates
    out = np.empty(t.shape + (d,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


def _mlp_shapes(d_in: int, d_hidden: int, d_out: int) -> dict:
    return {
        "w1": (d_in, d_hidden),
        "b1": (d_hidden,),
        "w2": (d_hidden, d_out),
        "b2": (d_out,),
    }


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape for every parameter the architecture declares."""
    shapes: dict[str, tuple] = {}

    def put(prefix: str, d_in: int, d_out: int):
        for name, shape in _mlp_shapes(d_in, config.hidden_dim, d_out).items():
            shapes["%s.%s" % (prefix, name)] = shape

    put("q", config.qkv_in_dim, config.model_dim)
    put("k", config.qkv_in_dim, config.model_dim)
    put("v", config.qkv_in_dim, config.model_dim)
    put("xq", config.point_dim, config.model_dim)
    put("xk", config.point_dim, config.model_dim)
    put("xv", 1, config.model_dim)
    for layer in range(config.n_layers):
        put("layer%d.out" % layer, config.model_dim, config.model_dim)
        put("layer%d.xout" % layer, config.model_dim, config.model_dim)
    put("head", 2 * config.model_dim, 2)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Scaled-normal weights, zero biases; the head's last layer is zeroed
    so the initial mean prediction equals the nearest-value anchor exactly."""
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(("b1", "b2")) or name.startswith("head.w2"):
            data = np.zeros(shape)
        else:
            scale = np.sqrt(2.0 / (shape[0] + shape[-1]))
            data = scale * rng.standard_normal(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _mlp(x: Tensor, params: dict, prefix: str) -> Tensor:
    return ad.mlp(x, *(params[prefix + name] for name in (".w1", ".b1", ".w2", ".b2")))


@dataclass(frozen=True)
class EmbeddedExample:
    """Raw model inputs for one example (plain arrays, no gradients).

    ``blocked[i, j]`` is True when position i may NOT attend to position j.
    ``anchors`` holds the nearest earlier available value per target, the
    baseline the mean head predicts an offset from.
    """

    q_in: np.ndarray
    kv_in: np.ndarray
    xqk_in: np.ndarray
    xv_in: np.ndarray
    blocked: np.ndarray
    n_conditioning: int
    n_targets: int
    anchors: np.ndarray


def embed(example: TrainingExample, config: ModelConfig) -> EmbeddedExample:
    """Assemble per-point input vectors plus the attention mask.

    Key/value inputs hold, side by side, positional features, the series
    one-hot, (delta, dist, deriv, closest_value), the neighbour's positional
    features and the one-hot again, each positional block
    ``config.feature_dim`` wide. Query inputs are identical except the
    value-bearing slots (delta and deriv) are zeroed: a query may know where
    it sits and where its anchor sits, but not what value it carries.
    """
    f = example.features
    if f is None:
        raise DataError("example has no features; build it via make_batch")
    times = np.concatenate([example.ctx_gcm_t, example.ctx_obs_t, example.tgt_t])
    # neighbour times are point times, and GCM and observed days coincide, so
    # the features (elementwise in t) are evaluated once per distinct time
    distinct = np.unique(np.concatenate([times, f.closest_t]))
    enc = positional_features(distinct, config.feature_dim)
    n = len(f.series_id)
    n_tgt = example.n_tgt
    n_cond = n - n_tgt
    d = config.feature_dim
    # the neighbour n(i) is always same-series, so it reuses the one-hot
    kv_in = np.empty((n, config.qkv_in_dim))
    kv_in[:, :d] = enc[np.searchsorted(distinct, times)]
    kv_in[:, d : d + 2] = f.series_id[:, None] == _SERIES_CODES
    kv_in[:, d + 2] = f.delta
    kv_in[:, d + 3] = f.dist
    kv_in[:, d + 4] = f.deriv
    kv_in[:, d + 5] = f.closest_value
    kv_in[:, d + 6 : 2 * d + 6] = enc[np.searchsorted(distinct, f.closest_t)]
    kv_in[:, 2 * d + 6 :] = kv_in[:, d : d + 2]
    q_in = kv_in.copy()
    q_in[:, d + 2 : d + 5 : 2] = 0.0  # delta and deriv
    xqk_in = kv_in[:, : d + 2].copy()
    values = np.concatenate(
        [
            example.ctx_gcm_v,
            example.ctx_obs_v,
            np.zeros(n_tgt) if example.tgt_v is None else example.tgt_v,
        ]
    )
    xv_in = values[:, None]

    # conditioning points see each other; a target sees them and the
    # targets strictly before it
    blocked = np.ones((n, n), dtype=bool)
    blocked[:, :n_cond] = False
    blocked[n_cond:, n_cond:] = np.triu(blocked[n_cond:, n_cond:])
    return EmbeddedExample(
        q_in=q_in,
        kv_in=kv_in,
        xqk_in=xqk_in,
        xv_in=xv_in,
        blocked=blocked,
        n_conditioning=n_cond,
        n_targets=n_tgt,
        anchors=f.closest_value[n_cond:][:, None].copy(),
    )


def _attention_layer(q, k, v, bias, skip, params, prefix, config) -> Tensor:
    """Head-split dot-product attention followed by the layer's output map;
    the first ``skip`` query rows are read by nothing (see
    :func:`temporal_bc.autodiff.attention`)."""
    return _mlp(ad.attention(q, k, v, bias, config.n_heads, skip), params, prefix)


def _untaped_attention(
    q: Tensor, k: Tensor, v: Tensor, emb: EmbeddedExample, rows: slice, n_heads: int
) -> Tensor:
    """Untaped multi-head attention of ``q``, the query rows ``rows`` of
    ``emb``, over every point's keys ``k`` and values ``v``.

    It computes :func:`temporal_bc.autodiff.attention` under :func:`embed`'s
    mask at the dtype's rounding, not bit for bit: one logits product and
    one value product over (heads, rows, width) views; ``MASK_FILL`` on the
    target-key columns only, since :func:`embed` opens every conditioning key
    to every query; and each output row divided by its sum of exponents
    after the value product (the deferred normalisation of Dao et al. 2022).
    It has no floor for a fully blocked row, since none occurs: every query
    sees a conditioning key, because
    :func:`temporal_bc.batching.compute_features` refuses targets without an
    observed context point.
    """
    n_rows, d = q.shape
    width = d // n_heads
    n_cond = emb.n_conditioning
    logits = np.matmul(
        q.data.reshape(n_rows, n_heads, width).transpose(1, 0, 2),
        k.data.reshape(-1, n_heads, width).transpose(1, 2, 0),
    )
    logits[:, :, n_cond:] += emb.blocked[rows, n_cond:] * q.data.dtype.type(ad.MASK_FILL)
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    denom = logits.sum(axis=-1, keepdims=True)
    out = np.matmul(logits, v.data.reshape(-1, n_heads, width).transpose(1, 0, 2))
    out /= denom
    return Tensor(out.transpose(1, 0, 2).reshape(n_rows, d))


def forward(
    params: dict[str, Tensor], emb: EmbeddedExample, config: ModelConfig
) -> tuple[Tensor, Tensor]:
    """Per-target (mu, sigma), each of shape (n_targets, 1).

    The head reads the target rows only. While a tape records, the
    parameters must be float64 and every layer takes every query row, so
    that every product keeps the full computation's shape and rounding; the
    last layer of each stack runs its softmax on the target rows alone and
    leaves the conditioning rows zero. With no tape the last layer of each
    stack takes the target queries alone; keys and values keep every row.
    Every attention then goes through :func:`_untaped_attention`, which
    masks the target-key columns only and builds no n x n bias. The
    embedded inputs and the mask take the parameters' dtype.
    """
    if emb.n_targets == 0:
        raise DataError("example has no targets")
    dtype = params["q.w1"].data.dtype
    taped = ad.recording()
    if taped and dtype != np.float64:
        raise NumericError("a taped forward needs float64 parameters, got %s" % dtype)
    n_cond = emb.n_conditioning
    if taped:
        # one mask bias for every layer, in the parameters' dtype. Allowed
        # cells are -0.0, which leaves every logit's value as +0.0 would (a
        # -0.0 logit keeps its sign, and its exponent is 1 either way)
        bias = emb.blocked * dtype.type(ad.MASK_FILL)
    q_in, kv_in, xqk_in, xv_in = (
        Tensor(x.astype(dtype, copy=False))
        for x in (emb.q_in, emb.kv_in, emb.xqk_in, emb.xv_in)
    )
    q = _mlp(q_in, params, "q")
    k = _mlp(kv_in, params, "k")
    v = _mlp(kv_in, params, "v")
    xq = _mlp(xqk_in, params, "xq")
    xk = _mlp(xqk_in, params, "xk")
    xv = _mlp(xv_in, params, "xv")
    out = xout = None
    for layer in range(config.n_layers):
        if layer > 0:
            q = k = v = out
            xq = xk = xout
        last = layer == config.n_layers - 1
        out_map, xout_map = "layer%d.out" % layer, "layer%d.xout" % layer
        if taped:
            # the head reads the target rows only, so the last layer's
            # softmax skips the rest
            skip = n_cond if last else 0
            out = _attention_layer(q, k, v, bias, skip, params, out_map, config)
            xout = _attention_layer(xq, xk, xv, bias, skip, params, xout_map, config)
        else:
            # the last layer's queries are cut to the target rows
            rows = slice(n_cond if last else 0, None)
            if last:
                q, xq = q[rows], xq[rows]
            out = _untaped_attention(q, k, v, emb, rows, config.n_heads)
            xout = _untaped_attention(xq, xk, xv, emb, rows, config.n_heads)
            out, xout = _mlp(out, params, out_map), _mlp(xout, params, xout_map)

    if taped:  # the head reads the target rows of the full output
        out, xout = out[n_cond:], xout[n_cond:]
    raw = _mlp(ad.concat([out, xout], axis=-1), params, "head")
    mu = raw[:, 0:1] + Tensor(emb.anchors)
    sigma = ad.softplus(raw[:, 1:2]) + Tensor(np.array(SIGMA_FLOOR))
    return mu, sigma


def gaussian_nll(mu: Tensor, sigma: Tensor, target_values: np.ndarray) -> Tensor:
    """Mean negative log density of the targets under N(mu, sigma^2)."""
    y = np.asarray(target_values, dtype=np.float64).reshape(mu.shape)
    return ad.gaussian_nll(mu, sigma, y, 0.5 * LOG_2PI)


@dataclass
class ModelCheckpoint:
    """Everything needed to resume or apply a model: architecture config,
    parameter arrays, the normalization stats it was trained under, meta."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    norm_stats: NormStats
    meta: dict = field(default_factory=dict)


def checkpoint_from_params(
    config: ModelConfig,
    params: dict[str, Tensor],
    norm_stats: NormStats,
    meta: dict | None = None,
) -> ModelCheckpoint:
    return ModelCheckpoint(
        config=config,
        params={name: np.array(p.data, copy=True) for name, p in params.items()},
        norm_stats=norm_stats,
        meta=dict(meta or {}),
    )


def tensors_from_checkpoint(ckpt: ModelCheckpoint) -> dict[str, Tensor]:
    """float32 copies of the parameters, for the untaped forward that
    samples, scores and validates; training keeps its own float64 tensors."""
    return {name: Tensor(arr.astype(np.float32)) for name, arr in ckpt.params.items()}


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    """JSON serialization; float64 round-trips bit-exactly through repr."""
    payload = {
        "config": asdict(ckpt.config),
        "norm_stats": {"mean": ckpt.norm_stats.mean, "std": ckpt.norm_stats.std},
        "params": {
            name: {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}
            for name, arr in sorted(ckpt.params.items())
        },
        "meta": ckpt.meta,
    }
    write_json(path, payload)


def load_checkpoint(path) -> ModelCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`. A stored config
    may still hold ``sigma_floor``, ``t_max`` or ``delta_t``, as checkpoints
    did before they became constants, but only at the constant's value."""
    payload = read_json(path, DataError)
    try:
        raw_config = payload["config"]
        if not isinstance(raw_config, dict):
            raise TypeError("config must be a JSON object, got %r" % (raw_config,))
        for key in sorted(_RETIRED_FIELDS.keys() & raw_config.keys()):
            stored = raw_config.pop(key)
            if type(stored) not in (int, float) or stored != _RETIRED_FIELDS[key]:
                raise DataError(
                    "checkpoint %s: config %s is %r, but it is now the constant %r"
                    % (path, key, stored, _RETIRED_FIELDS[key])
                )
        config = config_from_dict(ModelConfig, raw_config)
        stats = config_from_dict(NormStats, payload["norm_stats"])
        raw_params = dict(payload["params"])
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError("meta must be a JSON object, got %r" % (meta,))
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError("checkpoint %s has malformed fields: %s" % (path, exc))
    window_max = meta.get("window_max")  # read by the sampler
    if window_max is not None and (
        isinstance(window_max, bool) or not isinstance(window_max, (int, float))
    ):
        raise DataError(
            "checkpoint %s: meta window_max must be a number, got %r" % (path, window_max)
        )
    ablate_gcm = meta.get("ablate_gcm", False)  # obeyed by the sampler
    if not isinstance(ablate_gcm, bool):
        raise DataError(
            "checkpoint %s: meta ablate_gcm must be true or false, got %r" % (path, ablate_gcm)
        )
    expected = param_shapes(config)
    missing = sorted(set(expected) - set(raw_params))
    extra = sorted(set(raw_params) - set(expected))
    if missing or extra:
        raise DataError(
            "checkpoint %s parameter mismatch (missing=%s, unexpected=%s)"
            % (path, missing, extra)
        )
    params = {}
    for name, spec in raw_params.items():
        try:
            shape = tuple(spec["shape"])
            if shape != expected[name]:
                raise DataError(
                    "checkpoint %s: %s has shape %r, architecture wants %r"
                    % (path, name, shape, expected[name])
                )
            arr = np.array(spec["data"], dtype=np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError("checkpoint %s: %s is malformed: %r" % (path, name, exc))
        if not np.all(np.isfinite(arr)):
            raise DataError("checkpoint %s: %s contains non-finite values" % (path, name))
        params[name] = arr
    return ModelCheckpoint(config=config, params=params, norm_stats=stats, meta=meta)
