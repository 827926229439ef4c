"""Attention model over the points of one example, with a Gaussian head.

An example's points are its model block, its observed context and its
targets, in that order: the order of the columns of
:class:`temporal_bc.batching.FeatureBlock`, the one record of each point's
time and value, in which a target of unknown value has the value 0.
:func:`embed` reads those columns and the example's block sizes. Each
point enters as a local expansion around its anchor (see
:mod:`temporal_bc.batching`), which :func:`embed` computes from the
columns, a one-hot of its block's series and sinusoidal positional
features of its own time and of its anchor's time. Their width is
:class:`ModelConfig`'s ``feature_dim``; their time scales are the
constants :data:`T_MAX` and :data:`DELTA_T`.

Two attention stacks run side by side. The main stack embeds each point's
local-expansion features into queries, keys and values with two-layer
perceptrons; later layers reuse the previous layer's output directly as
query, key and value, with a fresh output perceptron per layer. An auxiliary
stack builds queries and keys from positional features alone and its values
from the raw series value, so it can mix values across time guided purely by
position; its value map is shared across layers. Attention weights are a
masked softmax of plain query-key dot products (no scale factor), split over
heads along the feature axis.

Conditioning points (model block and observed context) attend freely to each
other; each target attends to the conditioning points and to strictly
earlier targets only, and nothing attends to a target from the conditioning
side, so a target's value can never reach its own prediction. The head maps
the concatenated outputs of both stacks to a per-target (mean, std); the
mean is an offset from the nearest earlier available value and the std goes
through a softplus plus the hard floor :data:`SIGMA_FLOOR`. The head's final
layer starts at zero, so an untrained model predicts exactly that nearest
value.

Two functions compute that. :func:`forward` is training's: float64
:class:`temporal_bc.autodiff.Tensor` parameters and any number of targets.
Each layer's attention is one :func:`temporal_bc.autodiff.attention` tape
node under an additive n x n mask bias, each perceptron one
:func:`temporal_bc.autodiff.mlp` node and :func:`gaussian_nll` one
:func:`temporal_bc.autodiff.gaussian_nll` node.

:func:`layer0_rows` and :func:`forecast` are the one-day forecast of
sampling, held-out scoring and validation: plain NumPy in the parameters'
dtype, one target, no mask, with each perceptron computed by
:func:`temporal_bc.autodiff.perceptron`, the arithmetic of training's
:func:`temporal_bc.autodiff.mlp` node. That target sees every conditioning
point and nothing else, and so does each conditioning point, so each
attention runs over the conditioning rows' keys and values alone. Its
softmax takes exponents of the raw logits, with no row max subtracted,
and subtracts each row's max only in a call whose exponent sums or value
product leave the dtype's normal range (see :func:`_attend`).
:func:`layer0_rows` runs the six input perceptrons over embedded points,
each as one product; :func:`forecast` takes those rows from layer 0's
attention to the head. A point's layer-0 rows depend on its own feature
row and its block alone, and a product over two or more rows gives each
row the bits that the product over the whole window gives it (a one-row
product takes another BLAS kernel and does not), so the sampler may
compute the rows of a few points and gather the rest from earlier days (see
:mod:`temporal_bc.sampling`) with every bit unchanged. The arithmetic
rounds differently from :func:`forward`'s (about 1e-15 of the largest
output in float64). Sampling passes the float32 copies of
:func:`forecast_params`, the one place that cast happens, so a forecast
matches :func:`forward` to float32 rounding (about 1e-6 relative to the
largest mean), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .batching import TrainingExample
from .errors import ConfigError, DataError, NumericError, config_from_dict
from .metrics import LOG_2PI
from .timeseries import NormStats, read_json, write_json

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
        """Positional features plus the series one-hot (observed, model)."""
        return self.feature_dim + 2

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


def _mlp(x, params: dict, prefix: str):
    """The perceptron ``prefix``: one tape node on a :class:`Tensor`, its
    plain arithmetic (:func:`temporal_bc.autodiff.perceptron`) on an array."""
    weights = [params[prefix + name] for name in (".w1", ".b1", ".w2", ".b2")]
    return ad.mlp(x, *weights) if isinstance(x, Tensor) else ad.perceptron(x, *weights)[1]


@dataclass(frozen=True)
class EmbeddedExample:
    """Raw model inputs for one example (plain arrays, no gradients).

    ``anchors`` holds the nearest earlier available value per target, the
    baseline the mean head predicts an offset from.
    """

    q_in: np.ndarray
    kv_in: np.ndarray
    xqk_in: np.ndarray
    xv_in: np.ndarray
    n_conditioning: int
    n_targets: int
    anchors: np.ndarray

    @property
    def blocked(self) -> np.ndarray:
        """The attention mask, built when read: ``blocked[i, j]`` is True when
        position i may NOT attend to position j. Every position sees every
        conditioning point, and a target sees the targets before it."""
        n_cond = self.n_conditioning
        n = n_cond + self.n_targets
        blocked = np.ones((n, n), dtype=bool)
        blocked[:, :n_cond] = False
        blocked[n_cond:, n_cond:] = np.triu(blocked[n_cond:, n_cond:])
        return blocked


def _slope(delta: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Finite-difference slope delta/dist, 0 where the offset is 0."""
    return np.where(dist != 0.0, delta / np.where(dist != 0.0, dist, 1.0), 0.0)


def embed(example: TrainingExample, config: ModelConfig) -> EmbeddedExample:
    """Assemble per-point input vectors from the example's feature columns,
    which hold its points in model order; the attention mask is
    :attr:`EmbeddedExample.blocked`, built only when read.

    Key/value inputs hold, side by side, positional features, the series
    one-hot (the first ``n_gcm`` points are the model block), the local
    expansion around the anchor (delta, the value minus the anchor's; dist,
    the signed time offset; deriv, their slope; and the anchor's value),
    the anchor's positional features and the one-hot again, each positional
    block ``config.feature_dim`` wide. Query inputs are identical except the
    value-bearing slots (delta and deriv) are zeroed: a query may know where
    it sits and where its anchor sits, but not what value it carries.
    """
    f = example.features
    # neighbour times are point times, and GCM and observed days coincide, so
    # the features (elementwise in t) are evaluated once per distinct time
    distinct = np.unique(np.concatenate([f.t, f.closest_t]))
    enc = positional_features(distinct, config.feature_dim)
    n = len(f.t)
    n_tgt = example.n_tgt
    n_cond = n - n_tgt
    d = config.feature_dim
    delta = f.value - f.closest_value
    dist = f.t - f.closest_t
    # the neighbour n(i) is always same-series, so it reuses the one-hot
    kv_in = np.empty((n, config.qkv_in_dim))
    kv_in[:, :d] = enc[np.searchsorted(distinct, f.t)]
    kv_in[:, d : d + 2] = (np.arange(n) < example.n_gcm)[:, None] == (False, True)
    kv_in[:, d + 2] = delta
    kv_in[:, d + 3] = dist
    kv_in[:, d + 4] = _slope(delta, dist)
    kv_in[:, d + 5] = f.closest_value
    kv_in[:, d + 6 : 2 * d + 6] = enc[np.searchsorted(distinct, f.closest_t)]
    kv_in[:, 2 * d + 6 :] = kv_in[:, d : d + 2]
    q_in = kv_in.copy()
    q_in[:, d + 2 : d + 5 : 2] = 0.0  # delta and deriv
    return EmbeddedExample(
        q_in=q_in,
        kv_in=kv_in,
        xqk_in=kv_in[:, : d + 2].copy(),
        xv_in=f.value[:, None],
        n_conditioning=n_cond,
        n_targets=n_tgt,
        anchors=f.closest_value[n_cond:][:, None].copy(),
    )


def _attention_layer(q, k, v, bias, skip, params, prefix, config) -> Tensor:
    """Head-split dot-product attention followed by the layer's output map;
    the first ``skip`` query rows are read by nothing (see
    :func:`temporal_bc.autodiff.attention`)."""
    return _mlp(ad.attention(q, k, v, bias, config.n_heads, skip), params, prefix)


def forward(
    params: dict[str, Tensor], emb: EmbeddedExample, config: ModelConfig
) -> tuple[Tensor, Tensor]:
    """Per-target (mu, sigma), each of shape (n_targets, 1), for training.

    The parameters must be float64. Every layer takes every query row, so
    that every product keeps the full computation's shape and rounding; the
    last layer of each stack runs its softmax on the target rows alone, which
    are all the head reads, and leaves the conditioning rows zero.
    """
    if emb.n_targets == 0:
        raise DataError("example has no targets")
    dtype = params["q.w1"].data.dtype
    if dtype != np.float64:
        raise NumericError("forward needs float64 parameters, got %s" % dtype)
    n_cond = emb.n_conditioning
    # one mask bias for every layer. Allowed cells are -0.0, which leaves
    # every logit's value as +0.0 would (a -0.0 logit keeps its sign, and its
    # exponent is 1 either way)
    bias = emb.blocked * ad.MASK_FILL
    q_in, kv_in, xqk_in, xv_in = (
        Tensor(x) for x in (emb.q_in, emb.kv_in, emb.xqk_in, emb.xv_in)
    )
    q = _mlp(q_in, params, "q")
    k = _mlp(kv_in, params, "k")
    v = _mlp(kv_in, params, "v")
    xq = _mlp(xqk_in, params, "xq")
    xk = _mlp(xqk_in, params, "xk")
    xv = _mlp(xv_in, params, "xv")
    for layer in range(config.n_layers):
        if layer > 0:
            q = k = v = out
            xq = xk = xout
        # the head reads the target rows only, so the last layer's softmax
        # skips the rest
        skip = n_cond if layer == config.n_layers - 1 else 0
        out_map, xout_map = "layer%d.out" % layer, "layer%d.xout" % layer
        out = _attention_layer(q, k, v, bias, skip, params, out_map, config)
        xout = _attention_layer(xq, xk, xv, bias, skip, params, xout_map, config)

    raw = _mlp(ad.concat([out[n_cond:], xout[n_cond:]], axis=-1), params, "head")
    mu = raw[:, 0:1] + Tensor(emb.anchors)
    sigma = ad.softplus(raw[:, 1:2]) + Tensor(np.array(SIGMA_FLOOR))
    return mu, sigma


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int) -> np.ndarray:
    """Multi-head softmax attention of every query over every key, with no
    mask: one logits product and one value product over (heads, keys,
    width) views, and each output row divided by its sum of exponents after
    the value product (the deferred normalisation of Dao et al. 2022).

    The exponents are of the raw logits: no row max is subtracted, since
    logits within about +-87 (+-708 in float64) keep every exponent normal.
    The call starts again with each row's max subtracted (the safe softmax
    of Milakov & Gimelshein 2018) only when some sum of exponents is not
    finite or is below the dtype's ``tiny / eps``, or the value product is
    not finite: an overflow, or a row whose exponents went subnormal or to
    zero. That choice depends on this call's arrays alone.

    The logits are laid out key-major, (heads, keys, rows), as ``k @ q.T``
    gives them, so the exponent and the sum over keys run as elementwise
    passes down whole rows of queries rather than as one short reduction
    per query.
    """
    n_rows, d = q.shape
    width = d // n_heads
    keys = k.reshape(-1, n_heads, width).transpose(1, 0, 2)
    queries = q.reshape(n_rows, n_heads, width).transpose(1, 2, 0)
    values = v.reshape(-1, n_heads, width).transpose(1, 0, 2)
    info = np.finfo(q.dtype)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for shift in (False, True):
            weights = np.matmul(keys, queries)
            if shift:
                weights -= weights.max(axis=1, keepdims=True)
            np.exp(weights, out=weights)
            denom = weights.sum(axis=1)
            out = np.matmul(weights.transpose(0, 2, 1), values)
            in_range = denom.min() >= info.tiny / info.eps and np.isfinite(denom.max())
            if in_range and np.isfinite(out).all():
                break
        out /= denom[:, :, None]
    return out.transpose(1, 0, 2).reshape(n_rows, d)


# the input perceptrons, whose output rows are layer 0's queries, keys and
# values in the main stack and then the auxiliary one
LAYER0 = ("q", "k", "v", "xq", "xk", "xv")


def layer0_rows(params: dict[str, np.ndarray], emb: EmbeddedExample) -> np.ndarray:
    """Each input perceptron's output rows for a one-target example, in the
    parameters' dtype: shape (perceptron in :data:`LAYER0`'s order, point,
    ``model_dim``), with the target last.

    ``q`` and ``xq`` take every row. ``k``, ``v``, ``xk`` and ``xv`` take the
    conditioning rows alone and leave the target's row zero, so the target's
    own key and value never enter. Each perceptron runs as one product over
    the rows it takes.
    """
    if emb.n_targets != 1:
        raise DataError("a forecast has one target, got %d" % emb.n_targets)
    dtype = params["q.w1"].dtype
    n_cond = emb.n_conditioning
    q_in, kv_in, xqk_in, xv_in = (
        x.astype(dtype) for x in (emb.q_in, emb.kv_in[:n_cond], emb.xqk_in, emb.xv_in[:n_cond])
    )
    rows = np.zeros((len(LAYER0), n_cond + 1, params["q.b2"].shape[0]), dtype)
    rows[0] = _mlp(q_in, params, "q")
    rows[1, :n_cond] = _mlp(kv_in, params, "k")
    rows[2, :n_cond] = _mlp(kv_in, params, "v")
    rows[3] = _mlp(xqk_in, params, "xq")
    rows[4, :n_cond] = _mlp(xqk_in[:n_cond], params, "xk")
    rows[5, :n_cond] = _mlp(xv_in, params, "xv")
    return rows


def forecast(
    params: dict[str, np.ndarray], rows: np.ndarray, anchor: float, config: ModelConfig
) -> tuple[float, float]:
    """(mean, std) of one target from its layer-0 rows, laid out as
    :func:`layer0_rows` returns them, in the parameters' dtype with the
    ``anchor`` (the target's nearest earlier value) and the std floor added
    in float64.

    Keys and values are the conditioning rows; the last layer of each stack
    takes the target's query alone.
    """
    n_cond = rows.shape[1] - 1
    q, k, v, xq, xk, xv = rows
    k, v, xk, xv = k[:n_cond], v[:n_cond], xk[:n_cond], xv[:n_cond]
    for layer in range(config.n_layers):
        if layer > 0:
            q, xq = out, xout
            k = v = out[:n_cond]
            xk = xout[:n_cond]
        if layer == config.n_layers - 1:  # the head reads the target row only
            q, xq = q[n_cond:], xq[n_cond:]
        out_map, xout_map = "layer%d.out" % layer, "layer%d.xout" % layer
        out = _mlp(_attend(q, k, v, config.n_heads), params, out_map)
        xout = _mlp(_attend(xq, xk, xv, config.n_heads), params, xout_map)

    mean, raw_std = _mlp(np.concatenate([out, xout], axis=-1), params, "head")[0]
    return (
        float(mean) + float(anchor),
        float(np.logaddexp(0.0, raw_std)) + SIGMA_FLOOR,
    )


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


def forecast_params(ckpt: ModelCheckpoint) -> dict[str, np.ndarray]:
    """float32 copies of the parameters, for the :func:`forecast` that
    samples, scores and validates; training keeps its own float64 tensors."""
    return {name: arr.astype(np.float32) for name, arr in ckpt.params.items()}


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
                raise ValueError(
                    "config %s is %r, but it is now the constant %r"
                    % (key, stored, _RETIRED_FIELDS[key])
                )
        config = config_from_dict(ModelConfig, raw_config)
        stats = config_from_dict(NormStats, payload["norm_stats"])
        raw_params = dict(payload["params"])
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError("meta must be a JSON object, got %r" % (meta,))
    except (KeyError, TypeError, ValueError, ConfigError, DataError) as exc:
        raise DataError("checkpoint %s has malformed fields: %s" % (path, exc))
    window_max = meta.get("window_max")  # read by the sampler
    if window_max is not None and (
        isinstance(window_max, bool)
        or not isinstance(window_max, (int, float))
        or not 1 <= window_max < math.inf
    ):
        raise DataError(
            "checkpoint %s: meta window_max must be a finite number of at least 1, got %r"
            % (path, window_max)
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
