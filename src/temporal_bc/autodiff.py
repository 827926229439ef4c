"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a numpy array. Every op computes its result eagerly
and, while a :class:`Tape` is active and any input requires a gradient,
appends the result to the tape together with a backward rule. The tape's
creation order is a topological order of the computation graph, so
:func:`backward` simply walks it in reverse and accumulates gradients into
``.grad``. With no active tape, ops record nothing.

Training's forward (:func:`temporal_bc.model.forward`) calls :func:`add`,
:func:`mul` and :func:`index` through the ``+``, ``*`` and ``[]`` sugar of
:class:`Tensor`, plus :func:`concat`, :func:`softplus` and the three fused
ops :func:`mlp`, :func:`attention` and :func:`gaussian_nll`. :func:`mlp`'s
forward arithmetic is :func:`perceptron`, which the plain-NumPy forecast
(:func:`temporal_bc.model.forecast`) calls too. The other ops
(:func:`sub`, :func:`div`, :func:`matmul`, :func:`transpose_last_two`,
:func:`reduce_sum`, :func:`reduce_mean`, :func:`exp`, :func:`log`,
:func:`tanh` and :func:`masked_softmax`) are reference ops: the fused ops'
bit-for-bit oracles are compositions of them, and nothing in training calls
them.

Elementwise ops broadcast like numpy; matmul broadcasts over leading batch
dimensions only. Ops compute in their inputs' floating-point dtype; training
passes float64. The tests check every op's gradient in float64 against
central finite differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

MASK_FILL = -1e30  # additive surrogate for -inf; exact zeros after softmax


class Tape:
    """Ordered record of op results for one forward pass."""

    _active: "Tape | None" = None

    def __init__(self):
        self.nodes: list["Tensor"] = []

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise NumericError("nested tapes are not supported")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False


class Tensor:
    """Dense array with optional gradient tracking.

    A floating-point array keeps its dtype and anything else becomes float64.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple["Tensor", ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)

    # the sugar training uses; every other op is called by name
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __getitem__(self, key):
        return index(self, key)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = Tape._active
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
        tape.nodes.append(out)
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = grad if t.grad is None else t.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data**2), b.shape))

    return _record(out, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise NumericError(
            "matmul requires >=2-D operands, got shapes %r and %r" % (a.shape, b.shape)
        )
    if a.shape[-1] != b.shape[-2]:
        raise NumericError(
            "matmul inner-dimension mismatch: %r @ %r" % (a.shape, b.shape)
        )
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise NumericError(
            "matmul batch-dimension mismatch: %r @ %r" % (a.shape, b.shape)
        )

    def backward_fn(g):
        _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _record(out, (a, b), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(_as_tensor(t) for t in tensors)
    if not parts:
        raise NumericError("concat needs at least one tensor")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        for part, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accumulate(part, piece)

    return _record(out, parts, backward_fn)


def _is_basic_key(key) -> bool:
    if isinstance(key, tuple):
        return all(_is_basic_key(k) for k in key)
    return key is None or key is Ellipsis or isinstance(key, (int, slice))


def index(a: Tensor, key) -> Tensor:
    """Numpy indexing (ints, slices, ellipsis, index arrays); the gradient
    scatters back, summing over any repeated fancy indices."""
    out = Tensor(a.data[key])
    basic = _is_basic_key(key)

    def backward_fn(g):
        buf = np.zeros(a.data.shape, a.data.dtype)
        if basic:
            buf[key] += g
        else:
            np.add.at(buf, key, g)
        _accumulate(a, buf)

    return _record(out, (a,), backward_fn)


def transpose_last_two(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise NumericError("transpose_last_two needs >=2-D input, got %r" % (a.shape,))
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def backward_fn(g):
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _record(out, (a,), backward_fn)


def _restore_axes(g, axis, keepdims, shape):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.sum(a.data, axis=axis, keepdims=keepdims))

    def backward_fn(g):
        _accumulate(a, _restore_axes(g, axis, keepdims, a.shape))

    return _record(out, (a,), backward_fn)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.mean(a.data, axis=axis, keepdims=keepdims))
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in np.atleast_1d(axis)]
    )

    def backward_fn(g):
        _accumulate(a, _restore_axes(g, axis, keepdims, a.shape) / count)

    return _record(out, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    # the rule captures the result array, never ``out``: out -> rule -> out
    # would be a reference cycle that keeps the whole graph alive
    y = np.exp(a.data)

    def backward_fn(g):
        _accumulate(a, g * y)

    return _record(Tensor(y), (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward_fn(g):
        _accumulate(a, g / a.data)

    return _record(out, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)  # captured instead of the result Tensor, as in exp

    def backward_fn(g):
        _accumulate(a, g * (1.0 - y**2))

    return _record(Tensor(y), (a,), backward_fn)


def perceptron(x: np.ndarray, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """The hidden activations ``tanh(x @ w1 + b1)`` and the output ``hidden @
    w2 + b2`` of the two-layer perceptron, on plain arrays: the arithmetic of
    :func:`mlp` and of :func:`temporal_bc.model.forecast`."""
    y = x @ w1
    y += b1
    np.tanh(y, out=y)
    out = y @ w2
    out += b2
    return y, out


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The two-layer perceptron ``tanh(x @ w1 + b1) @ w2 + b2`` as one op.

    ``x``, ``w1`` and ``w2`` are 2-D and the biases 1-D. Output and
    gradients are equal, bit for bit, to the composition of :func:`matmul`,
    :func:`add`, :func:`tanh`, :func:`matmul` and :func:`add`: the rule
    evaluates the same expressions in the order that composition's backward
    sweep does, and an in-place add or ``tanh`` rounds as the out-of-place
    one does. It records one tape node where the composition records five,
    keeps only the hidden activations, and skips ``x``'s product when ``x``
    needs no gradient.
    """
    if (x.ndim, w1.ndim, b1.ndim, w2.ndim, b2.ndim) != (2, 2, 1, 2, 1):
        raise NumericError(
            "mlp needs 2-D x, w1, w2 and 1-D b1, b2, got shapes %r"
            % ([t.shape for t in (x, w1, b1, w2, b2)],)
        )
    y, out = perceptron(x.data, w1.data, b1.data, w2.data, b2.data)

    def backward_fn(g):
        # g may be another node's gradient too, so it is never written; y is,
        # once its last reader is done, because a sweep runs the rule once
        _accumulate(b2, g.sum(axis=0))
        _accumulate(w2, y.T @ g)
        g = g @ w2.data.T
        np.subtract(1.0, np.square(y, out=y), out=y)
        g *= y
        _accumulate(b1, g.sum(axis=0))
        if x.requires_grad:
            _accumulate(x, g @ w1.data.T)
        _accumulate(w1, x.data.T @ g)

    return _record(Tensor(out), (x, w1, b1, w2, b2), backward_fn)


def gaussian_nll(mu: Tensor, sigma: Tensor, y: np.ndarray, offset: float) -> Tensor:
    """Mean over points of ``log sigma + (y - mu)^2 / (2 sigma^2) + offset``.

    ``y`` is a plain array of ``mu``'s shape. Output and gradients are equal,
    bit for bit, to the composition ``reduce_mean(log(sigma) + div(r * r,
    sigma * sigma * 2.0) + offset)`` with ``r = sub(y, mu)``: the rule
    repeats that composition's backward sums, such as ``g * sigma + g *
    sigma`` for ``sigma * sigma``, in its order. It records one tape node
    where the composition records nine.
    """
    r = y - mu.data
    r2 = r * r
    s2 = sigma.data * sigma.data * 2.0
    out = Tensor(np.mean(np.log(sigma.data) + r2 / s2 + offset))

    def backward_fn(g):
        g = np.broadcast_to(g, r.shape).copy() / r.size
        g_r2 = g / s2
        g_s = -g * r2 / (s2**2) * 2.0
        _accumulate(sigma, g_s * sigma.data)
        _accumulate(sigma, g_s * sigma.data)
        _accumulate(sigma, g / sigma.data)
        _accumulate(mu, -(g_r2 * r + g_r2 * r))

    return _record(out, (mu, sigma), backward_fn)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably for large |x|."""
    out = Tensor(np.logaddexp(0.0, a.data))

    def backward_fn(g):
        # sigmoid via tanh keeps full precision on both tails
        _accumulate(a, g * 0.5 * (1.0 + np.tanh(0.5 * a.data)))

    return _record(out, (a,), backward_fn)


def masked_softmax(logits: Tensor, mask) -> Tensor:
    """Softmax over the last axis with ``mask == True`` positions zeroed.

    Masked positions get weight exactly 0.0 and act as constants in the
    backward pass. A row with every position masked yields all zeros rather
    than NaN.
    """
    m = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    z = np.where(m, MASK_FILL, logits.data)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.where(m, 0.0, np.exp(z))
    denom = e.sum(axis=-1, keepdims=True)
    safe = np.where(denom == 0.0, 1.0, denom)
    weights = e / safe
    out = Tensor(weights)

    def backward_fn(g):
        inner = (g * weights).sum(axis=-1, keepdims=True)
        _accumulate(logits, (g - inner) * weights)

    return _record(out, (logits,), backward_fn)


def attention(
    q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, n_heads: int, skip: int = 0
) -> Tensor:
    """Multi-head dot-product attention as one op.

    ``q`` is (n, d) and ``k`` and ``v`` are (m, d), split into ``n_heads``
    heads of d / n_heads columns each. Head h computes
    ``softmax(q_h @ k_h.T + bias) @ v_h`` with no scale factor, and the heads'
    outputs sit side by side in the (n, d) result. ``bias`` is (n, m), 0 where
    a query may attend to a key and ``MASK_FILL`` where it may not. Blocked
    positions get weight exactly 0.0, and a row with every position blocked
    yields zeros rather than NaN.

    ``skip`` counts leading query rows that nothing reads. Their output rows
    are exactly zero and their upstream gradient is ignored; the other rows'
    outputs and the q, k and v gradients are bit-equal to those of
    ``skip=0`` whenever that gradient is zero on the skipped rows. Only the
    elementwise softmax work (bias, max, exp, sums, divide and their
    backward) shrinks to the read rows: every product keeps its full shape,
    and the skipped rows of the weights and of their gradient are zeros,
    which add nothing to any sum. A row-subset product would take another
    BLAS route (gemm instead of syrk when q is k, gemv for one row) and
    round differently.

    Output and gradients are equal, bit for bit, to the per-head composition
    of :func:`index`, :func:`transpose_last_two`, :func:`matmul`,
    :func:`masked_softmax` and :func:`concat`: each head computes the same
    products on the same operand views, and gradients reach q, k and v in the
    order that composition's backward sweep adds them. It records one tape
    node where the composition records 7 * n_heads + 1.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise NumericError(
            "attention needs 2-D q, k, v, got %r, %r, %r" % (q.shape, k.shape, v.shape)
        )
    d = q.shape[1]
    if k.shape != v.shape or k.shape[1] != d or bias.shape != (q.shape[0], k.shape[0]):
        raise NumericError(
            "attention shape mismatch: q %r, k %r, v %r, bias %r"
            % (q.shape, k.shape, v.shape, bias.shape)
        )
    if n_heads < 1 or d % n_heads:
        raise NumericError("attention width %d does not split into %d heads" % (d, n_heads))
    if not 0 <= skip <= q.shape[0]:
        raise NumericError("attention cannot skip %d of %d query rows" % (skip, q.shape[0]))
    width = d // n_heads
    heads = [slice(h * width, (h + 1) * width) for h in range(n_heads)]
    out = np.empty((q.shape[0], d), dtype=q.data.dtype)
    weights = []
    for c in heads:
        w = q.data[:, c] @ k.data[:, c].T
        w[:skip] = 0.0
        read = w[skip:]
        read += bias[skip:]
        top = read.max(axis=-1, keepdims=True)
        # in a row with every position blocked, top is about MASK_FILL; the
        # floor makes that row's exponents exp(MASK_FILL / 2) = 0 too
        np.maximum(top, 0.5 * MASK_FILL, out=top)
        read -= top
        np.exp(read, out=read)
        # a row's largest exponent is exp(0) = 1 unless every position is
        # blocked, so the floor only turns a blocked row's 0 into 1 (and
        # passes NaN on)
        denom = read.sum(axis=-1, keepdims=True)
        read /= np.maximum(denom, 1.0, out=denom)
        out[:, c] = w @ v.data[:, c]
        weights.append(w)

    def backward_fn(g):
        gq, gk, gv = (np.zeros(t.data.shape, t.data.dtype) for t in (q, k, v))
        for c, w in zip(reversed(heads), reversed(weights)):
            gh = g[:, c]
            gv[:, c] += w.T @ gh
            gw = gh @ v.data[:, c].T
            gw[:skip] = 0.0
            read, w_read = gw[skip:], w[skip:]
            read -= (read * w_read).sum(axis=-1, keepdims=True)
            read *= w_read
            gk[:, c] += (q.data[:, c].T @ gw).T
            gq[:, c] += gw @ k.data[:, c]
        # v, then k, then q: the order in which the composition's sweep adds
        # them, which fixes the rounding when q, k and v are one tensor
        _accumulate(v, gv)
        _accumulate(k, gk)
        _accumulate(q, gq)

    return _record(Tensor(out), (q, k, v), backward_fn)


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss recorded on the active tape.

    The sweep runs the tape's nodes last recorded first. Each leaf tensor (a
    requires_grad input that is not itself an op result) is left holding its
    gradient on ``.grad``, added to any gradient it already held, so sweeps
    of several tapes accumulate in the order they run. Gradients are
    delivered on leaves only: once a node's rule has run, the sweep drops the
    node's ``.grad``, rule and parents, so intermediates are freed during the
    sweep and a tape is swept once. ``loss.grad`` ends as 1.
    """
    tape = Tape._active
    if tape is None:
        raise NumericError("backward requires an active Tape")
    if loss.data.size != 1:
        raise NumericError("loss must be scalar, got shape %r" % (loss.shape,))
    loss.grad = seed = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        grad, rule = node.grad, node._backward
        node.grad, node._backward, node._parents = None, None, ()
        if grad is not None and rule is not None:
            rule(grad)
    loss.grad = seed
