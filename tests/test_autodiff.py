"""The autodiff engine's values, graph rules and fused ops.

Acceptance test 01 gradchecks every op against central finite differences;
the gradchecks here cover compositions and the fused ops' special cases.
"""

import gc
import weakref

import numpy as np
import pytest

from temporal_bc import autodiff as ad
from temporal_bc import model, training
from temporal_bc.autodiff import Tape, Tensor, backward
from temporal_bc.batching import BatchConfig
from temporal_bc.errors import NumericError
from temporal_bc.timeseries import PairedDataset, TimeSeries

from reference import gradcheck

TOL = 1e-4


def make(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def test_matmul_shape_error(rng):
    with pytest.raises(NumericError, match="matmul"):
        ad.matmul(make(rng, 3, 4), make(rng, 3, 4))
    with pytest.raises(NumericError, match="2-D"):
        ad.matmul(make(rng, 4), make(rng, 4, 2))


def test_softplus_value_and_tails():
    assert float(ad.softplus(Tensor(0.0)).data) == pytest.approx(np.log(2.0))
    # stable on both tails
    big = ad.softplus(Tensor([50.0, -50.0]))
    assert big.data[0] == pytest.approx(50.0)
    assert big.data[1] == pytest.approx(np.exp(-50.0), abs=1e-25)


def test_masked_softmax_uniform_rows():
    logits = Tensor(np.zeros((2, 4)))
    mask = np.zeros((2, 4), dtype=bool)
    mask[0, 2] = True
    out = ad.masked_softmax(logits, mask)
    assert np.allclose(out.data[0], [1 / 3, 1 / 3, 0.0, 1 / 3])
    assert np.allclose(out.data[1], 0.25)
    assert out.data[0, 2] == 0.0  # exactly zero, not merely tiny


def test_masked_softmax_rows_sum_to_one(rng):
    logits = Tensor(rng.standard_normal((5, 7)))
    mask = rng.random((5, 7)) < 0.4
    mask[:, 0] = False  # keep at least one slot open per row
    out = ad.masked_softmax(logits, mask)
    assert np.allclose(out.data.sum(axis=-1), 1.0)
    assert np.all(out.data[mask] == 0.0)


def test_masked_softmax_all_masked_row_is_zero():
    logits = Tensor(np.ones((2, 3)))
    mask = np.array([[True, True, True], [False, True, False]])
    out = ad.masked_softmax(logits, mask)
    assert np.all(out.data[0] == 0.0)
    assert np.isfinite(out.data).all()


def test_masked_softmax_grad(rng):
    logits = make(rng, 4, 6)
    mask = rng.random((4, 6)) < 0.3
    mask[:, -1] = False
    weights = Tensor(rng.standard_normal((4, 6)))

    def f(x):
        return ad.reduce_sum(ad.masked_softmax(x, mask) * weights)

    report = gradcheck(f, [logits])
    assert report.passed
    # masked positions act as constants: their gradient is exactly zero
    logits.grad = None
    with Tape():
        backward(f(logits))
    assert np.all(logits.grad[mask] == 0.0)


def test_one_hot_logits_give_one_hot_weights():
    logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
    out = ad.masked_softmax(logits, np.zeros((1, 3), dtype=bool))
    assert out.data[0, 0] == pytest.approx(1.0)


def test_backward_seed_and_leaf_grads(rng):
    a, b = make(rng, 3), make(rng, 3)
    a.requires_grad = b.requires_grad = True
    with Tape():
        product = a * b
        loss = ad.reduce_sum(product)
        backward(loss)
    assert loss.grad == pytest.approx(1.0)
    assert np.allclose(a.grad, b.data)
    assert np.allclose(b.grad, a.data)
    assert product.grad is None  # gradients on leaves only


def test_backward_requires_tape(rng):
    a = make(rng, 2)
    a.requires_grad = True
    loss = ad.reduce_sum(a)
    with pytest.raises(NumericError, match="Tape"):
        backward(loss)


def test_backward_rejects_nonscalar(rng):
    a = make(rng, 3)
    a.requires_grad = True
    with Tape():
        with pytest.raises(NumericError, match="scalar"):
            backward(a * a)


def test_no_tape_means_no_graph(rng):
    a = make(rng, 3)
    a.requires_grad = True
    out = ad.reduce_sum(a * a)
    assert out._backward is None and not out.requires_grad


def test_grad_accumulates_across_reuse(rng):
    a = make(rng, 4)
    a.requires_grad = True
    with Tape():
        loss = ad.reduce_sum(a + a)
        backward(loss)
    assert np.allclose(a.grad, 2.0)


def test_gradcheck_is_deterministic(rng):
    a = Tensor(rng.standard_normal(6))

    def f(x):
        return ad.reduce_mean(ad.exp(x) * x)

    r1 = gradcheck(f, [a])
    r2 = gradcheck(f, [a])
    assert r1.errors == r2.errors


def test_forward_values_are_float64(rng):
    a = Tensor(np.arange(3, dtype=np.int64))
    assert a.data.dtype == np.float64
    assert (a + 1).data.dtype == np.float64


def test_an_untaped_float32_tensor_stays_float32(rng):
    a = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    b = Tensor(np.zeros(4, dtype=np.float32))
    assert a.data.dtype == np.float32
    out = ad.softplus(ad.mlp(a, w, b, Tensor(np.eye(4, dtype=np.float32)), b))
    assert out.data.dtype == np.float32
    assert ad.concat([a, a[:, :1]], axis=-1).data.dtype == np.float32


def test_composite_expression_grad(rng):
    a = make(rng, 3, 5)
    b = make(rng, 5, 2)

    def f(x, y):
        z = ad.tanh(ad.matmul(x, y))
        w = ad.masked_softmax(ad.matmul(z, ad.transpose_last_two(z)), np.zeros((3, 3), bool))
        return ad.reduce_mean(ad.matmul(w, z)) + ad.reduce_sum(ad.softplus(z))

    assert gradcheck(f, [a, b], tol=TOL).passed


def _attention_by_heads(q, k, v, blocked, n_heads):
    """The per-head composition that ``attention`` fuses: its oracle."""
    width = q.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        cols = slice(h * width, (h + 1) * width)
        qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
        weights = ad.masked_softmax(ad.matmul(qh, ad.transpose_last_two(kh)), blocked)
        outs.append(ad.matmul(weights, vh))
    return ad.concat(outs, axis=-1)


def _value_and_grads(f, leaves, downstream):
    """Output data and leaf gradients of the sum of ``f(*leaves) * downstream``."""
    for t in leaves:
        t.requires_grad, t.grad = True, None
    with Tape():
        out = f(*leaves)
        backward(ad.reduce_sum(out * Tensor(downstream)))
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("sharing", ["distinct", "q_is_k", "q_is_k_is_v"])
def test_attention_equals_per_head_composition_bit_for_bit(rng, sharing):
    n, n_heads = 9, 3
    blocked = rng.random((n, n)) < 0.4
    blocked[:, 0] = False
    bias = np.where(blocked, ad.MASK_FILL, 0.0)
    downstream = rng.standard_normal((n, 6))
    data = [rng.standard_normal((n, 6)) for _ in range(3)]
    if sharing == "q_is_k":
        data[1] = data[0]
    elif sharing == "q_is_k_is_v":
        data[1] = data[2] = data[0]

    def inputs():
        leaves = {}
        return [leaves.setdefault(id(x), Tensor(x)) for x in data]

    fused = _value_and_grads(
        lambda q, k, v: ad.attention(q, k, v, bias, n_heads), inputs(), downstream
    )
    oracle = _value_and_grads(
        lambda q, k, v: _attention_by_heads(q, k, v, blocked, n_heads), inputs(), downstream
    )
    for got, want in zip(fused, oracle):
        assert np.array_equal(got, want)


def test_attention_fully_blocked_row_gives_zeros(rng):
    n = 5
    blocked = np.zeros((n, n), dtype=bool)
    blocked[2] = True
    qkv = [rng.standard_normal((n, 4)) for _ in range(3)]
    downstream = rng.standard_normal((n, 4))

    def run(blocked):
        bias = np.where(blocked, ad.MASK_FILL, 0.0)
        return _value_and_grads(
            lambda q, k, v: ad.attention(q, k, v, bias, 2),
            [Tensor(x) for x in qkv],
            downstream,
        )

    out, gq, gk, gv = run(blocked)
    assert all(np.isfinite(x).all() for x in (out, gq, gk, gv))
    assert np.all(out[2] == 0.0) and np.all(gq[2] == 0.0)
    # with every row blocked, nothing flows either way
    for x in run(np.ones((n, n), dtype=bool)):
        assert np.all(x == 0.0)
    # untaped float32: float32 out, exact zeros
    q, k, v = [Tensor(x.astype(np.float32)) for x in qkv]
    for rows in (blocked, np.ones((n, n), dtype=bool)):
        bias = np.where(rows, ad.MASK_FILL, 0.0).astype(np.float32)
        out = ad.attention(q, k, v, bias, 2).data
        assert out.dtype == np.float32 and np.isfinite(out).all()
        assert np.all(out[rows.all(axis=1)] == 0.0)
        assert np.all(out[~rows.all(axis=1)] != 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_denominator_floor_only_touches_fully_blocked_rows(rng, dtype):
    # attention floors each row's softmax denominator at 1; the composition
    # oracle (masked_softmax) replaces only an exact 0 by 1. A fully blocked
    # row must give exact zeros, every other row the oracle's bits, and a
    # NaN must still reach its row
    n, n_heads = 7, 2
    blocked = rng.random((n, n)) < 0.4
    blocked[:, 0] = False
    blocked[3] = True
    bias = np.where(blocked, ad.MASK_FILL, 0.0).astype(dtype)
    q, k, v = (rng.standard_normal((n, 4)).astype(dtype) for _ in range(3))
    q[5, 0] = np.nan  # head 0 of row 5

    def run(op):
        return op(Tensor(q), Tensor(k), Tensor(v)).data

    fused = run(lambda q, k, v: ad.attention(q, k, v, bias, n_heads))
    oracle = run(lambda q, k, v: _attention_by_heads(q, k, v, blocked, n_heads))
    assert fused.dtype == dtype
    assert np.array_equal(fused, oracle, equal_nan=True)
    assert np.all(fused[3] == 0.0)
    assert np.isnan(fused[5, :2]).all() and np.isfinite(np.delete(fused, 5, axis=0)).all()


def test_attention_grad(rng):
    blocked = rng.random((4, 5)) < 0.3
    blocked[:, -1] = False
    bias = np.where(blocked, ad.MASK_FILL, 0.0)
    q, k, v = make(rng, 4, 6), make(rng, 5, 6), make(rng, 5, 6)
    w = Tensor(rng.standard_normal((4, 6)))
    report = gradcheck(
        lambda x, y, z: ad.reduce_sum(ad.attention(x, y, z, bias, 2) * w), [q, k, v]
    )
    assert report.passed


def _skip_case(seed, sharing):
    """Random attention inputs: q, k, v data, bias, heads and skip counts.

    When q and k have one length, the mask is the model's for ``skips[0]``
    conditioning rows: later rows see the conditioning keys and strictly
    earlier keys only. Scattered extra blocks follow, and one row with every
    key blocked, which the smallest skip reads and the largest does not.
    """
    rng = np.random.default_rng(seed)
    n_heads = int(rng.integers(1, 4))
    d = n_heads * int(rng.integers(1, 9))
    n = int(rng.integers(3, 90))
    m = n if sharing != "distinct" else int(rng.integers(1, 90))
    data = [rng.standard_normal(shape) for shape in ((n, d), (m, d), (m, d))]
    if sharing == "q_is_k":
        data[1] = data[0]
    elif sharing == "q_is_k_is_v":
        data[1] = data[2] = data[0]
    skips = sorted({1, int(rng.integers(1, n - 1)), n - 1})
    blocked = rng.random((n, m)) < 0.3
    if m == n:
        cond = skips[0]
        blocked[:, :cond] = False
        blocked[cond:, cond:] |= np.triu(np.ones((n - cond, n - cond), dtype=bool))
    blocked[int(rng.integers(1, n - 1))] = True
    return data, np.where(blocked, ad.MASK_FILL, 0.0), n_heads, skips


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sharing", ["distinct", "q_is_k", "q_is_k_is_v"])
def test_attention_skip_leaves_read_rows_and_gradients_bit_for_bit(seed, sharing):
    data, bias, n_heads, skips = _skip_case(seed, sharing)
    n, d = data[0].shape
    downstream = np.random.default_rng(seed + 50).standard_normal((n, d))

    def run(skip, downstream):
        leaves = {}
        inputs = [leaves.setdefault(id(x), Tensor(x)) for x in data]
        return _value_and_grads(
            lambda q, k, v: ad.attention(q, k, v, bias, n_heads, skip), inputs, downstream
        )

    assert (bias[1:] == ad.MASK_FILL).all(axis=1).any()
    for skip in skips:
        read = downstream.copy()
        read[:skip] = 0.0
        full_out, *full_grads = run(0, read)
        # the skipped rows' upstream gradient is ignored, so any will do
        out, *grads = run(skip, downstream)
        assert np.all(out[:skip] == 0.0), skip
        assert np.array_equal(out[skip:], full_out[skip:]), skip
        for got, want in zip(grads, full_grads):
            assert np.array_equal(got, want), skip


def test_attention_grad_with_skipped_rows(rng):
    blocked = rng.random((5, 5)) < 0.3
    blocked[:, 0] = False
    bias = np.where(blocked, ad.MASK_FILL, 0.0)
    q, k, v = make(rng, 5, 6), make(rng, 5, 6), make(rng, 5, 6)
    w = Tensor(rng.standard_normal((5, 6)))
    report = gradcheck(
        lambda x, y, z: ad.reduce_sum(ad.attention(x, y, z, bias, 2, 3) * w), [q, k, v]
    )
    assert report.passed
    assert all(np.any(t.grad != 0.0) for t in (q, k, v))


def test_attention_shape_errors(rng):
    bias = np.zeros((3, 3))
    with pytest.raises(NumericError, match="heads"):
        ad.attention(make(rng, 3, 4), make(rng, 3, 4), make(rng, 3, 4), bias, 3)
    with pytest.raises(NumericError, match="mismatch"):
        ad.attention(make(rng, 3, 4), make(rng, 3, 4), make(rng, 3, 4), np.zeros((3, 2)), 2)
    with pytest.raises(NumericError, match="skip"):
        ad.attention(make(rng, 3, 4), make(rng, 3, 4), make(rng, 3, 4), bias, 2, 4)


def _mlp_by_ops(x, w1, b1, w2, b2):
    """The composition that ``mlp`` fuses: its oracle."""
    return ad.matmul(ad.tanh(ad.matmul(x, w1) + b1), w2) + b2


@pytest.mark.parametrize(
    "case",
    [
        "x_needs_grad",
        "x_is_constant",
        "x_shared",
        # the model's edge shapes: xv's perceptron reads one column, the
        # head's writes two; and an untaped float32 perceptron
        "one_input_column",
        "two_output_columns",
        "untaped_float32",
    ],
)
def test_mlp_equals_composition_bit_for_bit(rng, case):
    n_in = 1 if case == "one_input_column" else 5
    n_out = 2 if case == "two_output_columns" else 3
    x = rng.standard_normal((7, n_in))
    shapes = ((n_in, 4), (4,), (4, n_out), (n_out,))
    weights = [rng.standard_normal(shape) for shape in shapes]
    downstream = rng.standard_normal((7, n_out))

    def run(perceptron):
        if case == "untaped_float32":
            out = perceptron(*(Tensor(a.astype(np.float32)) for a in [x] + weights))
            assert out.data.dtype == np.float32 and not out.requires_grad
            return [out.data]
        leaves = [Tensor(w) for w in weights]
        if case in ("x_is_constant", "one_input_column"):
            return _value_and_grads(lambda *p: perceptron(Tensor(x), *p), leaves, downstream)
        if case in ("x_needs_grad", "two_output_columns"):
            return _value_and_grads(perceptron, [Tensor(x)] + leaves, downstream)
        # x and the weights each feed two perceptrons and one other op
        return _value_and_grads(
            lambda x, *p: perceptron(x, *p) * perceptron(ad.tanh(x), *p) + x[:, :3],
            [Tensor(x)] + leaves,
            downstream,
        )

    fused, oracle = run(ad.mlp), run(_mlp_by_ops)
    assert len(fused) == len(oracle)
    for got, want in zip(fused, oracle):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("operand, shape", [(0, (7,)), (0, (2, 7, 5)), (1, (5,)),
                                            (2, (1, 4)), (3, (2, 4, 3)), (4, (1, 3))])  # fmt: skip
def test_mlp_refuses_operands_of_other_ranks(rng, operand, shape):
    shapes = [(7, 5), (5, 4), (4,), (4, 3), (3,)]
    shapes[operand] = shape
    with pytest.raises(NumericError, match="mlp needs"):
        ad.mlp(*(make(rng, *s) for s in shapes))


def _gaussian_nll_by_ops(mu, sigma, y, offset):
    """The composition that ``gaussian_nll`` fuses: its oracle."""
    resid = ad.sub(Tensor(y), mu)
    return ad.reduce_mean(ad.log(sigma) + ad.div(resid * resid, sigma * sigma * 2.0) + offset)


@pytest.mark.parametrize("case", ["leaves", "shared"])
def test_gaussian_nll_equals_composition_bit_for_bit(rng, case):
    n = 6
    y = rng.standard_normal((n, 1))
    raw = rng.standard_normal((n, 2))
    weights = Tensor(rng.standard_normal((n, 1)))

    def run(nll):
        if case == "leaves":
            leaves = [Tensor(raw[:, :1]), Tensor(np.abs(raw[:, 1:]) + 0.5)]
            return _value_and_grads(lambda m, s: nll(m, s, y, 0.9), leaves, np.array(1.7))

        # mu and sigma come from one leaf, and sigma feeds one more op that
        # the sweep reaches first, so the order of its sums matters
        def f(z):
            sigma = ad.softplus(z[:, 1:2]) + Tensor(np.array(1e-3))
            return nll(z[:, 0:1] * 3.0, sigma, y, 0.9) + ad.reduce_sum(sigma * weights)

        return _value_and_grads(f, [Tensor(raw)], np.array(1.7))

    fused, oracle = run(ad.gaussian_nll), run(_gaussian_nll_by_ops)
    assert len(fused) == len(oracle)
    for got, want in zip(fused, oracle):
        assert np.array_equal(got, want)


def _train_one_step(monkeypatch, attention_layer):
    """One training step of a tiny two-layer model under ``gc.disable()``.

    Returns the parameter gradients Adam saw, the number of tape nodes that
    still hold a rule, parents or a gradient after ``backward``, and the
    number of tape nodes still alive once ``train`` has returned.
    """
    rng = np.random.default_rng(3)
    t = np.arange(200.0)
    signal = 10.0 + 3.0 * np.sin(2.0 * np.pi * t / 30.0)
    dataset = PairedDataset(
        TimeSeries(t, signal + 2.0 + 0.3 * rng.normal(size=200)),
        (TimeSeries(t, signal + 0.3 * rng.normal(size=200)),),
    )
    seen = {"grads": {}, "refs": [], "stale": 0}
    real_backward, real_step = training.backward, training.Adam.step

    def watched_backward(loss):
        nodes = Tape._active.nodes
        real_backward(loss)
        seen["refs"] += [weakref.ref(node) for node in nodes]
        seen["stale"] += sum(
            node._backward is not None
            or bool(node._parents)
            or (node.grad is not None and node is not loss)
            for node in nodes
        )

    def watched_step(self, grad):
        seen["grads"] = {name: p.grad.copy() for name, p in self.params.items()}
        real_step(self, grad)

    monkeypatch.setattr(training, "backward", watched_backward)
    monkeypatch.setattr(training.Adam, "step", watched_step)
    monkeypatch.setattr(model, "_attention_layer", attention_layer)
    config = model.ModelConfig(n_layers=2, n_heads=2, model_dim=8, feature_dim=8, hidden_dim=8)
    gc.disable()
    try:
        training.train(
            dataset,
            config,
            training.TrainConfig(steps=1, batch_size=2, seed=5),
            BatchConfig(window_min=10, window_max=20),
        )
        alive = sum(ref() is not None for ref in seen["refs"])
    finally:
        gc.enable()
    assert seen["refs"], "the step recorded no tape"
    return seen["grads"], seen["stale"], alive


def test_training_step_frees_its_graph_without_the_cycle_collector(monkeypatch):
    grads, stale, alive = _train_one_step(monkeypatch, model._attention_layer)
    assert stale == 0, "%d tape nodes kept a rule, parents or gradient" % stale
    assert alive == 0, "%d tape nodes outlived the step" % alive

    # the per-head composition the fused op replaced gives the same gradients,
    # though it computes the rows the fused op skips
    def attention_by_heads(q, k, v, bias, skip, params, prefix, config):
        out = _attention_by_heads(q, k, v, bias == ad.MASK_FILL, config.n_heads)
        return model._mlp(out, params, prefix)

    monkeypatch.undo()
    reference, _, _ = _train_one_step(monkeypatch, attention_by_heads)
    assert grads.keys() == reference.keys()
    for name in grads:
        assert np.array_equal(grads[name], reference[name]), name


def test_an_unswept_tape_frees_its_graph_without_the_cycle_collector(rng):
    # a backward rule that captures its own result Tensor makes a reference
    # cycle; without a backward sweep to cut it, the graph would wait for gc
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    mask = np.eye(3, dtype=bool)
    gc.disable()
    try:
        with Tape() as tape:
            y = ad.sub(ad.exp(x) + ad.log(ad.softplus(x)), ad.div(ad.tanh(x) * x, Tensor(2.0)))
            y = ad.masked_softmax(ad.matmul(y, ad.transpose_last_two(y)), mask) + ad.attention(
                y, y, y, np.where(mask, ad.MASK_FILL, 0.0), 1
            )
            ad.reduce_mean(ad.concat([y[0:1], ad.reduce_sum(y, axis=0, keepdims=True)]))
        refs = [weakref.ref(node) for node in tape.nodes]
        del tape, y
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) == 17
    assert alive == 0, "%d of %d tape nodes outlived their tape" % (alive, len(refs))
