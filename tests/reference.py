"""Test-side reference tools, one copy each.

:func:`gradcheck` compares an op's reverse-mode gradients with central
finite differences; acceptance test 01 judges every op and the full model
loss with it, and ``test_autodiff.py`` the fused ops' special cases.
:func:`heatwave_runs` is the day-by-day scan that the
heatwave counter is checked against, and :func:`simulate_ar` draws the
autoregressive series whose partial autocorrelations are known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from temporal_bc.autodiff import Tape, Tensor, backward
from temporal_bc.errors import NumericError


@dataclass
class GradCheckReport:
    """Per-input max relative errors of reverse-mode vs finite differences."""

    errors: list[float]
    tol: float
    step: float = 1e-5

    @property
    def max_error(self) -> float:
        return max(self.errors) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.errors)


def gradcheck(
    f, inputs: Sequence[Tensor], tol: float = 1e-4, step: float = 1e-5
) -> GradCheckReport:
    """Compare gradients of scalar ``f(*inputs)`` against central differences.

    Relative error per element is |a - n| / max(|a|, |n|), falling back to the
    absolute difference when both magnitudes are below 1e-6.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with Tape():
        out = f(*inputs)
        if out.data.size != 1:
            raise NumericError("gradcheck needs a scalar-valued function")
        backward(out)
    analytic = [
        np.zeros_like(t.data) if t.grad is None else np.array(t.grad, copy=True)
        for t in inputs
    ]
    errors = []
    for t, grad in zip(inputs, analytic):
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f(*inputs).data)
            flat[i] = orig - step
            lo = float(f(*inputs).data)
            flat[i] = orig
            num_flat[i] = (hi - lo) / (2.0 * step)
        scale = np.maximum(np.abs(grad), np.abs(numeric))
        diff = np.abs(grad - numeric)
        rel = np.where(scale > 1e-6, diff / np.where(scale > 1e-6, scale, 1.0), diff)
        errors.append(float(rel.max()) if rel.size else 0.0)
    return GradCheckReport(errors=errors, tol=tol, step=step)


def heatwave_runs(values, threshold) -> list[int]:
    """Lengths of the runs of 3 or more days strictly above ``threshold``,
    scanned one day at a time."""
    runs = []
    run = 0
    for v in values:
        if v > threshold:
            run += 1
        else:
            if run >= 3:
                runs.append(run)
            run = 0
    if run >= 3:
        runs.append(run)
    return runs


def simulate_ar(coeffs, n: int, seed: int, burn: int = 500) -> np.ndarray:
    """``n`` days of x[i] = sum_k coeffs[k] * x[i - 1 - k] + N(0, 1) noise,
    after ``burn`` days that forget the zero start."""
    rng = np.random.default_rng(seed)
    p = len(coeffs)
    x = np.zeros(n + burn)
    eps = rng.normal(size=n + burn)
    for i in range(p, n + burn):
        x[i] = np.dot(coeffs, x[i - p : i][::-1]) + eps[i]
    return x[burn:]
