"""Central finite-difference verification of the analytic embedding
gradient.  Used by the test suite and the ``gradcheck`` CLI command."""

from __future__ import annotations

import numpy as np

from .divergence import pkt_loss_and_grad
from .kernels import KernelSpec, cosine_kernel, gaussian_kernel

DEFAULT_H = 1e-5
PASS_THRESHOLD = 1e-4

# Inclusive ranges of the battery's batch sizes and embedding widths.
N_RANGE = (4, 12)
DIM_RANGE = (2, 8)


def finite_difference(fn, y: np.ndarray) -> np.ndarray:
    """Central differences of a scalar function on every coordinate of ``y``."""
    grad = np.zeros_like(y)
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            yp = y.copy()
            yp[i, j] += DEFAULT_H
            ym = y.copy()
            ym[i, j] -= DEFAULT_H
            grad[i, j] = (fn(yp) - fn(ym)) / (2.0 * DEFAULT_H)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise relative error, floored against the gradient's own scale
    so coordinates that are tiny relative to the whole gradient are judged
    on an absolute basis rather than against finite-difference noise."""
    scale = max(1e-3 * float(np.abs(analytic).max(initial=0.0)), 1e-12)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), scale)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_conditionals(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random valid column-stochastic matrix with zero diagonal."""
    m = rng.uniform(0.05, 1.0, size=(n, n))
    np.fill_diagonal(m, 0.0)
    return m / m.sum(axis=0, keepdims=True)


def check_instance(
    n: int,
    dim: int,
    spec: KernelSpec,
    rng: np.random.Generator,
) -> float:
    """Relative error between the analytic and numeric gradient on one random instance."""
    y = rng.normal(size=(n, dim))
    p = random_conditionals(rng, n)
    analytic = pkt_loss_and_grad(y, p, spec).grad_y
    numeric = finite_difference(lambda yy: pkt_loss_and_grad(yy, p, spec).value, y)
    return max_relative_error(analytic, numeric)


def run_battery(seed: int, instances: int = 20) -> float:
    """Max relative error over random instances alternating both kernel families.

    Gaussian widths are drawn log-uniformly from [0.05, 4]; at the small
    end most student conditionals are far below any linear-domain floor.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(instances):
        n = int(rng.integers(N_RANGE[0], N_RANGE[1] + 1))
        dim = int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1))
        if trial % 2 == 0:
            spec = cosine_kernel()
        else:
            spec = gaussian_kernel(float(np.exp(rng.uniform(np.log(0.05), np.log(4.0)))))
        worst = max(worst, check_instance(n, dim, spec, rng))
    return worst
