"""The blocked paths at tiles of 1 to 7 rows, against dense references.

Patching ``pkt.kernels.TILE`` sends a batch of at most 20 rows through
many column blocks and many kernel-matrix tiles, with a short last one;
the buffers sized from the unpatched ``TILE`` are only larger than
needed.  Patching ``AUGMENTED_MAX_DIM`` to 0 sends every Gaussian logit
through the Gram product instead of the augmented rows.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pkt.kernels
from pkt import conditional_probabilities, cosine_kernel, gaussian_kernel, kernel_matrix, pkt_loss_and_grad
from pkt.gradcheck import PASS_THRESHOLD, finite_difference, max_relative_error, random_conditionals
from test_divergence import dense_cosine_reference, dense_gaussian_reference, supervised_targets_oracle
from test_qmi import kernel_eval

TILES = st.integers(1, 7)
SPECS = st.one_of(st.just(cosine_kernel()), st.floats(0.5, 8.0).map(gaussian_kernel))


@contextmanager
def small_tiles(tile, gram_side):
    max_dim = 0 if gram_side else pkt.kernels.AUGMENTED_MAX_DIM
    with mock.patch.object(pkt.kernels, "TILE", tile), mock.patch.object(pkt.kernels, "AUGMENTED_MAX_DIM", max_dim):
        yield


def dense_conditionals(x, spec):
    """Whole conditional matrices: cosine kernels over their column sums, or a max-shifted Gaussian softmax."""
    if spec.family == "gaussian":
        return dense_gaussian_reference(x, random_conditionals(np.random.default_rng(0), len(x)), spec.width)[2]
    k = np.array([[kernel_eval(a, b, spec) for b in x] for a in x])
    np.fill_diagonal(k, 0.0)
    return k / k.sum(axis=0)


@settings(max_examples=150, deadline=None)
@given(tile=TILES, gram_side=st.booleans(), n=st.integers(2, 20), dim=st.integers(2, 5), spec=SPECS,
       seed=st.integers(0, 2**32 - 1))
def test_conditionals_in_small_tiles_match_the_dense_reference(tile, gram_side, n, dim, spec, seed):
    x = np.random.default_rng(seed).normal(size=(n, dim))
    with small_tiles(tile, gram_side):
        q = conditional_probabilities(x, spec)
    assert np.max(np.abs(q - dense_conditionals(x, spec))) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(tile=TILES, gram_side=st.booleans(), n=st.integers(3, 20), dim=st.integers(2, 3), spec=SPECS,
       supervised=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_loss_and_gradient_in_small_tiles_match_dense_references_and_finite_differences(tile, gram_side, n, dim, spec,
                                                                                        supervised, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, dim))
    p = random_conditionals(rng, n)
    labels = rng.integers(0, 3, size=n) if supervised else None
    sup = None if labels is None else (labels, 0.5)
    with small_tiles(tile, gram_side):
        report = pkt_loss_and_grad(y, p, spec, sup)
        numeric = finite_difference(lambda yy: pkt_loss_and_grad(yy, p, spec, sup).value, y)
    dense_sup = None if labels is None else (supervised_targets_oracle(labels), 0.5)
    if spec.family == "gaussian":
        value, grad, _ = dense_gaussian_reference(y, p, spec.width, dense_sup)
        smallest = 1.0
    else:
        value, grad = dense_cosine_reference(y, p, dense_sup)
        kernels = np.array([[kernel_eval(a, b, spec) for b in y] for a in y])
        smallest = np.min(kernels[~np.eye(n, dtype=bool)])
    # A cosine is rounded to a few units of 1e-16 whatever its size, so a
    # kernel (cos + 1) / 2 near 0, of a nearly antipodal pair, carries a
    # relative error near 1e-16 / k into its log and the gradient, which a
    # product of another shape rounds differently; and a 1e-5 step of
    # finite differences does not resolve that log's curvature, at any tile.
    assert report.value == pytest.approx(value, rel=1e-12 / smallest)
    assert np.max(np.abs(report.grad_y - grad)) <= 1e-12 / smallest * np.max(np.abs(grad))
    if smallest >= 1e-3:
        assert max_relative_error(report.grad_y, numeric) < PASS_THRESHOLD


@settings(max_examples=150, deadline=None)
@given(tile=TILES, n=st.integers(1, 20), dim=st.integers(1, 5), spec=SPECS, seed=st.integers(0, 2**32 - 1))
@example(tile=7, n=8, dim=1, spec=gaussian_kernel(1.0), seed=0)  # a one-column tile whose rows are 8 doubles apart
def test_kernel_matrix_in_small_tiles_is_exactly_symmetric(tile, n, dim, spec, seed):
    x = np.random.default_rng(seed).normal(size=(n, dim))
    with small_tiles(tile, False):
        k = kernel_matrix(x, spec)
    assert k.tobytes() == np.ascontiguousarray(k.T).tobytes()
    bound = 1e-15
    if spec.family == "gaussian":  # s_i + s_j - 2 x_i . x_j cancels to a few units in its last place
        stats = np.einsum("ij,ij->i", x, x)
        bound += 1e-14 * (stats[:, None] + stats[None, :]) / spec.width
    assert np.all(np.abs(k - np.array([[kernel_eval(a, b, spec) for b in x] for a in x])) <= bound)
