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
from pkt import (TrainConfig, conditional_probabilities, cosine_kernel, gaussian_kernel, init_student, kernel_matrix,
                 pkt_loss_and_grad, train)
from pkt.gradcheck import PASS_THRESHOLD, finite_difference, max_relative_error, random_conditionals
from pkt.student import BETA1, BETA2, EPS
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


def dense_train(params, raw, teacher, labels, cfg):
    """``train`` of a linear student written out densely: each batch of a seeded permutation in its drawn order, its
    whole teacher conditionals, the dense loss references, and Adam as Algorithm 1.

    A Gaussian loss is blind to a shift of every embedding, so a Gaussian
    student's bias gets no gradient.  Returns the weight and bias, the
    per-batch losses and the smallest off-diagonal cosine student kernel.
    """
    params = [p.copy() for p in params]
    m, v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    losses, n, smallest = [], raw.shape[0], 1.0
    for epoch in range(cfg.epochs):
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        for idx in (perm[lo : lo + cfg.batch_size] for lo in range(0, n, cfg.batch_size)):
            if idx.size < 2:
                continue
            y = raw[idx] @ params[0] + params[1]
            p = dense_conditionals(teacher[idx], cfg.teacher_spec)
            sup = (supervised_targets_oracle(labels[idx]), cfg.sup_weight) if cfg.sup_weight > 0 else None
            if cfg.student_spec.family == "gaussian":
                loss, delta, _ = dense_gaussian_reference(y, p, cfg.student_spec.width, sup)
                grads = [raw[idx].T @ delta, np.zeros_like(params[1])]
            else:
                loss, delta = dense_cosine_reference(y, p, sup)
                u = y / np.linalg.norm(y, axis=1)[:, None]
                smallest = min(smallest, np.min(u @ u.T + 2.0 * np.eye(idx.size)) / 2.0 + 0.5)
                grads = [raw[idx].T @ delta, delta.sum(axis=0)]
            losses.append(loss)
            t = len(losses)
            for param, g, m_, v_ in zip(params, grads, m, v):
                m_[:] = BETA1 * m_ + (1.0 - BETA1) * g
                v_[:] = BETA2 * v_ + (1.0 - BETA2) * g * g
                param -= cfg.lr * (m_ / (1.0 - BETA1**t)) / (np.sqrt(v_ / (1.0 - BETA2**t)) + EPS)
    return params, losses, smallest


@settings(max_examples=400, deadline=None)
@given(tile=TILES, gram_side=st.booleans(), data=st.data(), dims=st.lists(st.integers(2, 4), min_size=2, max_size=2),
       teacher_spec=SPECS, student_spec=SPECS, sup_weight=st.sampled_from([0.0, 0.5]),
       epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_training_in_small_tiles_matches_a_dense_whole_run_oracle(tile, gram_side, data, dims, teacher_spec,
                                                                  student_spec, sup_weight, epochs, seed):
    # the batching, the label order, the output-bias rule, Adam and the
    # block walk of a whole run, against an oracle that shares none of them.
    # The students are linear: a hidden unit that alone carries a row of a
    # cosine student has a gradient of exactly 0 (the gradient of each row
    # is orthogonal to it), and Adam scales its rounding residue to a step.
    # A nearly antipodal pair of cosine rows has a kernel k near 0 whose
    # rounding, about 1e-16, is 1e-16 / k of it, so below k = 1e-4 the
    # bound grows with 1 / k, as in the loss test above.
    n = data.draw(st.integers(2, 2 * tile + 3))
    batch = data.draw(st.integers(2, n))
    rng = np.random.default_rng(seed)
    raw, teacher, labels = rng.normal(size=(n, dims[0])), rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)
    model = init_student(dims, seed=seed % 7)
    cfg = TrainConfig(epochs=epochs, batch_size=batch, lr=1e-2, teacher_spec=teacher_spec,
                      student_spec=student_spec, sup_weight=sup_weight, seed=seed % 5)
    params, losses, smallest = dense_train(model.parameters(), raw, teacher, labels, cfg)
    with small_tiles(tile, gram_side):
        model, trace = train(model, raw, teacher, labels if sup_weight > 0 else None, cfg)
    bound = 1e-12 * max(1.0, 1e-4 / smallest)
    assert [e.loss for e in trace] == pytest.approx(losses, rel=bound, abs=bound)
    # an Adam step is lr times a ratio blind to the gradient's scale, so the
    # bias, which starts at 0 and holds only a few steps, is held to the
    # scale of the weights, not to its own
    scale = max(np.max(np.abs(p)) for p in params)
    for got, expected in zip(model.parameters(), params):
        assert np.max(np.abs(got - expected)) <= bound * scale
