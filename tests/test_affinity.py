import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkt import (
    COSINE,
    BatchFailure,
    TrainConfig,
    conditional_probabilities,
    cosine_kernel,
    gaussian_kernel,
    information_potentials,
    init_student,
    pkt_loss_and_grad,
    sample_batch,
    train,
)
from pkt.affinity import _conditionals_of_rows
from pkt.kernels import NORM_EPS, TILE, _row_stats

SQ2 = np.sqrt(2.0) / 2.0


def test_hand_instance_three_points():
    # unit vectors at 0, 90 and 45 degrees; conditioning on the first
    # slot splits its mass between the orthogonal and diagonal partners
    x = np.array([[1.0, 0.0], [0.0, 1.0], [SQ2, SQ2]])
    q = conditional_probabilities(x, cosine_kernel())
    assert q[1, 0] == pytest.approx(0.369398062518, abs=1e-11)
    assert q[2, 0] == pytest.approx(0.630601937482, abs=1e-11)
    assert q[0, 1] == pytest.approx(0.369398062518, abs=1e-11)
    assert q[2, 1] == pytest.approx(0.630601937482, abs=1e-11)
    assert q[0, 2] == pytest.approx(0.5, abs=1e-11)
    assert q[1, 2] == pytest.approx(0.5, abs=1e-11)


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)])
def test_slots_sum_to_one(spec):
    rng = np.random.default_rng(21)
    for _ in range(25):
        x = rng.normal(size=(rng.integers(2, 20), rng.integers(1, 8)))
        q = conditional_probabilities(x, spec)
        assert np.max(np.abs(q.sum(axis=0) - 1.0)) <= 1e-9
        assert np.all(q >= 0.0)
        assert np.all(np.diag(q) == 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), dim=st.integers(2, 8),
       log_scale=st.floats(-8.0, 8.0), family=st.sampled_from(["cosine", "gaussian"]),
       width_factor=st.floats(0.05, 4.0))
def test_columns_sum_to_one_over_drawn_shapes_and_scales(seed, n, dim, log_scale, family, width_factor):
    # rows in the cube [-scale, scale]^dim are at most 4 * dim * scale^2 apart
    # in squared distance, so this width keeps every Gaussian kernel value
    # above exp(-20) and no slot is degenerate
    scale = 10.0 ** log_scale
    x = np.random.default_rng(seed).uniform(-scale, scale, size=(n, dim))
    spec = cosine_kernel() if family == "cosine" else gaussian_kernel(4.0 * dim * scale**2 * width_factor)
    q = conditional_probabilities(x, spec)
    assert np.max(np.abs(q.sum(axis=0) - 1.0)) <= 1e-12
    assert np.all(np.diag(q) == 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), dim=st.integers(2, 8))
def test_cosine_conditionals_ignore_per_row_scale(seed, n, dim):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    factors = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    q = conditional_probabilities(x, cosine_kernel())
    scaled = conditional_probabilities(x * factors[:, None], cosine_kernel())
    assert np.max(np.abs(scaled - q)) <= 1e-12


def unit_row_cosine_conditionals(x):
    # the dense definition: guarded unit rows, their N x N kernel, columns normalized
    u = x / np.maximum(np.linalg.norm(x, axis=1), NORM_EPS)[:, None]
    k = (np.clip(u @ u.T, -1.0, 1.0) + 1.0) / 2.0
    np.fill_diagonal(k, 0.0)
    return k / k.sum(axis=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 2 * TILE + 3), dim=st.integers(1, 8),
       log_scale=st.floats(-6.0, 6.0), zero=st.integers(0, 2 * TILE + 2))
def test_cosine_conditionals_match_the_unit_row_definition(seed, n, dim, log_scale, zero):
    # one row is all zeros: it has the neutral kernel 0.5 against every other row
    x = np.random.default_rng(seed).normal(size=(n, dim)) * 10.0 ** log_scale
    zero %= n
    x[zero] = 0.0
    assert np.max(np.abs(conditional_probabilities(x, cosine_kernel()) - unit_row_cosine_conditionals(x))) <= 1e-15
    out, q_out = np.empty((2, n * min(n, TILE)))
    k = np.empty((n, n))
    for cs, a, _, _ in _conditionals_of_rows(x, _row_stats(x, cosine_kernel()), cosine_kernel(), out, q_out):
        k[:, cs] = a
    others = np.arange(n) != zero
    assert np.all(k[zero, others] == 0.5) and np.all(k[others, zero] == 0.5)


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(1.5)], ids=["cosine", "gaussian"])
def test_conditionals_of_rows_consistency(spec):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(9, 3))
    out, q_out = np.full((2, 81), np.nan)
    [(cs, a, q, c)] = _conditionals_of_rows(x, _row_stats(x, spec), spec, out, q_out)  # 9 rows: one block
    assert cs == slice(0, 9) and np.shares_memory(a, out) and np.shares_memory(q, q_out)
    assert np.all(np.diag(a) == 0.0)
    if spec.family == COSINE:
        assert np.array_equal(q, conditional_probabilities(x, spec))
        assert np.array_equal(q, a / c[None, :])
        return
    # a holds the logits less each column's largest off-diagonal one, q
    # their exponentials with zero self-pairs, and c q's column sums
    off = ~np.eye(9, dtype=bool)
    assert np.all(np.max(np.where(off, a, -np.inf), axis=0) == 0.0)
    assert np.array_equal(q[off], np.exp(a)[off])
    assert np.all(np.diag(q) == 0.0)
    assert np.array_equal(c, q.sum(axis=0))
    assert np.array_equal(q / c[None, :], conditional_probabilities(x, spec))


@pytest.mark.parametrize("spec, message", [(cosine_kernel(), "degenerate geometry"),
                                           (gaussian_kernel(1e-310), "Gaussian logits overflow")],
                         ids=["cosine", "gaussian"])
def test_conditionals_errors_reach_every_caller(spec, message):
    # two exactly opposite vectors: the only off-diagonal cosine affinity
    # is 0, and their squared distance of 4 divided by 1e-310 overflows
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = init_student([2, 3], seed=0)
    before = [w.copy() for w in model.parameters()]
    cfg = TrainConfig(batch_size=2, teacher_spec=spec, student_spec=spec)
    with pytest.raises(ValueError, match=message):
        conditional_probabilities(x, spec)
    with pytest.raises(ValueError, match=message):
        pkt_loss_and_grad(x, p, spec)
    with pytest.raises(BatchFailure, match=f"^epoch 0 batch 0: {message}"):
        train(model, x, x, cfg=cfg)
    assert all(np.array_equal(w, v) for w, v in zip(model.parameters(), before))


def test_gaussian_conditionals_of_rows_far_from_the_origin_stay_exact():
    # rows near 1e5 spaced 1 apart: at width 1e-300, s / width overflows,
    # so their augmented rows are not finite, but d^2 / width does not,
    # and the Gram product gives the logits; the potentials, which need
    # the augmented rows, raise
    x = np.column_stack([1e5 + np.arange(4.0), np.zeros(4)])
    spec = gaussian_kernel(1e-300)
    nearest = np.array([[0, 0.5, 0, 0], [1, 0, 0.5, 0], [0, 0.5, 0, 1], [0, 0, 0.5, 0]])
    assert np.array_equal(conditional_probabilities(x, spec), nearest)
    _, trace = train(init_student([2, 3], seed=0), x, x, cfg=TrainConfig(batch_size=4, teacher_spec=spec))
    assert len(trace) == 1 and np.isfinite(trace[0].loss)
    with pytest.raises(ValueError, match="^Gaussian logits overflow"):
        information_potentials(x, np.arange(4) % 2, spec)


def test_degenerate_geometry_raises():
    # two exactly opposite vectors: the only off-diagonal affinity is 0
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        conditional_probabilities(x, cosine_kernel())


def test_feature_validation():
    with pytest.raises(ValueError):
        conditional_probabilities(np.zeros((1, 3)), cosine_kernel())
    with pytest.raises(ValueError):
        conditional_probabilities(np.array([[1.0, np.nan], [0.0, 1.0]]), cosine_kernel())


def test_sample_batch_partitions_and_determinism():
    chunks = sample_batch(10, 4, rng_seed=7, epoch=0)
    assert [len(c) for c in chunks] == [4, 4, 2]
    flat = np.sort(np.concatenate(chunks))
    assert np.array_equal(flat, np.arange(10))
    again = sample_batch(10, 4, rng_seed=7, epoch=0)
    assert all(np.array_equal(a, b) for a, b in zip(chunks, again))
    other_epoch = sample_batch(10, 4, rng_seed=7, epoch=1)
    assert not all(np.array_equal(a, b) for a, b in zip(chunks, other_epoch))


def test_sample_batch_drops_singleton_tail():
    chunks = sample_batch(9, 4, rng_seed=0, epoch=0)
    assert [len(c) for c in chunks] == [4, 4]
    covered = np.concatenate(chunks)
    assert len(np.unique(covered)) == 8


def test_sample_batch_validation():
    with pytest.raises(ValueError):
        sample_batch(10, 1, rng_seed=0, epoch=0)
    with pytest.raises(ValueError):
        sample_batch(3, 4, rng_seed=0, epoch=0)
