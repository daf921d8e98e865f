import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkt import (
    conditional_probabilities,
    cosine_kernel,
    gaussian_kernel,
    kernel_and_conditionals,
    sample_batch,
)

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


def test_kernel_and_conditionals_consistency():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(9, 3))
    k, colsums, q = kernel_and_conditionals(x, gaussian_kernel(1.5))
    assert np.all(np.diag(k) == 0.0)
    assert colsums == pytest.approx(k.sum(axis=0))
    assert q == pytest.approx(k / colsums[None, :])


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
