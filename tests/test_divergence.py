import numpy as np
import pytest

from pkt import (
    cosine_kernel,
    conditional_probabilities,
    gaussian_kernel,
    kl_loss,
    pkt_loss_and_grad,
    supervised_targets,
)
from pkt.gradcheck import finite_difference, max_relative_error, random_conditionals


def two_slot_instance():
    # column 0 is the interesting slot: p = (0.7, 0.3) against q = (0.5, 0.5);
    # the other two columns agree between p and q and contribute nothing
    p = np.array([
        [0.0, 0.4, 0.55],
        [0.7, 0.0, 0.45],
        [0.3, 0.6, 0.0],
    ])
    q = p.copy()
    q[1, 0] = 0.5
    q[2, 0] = 0.5
    return p, q


def test_kl_hand_instance():
    p, q = two_slot_instance()
    assert kl_loss(p, q) == pytest.approx(0.082282878505, abs=1e-9)


def test_kl_zero_at_equality():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = random_conditionals(rng, int(rng.integers(3, 12)))
        assert abs(kl_loss(p, p)) <= 1e-12


def test_kl_nonnegative_on_valid_pairs():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        p = random_conditionals(rng, n)
        q = random_conditionals(rng, n)
        assert kl_loss(p, q) >= -1e-9


def test_kl_clamp_floor():
    # all teacher mass lands where the student reports zero; the clamp
    # turns the contribution into log(1e7)
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert kl_loss(p, q) == pytest.approx(16.118095650958, abs=1e-9)


def test_kl_zero_times_log_zero():
    targets = supervised_targets([0, 0, 1])
    q = random_conditionals(np.random.default_rng(0), 3)
    assert np.isfinite(kl_loss(targets, q))


def test_kl_shape_validation():
    with pytest.raises(ValueError):
        kl_loss(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kl_loss(np.zeros((3, 3)), np.zeros((2, 2)))


def test_supervised_targets_pairs():
    targets = supervised_targets([0, 0, 1, 1])
    assert targets[1, 0] == 1.0 and targets[0, 1] == 1.0
    assert targets[3, 2] == 1.0 and targets[2, 3] == 1.0
    assert targets.sum(axis=0) == pytest.approx(np.ones(4))


def test_supervised_targets_uniform_over_class():
    targets = supervised_targets([0, 0, 0])
    off = ~np.eye(3, dtype=bool)
    assert np.all(targets[off] == 0.5)


def test_supervised_targets_singleton_slot():
    targets = supervised_targets([0, 0, 1])
    assert np.all(targets[:, 2] == 0.0)


def test_supervised_targets_all_singletons():
    with pytest.raises(ValueError):
        supervised_targets([0, 1])
    with pytest.raises(ValueError):
        supervised_targets([3, 1, 2])


def test_grad_zero_at_optimum():
    # feed the teacher's own embedding through the same kernel: the KL
    # sits at its global minimum, so both the value and gradient vanish
    rng = np.random.default_rng(13)
    y = rng.normal(size=(8, 4))
    p = conditional_probabilities(y, cosine_kernel())
    report = pkt_loss_and_grad(y, p, cosine_kernel())
    assert abs(report.value) <= 1e-9
    assert np.max(np.abs(report.grad_y)) <= 1e-7
    assert report.n_pairs == 8 * 7


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0), gaussian_kernel(0.7)])
def test_grad_matches_finite_differences(spec):
    rng = np.random.default_rng(41)
    for _ in range(3):
        n = int(rng.integers(4, 10))
        y = rng.normal(size=(n, int(rng.integers(2, 6))))
        p = random_conditionals(rng, n)
        analytic = pkt_loss_and_grad(y, p, spec).grad_y
        numeric = finite_difference(lambda yy: pkt_loss_and_grad(yy, p, spec).value, y)
        assert max_relative_error(analytic, numeric) < 1e-4


def test_sup_weight_zero_equals_unsupervised():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(6, 3))
    p = random_conditionals(rng, 6)
    targets = supervised_targets([0, 0, 1, 1, 2, 2])
    plain = pkt_loss_and_grad(y, p, cosine_kernel())
    zeroed = pkt_loss_and_grad(y, p, cosine_kernel(), sup=(targets, 0.0))
    assert zeroed.value == plain.value
    assert np.array_equal(zeroed.grad_y, plain.grad_y)


def test_sup_term_adds_weighted_kl_and_correct_grad():
    rng = np.random.default_rng(7)
    y = rng.normal(size=(6, 3))
    p = random_conditionals(rng, 6)
    targets = supervised_targets([0, 0, 1, 1, 2, 2])
    weight = 0.01
    q = conditional_probabilities(y, cosine_kernel())
    combined = pkt_loss_and_grad(y, p, cosine_kernel(), sup=(targets, weight))
    assert combined.value == pytest.approx(kl_loss(p, q) + weight * kl_loss(targets, q), abs=1e-12)
    numeric = finite_difference(
        lambda yy: pkt_loss_and_grad(yy, p, cosine_kernel(), sup=(targets, weight)).value, y
    )
    assert max_relative_error(combined.grad_y, numeric) < 1e-4


def test_descent_direction():
    rng = np.random.default_rng(19)
    for spec in (cosine_kernel(), gaussian_kernel(1.5)):
        y = rng.normal(size=(7, 3))
        p = random_conditionals(rng, 7)
        report = pkt_loss_and_grad(y, p, spec)
        stepped = pkt_loss_and_grad(y - 1e-6 * report.grad_y, p, spec)
        assert stepped.value < report.value + 1e-12


def test_grad_input_validation():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(5, 3))
    with pytest.raises(ValueError):
        pkt_loss_and_grad(y, random_conditionals(rng, 4), cosine_kernel())
    with pytest.raises(ValueError):
        pkt_loss_and_grad(y, random_conditionals(rng, 5), cosine_kernel(),
                          sup=(np.zeros((4, 4)), 0.1))
    with pytest.raises(ValueError):
        pkt_loss_and_grad(y, random_conditionals(rng, 5), cosine_kernel(),
                          sup=(np.zeros((5, 5)), -0.5))
