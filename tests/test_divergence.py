import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkt import (
    cosine_kernel,
    conditional_probabilities,
    gaussian_kernel,
    kl_loss,
    pkt_loss_and_grad,
    supervised_targets,
)
from pkt.divergence import LOSS_BUFFERS, Q_FLOOR
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


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0), gaussian_kernel(0.7),
                                  gaussian_kernel(0.2), gaussian_kernel(0.05)])
def test_grad_matches_finite_differences(spec):
    # at widths 0.2 and 0.05 most student conditionals are far below Q_FLOOR
    rng = np.random.default_rng(41)
    for trial in range(4):
        n = int(rng.integers(4, 10))
        y = rng.normal(size=(n, int(rng.integers(2, 6))))
        p = random_conditionals(rng, n)
        sup = (supervised_targets(np.arange(n) % 3), 0.5) if trial == 3 else None
        analytic = pkt_loss_and_grad(y, p, spec, sup).grad_y
        numeric = finite_difference(lambda yy: pkt_loss_and_grad(yy, p, spec, sup).value, y)
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


def kl_loss_oracle(p, q):
    """kl_loss as one boolean-gather expression."""
    qc = np.clip(q, Q_FLOOR, 1.0)
    mask = p > 0.0
    np.fill_diagonal(mask, False)
    return float(np.sum(p[mask] * np.log(p[mask] / qc[mask])))


def supervised_targets_oracle(labels):
    """supervised_targets written column by column over the slots that have partners."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    counts = same.sum(axis=0)
    cols = np.where(counts > 0)[0]
    targets = np.zeros(same.shape)
    targets[:, cols] = same[:, cols] / counts[cols]
    return targets


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_kl_loss_matches_the_gather_expression_bit_for_bit(data, n):
    entries = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1.0))
    p = data.draw(hnp.arrays(float, (n, n), elements=entries))
    q = data.draw(hnp.arrays(float, (n, n), elements=entries))
    assert kl_loss(p, q).hex() == kl_loss_oracle(p, q).hex()


@pytest.mark.parametrize("n", [128, 300])
def test_kl_loss_gathers_in_blocks_without_changing_the_sum(n):
    # at n = 300 the terms are gathered in six blocks of rows
    rng = np.random.default_rng(n)
    p = random_conditionals(rng, n)
    p[rng.random((n, n)) < 0.3] = 0.0
    q = random_conditionals(rng, n)
    assert kl_loss(p, q).hex() == kl_loss_oracle(p, q).hex()


@settings(max_examples=100, deadline=None)
@given(labels=hnp.arrays(np.int64, st.integers(2, 12), elements=st.integers(0, 4)))
def test_supervised_targets_into_out_match_the_column_expression(labels):
    if np.unique(labels).size == labels.size:
        return  # all singletons: raises, covered above
    out = np.full((labels.size, labels.size), np.nan)
    assert supervised_targets(labels, out=out) is out
    expected = supervised_targets_oracle(labels).tobytes()
    assert out.tobytes() == expected
    assert supervised_targets(labels).tobytes() == expected


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)], ids=["cosine", "gaussian"])
@pytest.mark.parametrize("weight", [None, 0.3], ids=["plain", "sup"])
@pytest.mark.parametrize("b", [24, 19], ids=["full", "tail"])
def test_workspace_leaves_value_and_gradient_bit_identical(spec, weight, b):
    big = 24  # the workspace is sized for 24 rows; a tail batch uses a prefix of each buffer
    rng = np.random.default_rng(b)
    y = rng.normal(size=(b, 3))
    p = random_conditionals(rng, b)
    sup = None if weight is None else (supervised_targets(rng.integers(0, 3, size=b)), weight)
    workspace = [np.full(big * big, np.nan) for _ in range(LOSS_BUFFERS)]
    fresh = pkt_loss_and_grad(y, p, spec, sup)
    reused = pkt_loss_and_grad(y, p, spec, sup, workspace=workspace)
    assert reused.value == fresh.value
    assert reused.grad_y.tobytes() == fresh.grad_y.tobytes()
    assert not any(np.shares_memory(reused.grad_y, buf) for buf in workspace)
    again = pkt_loss_and_grad(y, p, spec, sup, workspace=workspace)  # stale contents are overwritten
    assert again.value == fresh.value and again.grad_y.tobytes() == fresh.grad_y.tobytes()
    q = conditional_probabilities(y, spec)
    expected = kl_loss(p, q)
    if sup is not None:
        expected += weight * kl_loss(sup[0], q)
    if spec.family == "cosine":
        assert fresh.value == expected
    else:  # the log-domain value sums other terms; nothing is clamped here
        assert np.min(q[~np.eye(b, dtype=bool)]) > Q_FLOOR
        assert fresh.value == pytest.approx(expected, rel=1e-12)


def test_workspace_validation():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(5, 2))
    p = random_conditionals(rng, 5)
    good = [np.empty(25) for _ in range(LOSS_BUFFERS)]
    with pytest.raises(ValueError, match="needs 4 buffers"):
        pkt_loss_and_grad(y, p, cosine_kernel(), workspace=good[:3])
    with pytest.raises(ValueError, match="at least 25 entries"):
        pkt_loss_and_grad(y, p, cosine_kernel(), workspace=[np.empty(24)] + good[1:])
    with pytest.raises(ValueError, match="at least 25 entries"):
        pkt_loss_and_grad(y, p, cosine_kernel(), workspace=[np.empty(25, dtype=np.float32)] + good[1:])
    with pytest.raises(ValueError, match="share memory"):
        pkt_loss_and_grad(y, p, cosine_kernel(), workspace=[p.ravel()] + good[1:])


def dense_gaussian_reference(y, p, width, sup=None):
    """The Gaussian loss and gradient written out densely, with a max-shifted logsumexp down each column."""
    n = y.shape[0]
    off = ~np.eye(n, dtype=bool)
    diff = y[:, None, :] - y[None, :, :]  # diff[i, j] = y_i - y_j
    logits = -np.sum(diff * diff, axis=-1) / width
    logits[~off] = -np.inf
    top = logits.max(axis=0)
    log_q = logits - (top + np.log(np.sum(np.exp(logits - top), axis=0)))
    q = np.exp(log_q)
    parts = [(p, 1.0)] if sup is None else [(p, 1.0), sup]
    value, p_eff = 0.0, np.zeros((n, n))
    for t, weight in parts:
        m = off & (t > 0.0)
        value += weight * np.sum(t[m] * (np.log(t[m]) - log_q[m]))
        p_eff += weight * t
    # d value / d logit[r, c] = q[r, c] * (column c's target mass) - p_eff[r, c], and
    # d logit[r, c] / d y_i = -2 / width * (y_r - y_c) * ([i == r] - [i == c])
    g = np.where(off, q * np.sum(np.where(off, p_eff, 0.0), axis=0) - p_eff, 0.0)
    grad = -2.0 / width * (np.einsum("ic,icd->id", g, diff) + np.einsum("ri,ird->id", g, diff))
    return value, grad, q


def linear_gaussian_oracle(y, p, width, sup=None):
    """The Gaussian loss and gradient by the linear formulas: q = k / colsum, clamped at Q_FLOOR."""
    d2 = np.sum((y[:, None, :] - y[None, :, :]) ** 2, axis=-1)
    k = np.exp(-d2 / width)
    np.fill_diagonal(k, 0.0)
    colsums = k.sum(axis=0)
    q = k / colsums
    parts = [(p, 1.0)] if sup is None else [(p, 1.0), sup]
    value = sum(weight * kl_loss_oracle(t, q) for t, weight in parts)
    p_eff = sum(weight * t for t, weight in parts)
    off = ~np.eye(y.shape[0], dtype=bool)
    active = off & (p_eff > 0.0) & (q > Q_FLOOR)
    dq = np.zeros_like(q)
    dq[active] = -p_eff[active] / q[active]
    dk = (dq - np.sum(dq * q, axis=0)) / colsums
    np.fill_diagonal(dk, 0.0)
    wk = (dk + dk.T) * k
    grad = -2.0 / width * (wk.sum(axis=1)[:, None] * y - wk @ y)
    return value, grad


@pytest.mark.parametrize("width", [0.05, 0.2, 1.0, 8.0])
@pytest.mark.parametrize("supervised", [False, True], ids=["plain", "sup"])
def test_gaussian_value_and_gradient_match_dense_references(width, supervised):
    rng = np.random.default_rng(int(width * 100) + supervised)
    compared_linear = 0
    for _ in range(6):
        n = int(rng.integers(3, 40))
        y = rng.normal(size=(n, int(rng.integers(1, 6))))
        p = random_conditionals(rng, n)
        sup = (supervised_targets(rng.integers(0, 3, size=n) if n > 3 else [0, 0, 1]), 0.4) if supervised else None
        report = pkt_loss_and_grad(y, p, gaussian_kernel(width), sup)
        value, grad, q = dense_gaussian_reference(y, p, width, sup)
        assert report.value == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(report.grad_y - grad)) <= 1e-12 * np.max(np.abs(grad))
        if np.min(q[~np.eye(n, dtype=bool)]) > Q_FLOOR:  # the linear formulas clamp nothing
            compared_linear += 1
            value, grad = linear_gaussian_oracle(y, p, width, sup)
            assert report.value == pytest.approx(value, rel=1e-12)
            assert np.max(np.abs(report.grad_y - grad)) <= 1e-12 * np.max(np.abs(grad))
    if width >= 1.0:
        assert compared_linear > 0
