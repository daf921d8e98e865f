import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkt import (
    cosine_kernel,
    conditional_probabilities,
    gaussian_kernel,
    kernel_matrix,
    kl_loss,
    pkt_loss_and_grad,
)
from pkt.divergence import Q_FLOOR, _label_classes, _supervised_into
from pkt.gradcheck import finite_difference, max_relative_error, random_conditionals
from pkt.kernels import TILE, _column_blocks


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
    targets = supervised_targets_oracle([0, 0, 1])
    q = random_conditionals(np.random.default_rng(0), 3)
    assert np.isfinite(kl_loss(targets, q))


def test_kl_shape_validation():
    with pytest.raises(ValueError):
        kl_loss(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kl_loss(np.zeros((3, 3)), np.zeros((2, 2)))


def test_grad_zero_at_optimum():
    # feed the teacher's own embedding through the same kernel: the KL
    # sits at its global minimum, so both the value and gradient vanish
    rng = np.random.default_rng(13)
    y = rng.normal(size=(8, 4))
    p = conditional_probabilities(y, cosine_kernel())
    report = pkt_loss_and_grad(y, p, cosine_kernel())
    assert abs(report.value) <= 1e-9
    assert np.max(np.abs(report.grad_y)) <= 1e-7


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0), gaussian_kernel(0.7),
                                  gaussian_kernel(0.2), gaussian_kernel(0.05)])
def test_grad_matches_finite_differences(spec):
    # at widths 0.2 and 0.05 most student conditionals are far below Q_FLOOR
    rng = np.random.default_rng(41)
    for trial in range(4):
        n = int(rng.integers(4, 10))
        y = rng.normal(size=(n, int(rng.integers(2, 6))))
        p = random_conditionals(rng, n)
        sup = (np.arange(n) % 3, 0.5) if trial == 3 else None
        analytic = pkt_loss_and_grad(y, p, spec, sup).grad_y
        numeric = finite_difference(lambda yy: pkt_loss_and_grad(yy, p, spec, sup).value, y)
        assert max_relative_error(analytic, numeric) < 1e-4


def test_sup_weight_zero_equals_unsupervised():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(6, 3))
    p = random_conditionals(rng, 6)
    plain = pkt_loss_and_grad(y, p, cosine_kernel())
    zeroed = pkt_loss_and_grad(y, p, cosine_kernel(), sup=([0, 0, 1, 1, 2, 2], 0.0))
    assert zeroed.value == plain.value
    assert np.array_equal(zeroed.grad_y, plain.grad_y)


def test_sup_term_adds_weighted_kl_and_correct_grad():
    rng = np.random.default_rng(7)
    y = rng.normal(size=(6, 3))
    p = random_conditionals(rng, 6)
    labels = [0, 0, 1, 1, 2, 2]
    weight = 0.01
    q = conditional_probabilities(y, cosine_kernel())
    combined = pkt_loss_and_grad(y, p, cosine_kernel(), sup=(labels, weight))
    targets = supervised_targets_oracle(labels)
    assert combined.value == pytest.approx(kl_loss(p, q) + weight * kl_loss(targets, q), abs=1e-12)
    numeric = finite_difference(
        lambda yy: pkt_loss_and_grad(yy, p, cosine_kernel(), sup=(labels, weight)).value, y
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
                          sup=(np.zeros(4), 0.1))
    with pytest.raises(ValueError):
        pkt_loss_and_grad(y, random_conditionals(rng, 5), cosine_kernel(),
                          sup=(np.zeros(5), -0.5))


    with pytest.raises(ValueError, match=r"^supervised labels of shape \(5, 5\) are not one label per row of 5$"):
        pkt_loss_and_grad(y, random_conditionals(rng, 5), cosine_kernel(),
                          sup=(supervised_targets_oracle([0, 0, 1, 1, 2]), 0.1))


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)], ids=["cosine", "gaussian"])
def test_distinct_labels_add_nothing(spec):
    # no sample has a same-class partner: the supervised term is zero, bit for bit
    rng = np.random.default_rng(23)
    y = rng.normal(size=(9, 3))
    p = random_conditionals(rng, 9)
    plain = pkt_loss_and_grad(y, p, spec)
    distinct = pkt_loss_and_grad(y, p, spec, sup=(rng.permutation(9), 0.7))
    assert distinct.value == plain.value
    assert distinct.grad_y.tobytes() == plain.grad_y.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(3, 14), gaussian=st.booleans(), width=st.floats(0.05, 8.0),
       weight=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_value_matches_the_dense_kl_for_drawn_labels(data, n, gaussian, width, weight, seed):
    # few classes give singletons and shared classes; a permutation gives all-distinct labels
    labels = data.draw(st.one_of(hnp.arrays(np.int64, n, elements=st.integers(0, 3)),
                                 st.permutations(range(n)).map(np.array)))
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, int(rng.integers(2, 6))))
    p = random_conditionals(rng, n)
    np.fill_diagonal(p, rng.uniform(0.0, 1.0, size=n))  # every sum skips the diagonal
    spec = gaussian_kernel(width) if gaussian else cosine_kernel()
    value = pkt_loss_and_grad(y, p, spec, sup=(labels, weight)).value
    targets = supervised_targets_oracle(labels)
    q = conditional_probabilities(y, spec)
    if not gaussian or np.min(q[~np.eye(n, dtype=bool)]) > Q_FLOOR:
        expected = kl_loss(p, q) + weight * kl_loss(targets, q)
    else:  # kl_loss would clamp the small conditionals, which the Gaussian value takes exactly
        expected = dense_gaussian_reference(y, p, width, (targets, weight))[0]
    assert value == pytest.approx(expected, rel=1e-12)


def kl_loss_oracle(p, q):
    """kl_loss as one boolean-gather expression."""
    qc = np.clip(q, Q_FLOOR, 1.0)
    mask = p > 0.0
    np.fill_diagonal(mask, False)
    return float(np.sum(p[mask] * np.log(p[mask] / qc[mask])))


def supervised_targets_oracle(labels):
    """Label-derived targets, uniform over same-class partners, written column by column; a slot without partners is a zero column."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    counts = same.sum(axis=0)
    cols = np.where(counts > 0)[0]
    targets = np.zeros(same.shape)
    targets[:, cols] = same[:, cols] / counts[cols]
    return targets


def supervised_into_oracle(p, labels, weight):
    """The divide-based ``p + weight * t`` and ``sum t log t`` that ``_supervised_into`` must reproduce bit for bit."""
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    counts = same.sum(axis=0)
    p_eff = np.divide(same, np.maximum(counts, 1))
    p_eff *= weight
    p_eff += p
    return p_eff, float(np.log(1.0 / counts[counts > 0]).sum())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 2 * TILE + 3), weight=st.floats(5e-324, 1e3), seed=st.integers(0, 2**32 - 1))
def test_supervised_targets_match_the_divide_based_oracle_bit_for_bit(data, n, weight, seed):
    # the targets are added one block of conditioning columns at a time,
    # over the class rectangles of labels sorted by class
    labels = np.sort(data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5))))
    p = random_conditionals(np.random.default_rng(seed), n)
    bounds, sum_t_log_t = _label_classes(labels)
    p_eff = np.full((n, n), np.nan)
    for cs in _column_blocks(n):
        p_eff[:, cs] = _supervised_into(p[:, cs].copy(), cs, bounds, weight)
    expected, expected_sum = supervised_into_oracle(p, labels, weight)
    assert p_eff.tobytes() == expected.tobytes()
    assert sum_t_log_t.hex() == expected_sum.hex()


@pytest.mark.parametrize("width", [0.5, 8.0])
def test_gaussian_loss_of_a_batch_wider_than_a_tile_matches_the_dense_reference(width):
    # 300 rows, 16 dimensions and 10 classes: the logits, the supervised
    # targets and the gradient span more than one 128-row kernel tile
    rng = np.random.default_rng(300)
    n = 300
    y = rng.normal(size=(n, 16))
    p = random_conditionals(rng, n)
    labels = rng.integers(0, 10, size=n)
    report = pkt_loss_and_grad(y, p, gaussian_kernel(width), (labels, 0.5))
    value, grad, _ = dense_gaussian_reference(y, p, width, (supervised_targets_oracle(labels), 0.5))
    assert report.value == pytest.approx(value, rel=1e-12)
    assert np.max(np.abs(report.grad_y - grad)) <= 1e-12 * np.max(np.abs(grad))


@pytest.mark.parametrize("supervised", [False, True], ids=["plain", "sup"])
def test_cosine_loss_of_a_batch_wider_than_a_tile_matches_the_dense_reference(supervised):
    # 300 rows span three 128-row kernel tiles, so the gradient's two
    # conditioning slots of a pair come from different tiles
    rng = np.random.default_rng(301)
    n = 300
    y = rng.normal(size=(n, 16))
    p = random_conditionals(rng, n)
    labels = rng.integers(0, 10, size=n)
    report = pkt_loss_and_grad(y, p, cosine_kernel(), (labels, 0.5) if supervised else None)
    value, grad = dense_cosine_reference(y, p, (supervised_targets_oracle(labels), 0.5) if supervised else None)
    assert report.value == pytest.approx(value, rel=1e-12)
    assert np.max(np.abs(report.grad_y - grad)) <= 1e-12 * np.max(np.abs(grad))


SPECS = st.one_of(st.just(cosine_kernel()), st.floats(0.05, 8.0).map(gaussian_kernel))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 2 * TILE + 3), dim=st.integers(2, 5), spec=SPECS, supervised=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_loss_and_gradient_are_equivariant_under_a_permutation_of_the_rows(n, dim, spec, supervised, seed):
    # one permutation of y's rows, p's rows and columns and the labels: a
    # supervised batch is taken in label order, stable within each class,
    # so the two runs add up their blocks in different orders
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, dim))
    p = random_conditionals(rng, n)
    labels = rng.integers(0, 5, size=n)
    perm = rng.permutation(n)
    sup, permuted_sup = ((labels, 0.5), (labels[perm], 0.5)) if supervised else (None, None)
    report = pkt_loss_and_grad(y, p, spec, sup)
    permuted = pkt_loss_and_grad(y[perm], p[np.ix_(perm, perm)], spec, permuted_sup)
    bound = 1e-12
    if spec.family == "cosine":  # a kernel k near 0 carries a relative error near 1e-16 / k; see test_small_tiles
        k = kernel_matrix(y, spec)
        bound /= np.min(k[~np.eye(n, dtype=bool)])
    assert permuted.value == pytest.approx(report.value, rel=1e-12)
    assert np.max(np.abs(permuted.grad_y - report.grad_y[perm])) <= bound * np.max(np.abs(report.grad_y))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 2 * TILE + 3), dim=st.integers(1, 5), width=st.floats(0.05, 8.0), supervised=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_gaussian_gradient_sums_to_zero_over_the_rows(n, dim, width, supervised, seed):
    # the loss depends on y only through its squared distances, so moving
    # every row by one vector leaves it unchanged; a coupling made of the
    # wrong sums of a breaks this
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, dim))
    p = random_conditionals(rng, n)
    sup = (rng.integers(0, 5, size=n), 0.5) if supervised else None
    grad = pkt_loss_and_grad(y, p, gaussian_kernel(width), sup).grad_y
    assert np.all(np.abs(grad.sum(axis=0)) <= 1e-12 * np.abs(grad).sum(axis=0))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_kl_loss_matches_the_gather_expression_bit_for_bit(data, n):
    entries = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1.0))
    p = data.draw(hnp.arrays(float, (n, n), elements=entries))
    q = data.draw(hnp.arrays(float, (n, n), elements=entries))
    assert kl_loss(p, q).hex() == kl_loss_oracle(p, q).hex()


@pytest.mark.parametrize("n", [128, 300])
def test_kl_loss_of_sparse_conditionals_matches_the_oracle_bit_for_bit(n):
    rng = np.random.default_rng(n)
    p = random_conditionals(rng, n)
    p[rng.random((n, n)) < 0.3] = 0.0
    q = random_conditionals(rng, n)
    assert kl_loss(p, q).hex() == kl_loss_oracle(p, q).hex()


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


def dense_cosine_reference(y, p, sup=None):
    """The cosine loss and gradient written out densely, with ``w = a + a.T`` built and each pair's derivative expanded."""
    n = y.shape[0]
    off = ~np.eye(n, dtype=bool)
    norms = np.linalg.norm(y, axis=1)
    u = y / norms[:, None]
    cos = np.clip(u @ u.T, -1.0, 1.0)
    k = np.where(off, (cos + 1.0) / 2.0, 0.0)
    colsums = k.sum(axis=0)
    q = k / colsums
    parts = [(p, 1.0)] if sup is None else [(p, 1.0), sup]
    value = sum(weight * kl_loss_oracle(t, q) for t, weight in parts)
    p_eff = sum(weight * t for t, weight in parts)
    active = off & (p_eff > 0.0) & (q > Q_FLOOR)
    dq = np.zeros_like(q)
    dq[active] = -p_eff[active] / q[active]
    a = np.where(off, (dq - np.sum(dq * q, axis=0)) / colsums, 0.0)
    w = a + a.T
    # d k[m, j] / d y_m = (u_j - cos[m, j] * u_m) / (2 |y_m|)
    dk = (u[None, :, :] - cos[:, :, None] * u[:, None, :]) / (2.0 * norms[:, None, None])
    return value, np.einsum("mj,mjd->md", w, dk)


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
        labels = (rng.integers(0, 3, size=n) if n > 3 else [0, 0, 1]) if supervised else None
        report = pkt_loss_and_grad(y, p, gaussian_kernel(width), None if labels is None else (labels, 0.4))
        sup = None if labels is None else (supervised_targets_oracle(labels), 0.4)
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
