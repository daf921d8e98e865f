import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkt import (
    COSINE,
    cosine_kernel,
    gaussian_kernel,
    information_potentials,
    kernel_matrix,
    potential_equality_check,
)
from pkt import qmi
from pkt.kernels import NORM_EPS
from pkt.qmi import BLOCK, TILE


def kernel_eval(a, b, spec):
    """The kernel of one pair of vectors, the pairwise oracle for every kernel sum.

    Symmetric by construction (commutative reductions only), with the
    result in [0, 1].  Raises ValueError on dimension mismatch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"vectors must share one dimension, got {a.shape} and {b.shape}")
    if spec.family == COSINE:
        norms = max(float(np.linalg.norm(a)), NORM_EPS) * max(float(np.linalg.norm(b)), NORM_EPS)
        cos = min(1.0, max(-1.0, float(np.dot(a, b)) / norms))
        return 0.5 * (cos + 1.0)
    d2 = float(np.sum((a - b) ** 2))
    return float(np.exp(-d2 / spec.width))


def naive_potentials(feats, labels, spec):
    """Straight transcription of the potential sums with explicit loops.

    Every pair (self-pairs included) goes through kernel_eval once;
    accumulation uses math.fsum so the reference value carries no
    summation-order noise of its own.
    """
    n = len(labels)
    classes = sorted(set(int(l) for l in labels))
    v_in = math.fsum(
        kernel_eval(feats[k], feats[l], spec)
        for p in classes
        for k in range(n) if labels[k] == p
        for l in range(n) if labels[l] == p
    ) / (n * n)
    total = math.fsum(
        kernel_eval(feats[i], feats[j], spec) for i in range(n) for j in range(n)
    )
    prior_sq = math.fsum((np.sum(labels == p) / n) ** 2 for p in classes)
    v_all = prior_sq * total / (n * n)
    v_btw = math.fsum(
        (np.sum(labels == p) / n) * kernel_eval(feats[j], feats[k], spec)
        for p in classes
        for j in range(n) if labels[j] == p
        for k in range(n)
    ) / (n * n)
    return v_in, v_all, v_btw


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)])
def test_matches_naive_loops(spec):
    rng = np.random.default_rng(23)
    for _ in range(4):
        n = int(rng.integers(4, 25))
        feats = rng.normal(size=(n, int(rng.integers(2, 6))))
        labels = rng.integers(0, 3, size=n)
        pots = information_potentials(feats, labels, spec)
        v_in, v_all, v_btw = naive_potentials(feats, labels, spec)
        assert abs(pots.v_in - v_in) <= 1e-12
        assert abs(pots.v_all - v_all) <= 1e-12
        assert abs(pots.v_btw - v_btw) <= 1e-12
        assert pots.qmi == pytest.approx(v_in + v_all - 2.0 * v_btw, abs=1e-12)


@pytest.mark.parametrize("dim", range(1, 10))
def test_gaussian_potentials_match_naive_loops_at_every_row_width(dim):
    # the Gaussian sums work on rows of dim + 2 columns; some numpy ufunc
    # loops (np.negative in numpy 2.4) miscompute a column of 8-wide rows
    rng = np.random.default_rng(dim)
    feats = rng.normal(size=(13, dim))
    labels = rng.integers(0, 3, size=13)
    spec = gaussian_kernel(2.0)
    pots = information_potentials(feats, labels, spec)
    for got, want in zip((pots.v_in, pots.v_all, pots.v_btw), naive_potentials(feats, labels, spec)):
        assert abs(got - want) <= 1e-12


def test_single_class_qmi_is_zero():
    rng = np.random.default_rng(31)
    for _ in range(5):
        feats = rng.normal(size=(int(rng.integers(2, 15)), 4))
        pots = information_potentials(feats, np.zeros(feats.shape[0], dtype=int), cosine_kernel())
        assert abs(pots.qmi) <= 1e-12
        assert pots.v_in == pytest.approx(pots.v_all, abs=1e-12)
        assert pots.v_in == pytest.approx(pots.v_btw, abs=1e-12)


def test_potentials_positive_and_bounded():
    rng = np.random.default_rng(37)
    feats = rng.normal(size=(12, 3))
    labels = rng.integers(0, 4, size=12)
    pots = information_potentials(feats, labels, gaussian_kernel(1.0))
    for value in (pots.v_in, pots.v_all, pots.v_btw):
        assert 0.0 < value <= 1.0


def test_equality_check_on_copy():
    rng = np.random.default_rng(43)
    teacher = rng.normal(size=(15, 6))
    report = potential_equality_check(teacher, teacher.copy(),
                                      cosine_kernel(), cosine_kernel(), tol=1e-12)
    assert report.max_deviation == 0.0
    assert report.within_tol


def test_equality_check_scale_invariant_rows():
    rng = np.random.default_rng(47)
    teacher = rng.normal(size=(15, 6))
    report = potential_equality_check(teacher, teacher * 3.0,
                                      cosine_kernel(), cosine_kernel(), tol=1e-12)
    assert report.within_tol
    labels = rng.integers(0, 3, size=15)
    a = information_potentials(teacher, labels, cosine_kernel())
    b = information_potentials(teacher * 3.0, labels, cosine_kernel())
    assert abs(a.v_in - b.v_in) <= 1e-12
    assert abs(a.v_all - b.v_all) <= 1e-12
    assert abs(a.v_btw - b.v_btw) <= 1e-12
    assert abs(a.qmi - b.qmi) <= 1e-12


def test_equality_check_detects_mismatch():
    rng = np.random.default_rng(53)
    teacher = rng.normal(size=(10, 4))
    student = teacher + 0.1 * rng.normal(size=teacher.shape)
    report = potential_equality_check(teacher, student,
                                      cosine_kernel(), cosine_kernel(), tol=1e-12)
    assert not report.within_tol
    assert report.max_deviation > 1e-4


def test_input_validation():
    feats = np.zeros((5, 2))
    with pytest.raises(ValueError):
        information_potentials(feats, [0, 1, 0], cosine_kernel())
    with pytest.raises(ValueError):
        information_potentials(np.zeros((1, 2)), [0], cosine_kernel())
    with pytest.raises(ValueError):
        potential_equality_check(np.zeros((4, 2)), np.zeros((5, 2)),
                                 cosine_kernel(), cosine_kernel(), tol=1e-9)


BOUNDARY_SIZES = {"2": lambda b: 2, "B-1": lambda b: b - 1, "B": lambda b: b,
                  "B+1": lambda b: b + 1, "2B+3": lambda b: 2 * b + 3}


@pytest.mark.parametrize("block", [8, BLOCK])
@pytest.mark.parametrize("size", list(BOUNDARY_SIZES))
def test_blocked_sums_across_block_boundaries(block, size, monkeypatch):
    # the loop oracle is too slow for sizes around the real BLOCK, so the
    # potentials are checked against it with small 8 x 16 tiles in force
    n = BOUNDARY_SIZES[size](block)
    monkeypatch.setattr(qmi, "BLOCK", block)
    monkeypatch.setattr(qmi, "TILE", 2 * block if block < BLOCK else TILE)
    rng = np.random.default_rng(n)
    feats = rng.normal(size=(n, 3))
    layouts = {
        "random": rng.integers(0, 3, size=n),
        "one class over several tiles": (np.arange(n) % 5 == 2).astype(int),
        "one class per row": n - np.arange(n),  # in reverse, so sorting by class moves every row
        "single class": np.zeros(n, dtype=int),
    }
    if block < BLOCK:
        for labels in layouts.values():
            for spec in (cosine_kernel(), gaussian_kernel(2.0)):
                pots = information_potentials(feats, labels, spec)
                for got, want in zip((pots.v_in, pots.v_all, pots.v_btw), naive_potentials(feats, labels, spec)):
                    assert abs(got - want) <= 1e-12

    student = feats + 0.05 * rng.normal(size=feats.shape)
    for spec_t, spec_s in [(cosine_kernel(), cosine_kernel()), (gaussian_kernel(2.0), cosine_kernel())]:
        dense = np.abs(kernel_matrix(feats, spec_t) - kernel_matrix(student, spec_s)).max()
        report = potential_equality_check(feats, student, spec_t, spec_s, tol=1e-9)
        assert abs(report.max_deviation - dense) <= 1e-15
        assert potential_equality_check(feats, feats.copy(), spec_t, spec_t, tol=0.0).max_deviation == 0.0


def test_equality_check_propagates_nan():
    feats = np.random.default_rng(5).normal(size=(BLOCK + 5, 3))
    broken = feats.copy()
    broken[BLOCK + 2, 1] = np.nan
    report = potential_equality_check(feats, broken, cosine_kernel(), cosine_kernel(), tol=1.0)
    assert math.isnan(report.max_deviation)
    assert not report.within_tol


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)], ids=["cosine", "gaussian"])
@pytest.mark.parametrize("row", [0, BLOCK + 2])
def test_one_nan_feature_makes_every_potential_nan(spec, row):
    feats = np.random.default_rng(7).normal(size=(TILE + 40, 3))
    feats[row, 1] = np.nan
    labels = np.arange(TILE + 40) % 4
    pots = information_potentials(feats, labels, spec)
    assert all(math.isnan(getattr(pots, field)) for field in ("v_in", "v_all", "v_btw", "qmi"))


def test_gaussian_potentials_raise_when_the_logits_of_finite_features_overflow():
    # squared distances of about 8 divided by 1e-310 overflow; kernel_matrix
    # stays finite there, but the potentials' augmented rows do not
    feats = np.random.default_rng(3).normal(size=(40, 4))
    labels = np.arange(40) % 3
    spec = gaussian_kernel(1e-310)
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(kernel_matrix(feats, spec)))
        with pytest.raises(ValueError, match="^Gaussian logits overflow"):
            information_potentials(feats, labels, spec)
    feats[5, 1] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        pots = information_potentials(feats, labels, spec)
    assert all(math.isnan(getattr(pots, field)) for field in ("v_in", "v_all", "v_btw", "qmi"))


def _labelled_sample(seed, n, classes):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.integers(0, classes, size=n), rng


SPECS = st.sampled_from([cosine_kernel(), gaussian_kernel(0.5), gaussian_kernel(4.0)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 2 * BLOCK + 3), classes=st.integers(1, 6), spec=SPECS)
def test_potentials_invariant_under_row_permutation_and_label_renaming(seed, n, classes, spec):
    feats, labels, rng = _labelled_sample(seed, n, classes)
    perm = rng.permutation(n)
    renamed = (7 - 3 * labels)[perm]  # an injective relabelling, in a new row order
    a = information_potentials(feats, labels, spec)
    b = information_potentials(feats[perm], renamed, spec)
    for field in ("v_in", "v_all", "v_btw", "qmi"):
        assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 2 * BLOCK + 3), spec=SPECS)
def test_single_class_qmi_is_zero_for_both_families(seed, n, spec):
    feats, _, _ = _labelled_sample(seed, n, 1)
    pots = information_potentials(feats, np.full(n, 3), spec)
    assert abs(pots.qmi) <= 1e-12
