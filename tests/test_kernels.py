import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkt import (
    COSINE,
    GAUSSIAN,
    KernelSpec,
    cosine_kernel,
    gaussian_kernel,
    kernel_matrix,
)
from pkt.kernels import AUGMENTED_MAX_DIM, TILE, _kernel_of_gram, _logits_of_rows
from test_qmi import kernel_eval

SQ2 = np.sqrt(2.0) / 2.0


def test_cosine_hand_values():
    # orthogonal pair sits at the neutral midpoint
    assert kernel_eval([1.0, 0.0], [0.0, 1.0], cosine_kernel()) == pytest.approx(0.5, abs=1e-12)
    # 45-degree pair: (cos(pi/4) + 1) / 2
    k = kernel_eval([1.0, 0.0], [SQ2, SQ2], cosine_kernel())
    assert k == pytest.approx(0.853553390593, abs=1e-11)
    # identical and opposite directions hit the bounds exactly
    assert kernel_eval([2.0, 1.0], [2.0, 1.0], cosine_kernel()) == pytest.approx(1.0, abs=1e-12)
    assert kernel_eval([1.0, 0.0], [-3.0, 0.0], cosine_kernel()) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_hand_values():
    # squared distance equal to the width gives exp(-1)
    assert kernel_eval([0.0, 0.0], [1.0, 0.0], gaussian_kernel(1.0)) == pytest.approx(
        0.367879441171, abs=1e-11
    )
    # width is the full denominator, no hidden squaring: d^2 = 4, width = 4
    assert kernel_eval([0.0, 0.0], [2.0, 0.0], gaussian_kernel(4.0)) == pytest.approx(
        0.367879441171, abs=1e-11
    )
    assert kernel_eval([1.5, -2.0], [1.5, -2.0], gaussian_kernel(2.0)) == 1.0


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0), gaussian_kernel(0.5)])
def test_matrix_matches_pairwise_eval(spec):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=(7, 4))
        k = kernel_matrix(x, spec)
        for i in range(7):
            for j in range(7):
                assert k[i, j] == pytest.approx(kernel_eval(x[i], x[j], spec), abs=1e-12)


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(3.0)])
def test_matrix_exactly_symmetric_and_bounded(spec):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(2, 15), rng.integers(1, 6)))
        k = kernel_matrix(x, spec)
        assert np.array_equal(k, k.T)
        assert np.all(k >= 0.0) and np.all(k <= 1.0)
        assert np.allclose(np.diag(k), 1.0, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(x=hnp.arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
       spec=st.one_of(st.just(cosine_kernel()), st.floats(1e-3, 1e3).map(gaussian_kernel)))
def test_matrix_bitwise_symmetric_and_in_unit_interval_on_drawn_rows(x, spec):
    k = kernel_matrix(x, spec)
    assert k.tobytes() == np.ascontiguousarray(k.T).tobytes()
    assert np.all(k >= 0.0) and np.all(k <= 1.0)


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(8.0)])
@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 3])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_matrix_across_tile_boundaries(spec, n, layout):
    rng = np.random.default_rng(n)
    wide = rng.normal(size=(n, 10))
    x = {"C": wide[:, :5].copy(), "F": np.asfortranarray(wide[:, :5]), "strided": wide[:, ::2]}[layout]
    k = kernel_matrix(x, spec)
    assert k.tobytes() == np.ascontiguousarray(k.T).tobytes()
    assert np.all(k >= 0.0) and np.all(k <= 1.0)
    edges = [(i, j) for i in (0, TILE - 1, TILE, n - 1) for j in (0, TILE - 1, TILE, n - 1) if max(i, j) < n]
    for i, j in [*edges, *rng.integers(0, n, size=(300, 2))]:
        assert abs(k[i, j] - kernel_eval(x[i], x[j], spec)) <= 1e-15


@pytest.mark.parametrize("width", [0.05, 8.0, 1e3])
@pytest.mark.parametrize("n", [TILE + 3, 2 * TILE + 50])
@pytest.mark.parametrize("dim", [16, AUGMENTED_MAX_DIM, AUGMENTED_MAX_DIM + 1])
def test_logits_of_rows_are_the_clipped_distances_over_the_width_to_rounding(width, n, dim):
    rng = np.random.default_rng(n)
    x = 3.0 * rng.normal(size=(n, dim))
    stats = np.einsum("ij,ij->i", x, x)
    logits, again = np.full((2, n, n), np.nan)
    for full, buf in [(logits, np.full(n * TILE, np.nan)), (again, np.empty(n * TILE))]:
        for cs, block in _logits_of_rows(x, stats, width, buf, np.empty(n * TILE)):
            assert np.shares_memory(block, buf) and block.shape == (n, cs.stop - cs.start)
            full[:, cs] = block
            if dim > AUGMENTED_MAX_DIM:  # the Gram side is the one formula of the same product, bit for bit
                expected = -np.clip(stats[:, None] + stats[None, cs] - 2.0 * (x @ x[cs].T), 0.0, None) / width
                assert block.tobytes() == expected.tobytes()
    assert logits.tobytes() == again.tobytes()
    d2 = np.array([np.sum((x - row) ** 2, axis=1) for row in x])
    # both the product of augmented rows and the Gram product of wider rows
    # cancel s_i + s_j against 2 x_i . x_j, so an entry is off by a few
    # units in the last place of (s_i + s_j) / width
    bound = 1e-14 * (stats[:, None] + stats[None, :]) / width
    assert np.all(np.abs(logits - (-np.clip(d2, 0.0, None) / width)) <= bound)
    assert np.all(logits <= 0.0)
    assert np.all(np.abs(logits - logits.T) <= bound)  # symmetric to rounding, not bit for bit


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(8.0)])
def test_matrix_allocates_less_than_one_matrix_besides_its_result(spec):
    n = 4 * TILE
    x = np.random.default_rng(0).normal(size=(n, 5))
    tracemalloc.start()
    try:
        k = kernel_matrix(x, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k.shape == (n, n)
    assert peak < 2 * k.nbytes


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 6))
    base = kernel_matrix(x, cosine_kernel())
    for factor in (3.0, 0.001, 1e6):
        scaled = kernel_matrix(x * factor, cosine_kernel())
        assert np.max(np.abs(scaled - base)) <= 1e-12


def test_zero_vector_is_neutral():
    spec = cosine_kernel()
    assert kernel_eval([0.0, 0.0], [1.0, 2.0], spec) == pytest.approx(0.5, abs=1e-12)
    assert kernel_eval([0.0, 0.0], [0.0, 0.0], spec) == pytest.approx(0.5, abs=1e-12)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    k = kernel_matrix(x, spec)
    assert k[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert k[0, 2] == pytest.approx(0.5, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle")
    with pytest.raises(ValueError):
        KernelSpec(GAUSSIAN)
    with pytest.raises(ValueError):
        gaussian_kernel(-1.0)
    with pytest.raises(ValueError):
        gaussian_kernel(float("nan"))
    assert KernelSpec(COSINE).width is None


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval([1.0, 2.0], [1.0, 2.0, 3.0], cosine_kernel())
    with pytest.raises(ValueError):
        kernel_matrix(np.zeros(4), cosine_kernel())


def kernel_of_gram_oracle(g, stats_a, stats_b, spec):
    """The kernel core as one expression per family, each step a new array."""
    if spec.family == COSINE:
        return (np.clip(g, -1.0, 1.0) + 1.0) / 2.0
    d2 = np.clip(stats_a[:, None] + stats_b[None, :] - 2.0 * g, 0.0, None)
    return np.exp(-d2 / spec.width)


EDGE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308,
                     np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 6),
       spec=st.one_of(st.just(cosine_kernel()),
                      st.sampled_from([5e-324, 1e-300, 1.0, 1e300]).map(gaussian_kernel),
                      st.floats(1e-3, 1e3).map(gaussian_kernel)))
def test_in_place_kernel_core_matches_the_expression_bit_for_bit(data, m, n, spec):
    g = data.draw(hnp.arrays(float, (m, n), elements=EDGE_DOUBLES))
    stats_a = data.draw(hnp.arrays(float, m, elements=EDGE_DOUBLES))
    stats_b = data.draw(hnp.arrays(float, n, elements=EDGE_DOUBLES))
    with np.errstate(all="ignore"):
        expected = kernel_of_gram_oracle(g, stats_a, stats_b, spec).tobytes()
        assert _kernel_of_gram(g.copy(), stats_a, stats_b, spec).tobytes() == expected
        out = np.full((m, n), 7.0)
        assert _kernel_of_gram(g.copy(), stats_a, stats_b, spec, out=out) is out
        assert out.tobytes() == expected
