import numpy as np
import pytest

from pkt import check_instance, max_relative_error, run_battery
from pkt.gradcheck import finite_difference, random_conditionals
from pkt import cosine_kernel, gaussian_kernel
from pkt.kernels import TILE


def test_finite_difference_on_quadratic():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    fd = finite_difference(lambda y: float(np.sum(a * y * y)), np.ones((2, 2)))
    assert fd == pytest.approx(2.0 * a, abs=1e-8)


def test_max_relative_error_scales():
    x = np.array([[1.0, 2.0]])
    assert max_relative_error(x, x) == 0.0
    assert max_relative_error(x, 1.01 * x) == pytest.approx(0.01, rel=1e-2)
    # a coordinate tiny against the gradient scale is judged absolutely
    a = np.array([[1.0, 1e-15]])
    b = np.array([[1.0, 3e-15]])
    assert max_relative_error(a, b) < 1e-10


def test_random_conditionals_are_valid():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_conditionals(rng, int(rng.integers(3, 9)))
        assert p.sum(axis=0) == pytest.approx(np.ones(p.shape[0]))
        assert np.all(np.diag(p) == 0.0)
        assert np.all(p >= 0.0)


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(1.5)])
def test_check_instance_passes(spec):
    for n, dim in [(6, 3), (TILE + 5, 2)]:  # the second has off-diagonal tiles
        rng = np.random.default_rng(2)
        assert check_instance(n, dim, spec, rng) < 1e-4


def test_corrupt_hook_trips_the_check(sign_flipped_gradient):
    rng = np.random.default_rng(2)
    assert check_instance(6, 3, cosine_kernel(), rng) >= 1e-4


def test_battery_deterministic():
    a = run_battery(seed=7, instances=4)
    b = run_battery(seed=7, instances=4)
    assert a == b
    assert a < 1e-4
