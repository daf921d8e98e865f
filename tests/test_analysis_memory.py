"""Memory guards for corpus-scale analysis: no call holds an N x N matrix.

At N = 3000 one N x N float64 matrix is 72 MB; each traced peak must stay
below a quarter of that.  Reading a feature file holds little more than
the array it returns, not a Python float per value.
"""

import tracemalloc

import numpy as np
import pytest

from pkt import (
    RetrievalIndex,
    cosine_kernel,
    evaluate,
    gaussian_kernel,
    information_potentials,
    potential_equality_check,
    read_features,
    write_features,
)

N = 3000
BOUND = N * N * 8 / 4

rng = np.random.default_rng(97)
FEATS = rng.normal(size=(N, 16))
LABELS = rng.integers(0, 10, size=N)
QUERIES = rng.normal(size=(500, 16))
QUERY_LABELS = rng.integers(0, 10, size=500)
ONE_PER_ROW = rng.permutation(N)  # N classes: no per-class term may grow to N x N

CALLS = {
    "qmi_cosine": lambda: information_potentials(FEATS, LABELS, cosine_kernel()),
    "qmi_gaussian": lambda: information_potentials(FEATS, LABELS, gaussian_kernel(8.0)),
    "qmi_cosine_n_classes": lambda: information_potentials(FEATS, ONE_PER_ROW, cosine_kernel()),
    "qmi_gaussian_n_classes": lambda: information_potentials(FEATS, ONE_PER_ROW, gaussian_kernel(8.0)),
    "equality_check": lambda: potential_equality_check(FEATS, 2.0 * FEATS, gaussian_kernel(8.0),
                                                       gaussian_kernel(32.0), tol=1e-9),
    "evaluate": lambda: evaluate(RetrievalIndex(FEATS, LABELS), QUERIES, QUERY_LABELS, [10]),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_analysis_holds_no_n_by_n_matrix(name):
    tracemalloc.start()
    try:
        CALLS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BOUND


def test_feature_read_holds_about_one_copy_of_the_array(tmp_path):
    path = tmp_path / "f.txt"
    write_features(path, rng.normal(size=(2000, 256)))
    tracemalloc.start()
    try:
        data = read_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * data.nbytes
