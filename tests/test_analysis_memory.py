"""Memory guards for corpus-scale analysis: no call holds an N x N matrix.

At N = 3000 one N x N float64 matrix is 72 MB; each traced peak must stay
below a quarter of that.  The equality check holds only its prepared
rows and three tiles, whatever N; Gaussian potentials hold their
augmented rows and one tile, whatever the number of classes.  Reading a
feature file holds little more than the array it returns, not a Python
float per value.
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
from pkt.qmi import BLOCK, TILE
from pkt.retrieval import QUERY_BLOCK

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


@pytest.mark.parametrize("family", ["cosine", "gaussian"])
@pytest.mark.parametrize("n", [3000, 6000])
def test_equality_check_holds_three_tiles(n, family):
    spec = cosine_kernel() if family == "cosine" else gaussian_kernel(8.0)
    teacher = np.random.default_rng(n).normal(size=(n, 16))
    student = 2.0 * teacher
    tracemalloc.start()
    try:
        potential_equality_check(teacher, student, spec, spec, tol=1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the prepared copies of both inputs, the tiles, and 256 KB for everything else
    assert peak <= 2 * teacher.nbytes + 3 * BLOCK * TILE * 8 + 256 * 1024


@pytest.mark.parametrize("classes", [10, 2, 1])
def test_evaluate_holds_one_key_block(classes):
    # with one class every database row is a hit of every query
    index = RetrievalIndex(FEATS, LABELS % classes)
    tracemalloc.start()
    try:
        evaluate(index, QUERIES, QUERY_LABELS % classes, [10])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unit rows of the database and the queries, one QUERY_BLOCK x N
    # block of keys, which then holds the hits' precisions, and one of hit
    # ranks, and one more block's bytes for the relevance masks and the
    # per-row and per-level work arrays, whatever the hit count
    block = QUERY_BLOCK * N * 8
    assert peak <= FEATS.nbytes + QUERIES.nbytes + 3 * block


@pytest.mark.parametrize("classes", ["10", "n"])
@pytest.mark.parametrize("n", [3000, 6000])
def test_gaussian_potentials_hold_augmented_rows_and_one_tile(n, classes):
    rng = np.random.default_rng(n)
    feats = rng.normal(size=(n, 16))
    labels = rng.integers(0, 10, size=n) if classes == "10" else rng.permutation(n)
    tracemalloc.start()
    try:
        information_potentials(feats, labels, gaussian_kernel(8.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two augmented copies of the rows (D + 2 columns each), one tile,
    # 16 values per row for the per-row vectors (squared norms, class
    # indices, sort order, row sums, np.unique's work arrays and the class
    # bounds), and 64 KB for everything else
    augmented = 2 * feats.shape[0] * (feats.shape[1] + 2) * 8
    assert peak <= augmented + BLOCK * TILE * 8 + 16 * n * 8 + 64 * 1024


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
