"""One input contract for every public entry point: a malformed feature
matrix or label vector raises ValueError before any work, and the message
names the argument."""

import numpy as np
import pytest

from pkt import (
    RetrievalIndex,
    TrainConfig,
    conditional_probabilities,
    cosine_kernel,
    evaluate,
    information_potentials,
    init_student,
    kernel_matrix,
    pkt_loss_and_grad,
    potential_equality_check,
    train,
)

COS = cosine_kernel()
X = np.random.default_rng(0).normal(size=(6, 3))
NAN = X.copy()
NAN[2, 1] = np.nan
LABELS = np.arange(6) % 2
P = conditional_probabilities(X, COS)
INDEX = RetrievalIndex(X, LABELS)

# (entry point, malformed input) -> (call, the name its message starts with)
CASES = {
    ("conditional_probabilities", "1-d"): (lambda: conditional_probabilities(X[0], COS), "features"),
    ("conditional_probabilities", "too few rows"): (lambda: conditional_probabilities(X[:1], COS), "features"),
    ("conditional_probabilities", "nan"): (lambda: conditional_probabilities(NAN, COS), "features"),
    ("kernel_matrix", "1-d"): (lambda: kernel_matrix(X[0], COS), "features"),
    ("pkt_loss_and_grad", "1-d"): (lambda: pkt_loss_and_grad(X[:, 0], P, COS), "student embeddings"),
    ("pkt_loss_and_grad", "too few rows"): (lambda: pkt_loss_and_grad(X[:1], P[:1, :1], COS), "student embeddings"),
    ("pkt_loss_and_grad", "labels"): (lambda: pkt_loss_and_grad(X, P, COS, sup=(LABELS[:5], 0.1)),
                                      "supervised labels"),
    ("pkt_loss_and_grad", "nan"): (lambda: pkt_loss_and_grad(NAN, P, COS), "student embeddings"),
    ("information_potentials", "1-d"): (lambda: information_potentials(X[0], LABELS[:3], COS), "features"),
    ("information_potentials", "too few rows"): (lambda: information_potentials(X[:1], LABELS[:1], COS), "features"),
    ("information_potentials", "labels"): (lambda: information_potentials(X, LABELS[:, None], COS), "labels"),
    ("potential_equality_check", "1-d teacher"): (lambda: potential_equality_check(X[0], X, COS, COS, 0.1),
                                                  "teacher features"),
    ("potential_equality_check", "1-d student"): (lambda: potential_equality_check(X, X[0], COS, COS, 0.1),
                                                  "student features"),
    ("potential_equality_check", "too few rows"): (lambda: potential_equality_check(X[:0], X[:0], COS, COS, 0.1),
                                                   "teacher features"),
    ("RetrievalIndex", "1-d"): (lambda: RetrievalIndex(X[0], LABELS[:3]), "database features"),
    ("RetrievalIndex", "labels"): (lambda: RetrievalIndex(X, LABELS[:5]), "database labels"),
    ("RetrievalIndex", "nan"): (lambda: RetrievalIndex(NAN, LABELS), "database features"),
    ("evaluate", "1-d"): (lambda: evaluate(INDEX, X[0], LABELS[:3]), "query features"),
    ("evaluate", "too few rows"): (lambda: evaluate(INDEX, X[:0], LABELS[:0]), "query features"),
    ("evaluate", "labels"): (lambda: evaluate(INDEX, X, LABELS[:, None]), "query labels"),
    ("evaluate", "nan"): (lambda: evaluate(INDEX, NAN, LABELS), "query features"),
}

# train(raw, teacher, labels) at batch size 2 and a positive supervised weight, for a 3-input model
TRAIN_CASES = {
    "1-d raw inputs": ((X[:, 0], X, LABELS), "raw inputs"),
    "1-d teacher": ((X, X[:, 0], LABELS), "teacher features"),
    "too few rows": ((X[:1], X[:1], LABELS[:1]), "raw inputs"),
    "labels": ((X, X, LABELS[:, None]), "labels"),
    "nan raw inputs": ((NAN, X, LABELS), "raw inputs"),
    "nan teacher": ((X, NAN, LABELS), "teacher features"),
    "raw inputs wider than the model": ((np.hstack([X, X]), X, LABELS), "raw inputs"),
}


@pytest.mark.parametrize("case", list(CASES), ids=["-".join(case).replace(" ", "_") for case in CASES])
def test_a_malformed_input_is_rejected_by_name(case):
    call, name = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name} ")


@pytest.mark.parametrize("case", list(TRAIN_CASES), ids=[case.replace(" ", "_") for case in TRAIN_CASES])
def test_train_rejects_a_malformed_input_by_name_before_any_step(case):
    (raw, teacher, labels), name = TRAIN_CASES[case]
    model = init_student([3, 4], seed=0)
    before = [p.copy() for p in model.parameters()]
    with pytest.raises(ValueError) as info:
        train(model, raw, teacher, labels, TrainConfig(batch_size=2, sup_weight=0.5))
    assert str(info.value).startswith(f"{name} ")
    assert all(np.array_equal(p, b) for p, b in zip(model.parameters(), before))
