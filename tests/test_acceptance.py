"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line; run with -v to get a pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

import synthdata
from pkt import (
    RetrievalIndex,
    average_precision_11pt,
    conditional_probabilities,
    cosine_kernel,
    evaluate,
    gaussian_kernel,
    information_potentials,
    kl_loss,
    potential_equality_check,
    run_battery,
)
from pkt.cli import main as cli_main
from pkt.gradcheck import random_conditionals
from test_qmi import naive_potentials


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = run_battery(seed=0, instances=20)
    wall = time.perf_counter() - t0
    assert worst < 1e-4
    assert wall < 10.0
    report(f"criterion 1: max relative gradient error {worst:.3g} (< 1e-4) in {wall:.2f}s")


def test_criterion_2_probability_normalization():
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 10))
        scale = rng.uniform(0.1, 10.0)
        if trial % 2 == 0:
            # 1-D cosine affinities are 0/1 by construction and can leave
            # a sign-isolated sample with no kernel mass at all
            d = max(d, 2)
            feats = rng.normal(size=(n, d)) * scale
            spec = cosine_kernel()
        else:
            feats = rng.normal(size=(n, d)) * scale
            # width tied to the data scale, as a bandwidth would be
            spec = gaussian_kernel(float(rng.uniform(0.5, 8.0)) * d * scale * scale)
        q = conditional_probabilities(feats, spec)
        worst = max(worst, float(np.max(np.abs(q.sum(axis=0) - 1.0))))
    assert worst <= 1e-9
    report(f"criterion 2: 100 random matrices, worst slot-sum deviation {worst:.3g} (<= 1e-9)")


def test_criterion_3_kl_correctness():
    rng = np.random.default_rng(200)
    worst_self = 0.0
    for _ in range(50):
        p = random_conditionals(rng, int(rng.integers(3, 15)))
        worst_self = max(worst_self, abs(kl_loss(p, p)))
    assert worst_self <= 1e-12

    lowest = math.inf
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        lowest = min(lowest, kl_loss(random_conditionals(rng, n), random_conditionals(rng, n)))
    assert lowest >= -1e-9

    p = np.array([[0.0, 0.4, 0.55], [0.7, 0.0, 0.45], [0.3, 0.6, 0.0]])
    q = p.copy()
    q[1, 0] = 0.5
    q[2, 0] = 0.5
    hand = kl_loss(p, q)
    assert hand == pytest.approx(0.082282, abs=1e-6)
    report(f"criterion 3: kl(P,P) <= {worst_self:.3g}, min over 1000 pairs {lowest:.3g}, "
           f"hand instance {hand:.9f}")


def test_criterion_4_qmi_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 51))
        feats = rng.normal(size=(n, int(rng.integers(2, 8))))
        labels = rng.integers(0, 4, size=n)
        spec = cosine_kernel() if trial % 2 == 0 else gaussian_kernel(float(rng.uniform(0.5, 4.0)))
        pots = information_potentials(feats, labels, spec)
        v_in, v_all, v_btw = naive_potentials(feats, labels, spec)
        worst = max(worst, abs(pots.v_in - v_in), abs(pots.v_all - v_all),
                    abs(pots.v_btw - v_btw), abs(pots.qmi - (v_in + v_all - 2 * v_btw)))
    assert worst <= 1e-12

    single = information_potentials(rng.normal(size=(20, 5)),
                                    np.zeros(20, dtype=int), cosine_kernel())
    assert abs(single.qmi) <= 1e-12
    wall = time.perf_counter() - t0
    assert wall < 5.0
    report(f"criterion 4: naive-loop deviation {worst:.3g} (<= 1e-12), "
           f"single-class qmi {single.qmi:.3g}, {wall:.2f}s")


def test_criterion_5_potential_equality():
    rng = np.random.default_rng(400)
    teacher = rng.normal(size=(25, 6))
    labels = rng.integers(0, 3, size=25)

    copy_report = potential_equality_check(teacher, teacher.copy(),
                                           cosine_kernel(), cosine_kernel(), tol=1e-12)
    assert copy_report.max_deviation <= 1e-12 and copy_report.within_tol

    scaled_report = potential_equality_check(teacher, teacher * 3.0,
                                             cosine_kernel(), cosine_kernel(), tol=1e-12)
    assert scaled_report.max_deviation <= 1e-12 and scaled_report.within_tol

    worst_pot = 0.0
    for student in (teacher.copy(), teacher * 3.0):
        a = information_potentials(teacher, labels, cosine_kernel())
        b = information_potentials(student, labels, cosine_kernel())
        worst_pot = max(worst_pot, abs(a.v_in - b.v_in), abs(a.v_all - b.v_all),
                        abs(a.v_btw - b.v_btw))
    assert worst_pot <= 1e-12
    report(f"criterion 5: copy deviation {copy_report.max_deviation:.3g}, "
           f"x3-scaled deviation {scaled_report.max_deviation:.3g}, "
           f"potential agreement {worst_pot:.3g} (all <= 1e-12)")


def test_criterion_6_retrieval_metrics():
    cases = {
        (1, 1): 1.0,
        (0, 1): 0.5,
        (1, 0, 1, 0): 28.0 / 33.0,
    }
    for rel, expected in cases.items():
        n_rel = sum(rel)
        assert average_precision_11pt(list(rel), n_rel) == pytest.approx(expected, abs=1e-9)

    # the interpolated AP takes a max over cutoffs, which biases small
    # databases upward; a few thousand rows concentrate it near chance
    rng = np.random.default_rng(500)
    db = rng.normal(size=(3000, 8))
    db_labels = np.repeat([0, 1], 1500)
    queries = rng.normal(size=(200, 8))
    q_labels = np.tile([0, 1], 100)
    result = evaluate(RetrievalIndex(db, db_labels), queries, q_labels)
    assert result.map == pytest.approx(0.5, abs=0.05)
    report(f"criterion 6: AP hand cases exact, chance-level mAP {result.map:.4f} (0.5 +- 0.05)")


def test_criterion_7_end_to_end_transfer():
    t0 = time.perf_counter()
    _, trace, map_init, map_final = synthdata.run_transfer("real")
    wall = time.perf_counter() - t0
    means = synthdata.epoch_mean_losses(trace)
    first, last = means[0], means[synthdata.EPOCHS - 1]
    assert last < 0.5 * first
    assert map_final >= map_init + 0.10
    assert wall < 60.0
    report(f"criterion 7: loss {first:.3f} -> {last:.4f} (ratio {last / first:.3f} < 0.5), "
           f"mAP {map_init:.4f} -> {map_final:.4f} (+{100 * (map_final - map_init):.1f} pts >= 10) "
           f"in {wall:.1f}s")


def test_criterion_8_supervised_direction():
    _, _, _, partial_unsup = synthdata.run_transfer("partial")
    _, _, _, partial_sup = synthdata.run_transfer("partial", sup_weight=synthdata.SUP_WEIGHT)
    assert partial_sup >= partial_unsup - 0.005

    _, _, _, noise_unsup = synthdata.run_transfer("noise")
    _, _, _, noise_sup = synthdata.run_transfer("noise", sup_weight=synthdata.SUP_WEIGHT)
    assert noise_sup >= noise_unsup + 0.05
    report(f"criterion 8: partial teacher {100 * partial_unsup:.2f} -> {100 * partial_sup:.2f} "
           f"(non-inferior), noise teacher {100 * noise_unsup:.2f} -> {100 * noise_sup:.2f} "
           f"(+{100 * (noise_sup - noise_unsup):.1f} pts >= 5)")


def test_criterion_9_cli_determinism(tmp_path):
    from pkt import write_features

    rng = np.random.default_rng(900)
    raw = rng.normal(size=(50, 6))
    teacher = np.tanh(raw @ rng.normal(size=(6, 8)))
    write_features(tmp_path / "raw.txt", raw)
    write_features(tmp_path / "teacher.txt", teacher)

    def invoke(tag):
        args = ["transfer", "--input", str(tmp_path / "raw.txt"),
                "--teacher", str(tmp_path / "teacher.txt"), "--arch", "10,4",
                "--epochs", "3", "--batch-size", "16", "--seed", "42",
                "--out", str(tmp_path / f"model_{tag}.txt"),
                "--loss-log", str(tmp_path / f"loss_{tag}.txt")]
        assert cli_main(args) == 0

    invoke("a")
    invoke("b")
    model_same = (tmp_path / "model_a.txt").read_bytes() == (tmp_path / "model_b.txt").read_bytes()
    log_same = (tmp_path / "loss_a.txt").read_bytes() == (tmp_path / "loss_b.txt").read_bytes()
    assert model_same and log_same
    report("criterion 9: repeated transfer runs produced byte-identical models and loss logs")
