import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pkt.trainer
from pkt import (
    StudentModel,
    TrainConfig,
    conditional_probabilities,
    cosine_kernel,
    gaussian_kernel,
    init_adam,
    init_student,
    pkt_loss_and_grad,
    sample_batch,
    train,
)
from pkt.kernels import TILE
from pkt.divergence import _block_buffers, _teacher_blocks
from pkt.trainer import _teacher_row_stats


def small_problem(seed=0, n=100, d_in=6, d_t=5):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d_in))
    teacher = np.tanh(raw @ rng.normal(size=(d_in, d_t)))
    labels = rng.integers(0, 3, size=n)
    return raw, teacher, labels


def test_run_to_run_determinism():
    raw, teacher, _ = small_problem()
    cfg = TrainConfig(epochs=3, batch_size=25, lr=1e-3, seed=11)
    m1, t1 = train(init_student([6, 8, 4], seed=5), raw, teacher, cfg=cfg)
    m2, t2 = train(init_student([6, 8, 4], seed=5), raw, teacher, cfg=cfg)
    assert all(np.array_equal(a, b) for a, b in zip(m1.parameters(), m2.parameters()))
    assert [(e.epoch, e.batch, e.loss) for e in t1] == [(e.epoch, e.batch, e.loss) for e in t2]


def test_loss_decreases_on_learnable_problem():
    raw, teacher, _ = small_problem()
    cfg = TrainConfig(epochs=30, batch_size=25, lr=1e-3, seed=0)
    _, trace = train(init_student([6, 16, 4], seed=1), raw, teacher, cfg=cfg)
    first = np.mean([e.loss for e in trace if e.epoch == 0])
    last = np.mean([e.loss for e in trace if e.epoch == 29])
    assert last < first


def test_trace_covers_every_batch():
    raw, teacher, _ = small_problem(n=90)
    cfg = TrainConfig(epochs=4, batch_size=40, seed=3)
    _, trace = train(init_student([6, 4], seed=0), raw, teacher, cfg=cfg)
    expected = sum(len(sample_batch(90, 40, 3, e)) for e in range(4))
    assert len(trace) == expected
    assert [e.epoch for e in trace] == sorted(e.epoch for e in trace)
    assert all(np.isfinite(e.loss) for e in trace)


def test_stationary_at_exact_match():
    # identity student fed the teacher's own features: every batch sits at
    # the KL optimum, so losses stay at rounding-noise level.  The gradient
    # is not exactly zero (conditional columns sum to 1 only within ulp),
    # and Adam's scale-free m/sqrt(v) normalization amplifies that residue
    # toward lr-sized steps, so parameter motion is bounded by the number
    # of steps times lr rather than by the gradient magnitude.
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(40, 5))
    model = StudentModel([5, 5], weights=[np.eye(5)], biases=[np.zeros(5)])
    cfg = TrainConfig(epochs=1, batch_size=10, seed=1)
    model, trace = train(model, feats, feats, cfg=cfg)
    assert trace[0].loss == 0.0
    assert all(abs(e.loss) <= 1e-7 for e in trace)
    n_steps = len(trace)
    assert np.max(np.abs(model.weights[0] - np.eye(5))) <= n_steps * cfg.lr


def test_supervised_training_runs():
    raw, teacher, labels = small_problem()
    cfg = TrainConfig(epochs=2, batch_size=20, sup_weight=1e-3, seed=2)
    _, trace = train(init_student([6, 4], seed=0), raw, teacher, labels, cfg)
    assert len(trace) == 10
    assert all(np.isfinite(e.loss) for e in trace)


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)], ids=["cosine", "gaussian"])
def test_batches_of_distinct_labels_train(spec):
    # 10 classes in batches of 8: some batches hold no two samples of one class
    raw, teacher, _ = small_problem(n=800)
    labels = np.random.default_rng(5).integers(0, 10, size=800)
    chunks = sample_batch(800, 8, 0, 0)
    assert any(np.unique(labels[idx]).size == idx.size for idx in chunks)
    cfg = TrainConfig(batch_size=8, lr=1e-3, teacher_spec=spec, student_spec=spec, sup_weight=0.5)
    _, trace = train(init_student([6, 4], seed=0), raw, teacher, labels, cfg)
    assert len(trace) == len(chunks) and all(np.isfinite(e.loss) for e in trace)


def test_gaussian_kernels_train():
    raw, teacher, _ = small_problem(n=40)
    cfg = TrainConfig(epochs=2, batch_size=10, seed=0,
                      teacher_spec=gaussian_kernel(4.0), student_spec=gaussian_kernel(2.0))
    _, trace = train(init_student([6, 4], seed=0), raw, teacher, cfg=cfg)
    assert all(np.isfinite(e.loss) for e in trace)


def test_config_and_input_validation():
    raw, teacher, labels = small_problem(n=20)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(sup_weight=-1e-3)
    model = init_student([6, 4], seed=0)
    with pytest.raises(ValueError):
        train(model, raw, teacher[:-1], cfg=TrainConfig(batch_size=5))
    with pytest.raises(ValueError):
        train(model, raw, teacher, cfg=TrainConfig(batch_size=5, sup_weight=0.1))
    with pytest.raises(ValueError):
        train(model, raw, teacher, labels[:-1], TrainConfig(batch_size=5, sup_weight=0.1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rates_and_weights_rejected(bad):
    with pytest.raises(ValueError, match="^lr must be positive and finite$"):
        TrainConfig(lr=bad)
    with pytest.raises(ValueError, match="^sup_weight must be nonnegative and finite$"):
        TrainConfig(sup_weight=bad)
    with pytest.raises(ValueError, match="^lr must be positive and finite$"):
        init_adam([np.zeros(2)], lr=bad)
    y = np.random.default_rng(0).normal(size=(4, 2))
    p = conditional_probabilities(y, cosine_kernel())
    with pytest.raises(ValueError, match="^supervised weight must be nonnegative and finite$"):
        pkt_loss_and_grad(y, p, cosine_kernel(), sup=(p, bad))


def test_default_config_used_when_omitted():
    raw, teacher, _ = small_problem(n=130)
    _, trace = train(init_student([6, 4], seed=0), raw, teacher)
    # one epoch at the default batch size of 128 gives a 128-chunk; the
    # 2-sample tail is kept
    assert [e.batch for e in trace] == [0, 1]


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(3.0)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_cached_teacher_conditionals_match_public_ones(spec, order):
    # row statistics computed once per run must give, block by block, the
    # very bits the public function computes from the gathered batch
    for n, batch in [(60, 50), (2 * TILE + 60, TILE + 20)]:  # the second spans two column blocks
        _, teacher, _ = small_problem(n=n, d_t=7)
        teacher = np.asarray(teacher, order=order)
        stats = _teacher_row_stats(teacher, spec, block=batch)
        bufs = _block_buffers(batch)
        bufs.fill(np.nan)
        for idx in sample_batch(n, batch, 0, 0):  # the last batch is shorter, written into a prefix of the buffers
            b = idx.size
            cached, p_log_p = np.full((b, b), np.nan), 0.0
            for cs, p, part in _teacher_blocks(teacher[idx], stats[idx], spec, bufs):
                assert np.shares_memory(p, bufs[0])
                cached[:, cs] = p
                p_log_p += part
            public = conditional_probabilities(teacher[idx], spec)
            assert cached.tobytes() == public.tobytes()
            off = ~np.eye(b, dtype=bool)
            assert p_log_p == pytest.approx(np.sum(public[off] * np.log(public[off])), rel=1e-12)


@pytest.mark.parametrize("specs", [(cosine_kernel(), cosine_kernel()), (gaussian_kernel(3.0), gaussian_kernel(2.0))],
                         ids=["cosine", "gaussian"])
@pytest.mark.parametrize("sup_weight", [0.0, 0.5], ids=["plain", "sup"])
def test_a_batch_of_several_column_blocks_matches_the_public_loss(monkeypatch, specs, sup_weight):
    # B = 2 * TILE + 3 runs two full blocks of conditioning columns and one of 3
    batch = 2 * TILE + 3
    raw, teacher, labels = small_problem(n=batch, d_t=7)
    real, seen = pkt.trainer._batch_loss, []

    def recording(y, *args):
        report = real(y, *args)
        seen.append((y.copy(), report))
        return report

    monkeypatch.setattr(pkt.trainer, "_batch_loss", recording)
    cfg = TrainConfig(epochs=2, batch_size=batch, lr=1e-3, seed=6, teacher_spec=specs[0], student_spec=specs[1],
                      sup_weight=sup_weight)
    train(init_student([6, 4], seed=0), raw, teacher, labels, cfg)
    assert len(seen) == 2
    for epoch, (y, report) in enumerate(seen):
        [idx] = sample_batch(batch, batch, cfg.seed, epoch)
        if sup_weight > 0:  # the trainer gathers a supervised batch in label order
            idx = idx[np.argsort(labels[idx], kind="stable")]
        sup = (labels[idx], sup_weight) if sup_weight > 0 else None
        public = pkt_loss_and_grad(y, conditional_probabilities(teacher[idx], specs[0]), specs[1], sup)
        assert report.value == pytest.approx(public.value, rel=1e-12)
        assert np.max(np.abs(report.grad_y - public.grad_y)) <= 1e-12 * np.max(np.abs(public.grad_y))


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(3.0)])
def test_train_leaves_inputs_untouched(spec):
    raw, teacher, labels = small_problem(n=60)
    raw_bytes, teacher_bytes = raw.tobytes(), teacher.tobytes()
    cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=4, teacher_spec=spec,
                      student_spec=spec, sup_weight=0.2)
    train(init_student([6, 4], seed=0), raw, teacher, labels, cfg)
    assert raw.tobytes() == raw_bytes and teacher.tobytes() == teacher_bytes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_teacher_rejected_before_any_step(bad):
    raw, teacher, _ = small_problem(n=60)
    teacher[-1, 2] = bad  # a row that no early batch needs
    model = init_student([6, 4], seed=0)
    before = [p.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match="non-finite"):
        train(model, raw, teacher, cfg=TrainConfig(epochs=2, batch_size=10, lr=1e-2))
    assert all(np.array_equal(p, b) for p, b in zip(model.parameters(), before))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_raw_inputs_rejected_before_any_step(bad):
    raw, teacher, _ = small_problem(n=60)
    raw[-1, 5] = bad  # a row that no early batch needs
    model = init_student([6, 4], seed=0)
    before = [p.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match="^raw inputs contain non-finite entries$"):
        train(model, raw, teacher, cfg=TrainConfig(batch_size=10, lr=1e-2))
    assert all(np.array_equal(p, b) for p, b in zip(model.parameters(), before))


def test_labels_that_are_not_one_dimensional_are_rejected_before_any_step():
    raw, teacher, labels = small_problem(n=40)
    model = init_student([6, 4], seed=0)
    before = [p.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match=r"^labels of shape \(40, 1\) are not one label per row of 40$"):
        train(model, raw, teacher, labels[:, None], TrainConfig(batch_size=8, sup_weight=0.5))
    assert all(np.array_equal(p, b) for p, b in zip(model.parameters(), before))


@pytest.mark.parametrize("spec", [cosine_kernel(), gaussian_kernel(2.0)], ids=["cosine", "gaussian"])
def test_only_a_cosine_student_moves_its_output_bias(spec):
    # a Gaussian loss depends on differences of the embeddings alone, so
    # the output bias has no gradient and takes no step; a cosine one does
    raw, teacher, labels = small_problem(n=60)
    model = init_student([6, 8, 4], seed=0)
    before = [p.copy() for p in model.parameters()]
    cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=3, teacher_spec=spec, student_spec=spec,
                      sup_weight=0.5)
    train(model, raw, teacher, labels, cfg)
    *moved, bias = [np.max(np.abs(p - b)) for p, b in zip(model.parameters(), before)]
    assert min(moved) > 0.0
    if spec.family == "gaussian":
        assert model.biases[-1].tobytes() == before[-1].tobytes()
    else:
        assert bias > 0.0


def test_failing_batch_names_epoch_and_batch():
    # a huge step overflows the student's output during batch 1
    rng = np.random.default_rng(0)
    raw, teacher = rng.normal(size=(256, 8)), rng.normal(size=(256, 8))
    cfg = TrainConfig(epochs=3, batch_size=64, lr=1e300, seed=0,
                      teacher_spec=gaussian_kernel(1.0), student_spec=gaussian_kernel(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^epoch 0 batch 1: student embeddings of shape \(64, 4\) contain non-finite entries$") as info:
            train(init_student([8, 16, 4], seed=0), raw, teacher, cfg=cfg)
    assert isinstance(info.value.__cause__, ValueError)
    assert "epoch" not in str(info.value.__cause__)
    assert [(e.epoch, e.batch) for e in info.value.trace] == [(0, 0)]


def test_gaussian_training_survives_embeddings_thrown_apart():
    # the step of 1e3 throws the student embeddings so far apart that most
    # kernel values underflow; the log-domain conditionals stay exact
    rng = np.random.default_rng(0)
    raw, teacher = rng.normal(size=(256, 8)), rng.normal(size=(256, 8))
    cfg = TrainConfig(epochs=3, batch_size=64, lr=1e3, seed=0,
                      teacher_spec=gaussian_kernel(1.0), student_spec=gaussian_kernel(1.0))
    model, trace = train(init_student([8, 16, 4], seed=0), raw, teacher, cfg=cfg)
    assert [(e.epoch, e.batch) for e in trace] == [(epoch, b) for epoch in range(3) for b in range(4)]
    assert all(np.isfinite(e.loss) and e.loss >= 0.0 for e in trace)
    assert all(np.all(np.isfinite(p)) for p in model.parameters())


# Inputs in the dtypes and layouts training reads as they are.  Small
# integers read the same in each, so each run must give the float64 run's bytes.
LAYOUTS = {
    "float64": lambda x: x,
    "float32": lambda x: x.astype(np.float32),
    "int": lambda x: x.astype(np.int64),
    "F-ordered": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
}


@pytest.fixture(scope="module")
def integer_problem():
    rng = np.random.default_rng(2)
    raw, teacher = rng.integers(-4, 5, size=(2000, 8)).astype(float), rng.integers(-64, 65, size=(2000, 1024))
    cfg = TrainConfig(epochs=1, batch_size=64, lr=1e-3)
    model, trace = train(init_student([8, 4], seed=0), raw, teacher.astype(float), cfg=cfg)
    return raw, teacher.astype(float), cfg, model, trace


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_training_holds_no_copy_of_the_teacher(integer_problem, layout):
    raw, teacher, cfg, expected_model, expected_trace = integer_problem
    raw_in, teacher_in = LAYOUTS[layout](raw), LAYOUTS[layout](teacher)
    tracemalloc.start()
    try:
        model, trace = train(init_student([8, 4], seed=0), raw_in, teacher_in, cfg=cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < teacher.nbytes / 4
    assert [p.tobytes() for p in model.parameters()] == [p.tobytes() for p in expected_model.parameters()]
    assert [e.loss.hex() for e in trace] == [e.loss.hex() for e in expected_trace]


def test_non_finite_loss_or_gradient_stops_the_run_before_the_step(monkeypatch):
    real, calls = pkt.trainer._batch_loss, []

    def poisoned(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            report.grad_y[0, 0] = np.nan
        return report

    monkeypatch.setattr(pkt.trainer, "_batch_loss", poisoned)
    raw, teacher, _ = small_problem()
    model = init_student([6, 4], seed=0)
    with pytest.raises(ValueError, match=r"^epoch 0 batch 2: the loss or its gradient is not finite$") as info:
        train(model, raw, teacher, cfg=TrainConfig(epochs=2, batch_size=20, lr=1e-3))
    assert [(e.epoch, e.batch) for e in info.value.trace] == [(0, 0), (0, 1)]
    assert all(np.all(np.isfinite(p)) for p in model.parameters())

    monkeypatch.setattr(pkt.trainer, "_batch_loss", lambda *a: dataclasses.replace(real(*a), value=np.inf))
    with pytest.raises(ValueError, match=r"^epoch 0 batch 0: the loss or its gradient is not finite$"):
        train(init_student([6, 4], seed=0), raw, teacher, cfg=TrainConfig(batch_size=20))


# Minor page faults per extra Gaussian + supervised batch at B = 512,
# measured in a fresh interpreter: how much of a freed temporary glibc
# keeps depends on everything the process allocated before, so an
# in-process count would depend on which tests ran first.
FAULTS_PER_BATCH = """
import resource
import sys
import numpy as np
from pkt import TrainConfig, gaussian_kernel, init_student, train

batch, width = 512, int(sys.argv[1])
rng = np.random.default_rng(0)
raw, teacher = rng.normal(size=(10 * batch, 8)), rng.normal(size=(10 * batch, width))
labels = rng.integers(0, 10, size=10 * batch)
cfg = TrainConfig(batch_size=batch, lr=1e-3, teacher_spec=gaussian_kernel(2.0 * width),
                  student_spec=gaussian_kernel(8.0), sup_weight=0.5)

def minor_faults(batches):
    rows = slice(0, batches * batch)
    model = init_student([8, 4], seed=0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, raw[rows], teacher[rows], labels[rows], cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

minor_faults(2)  # warm-up
print((minor_faults(10) - minor_faults(2)) / 8)
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(pkt.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


@pytest.mark.parametrize("teacher_width", [16, 64, 2048])
def test_gaussian_batches_take_no_fresh_pages(teacher_width):
    # The blocks a batch works in are allocated once per run, so a batch
    # touches no page that an earlier batch of the run has not.  A freshly
    # mapped B x B temporary costs 512 minor faults.
    assert run_fresh(FAULTS_PER_BATCH, teacher_width) <= 200


# Growth of the peak resident memory, in MB, over one Gaussian + supervised
# run of 3 batches at B = 2048, in a fresh interpreter whose peak before
# the run is its resident memory then.
PEAK_GROWTH_MB = """
import resource
import numpy as np
from pkt import TrainConfig, gaussian_kernel, init_student, train

batch = 2048
rng = np.random.default_rng(0)
raw, teacher = rng.normal(size=(3 * batch, 8)), rng.normal(size=(3 * batch, 64))
labels = rng.integers(0, 10, size=3 * batch)
cfg = TrainConfig(batch_size=batch, lr=1e-3, teacher_spec=gaussian_kernel(64.0),
                  student_spec=gaussian_kernel(8.0), sup_weight=0.5)
model = init_student([8, 4], seed=0)
np.ones((batch, 66)) @ np.ones((66, 128))  # BLAS sets up its buffers before the count
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
train(model, raw, teacher, labels, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_a_large_gaussian_batch_holds_no_b_by_b_array():
    assert run_fresh(PEAK_GROWTH_MB) < 2048 * 2048 * 8 / 2**20
