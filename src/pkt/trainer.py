"""The transfer training loop: per-epoch shuffling, per-batch teacher
and student conditional matrices, analytic gradient, backprop, Adam.

The raw inputs are checked, and the teacher features reduced to one
statistic per row (its norm for the cosine kernel, its squared norm for
the Gaussian), once per run, before any step.  Each batch then gathers
its B raw teacher rows, and the loss builds their conditionals from
those statistics (``divergence._teacher_blocks``).  Inputs are read in
their own dtype, and only blocks and batches of rows are converted to
float64.  So training holds O(N) statistics, O(B*D) rows per batch and
the loss's blocks, never a B x B array or a second N x D copy of the
teacher, and matches the batch-wise estimation of the full similarity
structure.  Class labels are only touched when ``sup_weight > 0``, to
gather each batch in the stable order of its labels and add their
targets.  A Gaussian loss depends only on differences of the
embeddings, so the gradient of a Gaussian student's output bias is 0 in
exact arithmetic; it is set to 0, or Adam would turn its rounding noise
into steps of up to ``lr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import sample_batch
from .affinity import conditional_probabilities  # noqa: F401  (perfbench's tests read it from this module)
from .divergence import _batch_loss, _block_buffers, _teacher_blocks
from .kernels import COSINE, KernelSpec, _checked_labels, _checked_rows, _row_stats, cosine_kernel
from .student import StudentModel, adam_step, init_adam


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 128
    lr: float = 1e-4
    teacher_spec: KernelSpec = field(default_factory=cosine_kernel)
    student_spec: KernelSpec = field(default_factory=cosine_kernel)
    sup_weight: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError("lr must be positive and finite")
        if not np.isfinite(self.sup_weight) or self.sup_weight < 0:
            raise ValueError("sup_weight must be nonnegative and finite")


@dataclass
class TraceEntry:
    epoch: int
    batch: int
    loss: float


class BatchFailure(ValueError):
    """A ValueError raised inside a training batch, re-raised with its epoch and batch.

    ``trace`` holds the entries of the batches that finished before it.
    """

    def __init__(self, message: str, trace: list[TraceEntry]):
        super().__init__(message)
        self.trace = trace


def _teacher_row_stats(teacher: np.ndarray, spec: KernelSpec, block: int) -> np.ndarray:
    """Check the teacher for non-finite entries and reduce each row to its kernel statistic.

    Rows are taken ``block`` at a time as C-contiguous float arrays, as a
    batch's gathered rows are, so every statistic is bit-identical to the
    one the batch itself would compute, and no N x D temporary exists.
    A statistic is finite only if its row is, so the entries of a block
    are looked at only when one of its statistics is not finite.
    """
    stats = np.empty(teacher.shape[0])
    for start in range(0, teacher.shape[0], block):
        rows = np.ascontiguousarray(teacher[start : start + block], dtype=float)
        stats[start : start + block] = _row_stats(rows, spec)
        if not np.all(np.isfinite(stats[start : start + block])) and not np.all(np.isfinite(rows)):
            raise ValueError("teacher features contain non-finite entries")
    return stats


def train(
    model: StudentModel,
    raw_inputs: np.ndarray,
    teacher_feats: np.ndarray,
    labels=None,
    cfg: TrainConfig | None = None,
) -> tuple[StudentModel, list[TraceEntry]]:
    """Fit the student to the teacher's conditional structure; returns the per-batch loss trace.

    A ValueError raised inside a batch is re-raised as :class:`BatchFailure`
    with the epoch and batch in its message and the trace so far, chained
    from the original.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    raw_inputs, teacher_feats = np.asarray(raw_inputs), np.asarray(teacher_feats)
    if raw_inputs.ndim != 2 or raw_inputs.shape[0] < 2 or raw_inputs.shape[1] != model.input_dim:
        raise ValueError(f"raw inputs of shape {raw_inputs.shape} are not an N x {model.input_dim} matrix with N >= 2")
    n = raw_inputs.shape[0]
    if teacher_feats.ndim != 2 or teacher_feats.shape[0] != n:
        raise ValueError(f"teacher features of shape {teacher_feats.shape} are not an N x D matrix of {n} rows")
    if cfg.sup_weight > 0:
        if labels is None:
            raise ValueError("sup_weight > 0 requires labels")
        labels = _checked_labels(labels, n, "labels")
    for start in range(0, n, cfg.batch_size):
        if not np.all(np.isfinite(np.asarray(raw_inputs[start : start + cfg.batch_size], dtype=float))):
            raise ValueError("raw inputs contain non-finite entries")
    teacher_stats = _teacher_row_stats(teacher_feats, cfg.teacher_spec, cfg.batch_size)

    state = init_adam(model.parameters(), lr=cfg.lr)
    bufs = _block_buffers(min(cfg.batch_size, n))
    trace: list[TraceEntry] = []
    for epoch in range(cfg.epochs):
        chunks = sample_batch(n, cfg.batch_size, cfg.seed, epoch)
        if cfg.sup_weight > 0:
            chunks = [idx[np.argsort(labels[idx], kind="stable")] for idx in chunks]
        for b, idx in enumerate(chunks):
            try:
                y = _checked_rows(model.forward(raw_inputs[idx]), "student embeddings", 2, True)
                sup = (labels[idx], cfg.sup_weight) if cfg.sup_weight > 0 else None
                blocks = _teacher_blocks(np.asarray(teacher_feats[idx], dtype=float), teacher_stats[idx],
                                         cfg.teacher_spec, bufs)  # no local: the rows are freed with the blocks
                report = _batch_loss(y, cfg.student_spec, blocks, sup, bufs)
                if not (np.isfinite(report.value) and np.all(np.isfinite(report.grad_y))):
                    raise ValueError("the loss or its gradient is not finite")
                grads = model.backward(report.grad_y)
                if cfg.student_spec.family != COSINE:  # a Gaussian loss is blind to a shift of every row
                    grads[-1].fill(0.0)
                adam_step(state, model.parameters(), grads)
                del grads  # not held through the next batch
            except ValueError as exc:
                raise BatchFailure(f"epoch {epoch} batch {b}: {exc}", trace) from exc
            trace.append(TraceEntry(epoch=epoch, batch=b, loss=report.value))
    return model, trace
