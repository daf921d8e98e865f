"""The transfer training loop: per-epoch shuffling, per-batch teacher
and student conditional matrices, analytic gradient, backprop, Adam.

The teacher features are checked and reduced to one statistic per row
(its norm for the cosine kernel, its squared norm for the Gaussian) once
per run.  Each batch then gathers its B teacher rows and builds their
conditionals from those statistics (Gaussian ones in the log domain),
with the ``sum p log p`` the loss value needs, so training holds O(N)
statistics, O(B*D) rows per batch and one O(B^2) workspace per run,
never a second N x D copy of the teacher, and matches the batch-wise
estimation of the full similarity structure.  Class labels are only
touched when ``sup_weight > 0``.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .affinity import _conditionals, _log_conditionals, sample_batch
from .affinity import conditional_probabilities  # noqa: F401  (perfbench's tests read it from this module)
from .divergence import LOSS_BUFFERS, _sum_x_log_x, pkt_loss_and_grad
from .kernels import COSINE, KernelSpec, _kernel_of_rows, _logits_of_rows, _row_stats, cosine_kernel
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

    Rows are taken ``block`` at a time as C-contiguous arrays, the layout
    a batch's gathered rows have, so every statistic is bit-identical to
    the one the batch itself would compute, and no N x D temporary exists.
    """
    stats = np.empty(teacher.shape[0])
    for start in range(0, teacher.shape[0], block):
        rows = np.ascontiguousarray(teacher[start : start + block])
        if not np.all(np.isfinite(rows)):
            raise ValueError("teacher features contain non-finite entries")
        stats[start : start + block] = _row_stats(rows, spec)
    return stats


def _teacher_conditionals(teacher: np.ndarray, stats: np.ndarray, idx: np.ndarray, spec: KernelSpec, *,
                          out: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, float]:
    """``conditional_probabilities(teacher[idx], spec)``, from the cached row statistics, and its ``sum p log p``.

    The conditionals are written into ``out``, a C-contiguous B x B float
    array, and ``scratch`` is another such array.  A cosine kernel is
    built in ``out`` and normalized in place, and its ``sum p log p``
    takes the logs in ``scratch``.  Gaussian logits are built in
    ``scratch`` and normalized in the log domain into ``out``;
    ``sum p log p`` is then one dot product of ``p`` with the shifted
    logits, less the log column sums.
    """
    rows, batch_stats = teacher[idx], stats[idx]
    if spec.family == COSINE:
        rows /= batch_stats[:, None]
        _, _, p = _conditionals(_kernel_of_rows(rows, batch_stats, spec, out=out), out=out)
        return p, _sum_x_log_x(p, scratch)
    shifted = _logits_of_rows(rows, batch_stats, spec.width, out=scratch)
    p, log_colsums = _log_conditionals(shifted, out=out)
    return p, float(np.dot(p.ravel(), shifted.ravel())) - float(log_colsums.sum())


def _workspace(count: int, size: int) -> list[np.ndarray]:
    """``count`` flat float64 buffers of ``size`` entries, in one anonymous memory mapping.

    Every B x B array of a batch lives in these buffers: the teacher's
    conditionals in the first, and the loss's own in the others, the
    first of which holds the teacher's logits or logs until the loss
    starts.  A tail batch of b < B rows uses the first b * b entries of
    each, as a C-contiguous b x b array.  A mapping of its own, unlike heap memory, goes back to the
    system when the run drops it, however the heap around it is used,
    so every run starts from fresh pages and no run inherits another's.
    """
    block = np.frombuffer(mmap.mmap(-1, max(count * size, 1) * 8), dtype=np.float64)
    return [block[i * size : (i + 1) * size] for i in range(count)]


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
    raw_inputs = np.asarray(raw_inputs, dtype=float)
    teacher_feats = np.asarray(teacher_feats, dtype=float)
    n = raw_inputs.shape[0]
    if teacher_feats.ndim != 2:
        raise ValueError("teacher features must be an N x D matrix")
    if teacher_feats.shape[0] != n:
        raise ValueError("raw inputs and teacher features must have equal row counts")
    if cfg.sup_weight > 0:
        if labels is None:
            raise ValueError("sup_weight > 0 requires labels")
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ValueError("label count does not match the inputs")
    teacher_stats = _teacher_row_stats(teacher_feats, cfg.teacher_spec, cfg.batch_size)

    state = init_adam(model.parameters(), lr=cfg.lr)
    side = min(cfg.batch_size, n)
    workspace = _workspace(1 + LOSS_BUFFERS, side * side)
    trace: list[TraceEntry] = []
    for epoch in range(cfg.epochs):
        chunks = sample_batch(n, cfg.batch_size, cfg.seed, epoch)
        for b, idx in enumerate(chunks):
            p_buf, scratch = (buf[: idx.size * idx.size].reshape(idx.size, idx.size) for buf in workspace[:2])
            try:
                p, p_log_p = _teacher_conditionals(teacher_feats, teacher_stats, idx, cfg.teacher_spec,
                                                   out=p_buf, scratch=scratch)
                y = model.forward(raw_inputs[idx])
                sup = (labels[idx], cfg.sup_weight) if cfg.sup_weight > 0 else None
                report = pkt_loss_and_grad(y, p, cfg.student_spec, sup, workspace=workspace[1:], p_log_p=p_log_p)
                if not (np.isfinite(report.value) and np.all(np.isfinite(report.grad_y))):
                    raise ValueError("the loss or its gradient is not finite")
                adam_step(state, model.parameters(), model.backward(report.grad_y))
            except ValueError as exc:
                raise BatchFailure(f"epoch {epoch} batch {b}: {exc}", trace) from exc
            trace.append(TraceEntry(epoch=epoch, batch=b, loss=report.value))
    return model, trace
