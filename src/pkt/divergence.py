"""Divergence losses between teacher and student conditionals, and the
analytic gradient of the training loss with respect to the student
embeddings.

The loss is a **sum** over ordered off-diagonal pairs, not a mean, so
its scale grows with the batch; the learning rate in the trainer is
documented as batch-size-coupled for that reason.

The optional supervised term is built from class labels: its targets
are uniform over each sample's same-class partners, so ``sum t log t``
follows from the class counts alone; a batch in label order adds them
over one rectangle per class.  Both kernel families share one value,
``sum p log p + weight * sum t log t - sum p_eff log q`` with ``p_eff =
p + weight * t``; each family computes only its cross term ``sum p_eff
log q`` and the gradient.  With a Gaussian student both come from the
log-domain conditionals (the SNE/t-SNE formulation), exact at any
width: nothing is clamped.  With a cosine student the conditionals are
linear, and ``Q_FLOOR`` clamps them inside the log.

Every conditional is normalized down its own conditioning column, so a
batch is computed in blocks of ``TILE`` columns: each block's teacher
conditionals, targets, student conditionals, loss terms and gradient
weights ``a[:, cs]``, while ``a @ y``, ``a.T @ y`` and the coupling sums
accumulate.  A batch of N rows holds O(N * D) rows and four N x TILE
blocks, never an N x N array.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .affinity import _checked_features, _conditionals_of_rows
from .kernels import COSINE, NORM_EPS, TILE, KernelSpec, _column_blocks, _row_stats

# Floor applied to cosine student conditionals and to kl_loss's q inside
# the log; far below any conditional reachable with cosine kernels at
# trainable batch sizes.
Q_FLOOR = 1e-7


@dataclass
class LossReport:
    value: float
    grad_y: np.ndarray
    n_pairs: int


def kl_loss(p_teacher: np.ndarray, q_student: np.ndarray) -> float:
    """Sum of ``p * log(p / q)`` over off-diagonal entries, with q clamped to [1e-7, 1].

    Zero p-entries contribute nothing (the 0 * log 0 = 0 limit), so
    target matrices with empty slots are handled without special casing.
    """
    p = np.asarray(p_teacher, dtype=float)
    q = np.asarray(q_student, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("probability matrices must be square")
    if p.shape != q.shape:
        raise ValueError(f"size mismatch: {p.shape} vs {q.shape}")
    m = p > 0.0
    np.fill_diagonal(m, False)
    return float(np.sum(p[m] * np.log(p[m] / np.clip(q, Q_FLOOR, 1.0)[m])))


def _label_classes(labels: np.ndarray) -> tuple[np.ndarray, float]:
    """The bounds of the classes of labels sorted by class, and ``sum t log t`` of their targets ``t``.

    ``t[i, j] = 1 / c_j`` if samples i != j share a class, c_j being the
    number of slot j's same-class partners.  Class k is the range of
    rows ``bounds[k]:bounds[k + 1]``.  A slot without partners is an
    all-zero column of ``t``, which adds nothing to the sum.
    """
    bounds = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1], True])
    counts = np.repeat(np.diff(bounds), np.diff(bounds)) - 1
    return bounds, float(np.log(1.0 / counts[counts > 0]).sum())


def _supervised_into(p: np.ndarray, cs: slice, bounds: np.ndarray, weight: float) -> np.ndarray:
    """Add ``weight * t[:, cs]`` into the block ``p = p[:, cs]`` in place, one rectangle per class; self-pairs keep p's value."""
    diagonal = np.diagonal(p[cs]).copy()
    first, end = np.searchsorted(bounds, cs.start, side="right") - 1, np.searchsorted(bounds, cs.stop)
    for lo, hi in zip(bounds[first:end].tolist(), bounds[first + 1 : end + 1].tolist()):
        p[lo:hi, max(lo - cs.start, 0) : hi - cs.start] += (1.0 / max(hi - lo - 1, 1)) * weight
    np.fill_diagonal(p[cs], diagonal)
    return p


def _sum_x_log_x(m: np.ndarray, cs: slice, buf: np.ndarray) -> float:
    """Sum of ``m * log(m)`` over the entries of the block ``m[:, cs]`` with ``m > 0``, self-pairs excluded, with the flat ``buf`` as scratch."""
    logs = buf[: m.size].reshape(m.shape)
    logs.fill(0.0)
    np.log(m, out=logs, where=m > 0.0)
    np.fill_diagonal(logs[cs], 0.0)
    return float(np.dot(m.ravel(), logs.ravel()))


def _block_buffers(n: int) -> np.ndarray:
    """The four flat float arrays that :func:`_batch_loss` works in, for batches of up to n rows."""
    return np.empty((4, n * min(n, TILE)))


def pkt_loss_and_grad(
    y: np.ndarray,
    p_teacher: np.ndarray,
    student_spec: KernelSpec,
    sup: tuple[np.ndarray, float] | None = None,
) -> LossReport:
    """KL(teacher || student-conditionals(y)) and its exact gradient in y.

    The gradient accounts for the normalization coupling (every
    conditional in a slot depends on the whole slot through its
    denominator).  With ``p_eff`` the teacher plus the weighted targets,
    the loss is ``sum p log p + weight * sum t log t - sum p_eff log q``.

    Gaussian student: with logits ``L = -d^2 / width`` and
    ``log q = L - logsumexp`` down each column, the gradient in the
    logits is ``a = q * colsum(p_eff) - p_eff``, with column sums 0, and

        grad_y = (2 / width) * (w @ y - rowsum(w) * y)

    Cosine student: q is the kernel over its column sums S_c, clamped at
    ``Q_FLOOR`` inside the log; with ``g = dL/dq`` the gradient in the
    kernel is ``a_uc = (g_uc - sum_r g_rc q_rc) / S_c`` per slot c, and
    with the unit rows u, guarded norms ``|y|`` and ``cos = 2k - 1``

        grad_y = (w @ u - rowsum(w * cos) * u) / (2 |y|)

    In both, ``w = a + a.T`` sums the two slots each unordered pair
    feeds, and neither family builds it: ``w @ y = a @ y + a.T @ y``,
    and a row sum of ``w * cos`` is the row sum of ``a * cos`` plus its
    column sum, ``cos`` being symmetric to rounding; a Gaussian row sum
    of w is a's row sum alone.

    ``sup`` is an optional ``(labels, weight)`` pair, one class label per
    row of ``y``, adding ``weight * KL(t || conditionals(y))`` to the
    loss, where the targets ``t`` are uniform over each sample's
    same-class partners; the rows are taken in the stable label order.
    ``grad_y`` is always a new array, in the caller's row order.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(p_teacher, dtype=float)
    n = y.shape[0]
    if p.shape != (n, n):
        raise ValueError(f"teacher matrix {p.shape} does not match {n} student rows")
    if sup is not None:
        labels, weight = sup
        if not np.isfinite(weight) or weight < 0:
            raise ValueError("supervised weight must be nonnegative and finite")
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError(f"supervised labels of shape {labels.shape} are not one label per student row")
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        sup = (labels, weight) if weight > 0 and np.any(labels[1:] == labels[:-1]) else None  # else the term is 0
    if sup is not None:
        y, p = y[order], p[np.ix_(order, order)]
    bufs = _block_buffers(n)
    blocks = ((cs, p[:, cs], _sum_x_log_x(p[:, cs], cs, bufs[1])) for cs in _column_blocks(n))
    report = _batch_loss(y, student_spec, blocks, sup, bufs)
    if sup is not None:
        report.grad_y[order] = report.grad_y.copy()
    return report


def _batch_loss(y: np.ndarray, spec: KernelSpec, teacher_blocks: Iterable[tuple[slice, np.ndarray, float]],
                sup: tuple[np.ndarray, float] | None, bufs: np.ndarray) -> LossReport:
    """The loss and gradient of :func:`pkt_loss_and_grad` for a student ``y``, one block of conditioning columns at a time.

    ``teacher_blocks`` yields ``(cs, p, part)`` for each of the
    :func:`_column_blocks` ``cs`` in order: the N x c teacher
    conditionals ``p[:, cs]``, which the targets are added into, and the
    block's part of ``sum p log p``, after which ``bufs[1]`` is free.
    ``bufs`` comes from :func:`_block_buffers`; ``sup`` is None or has a
    positive weight and labels sorted by class.
    """
    y = _checked_features(y)
    stats = _row_stats(y, spec)
    student = _conditionals_of_rows(y, stats, spec, bufs[2], bufs[3])
    rows = y / stats[:, None] if spec.family == COSINE else y  # the cosine gradient takes unit rows
    n = rows.shape[0]
    p_log_p = sup_log = cross = 0.0
    if sup is not None:
        labels, weight = sup
        bounds, t_log_t = _label_classes(labels)
        sup_log = weight * t_log_t
    ay, aty, row_terms, col_terms = np.zeros_like(rows), np.empty_like(rows), np.zeros(n), np.empty(n)
    block_terms = _cosine_block if spec.family == COSINE else _gaussian_block
    for (cs, p, part), (_, s, q, c) in zip(teacher_blocks, student):
        p_log_p += part
        p_eff = p if sup is None else _supervised_into(p, cs, bounds, weight)
        cross_part, a, row_part, col_terms[cs] = block_terms(p_eff, cs, s, q, c, bufs[1])
        cross += cross_part
        ay += a @ rows[cs]
        aty[cs] = a.T @ rows
        row_terms += row_part
    value = p_log_p + sup_log - cross
    coupling = row_terms + col_terms
    if spec.family == COSINE:  # below the norm guard the norm is constant
        coupling = np.where(stats > NORM_EPS, coupling, 0.0)
        grad = (ay + aty - coupling[:, None] * rows) / (2.0 * stats[:, None])
    else:
        grad = (2.0 / spec.width) * (ay + aty - coupling[:, None] * rows)
    return LossReport(value=value, grad_y=grad, n_pairs=n * (n - 1))


def _gaussian_block(p_eff, cs, shifted, e, colsums, _) -> tuple[float, np.ndarray, np.ndarray, float]:
    """A Gaussian block's part of ``sum p_eff log q``, its gradient weights ``a`` in the logits, and a's row and column sums.

    The cross term is one dot product with the shifted logits less one
    with the log column sums.  ``a = e * (mass / colsums) - p_eff`` is
    written over ``e``; its column sums, ``mass - mass = 0``, are not formed.
    """
    mass = p_eff.sum(axis=0)
    mass -= np.diagonal(p_eff[cs])
    cross = float(np.dot(p_eff.ravel(), shifted.ravel())) - float(np.dot(mass, np.log(colsums)))
    a = np.multiply(e, mass / colsums, out=e)
    a -= p_eff
    np.fill_diagonal(a[cs], 0.0)
    return cross, a, a.sum(axis=1), 0.0


def _cosine_block(p_eff, cs, k, q, colsums, buf) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """A cosine block's part of ``sum p_eff log q``, its gradient weights ``a`` in the kernel, and the row and column sums of ``a * cos``.

    The cross term takes q clamped at ``Q_FLOOR``, whose log goes into
    the flat ``buf`` before ``a`` is built there.
    """
    g = buf[: q.size].reshape(q.shape)
    log_q = np.log(np.clip(q, Q_FLOOR, 1.0, out=g), out=g)
    np.fill_diagonal(log_q[cs], 0.0)
    cross = float(np.dot(p_eff.ravel(), log_q.ravel()))

    # d/dq of sum p*log(p/clamp(q)) = -p/q where the clamp is inactive
    # and p > 0; zero elsewhere (clamped entries are locally constant).
    active = (p_eff > 0.0) & (q > Q_FLOOR)
    np.fill_diagonal(active[cs], False)
    g.fill(0.0)
    np.negative(p_eff, out=g, where=active)
    a = np.divide(g, q, out=g, where=active)
    t = np.einsum("rc,rc->c", a, q)
    a -= t[None, :]
    a /= colsums[None, :]
    np.fill_diagonal(a[cs], 0.0)

    cos = np.multiply(k, 2.0, out=k)
    cos -= 1.0
    return cross, a, np.einsum("mn,mn->m", a, cos), np.einsum("mn,mn->n", a, cos)
