"""Divergence losses between teacher and student conditionals, and the
analytic gradient of the training loss with respect to the student
embeddings.

The loss is a **sum** over ordered off-diagonal pairs, not a mean, so
its scale grows with the batch; the learning rate in the trainer is
documented as batch-size-coupled for that reason.

The optional supervised term is built from class labels: its targets
are uniform over each sample's same-class partners, so ``sum t log t``
follows from the class counts alone.  Both kernel families share one
value, ``sum p log p + weight * sum t log t - sum p_eff log q`` with
``p_eff = p + weight * t``; each family computes only its cross term
``sum p_eff log q`` and the gradient.  With a Gaussian student both come
from the log-domain conditionals (the SNE/t-SNE formulation), exact at
any width: nothing is clamped.  With a cosine student the conditionals
are linear, and ``Q_FLOOR`` clamps them inside the log.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .affinity import _checked_features, _conditionals_of_rows
from .kernels import COSINE, NORM_EPS, KernelSpec, _prepared_rows, _upper_tiles

# Floor applied to cosine student conditionals and to kl_loss's q inside
# the log; far below any conditional reachable with cosine kernels at
# trainable batch sizes.
Q_FLOOR = 1e-7

# Flat N * N buffers that one pkt_loss_and_grad call writes its N x N arrays into.
LOSS_BUFFERS = 4


@dataclass
class LossReport:
    value: float
    grad_y: np.ndarray
    n_pairs: int


def _check_same_shape(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("probability matrices must be square")
    if p.shape != q.shape:
        raise ValueError(f"size mismatch: {p.shape} vs {q.shape}")
    return p, q


def kl_loss(p_teacher: np.ndarray, q_student: np.ndarray) -> float:
    """Sum of ``p * log(p / q)`` over off-diagonal entries, with q clamped to [1e-7, 1].

    Zero p-entries contribute nothing (the 0 * log 0 = 0 limit), so
    target matrices with empty slots are handled without special casing.
    """
    p, q = _check_same_shape(p_teacher, q_student)
    m = p > 0.0
    np.fill_diagonal(m, False)
    return float(np.sum(p[m] * np.log(p[m] / np.clip(q, Q_FLOOR, 1.0)[m])))


def _supervised_into(p: np.ndarray, labels: np.ndarray, weight: float, out: np.ndarray) -> float:
    """Write ``p_eff = p + weight * t`` into ``out`` for the label targets ``t``; return ``sum t log t``.

    ``t[i, j] = 1 / c_j`` if samples i != j share a class, c_j being the
    number of slot j's same-class partners.  A slot without partners is
    an all-zero column of ``t``, which adds nothing to either sum, so a
    batch of distinct labels leaves ``p_eff`` equal to ``p``.
    """
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    counts = same.sum(axis=0)
    np.divide(same, np.maximum(counts, 1), out=out)
    out *= weight
    out += p
    return float(np.log(1.0 / counts[counts > 0]).sum())


def _dloss_dq(p_eff: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    # d/dq of sum p*log(p/clamp(q)) = -p/q where the clamp is inactive
    # and p > 0; zero elsewhere (clamped entries are locally constant).
    active = (p_eff > 0.0) & (q > Q_FLOOR)
    np.fill_diagonal(active, False)
    out.fill(0.0)
    np.negative(p_eff, out=out, where=active)
    return np.divide(out, q, out=out, where=active)


def _squares(workspace, n: int, arrays) -> list[np.ndarray]:
    """The first ``n * n`` entries of each workspace buffer, as C-contiguous n x n arrays."""
    if len(workspace) < LOSS_BUFFERS:
        raise ValueError(f"the workspace needs {LOSS_BUFFERS} buffers")
    squares = []
    for buf in workspace[:LOSS_BUFFERS]:
        if buf.dtype != np.float64 or buf.ndim != 1 or buf.size < n * n or not buf.flags.c_contiguous:
            raise ValueError(f"workspace buffers must be flat float64 arrays of at least {n * n} entries")
        if any(np.may_share_memory(buf, a) for a in arrays):
            raise ValueError("workspace buffers must not share memory with the inputs")
        squares.append(buf[: n * n].reshape(n, n))
    return squares


def _symmetrized(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a + a.T`` written into ``out``: each upper tile once, copied transposed into its mirror."""
    for rs, cs in _upper_tiles(a.shape[0]):
        np.add(a[rs, cs], a[cs, rs].T, out=out[rs, cs])
        if cs.start > rs.start:
            out[cs, rs] = out[rs, cs].T
    return out


def _sum_x_log_x(m: np.ndarray, buf: np.ndarray) -> float:
    """Sum of ``m * log(m)`` over the off-diagonal entries of ``m`` with ``m > 0``, using the N x N ``buf``."""
    buf.fill(0.0)
    np.log(m, out=buf, where=m > 0.0)
    np.fill_diagonal(buf, 0.0)
    return float(np.dot(m.ravel(), buf.ravel()))


def pkt_loss_and_grad(
    y: np.ndarray,
    p_teacher: np.ndarray,
    student_spec: KernelSpec,
    sup: tuple[np.ndarray, float] | None = None,
    *,
    workspace: Sequence[np.ndarray] | None = None,
    p_log_p: float | None = None,
) -> LossReport:
    """KL(teacher || student-conditionals(y)) and its exact gradient in y.

    The gradient accounts for the normalization coupling (every
    conditional in a slot depends on the whole slot through its
    denominator).  With ``p_eff`` the teacher plus the weighted targets,
    the loss is ``sum p log p + weight * sum t log t - sum p_eff log q``.

    Gaussian student: with logits ``L = -d^2 / width`` and
    ``log q = L - logsumexp`` down each column, the gradient in the
    logits is ``a = q * colsum(p_eff) - p_eff``.  L is symmetric, so the
    pair (u, v) has ``dL/d(d^2_uv) = -(a_uv + a_vu) / width``, and

        grad_y = (-2 / width) * (rowsum(w) * y - w @ y),   w = a + a.T

    Cosine student: q is the kernel over its column sums S_c, clamped at
    ``Q_FLOOR`` inside the log, and per conditioning slot c

        dL/dk_uc = (g_uc - sum_r g_rc q_rc) / S_c,   g = dL/dq

    then symmetrized over the two slots each unordered pair feeds, and
    pushed through the kernel's own derivative and the row-norm terms.

    ``sup`` is an optional ``(labels, weight)`` pair, one class label per
    row of ``y``, adding ``weight * KL(t || conditionals(y))`` to the
    loss, where the targets ``t`` are uniform over each sample's
    same-class partners.  ``p_log_p`` is ``sum p log p`` over the
    teacher's off-diagonal entries when the caller already has it; when
    None, it is computed from ``p_teacher``.

    Every N x N float array of the call is written into ``workspace``, a
    sequence of ``LOSS_BUFFERS`` flat float64 arrays of at least N * N
    entries each that share no memory with the inputs; by default the
    call allocates its own.  ``grad_y`` is always a new array.
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
    if workspace is None:
        workspace = [np.empty(n * n) for _ in range(LOSS_BUFFERS)]
    bufs = _squares(workspace, n, (y, p))

    if p_log_p is None:
        p_log_p = _sum_x_log_x(p, bufs[3])
    p_eff, sup_log = p, 0.0
    if sup is not None and weight > 0:
        sup_log = weight * _supervised_into(p, labels, weight, bufs[2])
        p_eff = bufs[2]
    rows, stats = _prepared_rows(_checked_features(y), student_spec)
    cross_and_grad = _cosine_cross_and_grad if student_spec.family == COSINE else _gaussian_cross_and_grad
    cross, grad = cross_and_grad(rows, stats, p_eff, student_spec, bufs)
    return LossReport(value=p_log_p + sup_log - cross, grad_y=grad, n_pairs=n * (n - 1))


def _gaussian_cross_and_grad(y, stats, p_eff, spec, bufs) -> tuple[float, np.ndarray]:
    """``sum p_eff log q`` and the loss gradient for a Gaussian student ``y`` and its squared norms.

    The cross term is one dot product with the shifted logits less one
    with the log column sums.  ``bufs[3]`` is not used.
    """
    l_buf, q_buf, e_buf, _ = bufs
    shifted, q, log_colsums = _conditionals_of_rows(y, stats, spec, out=l_buf, q_out=q_buf)
    mass = p_eff.sum(axis=0)
    mass -= np.diagonal(p_eff)
    cross = float(np.dot(p_eff.ravel(), shifted.ravel())) - float(np.dot(mass, log_colsums))

    a = np.multiply(q, mass[None, :], out=q)
    a -= p_eff
    np.fill_diagonal(a, 0.0)
    w = _symmetrized(a, e_buf)  # p_eff is not read again
    return cross, (-2.0 / spec.width) * (w.sum(axis=1)[:, None] * y - w @ y)


def _cosine_cross_and_grad(u, dens, p_eff, spec, bufs) -> tuple[float, np.ndarray]:
    """``sum p_eff log q`` and the loss gradient for a cosine student, from its unit rows and guarded norms.

    The cross term takes q clamped at ``Q_FLOOR``, whose log goes into
    the gradient's buffer before the gradient is built there.
    """
    k_buf, q_buf, e_buf, g_buf = bufs
    k, q, colsums = _conditionals_of_rows(u, dens, spec, out=k_buf, q_out=q_buf)
    log_q = np.log(np.clip(q, Q_FLOOR, 1.0, out=g_buf), out=g_buf)
    np.fill_diagonal(log_q, 0.0)
    cross = float(np.dot(p_eff.ravel(), log_q.ravel()))

    a = _dloss_dq(p_eff, q, g_buf)
    t = np.einsum("rc,rc->c", a, q)
    a -= t[None, :]
    a /= colsums[None, :]
    np.fill_diagonal(a, 0.0)
    w = _symmetrized(a, e_buf)  # p_eff is not read again

    cos = np.multiply(k, 2.0, out=k)  # k has a zeroed diagonal; w does too
    cos -= 1.0
    coupled = np.einsum("mn,mn->m", w, cos)
    active = dens > NORM_EPS    # below the guard the norm is constant
    return cross, (w @ u - np.where(active, coupled, 0.0)[:, None] * u) / (2.0 * dens[:, None])
