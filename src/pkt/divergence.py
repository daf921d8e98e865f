"""Divergence losses between teacher and student conditionals, and the
analytic gradient of the training loss with respect to the student
embeddings.

The loss is a **sum** over ordered off-diagonal pairs, not a mean, so
its scale grows with the batch; the learning rate in the trainer is
documented as batch-size-coupled for that reason.

With a Gaussian student the loss and its gradient are computed from the
log-domain conditionals (the SNE/t-SNE formulation), exact at any
width: nothing is clamped.  With a cosine student the conditionals are
linear, and ``Q_FLOOR`` clamps them inside the log.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .affinity import _gaussian_log_conditionals, kernel_and_conditionals
from .kernels import COSINE, NORM_EPS, KernelSpec, _upper_tiles

# Floor applied to cosine student conditionals and to kl_loss's q inside
# the log; far below any conditional reachable with cosine kernels at
# trainable batch sizes.
Q_FLOOR = 1e-7

# Largest number of entries kl_loss gathers in one temporary.
GATHER_ENTRIES = 1 << 14

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
    return _kl_of_clamped(p, np.clip(q, Q_FLOOR, 1.0), np.empty(p.size), np.empty(p.size))


def _kl_of_clamped(p: np.ndarray, qc: np.ndarray, p_buf: np.ndarray, qc_buf: np.ndarray) -> float:
    """:func:`kl_loss` of ``p`` against ``qc``, student conditionals already clamped to [Q_FLOOR, 1].

    The terms are those of ``p[mask] * log(p[mask] / qc[mask])``, summed
    in that order.  The masked entries are gathered into the flat buffers
    ``p_buf`` and ``qc_buf`` of at least ``p.size`` entries each, a block
    of rows at a time, so no temporary holds more than GATHER_ENTRIES.
    """
    mask = p > 0.0
    np.fill_diagonal(mask, False)
    rows = max(1, GATHER_ENTRIES // max(1, p.shape[1]))
    end = 0
    for lo in range(0, p.shape[0], rows):
        block = mask[lo : lo + rows]
        start, end = end, end + np.count_nonzero(block)
        p_buf[start:end] = p[lo : lo + rows][block]
        qc_buf[start:end] = qc[lo : lo + rows][block]
    p_terms, terms = p_buf[:end], qc_buf[:end]
    np.divide(p_terms, terms, out=terms)
    np.log(terms, out=terms)
    terms *= p_terms
    return float(np.sum(terms))


def supervised_targets(labels, *, out: np.ndarray | None = None) -> np.ndarray:
    """Label-derived target conditionals: uniform over same-class partners.

    ``targets[i, j] = 1 / c_j`` if samples i and j share a class (i != j,
    c_j partners in slot j).  Slots without partners are all-zero
    columns; they contribute nothing to a KL against these targets.
    Raises if every label is a singleton.  The targets are written into
    ``out``, an N x N float array, or a new one when None.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 2:
        raise ValueError("need at least 2 labels")
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    counts = same.sum(axis=0)
    if not np.any(counts > 0):
        raise ValueError("all labels are singletons: no same-class pair exists")
    # a slot without partners is an all-False column, so dividing it by 1 zeroes it
    return np.divide(same, np.maximum(counts, 1), out=out)


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


def _targets_log_targets(targets: np.ndarray) -> float:
    """Sum of ``t * log(t)`` over label-derived targets, from their class counts.

    A column with c partners holds 1/c in each of them, so it adds
    ``log(1/c)``, and 1/c is the column's maximum.
    """
    top = targets.max(axis=0)
    return float(np.log(top[top > 0.0]).sum())


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

    ``sup`` is an optional ``(targets, weight)`` pair adding
    ``weight * KL(targets || conditionals(y))`` to the loss; the targets
    are label-derived, as :func:`supervised_targets` builds them.
    ``p_log_p`` is ``sum p log p`` over the teacher's off-diagonal
    entries when the caller already has it; when None, a Gaussian
    student's value computes it from ``p_teacher``.  The cosine value
    does not read it.

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
        sup_targets, weight = sup
        sup_targets = np.asarray(sup_targets, dtype=float)
        if sup_targets.shape != (n, n):
            raise ValueError("supervised target size mismatch")
        if not np.isfinite(weight) or weight < 0:
            raise ValueError("supervised weight must be nonnegative and finite")
    if workspace is None:
        workspace = [np.empty(n * n) for _ in range(LOSS_BUFFERS)]
    inputs = (y, p) if sup is None else (y, p, sup_targets)
    bufs = _squares(workspace, n, inputs)
    sup = (sup_targets, weight) if sup is not None and weight > 0 else None

    p_eff = p
    if sup is not None:
        p_eff = np.multiply(sup_targets, weight, out=bufs[2])
        p_eff += p
    if student_spec.family == COSINE:
        value, grad = _cosine_loss_and_grad(y, p, p_eff, sup, student_spec, bufs)
    else:
        value, grad = _gaussian_loss_and_grad(y, p, p_eff, sup, p_log_p, student_spec, bufs)
    return LossReport(value=value, grad_y=grad, n_pairs=n * (n - 1))


def _gaussian_loss_and_grad(y, p, p_eff, sup, p_log_p, spec, bufs) -> tuple[float, np.ndarray]:
    """:func:`pkt_loss_and_grad` for a Gaussian student, from the log-domain conditionals.

    The cross term ``sum p_eff log q`` is one dot product with the
    shifted logits and one with the log column sums.  ``bufs[2]`` holds
    ``p_eff`` when ``sup`` is given; ``bufs[3]`` is used only to take
    ``p log p`` when ``p_log_p`` is None.
    """
    l_buf, q_buf, e_buf, x_buf = bufs
    shifted, q, log_colsums = _gaussian_log_conditionals(y, spec, out=(l_buf, q_buf))
    mass = p_eff.sum(axis=0)
    mass -= np.diagonal(p_eff)
    if p_log_p is None:
        p_log_p = _sum_x_log_x(p, x_buf)
    value = p_log_p - float(np.dot(p_eff.ravel(), shifted.ravel())) + float(np.dot(mass, log_colsums))
    if sup is not None:
        value += sup[1] * _targets_log_targets(sup[0])

    a = np.multiply(q, mass[None, :], out=q)
    a -= p_eff
    np.fill_diagonal(a, 0.0)
    w = _symmetrized(a, e_buf)  # p_eff is not read again
    return value, (-2.0 / spec.width) * (w.sum(axis=1)[:, None] * y - w @ y)


def _cosine_loss_and_grad(y, p, p_eff, sup, spec, bufs) -> tuple[float, np.ndarray]:
    """:func:`pkt_loss_and_grad` for a cosine student, from the linear conditionals clamped at ``Q_FLOOR``."""
    k_buf, q_buf, e_buf, g_buf = bufs
    k, colsums, q = kernel_and_conditionals(y, spec, out=(k_buf, q_buf))
    a = _dloss_dq(p_eff, q, g_buf)
    t = np.einsum("rc,rc->c", a, q)
    a -= t[None, :]
    a /= colsums[None, :]
    np.fill_diagonal(a, 0.0)
    w = _symmetrized(a, e_buf)  # p_eff is not read again

    norms = np.linalg.norm(y, axis=1)
    dens = np.maximum(norms, NORM_EPS)
    u = y / dens[:, None]
    cos = np.multiply(k, 2.0, out=k)  # k has a zeroed diagonal; w does too
    cos -= 1.0
    coupled = np.einsum("mn,mn->m", w, cos)
    active = norms > NORM_EPS    # below the guard the norm is constant
    grad = (w @ u - np.where(active, coupled, 0.0)[:, None] * u) / (2.0 * dens[:, None])

    # The value comes last, so that its gathered terms can use the buffers of k and a.
    qc = np.clip(q, Q_FLOOR, 1.0, out=q)
    value = _kl_of_clamped(p, qc, k_buf.ravel(), g_buf.ravel())
    if sup is not None:
        value += sup[1] * _kl_of_clamped(sup[0], qc, k_buf.ravel(), g_buf.ravel())
    return value, grad
