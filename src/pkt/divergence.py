"""Divergence losses between teacher and student conditionals, and the
analytic gradient of the training loss with respect to the student
embeddings.

The loss is a **sum** over ordered off-diagonal pairs, not a mean, so
its scale grows with the batch; the learning rate in the trainer is
documented as batch-size-coupled for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import kernel_and_conditionals
from .kernels import COSINE, NORM_EPS, KernelSpec

# Floor applied to student conditionals inside the log; far below any
# conditional reachable with cosine kernels at trainable batch sizes.
Q_FLOOR = 1e-7


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
    qc = np.clip(q, Q_FLOOR, 1.0)
    mask = p > 0.0
    np.fill_diagonal(mask, False)
    return float(np.sum(p[mask] * np.log(p[mask] / qc[mask])))


def supervised_targets(labels) -> np.ndarray:
    """Label-derived target conditionals: uniform over same-class partners.

    ``targets[i, j] = 1 / c_j`` if samples i and j share a class (i != j,
    c_j partners in slot j).  Slots without partners are all-zero
    columns; they contribute nothing to a KL against these targets.
    Raises if every label is a singleton.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 2:
        raise ValueError("need at least 2 labels")
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    counts = same.sum(axis=0)
    mask = counts > 0
    if not np.any(mask):
        raise ValueError("all labels are singletons: no same-class pair exists")
    targets = np.zeros(same.shape)
    cols = np.where(mask)[0]
    targets[:, cols] = same[:, cols] / counts[cols]
    return targets


def _dloss_dq(p_eff: np.ndarray, q: np.ndarray) -> np.ndarray:
    # d/dq of sum p*log(p/clamp(q)) = -p/q where the clamp is inactive
    # and p > 0; zero elsewhere (clamped entries are locally constant).
    g = np.zeros_like(q)
    active = (p_eff > 0.0) & (q > Q_FLOOR)
    np.fill_diagonal(active, False)
    g[active] = -p_eff[active] / q[active]
    return g


def pkt_loss_and_grad(
    y: np.ndarray,
    p_teacher: np.ndarray,
    student_spec: KernelSpec,
    sup: tuple[np.ndarray, float] | None = None,
) -> LossReport:
    """KL(teacher || student-conditionals(y)) and its exact gradient in y.

    The gradient accounts for the normalization coupling (every
    conditional in a slot depends on the whole slot through its
    denominator) and, for the cosine kernel, for the row-norm terms.
    Chain rule, per conditioning slot c with kernel column k and sum S_c:

        dL/dk_uc = (g_uc - sum_r g_rc q_rc) / S_c,   g = dL/dq

    then symmetrized over the two slots each unordered pair feeds, and
    pushed through the kernel's own derivative.

    ``sup`` is an optional ``(targets, weight)`` pair adding
    ``weight * KL(targets || conditionals(y))`` to the loss.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(p_teacher, dtype=float)
    n = y.shape[0]
    if p.shape != (n, n):
        raise ValueError(f"teacher matrix {p.shape} does not match {n} student rows")

    k, colsums, q = kernel_and_conditionals(y, student_spec)

    value = kl_loss(p, q)
    p_eff = p
    if sup is not None:
        sup_targets, weight = sup
        sup_targets = np.asarray(sup_targets, dtype=float)
        if sup_targets.shape != (n, n):
            raise ValueError("supervised target size mismatch")
        if not np.isfinite(weight) or weight < 0:
            raise ValueError("supervised weight must be nonnegative and finite")
        if weight > 0:
            value += weight * kl_loss(sup_targets, q)
            p_eff = p + weight * sup_targets

    g = _dloss_dq(p_eff, q)
    t = np.einsum("rc,rc->c", g, q)
    a = (g - t[None, :]) / colsums[None, :]
    np.fill_diagonal(a, 0.0)
    w = a + a.T

    if student_spec.family == COSINE:
        norms = np.linalg.norm(y, axis=1)
        dens = np.maximum(norms, NORM_EPS)
        u = y / dens[:, None]
        cos = 2.0 * k - 1.0          # k has a zeroed diagonal; w does too
        coupled = np.einsum("mn,mn->m", w, cos)
        active = norms > NORM_EPS    # below the guard the norm is constant
        grad = (w @ u - np.where(active, coupled, 0.0)[:, None] * u) / (2.0 * dens[:, None])
    else:
        wk = w * k
        row = wk.sum(axis=1)
        grad = (-2.0 / student_spec.width) * (row[:, None] * y - wk @ y)

    return LossReport(value=value, grad_y=grad, n_pairs=n * (n - 1))
