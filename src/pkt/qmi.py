"""Quadratic mutual information between a representation and a labeling,
decomposed into information potentials.

Unlike the conditional-probability machinery, the potential sums run
over **all** pairs, self-pairs included; the two conventions differ and
both are deliberate.

No function here builds the N x N kernel matrix.  Cosine potentials
come in closed form from the class sums of the unit rows, in O(N*D)
memory.  Gaussian potentials and the equality check walk the upper
triangle in reused tiles of ``BLOCK`` rows by ``TILE`` columns, beside
O(N*D) rows whose products give the tiles: the class-sorted augmented
rows of the Gaussian logits, the mean/difference rows of two cosine
embeddings, or both prepared embeddings.  C classes add at most the
O(C*D) class sums of the cosine form.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .kernels import (COSINE, LOGITS_OVERFLOW, KernelSpec, _augmented_rows, _checked_labels, _checked_rows, _gram_tile,
                      _kernel_of_gram, _logits_tile, _prepared_rows, _upper_tiles)

# Rows and columns of the tiles in which the kernel sums walk the upper triangle.
BLOCK = 256
TILE = 512


@dataclass(frozen=True)
class PotentialSet:
    """In-class, all-pairs, and class-against-all interaction potentials."""

    v_in: float
    v_all: float
    v_btw: float
    qmi: float


@dataclass(frozen=True)
class EqualityReport:
    """Worst pairwise kernel disagreement between two embeddings of the same samples."""

    max_deviation: float
    within_tol: bool
    tol: float


def information_potentials(feats: np.ndarray, labels, spec: KernelSpec) -> PotentialSet:
    """Compute V_in, V_all, V_btw and their combination ``v_in + v_all - 2 v_btw``.

    With class sizes J_p and N samples:

        v_in  = (1/N^2) sum_p sum_{k,l in p} K(x_k, x_l)
        v_all = (1/N^2) (sum_p (J_p/N)^2) sum_{k,l} K(x_k, x_l)
        v_btw = (1/N^2) sum_p (J_p/N) sum_{j in p} sum_k K(x_j, x_k)
    """
    feats = _checked_rows(feats, "features", 2, False)
    n = feats.shape[0]
    labels = _checked_labels(labels, n, "labels")

    _, classes = np.unique(labels, return_inverse=True)
    sizes = np.bincount(classes)
    in_class, class_rows = _class_sums(feats, classes, sizes, spec)
    prior = sizes / n

    v_in = in_class / (n * n)
    v_all = float(prior @ prior) * float(class_rows.sum()) / (n * n)
    v_btw = float(prior @ class_rows) / (n * n)
    return PotentialSet(v_in=v_in, v_all=v_all, v_btw=v_btw, qmi=v_in + v_all - 2.0 * v_btw)


def _class_sums(feats: np.ndarray, classes: np.ndarray, sizes: np.ndarray, spec: KernelSpec):
    """The within-class kernel sum, and per class p the sum of ``K(x_j, x_k)`` over j in p and all k.

    ``classes`` holds each row's class index and ``sizes`` the class sizes
    J_p.  Both families sort the rows by class.  Cosine uses the closed
    form over unit rows u, with class sums s_p = sum_{j in p} u_j and
    their total s:
    sum_{k,l in p} (u_k . u_l + 1) / 2 = (s_p . s_p + J_p^2) / 2 and
    sum_{j in p, k} (u_j . u_k + 1) / 2 = (s_p . s + J_p N) / 2.
    Gaussian walks the upper triangle of the sorted kernel matrix in
    tiles.  A tile's row sums go to its rows, and the column sums of its
    part right of the diagonal block (the square of its rows' own
    columns) go to its columns.  Each class p spans one range of sorted
    rows, so its within-class pairs in a tile form one rectangle: the
    part inside the diagonal block counts once and the rest twice, for
    the mirrored lower triangle.  A class that spans all of a tile's rows
    takes its rectangle's column sums from the tile's.
    """
    rows, stats = _prepared_rows(feats, spec)
    n = rows.shape[0]
    order = np.argsort(classes, kind="stable")
    if spec.family == COSINE:
        sums = np.add.reduceat(rows[order], np.cumsum(sizes) - sizes, axis=0)
        in_class = float(np.sum((np.einsum("ij,ij->i", sums, sums) + sizes * sizes) / 2.0))
        return in_class, (sums @ sums.sum(axis=0) + sizes * n) / 2.0
    a, b = _augmented_rows(rows, stats, spec.width, order)
    if not np.all(np.isfinite(b)) and np.all(np.isfinite(rows)):  # a holds x, -1 and -b[:, d + 1]
        raise ValueError(LOGITS_OVERFLOW)
    classes = classes[order]
    bounds = np.cumsum(sizes).tolist()  # class p spans the sorted rows [bounds[p - 1], bounds[p])
    in_class = 0.0
    row_sums = np.zeros(n)
    buf, ones, weights = np.empty(BLOCK * TILE), np.ones(max(BLOCK, TILE)), np.empty(TILE)
    for rs, cs in _upper_tiles(n, BLOCK, TILE):
        k = _logits_tile(a, b, rs, cs, buf)
        np.exp(k, out=k)
        height, width = k.shape
        upper = max(rs.stop - cs.start, 0)  # the tile's first column right of the diagonal block
        if upper:  # a self-pair's logit is a rounding residue over the width, so its kernel is set to 1
            selves = k[cs.start - rs.start :]
            np.fill_diagonal(selves, np.diagonal(selves) * 0.0 + 1.0)  # 0 * NaN keeps a NaN row NaN
        row_sums[rs] += k @ ones[:width]
        col = ones[:height] @ k
        row_sums[cs.start + upper : cs.stop] += col[upper:]
        w = weights[:width]  # a pair right of the diagonal block also stands for its mirror
        w[:upper], w[upper:] = 1.0, 2.0
        first = max(classes[rs.start], classes[cs.start])
        for p in range(first, min(classes[rs.stop - 1], classes[cs.stop - 1]) + 1):  # classes in both ranges
            start = bounds[p - 1] if p else 0
            r0, r1 = max(start - rs.start, 0), min(bounds[p], rs.stop) - rs.start
            c0, c1 = max(start - cs.start, 0), min(bounds[p], cs.stop) - cs.start
            part = col[c0:c1] if r1 - r0 == height else ones[: r1 - r0] @ k[r0:r1, c0:c1]  # its column sums
            in_class += float(part @ w[c0:c1])
    return in_class, np.bincount(classes, weights=row_sums)


def potential_equality_check(
    teacher: np.ndarray,
    student: np.ndarray,
    spec_t: KernelSpec,
    spec_s: KernelSpec,
    tol: float,
) -> EqualityReport:
    """Max over all pairs of ``|K_t(x_i, x_j) - K_s(y_i, y_j)|``, one ``BLOCK`` x ``TILE`` tile at a time.

    When the deviation stays within ``tol``, every information potential
    of the two embeddings agrees within ``tol`` as well for any labeling
    (each potential is a 1/N^2-scaled sum of N^2 kernel terms with
    weights at most 1).  Two cosine kernels take one product per tile
    (:func:`_cosine_differences`), other pairs both kernels' values.  A
    NaN or infinite feature makes the deviation NaN.
    """
    teacher = _checked_rows(teacher, "teacher features", 1, False)
    student = _checked_rows(student, "student features", 1, False)
    if teacher.shape[0] != student.shape[0]:
        raise ValueError(f"teacher features of shape {teacher.shape} do not embed the {student.shape[0]} student samples")
    if not tol >= 0:  # NaN included
        raise ValueError("tol must be non-negative")
    if spec_t.family == spec_s.family == COSINE:
        scale, tiles = 0.5, _cosine_differences(teacher, student, spec_t)
    else:
        scale, tiles = 1.0, _kernel_differences(teacher, student, spec_t, spec_s)
    with np.errstate(invalid="ignore"):  # an infinite feature gives NaN, as a NaN one does
        max_dev = scale * float(np.max([np.abs(dev, out=dev).max() for dev in tiles]))  # np.max keeps a NaN
    return EqualityReport(max_deviation=max_dev, within_tol=max_dev <= tol, tol=tol)


def _cosine_differences(teacher: np.ndarray, student: np.ndarray, spec: KernelSpec) -> Iterator[np.ndarray]:
    """``g_t - g_s``, the difference of the Gram products of the guarded unit rows, tile by tile.

    Rows ``a = [m, e, x]`` hold ``m = (u_t + u_s) / 2`` and ``e = u_t - u_s``
    over the first ``k = min(Dt, Ds)`` columns, and x the wider side's other
    columns.  A tile's columns take ``b = [e, m, +-x]`` (``-`` where the
    student is the wider), so ``a_i . b_j = u_t,i . u_t,j - u_s,i . u_s,j``,
    which is ``2 (K_t - K_s)`` up to the kernel's clip at +-1.  A copy's
    ``e`` is 0, so its tiles are exactly 0.  ``a`` is built ``BLOCK`` rows
    at a time: no N x D unit copy is held beside it.
    """
    (n, dt), ds = teacher.shape, student.shape[1]
    k = min(dt, ds)
    a = np.empty((n, dt + ds))
    for lo in range(0, n, BLOCK):
        t, s = (_prepared_rows(x[lo : lo + BLOCK], spec)[0] for x in (teacher, student))
        wide = t if dt >= ds else s
        np.concatenate([(t[:, :k] + s[:, :k]) * 0.5, t[:, :k] - s[:, :k], wide[:, k:]], axis=1, out=a[lo : lo + BLOCK])
    buf, prod = np.empty(TILE * (dt + ds)), np.empty(BLOCK * TILE)
    for rs, cs in _upper_tiles(n, BLOCK, TILE):
        b = buf[: (cs.stop - cs.start) * (dt + ds)].reshape(-1, dt + ds)
        np.concatenate([a[cs, k : 2 * k], a[cs, :k], (1.0 if dt >= ds else -1.0) * a[cs, 2 * k :]], axis=1, out=b)
        yield _gram_tile(a, b, rs, slice(0, b.shape[0]), prod)


def _kernel_differences(teacher: np.ndarray, student: np.ndarray, spec_t: KernelSpec,
                        spec_s: KernelSpec) -> Iterator[np.ndarray]:
    """``K_t - K_s`` tile by tile, from the kernel values of both prepared embeddings.

    Each is :func:`kernel_matrix`'s value up to its last bits, which BLAS
    may round differently in a product of another shape.
    """
    t_rows, t_stats = _prepared_rows(teacher, spec_t)
    s_rows, s_stats = _prepared_rows(student, spec_s)
    gram, k_t, k_s = (np.empty(BLOCK * TILE) for _ in range(3))
    for rs, cs in _upper_tiles(teacher.shape[0], BLOCK, TILE):
        g = _gram_tile(t_rows, t_rows, rs, cs, gram)
        dev = _kernel_of_gram(g, t_stats[rs], t_stats[cs], spec_t, out=k_t[: g.size].reshape(g.shape))
        g = _gram_tile(s_rows, s_rows, rs, cs, gram)
        dev -= _kernel_of_gram(g, s_stats[rs], s_stats[cs], spec_s, out=k_s[: g.size].reshape(g.shape))
        yield dev
