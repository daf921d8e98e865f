"""Pairwise affinity kernels.

Two families are supported: a cosine-similarity affinity remapped to
[0, 1], and a Gaussian (squared-exponential) kernel.  Both are symmetric
and bounded, ``K(a, b) in [0, 1]``, with ``K(a, a) = 1`` for any nonzero
vector.

The Gaussian ``width`` is the *full* scale denominator::

    K(a, b) = exp(-||a - b||^2 / width)

Callers pass one number; no squaring or doubling happens internally.
The Gaussian core computes the logits ``-d^2 / width`` and then their
exponential; Gaussian conditionals start from the logits, so they are
normalized in the log domain and never underflow.  Corpus-scale sums
get a whole tile of logits from one product of augmented rows.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

COSINE = "cosine"
GAUSSIAN = "gaussian"

# Norm guard for the cosine kernel: a row whose norm falls below this is
# treated as having norm NORM_EPS, so a dead (all-zero) embedding yields
# the neutral similarity 0.5 instead of raising mid-training.
NORM_EPS = 1e-8

# Side of the square tiles in which a whole kernel matrix is built: a
# tile and its mirror stay in cache while one is copied into the other.
TILE = 128


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus width. ``width`` is required for Gaussian, ignored for cosine."""

    family: str
    width: float | None = None

    def __post_init__(self):
        if self.family not in (COSINE, GAUSSIAN):
            raise ValueError(f"unknown kernel family: {self.family!r}")
        if self.family == GAUSSIAN:
            if self.width is None or not np.isfinite(self.width) or self.width <= 0:
                raise ValueError("Gaussian kernel requires a positive finite width")


def cosine_kernel() -> KernelSpec:
    return KernelSpec(COSINE)


def gaussian_kernel(width: float) -> KernelSpec:
    return KernelSpec(GAUSSIAN, float(width))


def _safe_norms(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.norm(x, axis=-1), NORM_EPS)


def kernel_matrix(x: np.ndarray, spec: KernelSpec, *, out: np.ndarray | None = None) -> np.ndarray:
    """Full N x N kernel matrix of the rows of ``x``, self-pairs included.

    The result is exactly symmetric: the upper triangle is computed in
    square tiles of side ``TILE`` and mirrored into the lower one, and
    each diagonal tile's Gram product is itself exactly symmetric.  It is
    written into ``out``, an N x N float array, or a new one when None.
    """
    rows, stats = _prepared_rows(x, spec)
    return _kernel_of_rows(rows, stats, spec, out=out)


def _prepared_rows(x: np.ndarray, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a float N x D matrix ready for the kernel cores, and its :func:`_row_stats`.

    Cosine rows come back divided by their guarded norms.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an N x D matrix")
    stats = _row_stats(x, spec)
    if spec.family == COSINE:
        x = x / stats[:, None]
    return x, stats


def _row_stats(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The per-row statistic the kernel needs: guarded norms (cosine) or squared norms (Gaussian).

    Each row is reduced on its own, so the values do not depend on which
    other rows share the array, as long as the rows are C-contiguous.
    """
    if spec.family == COSINE:
        return _safe_norms(x)
    return np.einsum("ij,ij->i", x, x)


def _upper_tiles(n: int, height: int = TILE, width: int = TILE) -> Iterator[tuple[slice, slice]]:
    """``(rs, cs)`` slice pairs of the ``height`` x ``width`` tiles that cover the upper triangle of n x n.

    Each range ``rs`` of ``height`` rows is walked from its own first
    column to the last, so the diagonal block ``[rs, rs]`` is covered
    whole, and every other pair (i, j) with i < j lies in exactly one
    tile, above the diagonal.
    """
    for lo in range(0, n, height):
        rs = slice(lo, min(lo + height, n))
        for c_lo in range(lo, n, width):
            yield rs, slice(c_lo, min(c_lo + width, n))


def _kernel_of_rows(rows: np.ndarray, stats: np.ndarray, spec: KernelSpec, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix from prepared rows and their :func:`_row_stats`, written into ``out``.

    Cosine rows must already be divided by their norms; Gaussian rows are
    the features themselves.  ``out`` is a new array when None.  Each
    upper tile is computed in place and copied, transposed, into its
    mirror tile; a diagonal tile's Gram product ``a @ a.T`` is exactly
    symmetric, so the matrix is too.
    """
    return _mirrored_tiles(rows, stats, partial(_kernel_of_gram, spec=spec), out)


def _logits_of_rows(rows: np.ndarray, stats: np.ndarray, width: float, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian logits ``-clip(d^2, 0) / width`` of rows and their squared norms, written into ``out``.

    Built tile by tile like :func:`_kernel_of_rows`, so ``exp`` of the
    result is the Gaussian kernel matrix of the same rows, bit for bit.
    """
    return _mirrored_tiles(rows, stats, partial(_logits_of_gram, width=width), out)


def _mirrored_tiles(rows: np.ndarray, stats: np.ndarray, core, out: np.ndarray | None) -> np.ndarray:
    """Apply ``core(g, stats_a, stats_b, out=)`` to the Gram product of every upper tile and mirror it."""
    n = rows.shape[0]
    out = np.empty((n, n)) if out is None else out
    gram = np.empty(min(n, TILE) ** 2)
    for rs, cs in _upper_tiles(n):
        tile = core(_gram_tile(rows, rows, rs, cs, gram), stats[rs], stats[cs], out=out[rs, cs])
        if cs.start > rs.start:
            out[cs, rs] = tile.T
    return out


def _kernel_tile(rows: np.ndarray, stats: np.ndarray, rs: slice, cs: slice, spec: KernelSpec,
                 gram: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``K[rs, cs]`` of prepared rows and their :func:`_row_stats`, in caller-owned buffers.

    ``gram`` is a flat float buffer of at least the tile's size, and
    ``out`` is another or an array of the tile's shape, such as a view
    into a whole kernel matrix; the Gram product goes into ``gram`` and
    the kernel values, returned as a view, into ``out``.  The arithmetic
    is that of :func:`kernel_matrix`, but BLAS may round an entry of a
    product of one shape differently from the same entry of another, so
    a value can differ from the matrix's in its last bits.
    """
    g = _gram_tile(rows, rows, rs, cs, gram)
    return _kernel_of_gram(g, stats[rs], stats[cs], spec, out=out[: g.size].reshape(g.shape))


def _gram_tile(a: np.ndarray, b: np.ndarray, rs: slice, cs: slice, gram: np.ndarray) -> np.ndarray:
    """``a[rs] @ b[cs].T``, written into the flat buffer ``gram``."""
    shape = (rs.stop - rs.start, cs.stop - cs.start)
    return np.matmul(a[rs], b[cs].T, out=gram[: shape[0] * shape[1]].reshape(shape))


def _augmented_rows(rows: np.ndarray, stats: np.ndarray, width: float,
                    order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``a = [x, -s/width, -1]`` and ``b = [2x/width, 1, s/width]`` of rows x and their squared norms s.

    ``a_i . b_j = -(s_i + s_j - 2 x_i . x_j) / width`` is the Gaussian
    logit of the pair, so one product gives a whole tile of logits; see
    :func:`_gaussian_tile`.  Each is an N x (D + 2) array with its rows
    taken in ``order``, and ``b`` is built from ``a``, so no third copy
    of the rows is held.  The logits are finite as long as ``s / width`` is.
    """
    n, d = rows.shape
    stats = stats[order]
    a = np.empty((n, d + 2))
    a[:, :d] = rows[order]
    np.divide(stats, -width, out=a[:, d])
    a[:, d + 1] = -1.0
    b = np.empty((n, d + 2))
    np.divide(a[:, :d], 0.5 * width, out=b[:, :d])
    b[:, d] = 1.0
    np.divide(stats, width, out=b[:, d + 1])
    return a, b


def _gaussian_tile(a: np.ndarray, b: np.ndarray, rs: slice, cs: slice, buf: np.ndarray) -> np.ndarray:
    """Gaussian ``K[rs, cs] = exp(min(a[rs] @ b[cs].T, 0))`` of :func:`_augmented_rows`, in the flat ``buf``.

    The minimum clips the rounding error that can make a logit positive,
    as the clip of ``d^2`` at 0 does in :func:`_logits_of_gram`; a NaN
    stays NaN.  The values agree with :func:`kernel_matrix` to rounding,
    not bit for bit.
    """
    k = _gram_tile(a, b, rs, cs, buf)
    np.minimum(k, 0.0, out=k)
    return np.exp(k, out=k)


def _kernel_of_gram(g: np.ndarray, stats_a: np.ndarray, stats_b: np.ndarray, spec: KernelSpec, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values from the Gram product ``g = a @ b.T`` of prepared rows and their statistics.

    The values are written into ``out``: ``g`` itself when None for the
    cosine kernel, a new array for the Gaussian.  ``g`` is overwritten.
    Each step is one in-place pass in the order of
    ``exp(-clip(sa + sb - 2g, 0) / width)`` and ``(clip(g, -1, 1) + 1) / 2``,
    so the values are those of the expressions, NaN included.  The cosine
    clip runs as a maximum and then a minimum and the halving as a product
    by 0.5, which give the same bits and take less time.
    """
    if spec.family == COSINE:
        k = np.maximum(g, -1.0, out=g if out is None else out)
        np.minimum(k, 1.0, out=k)
        k += 1.0
        k *= 0.5
        return k
    k = _logits_of_gram(g, stats_a, stats_b, spec.width, out=out)
    return np.exp(k, out=k)


def _logits_of_gram(g: np.ndarray, stats_a: np.ndarray, stats_b: np.ndarray, width: float, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian logits ``-clip(sa + sb - 2g, 0) / width`` from a Gram product and squared norms.

    Written into ``out`` (a new array when None) one in-place pass at a
    time; ``g`` is overwritten.  The negation comes before the division,
    as in the expression, which keeps the sign of a NaN.
    """
    d2 = np.add(stats_a[:, None], stats_b[None, :], out=out)
    g *= 2.0
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    np.negative(d2, out=d2)
    d2 /= width
    return d2
