"""Pairwise affinity kernels.

Two families are supported: a cosine-similarity affinity remapped to
[0, 1], and a Gaussian (squared-exponential) kernel.  Both are symmetric
and bounded, ``K(a, b) in [0, 1]``.  ``K(a, a)`` is 1 only to rounding:
the terms of a Gaussian self-distance ``s_a + s_a - 2 a.a`` are rounded
apart, so it need not be 0, and dividing it by the width amplifies it;
at a small width the diagonal can fall far below 1.

The Gaussian ``width`` is the *full* scale denominator::

    K(a, b) = exp(-||a - b||^2 / width)

Callers pass one number; no squaring or doubling happens internally.
One function turns a Gram product into the logits ``-d^2 / width``, and
kernel values are their exponential.  Gaussian conditionals start from
logits, so they are normalized in the log domain and never underflow;
a batch's logits are symmetric only to rounding, while
:func:`kernel_matrix` is symmetric bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

COSINE = "cosine"
GAUSSIAN = "gaussian"

# Norm guard for the cosine kernel: a row whose norm falls below this is
# treated as having norm NORM_EPS, so a dead (all-zero) embedding yields
# the neutral similarity 0.5 instead of raising mid-training.
NORM_EPS = 1e-8

# The error of a Gaussian width so small that the logits are not finite.
LOGITS_OVERFLOW = "Gaussian logits overflow: squared distances divided by the width are not finite"

# Side of the square tiles in which a whole kernel matrix is built: a
# tile and its mirror stay in cache while one is copied into the other.
TILE = 128

# Gaussian logits of rows with at most this many features come from one
# product of augmented rows; wider rows take Gram products of all rows by each
# block's rows, numpy's faster same-array syrk (one triangle) only at B <= TILE.
AUGMENTED_MAX_DIM = 128


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


def kernel_matrix(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Full N x N kernel matrix of the rows of ``x``, self-pairs included, as a new array.

    The result is exactly symmetric: each upper tile of side ``TILE`` is
    computed in place and copied, transposed, into its mirror, and each
    diagonal tile's Gram product ``a @ a.T`` is itself exactly symmetric.
    """
    rows, stats = _prepared_rows(_checked_rows(x, "features", 0, False), spec)
    n = rows.shape[0]
    out = np.empty((n, n))
    gram = np.empty(min(n, TILE) ** 2)
    for rs, cs in _upper_tiles(n, TILE, TILE):
        tile = _kernel_of_gram(_gram_tile(rows, rows, rs, cs, gram), stats[rs], stats[cs], spec, out=out[rs, cs])
        if cs.start > rs.start:
            out[cs, rs] = tile.T
    return out


def _checked_rows(x, what: str, min_rows: int, finite: bool) -> np.ndarray:
    """A public function's feature argument ``what`` as a float N x D matrix of at least ``min_rows`` rows.

    If ``finite``, a NaN or infinite entry is rejected too.  Every
    rejection is a ValueError that names ``what`` and the shape.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < min_rows:
        raise ValueError(f"{what} of shape {x.shape} are not an N x D matrix with N >= {min_rows}")
    if finite and not np.all(np.isfinite(x)):
        raise ValueError(f"{what} of shape {x.shape} contain non-finite entries")
    return x


def _checked_labels(labels, n: int, what: str) -> np.ndarray:
    """A public function's label argument ``what`` as an array of one label per row of n; else a ValueError naming it and its shape."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"{what} of shape {labels.shape} are not one label per row of {n}")
    return labels


def _prepared_rows(x: np.ndarray, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The float N x D matrix ``x`` ready for the kernel cores, and its :func:`_row_stats`.

    Cosine rows come back divided by their guarded norms.
    """
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
        return np.maximum(np.linalg.norm(x, axis=-1), NORM_EPS)
    return np.einsum("ij,ij->i", x, x)


def _upper_tiles(n: int, height: int, width: int) -> Iterator[tuple[slice, slice]]:
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


def _column_blocks(n: int) -> Iterator[slice]:
    """Slices of the consecutive blocks of ``TILE`` columns of an n-column matrix."""
    return (slice(lo, min(lo + TILE, n)) for lo in range(0, n, TILE))


def _logits_of_rows(rows: np.ndarray, stats: np.ndarray, width: float, buf: np.ndarray,
                    gram: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(cs, g)`` for each of :func:`_column_blocks`: the Gaussian logits ``-clip(d^2, 0) / width``, to rounding, of every row against the rows ``cs``.

    Each ``g`` is an N x c view at the start of the flat float array
    ``buf``, which the next block overwrites.  Rows of at most
    ``AUGMENTED_MAX_DIM`` features take a product of
    :func:`_augmented_rows`, built once, if those are finite; otherwise
    :func:`_gram_logits` of a Gram product in the flat ``gram``, another
    array than ``buf``: ``-inf`` only where ``d^2 / width`` overflows.
    """
    n, d = rows.shape
    every = slice(0, n)
    aug = _augmented_rows(rows, stats, width, every) if d <= AUGMENTED_MAX_DIM else None
    if aug is not None and not np.all(np.isfinite(aug[1])):
        aug = None
    for cs in _column_blocks(n):
        if aug is not None:
            yield cs, _logits_tile(*aug, every, cs, buf)
        else:
            g = _gram_tile(rows, rows, every, cs, gram)
            yield cs, _gram_logits(g, stats, stats[cs], width, buf[: g.size].reshape(g.shape))


def _gram_tile(a: np.ndarray, b: np.ndarray, rs: slice, cs: slice, gram: np.ndarray) -> np.ndarray:
    """``a[rs] @ b[cs].T``, written into the flat buffer ``gram``."""
    shape = (rs.stop - rs.start, cs.stop - cs.start)
    return np.matmul(a[rs], b[cs].T, out=gram[: shape[0] * shape[1]].reshape(shape))


def _augmented_rows(rows: np.ndarray, stats: np.ndarray, width: float,
                    order: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``a = [x, -s/width, -1]`` and ``b = [2x/width, 1, s/width]`` of rows x and their squared norms s.

    ``a_i . b_j = -(s_i + s_j - 2 x_i . x_j) / width`` is the Gaussian
    logit of the pair, so one product gives a whole tile of logits; see
    :func:`_logits_tile`.  Each is an N x (D + 2) array with its rows
    taken in ``order``; ``b`` is built from ``a``, so no reordered copy of
    the rows outlives ``a``.  ``b`` is finite for finite rows unless
    ``s / width`` or ``2x / width`` overflows, which depends on how far the
    rows lie from the origin, not only on their distances.
    """
    n, d = rows.shape
    stats = stats[order]
    a, b = np.empty((2, n, d + 2))
    a[:, :d] = rows[order]
    a[:, d + 1] = -1.0
    b[:, d] = 1.0
    with np.errstate(over="ignore"):  # callers check b
        np.divide(stats, -width, out=a[:, d])
        np.divide(a[:, :d], 0.5 * width, out=b[:, :d])
        np.divide(stats, width, out=b[:, d + 1])
    return a, b


def _logits_tile(a: np.ndarray, b: np.ndarray, rs: slice, cs: slice, buf: np.ndarray) -> np.ndarray:
    """Gaussian logits ``min(a[rs] @ b[cs].T, 0)`` of :func:`_augmented_rows`, in the flat ``buf``.

    The minimum clips the rounding error that can make a logit positive,
    as the clip of ``d^2`` at 0 does in :func:`_gram_logits`; a NaN
    stays NaN.  The values agree with that function's logits to rounding,
    not bit for bit.
    """
    k = _gram_tile(a, b, rs, cs, buf)
    return np.minimum(k, 0.0, out=k)


def _gram_logits(g: np.ndarray, stats_a: np.ndarray, stats_b: np.ndarray, width: float,
                 out: np.ndarray | None) -> np.ndarray:
    """Gaussian logits ``-clip(sa + sb - 2g, 0) / width`` of the Gram product ``g = a @ b.T`` of rows with squared norms sa, sb.

    The logits are written into ``out``, a new array when None, and ``g``
    is overwritten.  Each step is one pass in the order of the
    expression, so the values are its values, NaN included, and the
    logits of ``a @ a.T`` are exactly symmetric.
    """
    k = np.add(stats_a[:, None], stats_b[None, :], out=out)
    g *= 2.0
    k -= g
    np.maximum(k, 0.0, out=k)
    # negated before the division, as in the expression, which keeps the sign of a NaN, and
    # into g: numpy 2.4's in-place negative misreads an array with a stride of 8 doubles
    np.negative(k, out=g)
    with np.errstate(over="ignore"):  # a logit of -inf is a kernel value or a conditional of 0
        return np.divide(g, width, out=k)


def _kernel_of_gram(g: np.ndarray, stats_a: np.ndarray, stats_b: np.ndarray, spec: KernelSpec, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values from the Gram product ``g = a @ b.T`` of prepared rows and their statistics.

    For the cosine kernel, ``g`` is any matrix of cosines, such as a Gram
    product of raw rows over their norm products, and the statistics are
    not read.  The values are written into ``out``: ``g`` itself when None for the
    cosine kernel, a new array for the Gaussian.  ``g`` is overwritten.
    Each step is one pass in the order of :func:`_gram_logits`' exponential
    ``exp(-clip(sa + sb - 2g, 0) / width)`` or ``(clip(g, -1, 1) + 1) / 2``,
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
    k = _gram_logits(g, stats_a, stats_b, spec.width, out)
    return np.exp(k, out=k)
