"""Batch affinity matrices: conditional kernel densities.

Orientation convention, fixed once here: entry ``[i, j]`` of a
conditional matrix is the probability of sample *i* given conditioning
sample *j*, i.e. the normalization runs down each **column** (the
denominator sums kernel values against sample j over all k != j).
Consumers that need "the probability of j given i" read entry ``[j, i]``.
Diagonals are identically zero, never NaN; self-pairs are excluded from
every sum.

Cosine conditionals are the kernel divided by its column sums, and a
column whose mass falls below ``DENOM_FLOOR`` raises.  They are built
from the raw rows: each block of the Gram product is divided by the
products of the guarded row norms, so no rows are divided by their
norms, and an all-zero row still gets the neutral kernel 0.5.  Gaussian
conditionals are normalized in the log domain, as in SNE (Hinton &
Roweis, 2002): each column of logits ``-d^2 / width`` is shifted by its
largest off-diagonal entry before the exponential, so every column sum
is at least 1 and the conditionals are exact at any positive width.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .kernels import (COSINE, LOGITS_OVERFLOW, TILE, KernelSpec, _checked_rows, _column_blocks, _gram_tile,
                      _kernel_of_gram, _logits_of_rows, _row_stats)

# A cosine conditioning column whose off-diagonal kernel mass falls below
# this is geometrically degenerate (every partner at affinity ~0).
DENOM_FLOOR = 1e-12


def _conditionals_of_rows(rows: np.ndarray, stats: np.ndarray, spec: KernelSpec, out: np.ndarray,
                          q_out: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(cs, a, q, c)`` for each of the :func:`_column_blocks` ``cs``, whose N x c conditionals are cosine ``q`` or Gaussian ``q / c``.

    The rows are a float N x D matrix with their :func:`_row_stats`.  The
    self-pairs of block ``cs`` are the diagonal of its rows ``cs``.
    Cosine: ``a`` is the kernel with zero self-pairs, ``c`` its column
    sums and ``q = a / c``; the cosines are the Gram block over the
    outer product ``s_i * s_j`` of the guarded norms, which is formed
    first, so ``(i, j)`` and ``(j, i)`` are divided by the same number.
    Gaussian: ``a`` holds the logits less their column maxima, with zero
    self-pairs, ``q`` their exponentials, 0 on the self-pairs, and ``c``
    q's column sums: the conditionals are ``q / c``.  ``q_out`` is not
    ``out``; it holds a block's norm products or a wide block's Gram
    product until ``q`` is written.  ``a`` and ``q`` are views at the
    start of the flat float arrays ``out`` and ``q_out``, of at least
    N * min(N, TILE) entries each, which the next block overwrites.
    """
    n = rows.shape[0]
    if spec.family == COSINE:
        for cs in _column_blocks(n):
            g = _gram_tile(rows, rows, slice(0, n), cs, out)
            norms = np.multiply.outer(stats, stats[cs], out=q_out[: g.size].reshape(g.shape))
            g /= norms
            a = _kernel_of_gram(g, stats, stats[cs], spec)
            np.fill_diagonal(a[cs], 0.0)
            c = a.sum(axis=0)
            if np.any(c < DENOM_FLOOR):
                raise ValueError("degenerate geometry: a conditioning slot has near-zero kernel mass")
            yield cs, a, np.divide(a, c[None, :], out=norms), c
        return
    for cs, a in _logits_of_rows(rows, stats, spec.width, out, q_out):
        # The largest off-diagonal logit of each column becomes 0, so its
        # exponentials sum to at least 1.  A maximum that is not finite
        # means that every squared distance of its column, divided by the
        # width, overflows.
        np.fill_diagonal(a[cs], -np.inf)
        top = a.max(axis=0)
        if not np.all(np.isfinite(top)):
            raise ValueError(LOGITS_OVERFLOW)
        a -= top
        e = np.exp(a, out=q_out[: a.size].reshape(a.shape))
        np.fill_diagonal(a[cs], 0.0)
        yield cs, a, e, e.sum(axis=0)


def conditional_probabilities(feats: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Column-stochastic conditional matrix; each slot sums to 1 over its non-self partners."""
    rows = _checked_rows(feats, "features", 2, True)
    n = rows.shape[0]
    q = np.empty((n, n))
    out, q_out = np.empty((2, n * min(n, TILE)))
    for cs, _, block, c in _conditionals_of_rows(rows, _row_stats(rows, spec), spec, out, q_out):
        q[:, cs] = block if spec.family == COSINE else block / c
    return q


def sample_batch(n_total: int, batch_size: int, rng_seed: int, epoch: int) -> list[np.ndarray]:
    """Split a per-epoch permutation of ``range(n_total)`` into consecutive chunks.

    The permutation is a deterministic function of ``(rng_seed, epoch)``.
    A trailing chunk of size < 2 is dropped (conditional probabilities
    are undefined on a single sample); shorter-than-full tails of size
    >= 2 are kept.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be at least 2")
    if batch_size > n_total:
        raise ValueError("batch_size cannot exceed the number of samples")
    perm = np.random.default_rng([rng_seed, epoch]).permutation(n_total)
    chunks = [perm[i : i + batch_size] for i in range(0, n_total, batch_size)]
    if len(chunks[-1]) < 2:
        chunks.pop()
    return chunks
