"""Batch affinity matrices: conditional kernel densities.

Orientation convention, fixed once here: entry ``[i, j]`` of a
conditional matrix is the probability of sample *i* given conditioning
sample *j*, i.e. the normalization runs down each **column** (the
denominator sums kernel values against sample j over all k != j).
Consumers that need "the probability of j given i" read entry ``[j, i]``.
Diagonals are identically zero, never NaN; self-pairs are excluded from
every sum.

Cosine conditionals are the kernel divided by its column sums, and a
column whose mass falls below ``DENOM_FLOOR`` raises.  Gaussian
conditionals are normalized in the log domain, as in SNE (Hinton &
Roweis, 2002): each column of logits ``-d^2 / width`` is shifted by its
largest off-diagonal entry before the exponential, so every column sum
is at least 1 and the conditionals are exact at any positive width.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .kernels import (COSINE, LOGITS_OVERFLOW, TILE, KernelSpec, _column_blocks, _gram_tile, _kernel_of_gram,
                      _logits_of_rows, _prepared_rows)

# A cosine conditioning column whose off-diagonal kernel mass falls below
# this is geometrically degenerate (every partner at affinity ~0).
DENOM_FLOOR = 1e-12


def _checked_features(feats: np.ndarray) -> np.ndarray:
    feats = np.asarray(feats, dtype=float)
    if feats.ndim != 2:
        raise ValueError("expected an N x D feature matrix")
    if feats.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(feats)):
        raise ValueError("feature matrix contains non-finite entries")
    return feats


def _conditionals_of_rows(rows: np.ndarray, stats: np.ndarray, spec: KernelSpec, out: np.ndarray,
                          q_out: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(cs, a, q, c)`` for each of the :func:`_column_blocks` ``cs``: the N x c conditionals ``q`` of those conditioning columns.

    The rows come from :func:`_prepared_rows` with their statistics.  The
    self-pairs of block ``cs`` are the diagonal of its rows ``cs``.
    Cosine: ``a`` is the kernel with zero self-pairs, ``c`` its column
    sums and ``q = a / c``; ``q_out`` may be ``out``.  Gaussian: ``a``
    holds the logits less their column maxima, with zero self-pairs,
    ``c`` the log column sums of ``exp(a)`` off the self-pairs, and
    ``log q = a - c`` off them; ``q_out`` must be another array than
    ``out``, and it holds a wide block's Gram product until ``q`` is
    written.  ``a`` and ``q`` are views at the start of the flat float
    arrays ``out`` and ``q_out``, of at least N * min(N, TILE) entries
    each, which the next block overwrites.
    """
    n = rows.shape[0]
    if spec.family == COSINE:
        for cs in _column_blocks(n):
            a = _kernel_of_gram(_gram_tile(rows, rows, slice(0, n), cs, out), stats, stats[cs], spec)
            np.fill_diagonal(a[cs], 0.0)
            c = a.sum(axis=0)
            if np.any(c < DENOM_FLOOR):
                raise ValueError("degenerate geometry: a conditioning slot has near-zero kernel mass")
            yield cs, a, np.divide(a, c[None, :], out=q_out[: a.size].reshape(a.shape)), c
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
        q = np.exp(a, out=q_out[: a.size].reshape(a.shape))
        colsums = q.sum(axis=0)
        q /= colsums[None, :]
        np.fill_diagonal(a[cs], 0.0)
        yield cs, a, q, np.log(colsums)


def conditional_probabilities(feats: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Column-stochastic conditional matrix; each slot sums to 1 over its non-self partners."""
    rows, stats = _prepared_rows(_checked_features(feats), spec)
    n = rows.shape[0]
    q = np.empty((n, n))
    out, q_out = np.empty((2, n * min(n, TILE)))
    for cs, _, block, _ in _conditionals_of_rows(rows, stats, spec, out, q_out):
        q[:, cs] = block
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
    rng = np.random.default_rng([rng_seed, epoch])
    perm = rng.permutation(n_total)
    chunks = [perm[i : i + batch_size] for i in range(0, n_total, batch_size)]
    if len(chunks[-1]) < 2:
        chunks.pop()
    return chunks
