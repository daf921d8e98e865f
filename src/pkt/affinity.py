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

import logging

import numpy as np

from .kernels import COSINE, KernelSpec, _logits_of_rows, _prepared_rows, kernel_matrix

log = logging.getLogger(__name__)

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


def kernel_and_conditionals(
    feats: np.ndarray, spec: KernelSpec, *, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(k, colsums, q)`` with the diagonal of ``k`` zeroed.

    ``q[:, j] = k[:, j] / colsums[j]`` is the conditional distribution
    for slot j.  For the cosine family ``k`` is the kernel matrix.  For
    the Gaussian, column j of ``k`` is the kernel column divided by its
    largest off-diagonal entry, computed from the shifted logits, so
    every column sum is at least 1.  ``out`` is an optional pair of
    C-contiguous N x N float arrays that receive ``k`` and ``q``; by
    default both are new.
    """
    k_out, q_out = (None, None) if out is None else out
    feats = _checked_features(feats)
    if spec.family == COSINE:
        k = kernel_matrix(feats, spec, out=k_out)
    else:
        k = _shifted_logits(_logit_matrix(feats, spec, out=k_out))
        np.exp(k, out=k)
    return _conditionals(k, out=q_out)


def _gaussian_log_conditionals(
    feats: np.ndarray, spec: KernelSpec, *, out: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(shifted, q, log_colsums)`` of Gaussian features, normalized in the log domain.

    ``out`` is a pair of distinct N x N float arrays that receive
    ``shifted`` and ``q``.  ``shifted`` holds the logits less their
    column maxima, with a zero diagonal, so that off the diagonal
    ``log q = shifted - log_colsums``.
    """
    shifted = _logit_matrix(_checked_features(feats), spec, out=out[0])
    return (shifted, *_log_conditionals(shifted, out=out[1]))


def _logit_matrix(feats: np.ndarray, spec: KernelSpec, *, out: np.ndarray | None = None) -> np.ndarray:
    rows, stats = _prepared_rows(feats, spec)
    return _logits_of_rows(rows, stats, spec.width, out=out)


def _shifted_logits(logits: np.ndarray) -> np.ndarray:
    """Set the diagonal of a Gaussian logit matrix to -inf and subtract each column's maximum, in place.

    The largest entry of every column is then 0, so the exponentials of a
    column sum to at least 1.  A maximum that is not finite means that
    every squared distance of its column, divided by the width, overflows.
    """
    np.fill_diagonal(logits, -np.inf)
    top = logits.max(axis=0)
    if not np.all(np.isfinite(top)):
        raise ValueError("Gaussian logits overflow: squared distances divided by the width are not finite")
    logits -= top
    return logits


def _conditionals(k: np.ndarray, *, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero the diagonal of the kernel matrix ``k`` in place and normalize its columns into ``out``."""
    np.fill_diagonal(k, 0.0)
    colsums = k.sum(axis=0)
    if np.any(colsums < DENOM_FLOOR):
        raise ValueError("degenerate geometry: a conditioning slot has near-zero kernel mass")
    q = np.divide(k, colsums[None, :], out=out)
    return k, colsums, q


def _log_conditionals(logits: np.ndarray, *, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditionals ``q`` from a logit matrix, written into ``out``; returns ``(q, log_colsums)``.

    ``logits`` is left holding the shifted logits with a zero diagonal,
    as :func:`_gaussian_log_conditionals` describes; ``out`` is another
    array of its shape.
    """
    shifted = _shifted_logits(logits)
    _, colsums, q = _conditionals(np.exp(shifted, out=out), out=out)
    np.fill_diagonal(shifted, 0.0)
    return q, np.log(colsums)


def conditional_probabilities(feats: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Column-stochastic conditional matrix; each slot sums to 1 over its non-self partners."""
    _, _, q = kernel_and_conditionals(feats, spec)
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
        log.debug("dropping tail batch of size %d in epoch %d", len(chunks[-1]), epoch)
        chunks.pop()
    return chunks
