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

from .kernels import COSINE, LOGITS_OVERFLOW, KernelSpec, _kernel_of_rows, _logits_of_rows, _prepared_rows

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


def _conditionals_of_rows(rows: np.ndarray, stats: np.ndarray, spec: KernelSpec, *,
                          out: np.ndarray | None = None,
                          q_out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(a, q, c)``, the conditionals ``q`` of prepared rows and their :func:`_row_stats`.

    Cosine: ``a`` is the kernel matrix with a zero diagonal, ``c`` its
    column sums and ``q = a / c``; ``q_out`` may be ``out``.  Gaussian:
    ``a`` holds the logits less their column maxima, with a zero
    diagonal, ``c`` the log column sums of ``exp(a)`` off the diagonal,
    and ``log q = a - c`` off the diagonal; ``q_out`` must be another
    array than ``out``.  ``a`` is written into ``out`` and ``q`` into
    ``q_out``, each an N x N float array or a new one when None.
    """
    if spec.family == COSINE:
        a = _kernel_of_rows(rows, stats, spec, out=out)
        np.fill_diagonal(a, 0.0)
        c = a.sum(axis=0)
        if np.any(c < DENOM_FLOOR):
            raise ValueError("degenerate geometry: a conditioning slot has near-zero kernel mass")
        return a, np.divide(a, c[None, :], out=q_out), c
    # The largest off-diagonal logit of each column becomes 0, so its
    # exponentials sum to at least 1.  A maximum that is not finite means
    # that every squared distance of its column, divided by the width,
    # overflows.
    a = _logits_of_rows(rows, stats, spec.width, out=out)
    np.fill_diagonal(a, -np.inf)
    top = a.max(axis=0)
    if not np.all(np.isfinite(top)):
        raise ValueError(LOGITS_OVERFLOW)
    a -= top
    q = np.exp(a, out=q_out)
    colsums = q.sum(axis=0)
    q /= colsums[None, :]
    np.fill_diagonal(a, 0.0)
    return a, q, np.log(colsums)


def conditional_probabilities(feats: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Column-stochastic conditional matrix; each slot sums to 1 over its non-self partners."""
    return _conditionals_of_rows(*_prepared_rows(_checked_features(feats), spec), spec)[1]


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
