"""
Affinity kernels and conditional probability matrices
=====================================================

A batch of feature vectors induces a pairwise affinity matrix, and each
column of that matrix (minus its diagonal) can be normalized into a
conditional distribution: entry [i, j] is the probability of picking
sample i as a neighbor given sample j.  This script builds both objects
for a small point set and checks the properties everything downstream
relies on.
"""

import numpy as np

from pkt import (
    conditional_probabilities,
    cosine_kernel,
    gaussian_kernel,
    kernel_matrix,
)

rng = np.random.default_rng(0)
feats = rng.normal(size=(6, 3))

# The cosine affinity remaps cosine similarity from [-1, 1] to [0, 1],
# so it depends only on directions, never on vector lengths.
cos = cosine_kernel()
k = kernel_matrix(feats, cos)
print("cosine affinity matrix (6 points):")
print(np.array_str(k, precision=4))
print("symmetric:", np.array_equal(k, k.T))
print("diagonal is 1:", np.allclose(np.diag(k), 1.0))

# Scale invariance: multiplying every feature by 1000 changes nothing.
k_scaled = kernel_matrix(1000.0 * feats, cos)
print("max change under x1000 rescaling:", np.max(np.abs(k - k_scaled)))

# The Gaussian kernel instead responds to distances; its width is the
# full denominator inside the exponential, K = exp(-d^2 / width).
gauss = gaussian_kernel(4.0)
kg = kernel_matrix(feats, gauss)
print("\ngaussian affinities, width 4:")
print(np.array_str(kg, precision=4))

# Conditional probabilities: normalize each column over the off-diagonal
# entries.  Column j answers "given sample j, how is neighbor mass
# spread over the others?", so each column must sum to exactly 1.
q = conditional_probabilities(feats, cos)
print("\nconditional matrix, column sums:", np.sum(q, axis=0))
print("diagonal stays zero:", np.all(np.diag(q) == 0.0))

# Gaussian conditionals are normalized in the log domain: each column of
# logits -d^2 / width is shifted by its largest off-diagonal entry before
# the exponential, so they stay exact however small the width is.  At
# width 1e-4 every off-diagonal affinity of these points underflows to 0,
# yet each column still sums to 1, with all its mass on its nearest partner.
tiny = gaussian_kernel(1e-4)
k_tiny = kernel_matrix(feats, tiny)
print("\nlargest off-diagonal gaussian affinity at width 1e-4:", np.max(k_tiny - np.diag(np.diag(k_tiny))))
q_tiny = conditional_probabilities(feats, tiny)
print("conditional column sums at width 1e-4:", np.sum(q_tiny, axis=0))
d2 = np.sum((feats[:, None, :] - feats[None, :, :]) ** 2, axis=-1)
np.fill_diagonal(d2, np.inf)
print("each column's mass sits on its nearest partner:",
      np.array_equal(np.argmax(q_tiny, axis=0), np.argmin(d2, axis=0)))
