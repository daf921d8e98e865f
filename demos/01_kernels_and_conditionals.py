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
    kernel_and_conditionals,
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

# kernel_and_conditionals returns the kernel, the per-column off-diagonal
# sums, and the conditionals in one pass when all three are needed.  The
# Gaussian conditionals are normalized in the log domain: each column of
# the kernel comes scaled by its largest off-diagonal entry, so the sums
# are at least 1 at any width, however far apart the points are.
k2, colsums, q2 = kernel_and_conditionals(feats, gauss)
print("\ngaussian conditionals agree with the one-shot helper:",
      np.array_equal(q2, conditional_probabilities(feats, gauss)))
print("column sums of the column-scaled kernel:", np.array_str(colsums, precision=4))
print("largest entry of each column:", k2.max(axis=0))
