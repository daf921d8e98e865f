"""
The distribution-matching loss and its analytic gradient
========================================================

Transfer works by minimizing a KL divergence between two conditional
probability matrices: the teacher's (fixed) and the student's (a
function of the student embedding y).  The gradient of that loss in y is
computed analytically; this script shows the loss behaving as a
divergence should and confirms the gradient against central finite
differences.
"""

import numpy as np

from pkt import (
    conditional_probabilities,
    cosine_kernel,
    finite_difference,
    kl_loss,
    max_relative_error,
    pkt_loss_and_grad,
)

rng = np.random.default_rng(1)

# Two embeddings of the same 8 samples: the teacher's and a random
# student starting point.
teacher = rng.normal(size=(8, 5))
student = rng.normal(size=(8, 3))
spec = cosine_kernel()

p = conditional_probabilities(teacher, spec)
q = conditional_probabilities(student, spec)

# A divergence is zero against itself and positive against anything else.
print("KL(P || P) =", kl_loss(p, p))
print("KL(P || Q) =", kl_loss(p, q))

# pkt_loss_and_grad evaluates the loss as a function of the student
# embedding and returns the exact gradient, accounting for the
# normalization coupling inside each conditional column and for the
# cosine kernel's norm terms.
report = pkt_loss_and_grad(student, p, spec)
print("\nloss at the random student:", report.value)
print("gradient shape:", report.grad_y.shape)

# Check it against finite differences.
numeric = finite_difference(
    lambda y: pkt_loss_and_grad(y, p, spec).value, student)
err = max_relative_error(report.grad_y, numeric)
print("max relative error vs central differences:", err)

# One small step along the negative gradient must decrease the loss.
stepped = student - 1e-4 * report.grad_y
print("loss after a tiny descent step:",
      pkt_loss_and_grad(stepped, p, spec).value)

# Supervised variant: labels induce target conditionals that put uniform
# mass on same-class partners.  The weighted label term just adds on.
labels = np.array([0, 0, 1, 1, 0, 1, 1, 0])
same = (labels[:, None] == labels[None, :]) & ~np.eye(labels.size, dtype=bool)
targets = same / np.maximum(same.sum(axis=0), 1)
print("\nsupervised targets for labels", labels.tolist())
print(np.array_str(targets, precision=3))
print("slots with a same-class partner:", (targets.sum(axis=0) > 0).tolist())

combined = pkt_loss_and_grad(student, p, spec, sup=(labels, 0.01))
print("loss with a 0.01-weighted label term:", combined.value)
print("which matches main + 0.01 * label KL to rounding:",
      report.value + 0.01 * kl_loss(targets, q))
