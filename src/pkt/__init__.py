"""Probabilistic knowledge transfer between feature representations.

A fixed teacher representation induces, through a kernel, a conditional
probability of each sample given each other sample in a batch.  A small
trainable student is fit so that its own conditionals match the
teacher's under a KL objective, optionally blended with label-derived
targets.  Companion tools measure quadratic mutual information
potentials and retrieval quality of the learned embedding.
"""

from __future__ import annotations

from .affinity import (
    conditional_probabilities,
    kernel_and_conditionals,
    sample_batch,
)
from .divergence import (
    kl_loss,
    pkt_loss_and_grad,
)
from .featio import read_features, read_labels, write_features, write_labels
from .gradcheck import check_instance, finite_difference, max_relative_error, run_battery
from .kernels import (
    COSINE,
    GAUSSIAN,
    KernelSpec,
    cosine_kernel,
    gaussian_kernel,
    kernel_matrix,
)
from .qmi import information_potentials, potential_equality_check
from .retrieval import (
    RetrievalIndex,
    average_precision_11pt,
    evaluate,
)
from .student import (
    StudentModel,
    adam_step,
    init_adam,
    init_student,
    load_model,
    save_model,
)
from .trainer import BatchFailure, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "BatchFailure",
    "COSINE",
    "GAUSSIAN",
    "KernelSpec",
    "RetrievalIndex",
    "StudentModel",
    "TrainConfig",
    "adam_step",
    "average_precision_11pt",
    "check_instance",
    "finite_difference",
    "conditional_probabilities",
    "cosine_kernel",
    "evaluate",
    "gaussian_kernel",
    "information_potentials",
    "init_adam",
    "init_student",
    "kernel_and_conditionals",
    "kernel_matrix",
    "kl_loss",
    "load_model",
    "max_relative_error",
    "pkt_loss_and_grad",
    "potential_equality_check",
    "read_features",
    "read_labels",
    "run_battery",
    "sample_batch",
    "save_model",
    "train",
    "write_features",
    "write_labels",
]
