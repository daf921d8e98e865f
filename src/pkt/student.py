"""The trainable student: a fully connected network with explicit
forward and backward passes, plus the Adam optimizer and a decimal-text
serialization format.

Hidden layers use ReLU; the output layer is linear.  Parameters are kept
as a flat list ``[W1, b1, W2, b2, ...]`` with W of shape (fan_in,
fan_out), so the optimizer is generic over the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .featio import write_rows


def _checked_layer_dims(layer_dims) -> list[int]:
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError("layer_dims needs at least [d_in, d_out], all positive")
    return [int(d) for d in layer_dims]


class StudentModel:
    def __init__(self, layer_dims: list[int], weights, biases):
        self.layer_dims = _checked_layer_dims(layer_dims)
        n_layers = len(self.layer_dims) - 1
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for i in range(n_layers):
            if self.weights[i].shape != (self.layer_dims[i], self.layer_dims[i + 1]):
                raise ValueError("weight shapes incompatible with layer_dims")
            if self.biases[i].shape != (self.layer_dims[i + 1],):
                raise ValueError("bias shapes incompatible with layer_dims")
        self._layer_inputs: list[np.ndarray] | None = None  # kept by forward for backward

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> list[np.ndarray]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Map a B x D_in batch to B x D_out embeddings.

        The input and the hidden activations are kept for the next
        :meth:`backward`, so ``batch`` must not be modified in between.
        """
        x = np.asarray(batch, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"input of dim {x.shape} does not match model input dim {self.input_dim}")
        inputs = []
        out = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(out)
            out = out @ w
            out += b
            if i != last:
                np.maximum(out, 0.0, out=out)
        self._layer_inputs = inputs
        return out

    def backward(self, grad_y: np.ndarray) -> list[np.ndarray]:
        """Exact parameter gradients for a loss whose embedding gradient is ``grad_y``.

        ``grad_y`` is taken at the output of the last :meth:`forward`,
        whose kept activations this call consumes; a backward without a
        forward before it raises ValueError.  Returns gradients in the
        same order as :meth:`parameters`.
        """
        inputs = self._layer_inputs
        if inputs is None:
            raise ValueError("backward needs a forward pass on the batch first")
        grad_y = np.asarray(grad_y, dtype=float)
        if grad_y.shape != (inputs[0].shape[0], self.output_dim):
            raise ValueError(f"grad_y shape {grad_y.shape} does not match the forward output")
        self._layer_inputs = None
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.weights))
        delta = grad_y
        for i in range(len(self.weights) - 1, -1, -1):
            grads[2 * i] = inputs[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                # a hidden input is max(z, 0), so it is positive exactly where z is
                delta = delta @ self.weights[i].T
                delta *= inputs[i] > 0.0
        return grads


def init_student(layer_dims: list[int], seed: int) -> StudentModel:
    """Glorot-uniform weights, zero biases, seeded."""
    layer_dims = _checked_layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return StudentModel(layer_dims, weights, biases)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-4
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    # two scratch arrays per parameter, so a step allocates nothing
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError("lr must be positive and finite")


def init_adam(params: list[np.ndarray], lr: float = 1e-4) -> AdamState:
    state = AdamState(lr=lr)
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    state.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    return state


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> AdamState:
    """One bias-corrected Adam update, applied to ``params`` and the moments in place.

    The arithmetic is ``m = BETA1 m + (1 - BETA1) g``,
    ``v = BETA2 v + (1 - BETA2) g^2`` and
    ``p -= (lr * (m / c1)) / (sqrt(v / c2) + EPS)``, in that order; only
    the storage of the intermediates is reused.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v) == len(state.scratch):
        raise ValueError("parameter/gradient lists do not match the optimizer state")
    if any(g.shape != p.shape for p, g in zip(params, grads)):
        raise ValueError("gradient shape mismatch")
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    for p, g, m, v, (step, den) in zip(params, grads, state.m, state.v, state.scratch):
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=step)
        m += step
        v *= BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v += step
        np.divide(m, c1, out=step)
        step *= state.lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += EPS
        step /= den
        p -= step
    return state


MODEL_HEADER = "PKT-MODEL v1"


def save_model(model: StudentModel, path) -> None:
    """Decimal-text serialization, round-trip exact for doubles (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"{MODEL_HEADER}\ndims {' '.join(str(d) for d in model.layer_dims)}\n")
        for w, b in zip(model.weights, model.biases):
            write_rows(fh, w)
            write_rows(fh, b[None, :])


def load_model(path) -> StudentModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"not a {MODEL_HEADER} file: {path}")
    if len(lines) < 2 or not lines[1].startswith("dims "):
        raise ValueError("missing dims line")
    dims = [int(tok) for tok in lines[1].split()[1:]]
    if len(dims) < 2:
        raise ValueError("dims line needs at least two entries")
    pos = 2
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        block = lines[pos : pos + fan_in + 1]
        if len(block) != fan_in + 1:
            raise ValueError("model file truncated")
        w = np.array([[float(tok) for tok in ln.split()] for ln in block[:fan_in]])
        b = np.array([float(tok) for tok in block[fan_in].split()])
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ValueError("layer block does not match dims")
        weights.append(w)
        biases.append(b)
        pos += fan_in + 1
    if any(ln.strip() for ln in lines[pos:]):
        raise ValueError("trailing data after the last layer block")
    if not all(np.all(np.isfinite(a)) for a in weights + biases):
        raise ValueError("model file contains non-finite weights")
    return StudentModel(dims, weights, biases)
