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

from .featio import parse_row, write_rows


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
    # one scratch array per parameter, so a step allocates nothing
    scratch: list[np.ndarray] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError("lr must be positive and finite")


def init_adam(params: list[np.ndarray], lr: float = 1e-4) -> AdamState:
    state = AdamState(lr=lr)
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    state.scratch = [np.empty_like(p) for p in params]
    return state


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> AdamState:
    """One bias-corrected Adam update, applied to ``params`` and the moments in place.

    The arithmetic is ``m = BETA1 m + (1 - BETA1) g``,
    ``v = BETA2 v + (1 - BETA2) g^2`` and
    ``p -= (lr sqrt(c2) / c1) * (m / (sqrt(v) + EPS sqrt(c2)))``, in that
    order; only the storage of the intermediates is reused.  The last
    step is Algorithm 1's ``(lr * (m / c1)) / (sqrt(v / c2) + EPS)`` with
    numerator and denominator multiplied by ``sqrt(c2)``, the order
    Kingma & Ba give at the end of their section 2: equal in exact
    arithmetic, and per entry one division and one square root where
    Algorithm 1 takes three divisions and one.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v) == len(state.scratch):
        raise ValueError("parameter/gradient lists do not match the optimizer state")
    if any(g.shape != p.shape for p, g in zip(params, grads)):
        raise ValueError("gradient shape mismatch")
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    root_c2 = np.sqrt(1.0 - BETA2 ** state.step)
    step_size, eps = state.lr * root_c2 / c1, EPS * root_c2
    for p, g, m, v, step in zip(params, grads, state.m, state.v, state.scratch):
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=step)
        m += step
        v *= BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v += step
        np.sqrt(v, out=step)
        step += eps
        np.divide(m, step, out=step)
        step *= step_size
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
    """Read a :func:`save_model` file.

    Every error names the file, and a bad or non-finite value also its
    line and column.  Blank lines may follow the last layer block;
    anything else there is rejected.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"{path}: not a {MODEL_HEADER} file")
    if len(lines) < 2 or not lines[1].startswith("dims "):
        raise ValueError(f"{path}: missing dims line")
    dims = []
    for j, tok in enumerate(lines[1].split()[1:]):
        try:
            dims.append(int(tok))
        except ValueError:
            raise ValueError(f"{path}: line 2, column {j + 2}: {tok!r} is not an integer") from None
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"{path}: dims line needs at least two entries, all positive")
    pos = 2
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        if len(lines) < pos + fan_in + 1:
            raise ValueError(f"{path}: model file truncated")
        block = np.array([parse_row(path, i + 1, lines[i].split(), fan_out) for i in range(pos, pos + fan_in + 1)])
        bad = np.argwhere(~np.isfinite(block))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"{path}: line {pos + i + 1}, column {j + 1}: "
                             f"non-finite value {lines[pos + i].split()[j]!r}")
        weights.append(block[:fan_in])
        biases.append(block[fan_in])
        pos += fan_in + 1
    if any(ln.strip() for ln in lines[pos:]):
        raise ValueError(f"{path}: trailing data after the last layer block")
    return StudentModel(dims, weights, biases)
