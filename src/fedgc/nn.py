"""Dense feed-forward embedding backbone with explicit forward/backward passes.

Everything is float64: the verification harness checks analytic gradients
against central finite differences at 1e-5 relative tolerance, which float32
cannot hold.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"FGC1"

_ACTIVATIONS = ("relu", "tanh")


@dataclass
class BackboneParams:
    """Weights of the shared feature extractor.

    layers: ordered (weight, bias) pairs; weight has shape (in_dim, out_dim),
    bias has shape (out_dim,). The activation is applied after every layer
    except the last, so the final output is a raw embedding.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and self.layers[i - 1][0].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim {w.shape[0]} does not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def copy(self) -> "BackboneParams":
        return BackboneParams([(w.copy(), b.copy()) for w, b in self.layers], self.activation)

    def to_list(self) -> list[np.ndarray]:
        """Flatten to [W1, b1, W2, b2, ...] for the optimizer."""
        out = []
        for w, b in self.layers:
            out.extend([w, b])
        return out

    @classmethod
    def from_list(cls, arrays: list[np.ndarray], activation: str) -> "BackboneParams":
        if len(arrays) % 2:
            raise ValueError("expected an even number of arrays (weight/bias pairs)")
        layers = [(arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2)]
        return cls(layers, activation)


def init_backbone(layer_dims: list[int], seed: int, activation: str = "relu") -> BackboneParams:
    """Seeded init: weights ~ N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return BackboneParams(layers, activation)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, activation: str) -> np.ndarray:
    # a is the activation output at pre-activation z
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def check_input(params: BackboneParams, h: np.ndarray) -> None:
    """Reject a (n, in_dim) batch whose width is not the backbone's input dim."""
    if h.shape[1] != params.input_dim:
        raise ValueError(f"input dim {h.shape[1]} != backbone input {params.input_dim}")


def forward(params: BackboneParams, x: np.ndarray) -> np.ndarray:
    """Embed x (a single vector or a (n, in_dim) batch). Pure function."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    check_input(params, h)
    h, _ = record_forward(params, h)
    return h[0] if single else h


def record_forward(params: BackboneParams, h: np.ndarray) -> tuple[np.ndarray, list]:
    """The layer loop on a checked (n, in_dim) float64 batch.

    Returns the embeddings and a tape for reverse_sweep: every layer input
    and every hidden layer's pre- and post-activation.
    """
    n_layers = len(params.layers)
    inputs, pre, post = [], [], []
    for i, (w, b) in enumerate(params.layers):
        inputs.append(h)
        z = h @ w + b
        if i < n_layers - 1:
            a = _activate(z, params.activation)
            pre.append(z)
            post.append(a)
            h = a
        else:
            h = z
    return h, [inputs, pre, post]


def reverse_sweep(
    params: BackboneParams, tape: list, g: np.ndarray, input_grad: bool = True
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray | None]:
    """Backpropagate a (n, out_dim) grad_out through a record_forward tape.

    Returns (grad_layers, grad_x); grad_x is None when input_grad is False,
    which skips the last product.
    """
    inputs, pre, post = tape
    n_layers = len(params.layers)
    grad_layers: list[tuple[np.ndarray, np.ndarray]] = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        w, _ = params.layers[i]
        if i < n_layers - 1:
            g = g * _activate_grad(pre[i], post[i], params.activation)
        grad_layers[i] = (inputs[i].T @ g, g.sum(axis=0))
        g = g @ w.T if i or input_grad else None
    return grad_layers, g


def backward(
    params: BackboneParams, x: np.ndarray, grad_out: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of <grad_out, forward(x)> w.r.t. parameters and x.

    For a batch, grad_out rows pair with x rows and contributions are summed
    over the batch (put any 1/n factor into grad_out).

    Returns (grad_layers, grad_x) with grad_layers matching params.layers.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    g = grad_out[None, :] if single else grad_out
    check_input(params, h)
    if g.shape != (h.shape[0], params.output_dim):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match forward output")
    _, tape = record_forward(params, h)
    grad_layers, g = reverse_sweep(params, tape, g)
    grad_x = g[0] if single else g
    return grad_layers, grad_x


@dataclass
class SgdState:
    """SGD with classic momentum; weight decay folded into the velocity."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")


def sgd_step(state: SgdState, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
    """One update: v <- momentum*v + grad + wd*param; param <- param - lr*v.

    Velocities live in `state` and are created lazily on the first call.
    Returns new parameter arrays; inputs are not mutated.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    if not state.velocity:
        state.velocity = [np.zeros_like(p) for p in params]
    if len(state.velocity) != len(params):
        raise ValueError("velocity/params length mismatch")
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape or p.shape != state.velocity[i].shape:
            raise ValueError(f"tensor {i}: shape mismatch {p.shape} vs {g.shape}")
        v = state.momentum * state.velocity[i] + g + state.weight_decay * p
        state.velocity[i] = v
        out.append(p - state.learning_rate * v)
    return out


def write_tensors(path, arrays: list[np.ndarray]) -> None:
    """Serialize float64 arrays: magic 'FGC1', then per-array dims (u32 LE) and data (f64 LE)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for a in arrays:
            a = np.asarray(a, dtype=np.float64)  # keeps a 0-d array 0-d
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(a.astype("<f8").tobytes())


def _read_exact(fh, size: int, path, part: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"{path}: truncated tensor {part}")
    return raw


def read_tensors(path) -> list[np.ndarray]:
    """Inverse of write_tensors; round-trips bit-exactly. A short file raises ValueError."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: bad magic, not a parameter file")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        out = []
        for _ in range(count):
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "header"))
            n = math.prod(shape)
            data = np.frombuffer(_read_exact(fh, 8 * n, path, "payload"), dtype="<f8")
            out.append(data.astype(np.float64).reshape(shape))
    return out
