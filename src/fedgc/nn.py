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
    h, _ = record_forward(params.layers, params.activation, h)
    return h[0] if single else h


def record_forward(layers: list, activation: str, h: np.ndarray) -> tuple[np.ndarray, list]:
    """The layer loop on a checked float64 batch, with or without a client axis.

    h is (n, in_dim) and each layer (w, b) a (in, out) weight with a bias
    that broadcasts over the rows of h @ w; or, for K clients stacked on a
    leading axis, h is (K, n, in_dim), w is (K, in, out) and b is (K, 1, out).
    Batched @ runs each client's slice through the same product as the 2-D
    call, so every client's numbers are bitwise what it gets alone.

    Returns the embeddings and a tape for reverse_sweep: every layer input
    and every hidden layer's pre- and post-activation. h and the layers are
    not mutated.
    """
    last = len(layers) - 1
    relu = activation == "relu"
    inputs, pre, post = [], [], []
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        z = h @ w
        z += b
        if i < last:
            pre.append(z)
            h = np.maximum(z, 0.0) if relu else np.tanh(z)
            post.append(h)
        else:
            h = z
    return h, [inputs, pre, post]


def reverse_sweep(
    layers: list,
    activation: str,
    tape: list,
    g: np.ndarray,
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backpropagate grad_out g through a record_forward tape of the same layers.

    g is (n, out_dim), or (K, n, out_dim) with a leading client axis. Writes
    each layer's weight and bias gradient into the preallocated float64
    (weight, bias) pairs of grad_layers, shaped (in, out) and (out,), or
    (K, in, out) and (K, out) with the client axis; they may be views into
    one flat buffer. Reductions run over the rows (axis -2) of each client
    alone. Returns grad_x, or None when input_grad is False, which skips the
    last product. g, the tape and the layers are not mutated.
    """
    inputs, pre, post = tape
    relu = activation == "relu"
    for i in range(len(layers) - 1, -1, -1):
        if i < len(pre):
            # g is a fresh product here, never the caller's grad_out
            if relu:
                g *= pre[i] > 0.0
            else:
                g *= 1.0 - post[i] * post[i]
        gw, gb = grad_layers[i]
        np.matmul(inputs[i].swapaxes(-1, -2), g, out=gw)
        np.add.reduce(g, axis=-2, out=gb)
        g = g @ layers[i][0].swapaxes(-1, -2) if i or input_grad else None
    return g


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
    _, tape = record_forward(params.layers, params.activation, h)
    grad_layers = [(np.empty_like(w), np.empty_like(b)) for w, b in params.layers]
    g = reverse_sweep(params.layers, params.activation, tape, g, grad_layers)
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


def sgd_update(state: SgdState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One update in place: v <- momentum*v + grad + wd*param; param <- param - lr*v.

    Mutates each float64 array of params and the velocities in `state`,
    which are created lazily on the first call; grads are not mutated. Every
    shape is checked before anything moves.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    if not state.velocity:
        state.velocity = [np.zeros_like(p) for p in params]
    if len(state.velocity) != len(params):
        raise ValueError("velocity/params length mismatch")
    for i, (p, g, v) in enumerate(zip(params, grads, state.velocity)):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError(f"tensor {i}: shape mismatch {p.shape} vs {g.shape}")
    for p, g, v in zip(params, grads, state.velocity):
        # the order of (momentum*v + grad) + wd*param, one operation at a time;
        # both scaled terms share one temporary
        v *= state.momentum
        v += g
        scaled = state.weight_decay * p
        v += scaled
        np.multiply(state.learning_rate, v, out=scaled)
        p -= scaled


def sgd_step(state: SgdState, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
    """sgd_update on copies of params: returns the new parameter arrays.

    Only the velocities in `state` change; params and grads are not mutated.
    """
    out = [p.copy() for p in params]
    sgd_update(state, out, grads)
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
