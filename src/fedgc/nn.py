"""Dense feed-forward embedding backbone with explicit forward/backward passes.

Everything is float64: the verification harness checks analytic gradients
against central finite differences at 1e-5 relative tolerance, which float32
cannot hold.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"FGC1"


@dataclass
class BackboneParams:
    """Weights of the shared feature extractor, as one flat float64 row.

    flat: the row [W1, b1, W2, b2, ...], each weight (in, out) and each bias
    (out,) in C order; dims: the layer widths, input first. A ReLU is
    applied after every layer except the last, so the final output is a raw
    embedding. layers and to_list() are views into flat.
    """

    flat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.dims = tuple(self.dims)
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.dims, self.dims[1:]))
        if len(self.dims) < 2 or self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(f"dims {self.dims} need a float64 row of {size}, not {self.flat.dtype} {self.flat.shape}")

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    @property
    def size(self) -> int:
        """The number of parameters, the length of flat."""
        return self.flat.size

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views per layer."""
        arrays = self.to_list()
        return list(zip(arrays[::2], arrays[1::2]))

    def copy(self) -> "BackboneParams":
        return BackboneParams(self.flat.copy(), self.dims)

    def to_list(self) -> list[np.ndarray]:
        """The views [W1, b1, W2, b2, ...] into flat."""
        out, start = [], 0
        for fan_in, fan_out in zip(self.dims, self.dims[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                n = math.prod(shape)
                out.append(self.flat[start : start + n].reshape(shape))
                start += n
        return out

    @classmethod
    def from_list(cls, arrays: list[np.ndarray]) -> "BackboneParams":
        """A backbone holding copies of [W1, b1, W2, b2, ...], which must chain."""
        if len(arrays) % 2 or not arrays:
            raise ValueError("expected a non-empty list of weight/bias pairs")
        for i, (w, b) in enumerate(zip(arrays[::2], arrays[1::2])):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and arrays[2 * i - 2].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim {w.shape[0]} does not chain")
        dims = (arrays[0].shape[0],) + tuple(w.shape[1] for w in arrays[::2])
        return cls(np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays]), dims)


def init_backbone(layer_dims: list[int], seed: int) -> BackboneParams:
    """Seeded init: weights ~ N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    arrays = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        arrays += [rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)), np.zeros(fan_out)]
    return BackboneParams.from_list(arrays)


def check_input(params: BackboneParams, h: np.ndarray) -> None:
    """Reject anything but a (n, in_dim) batch of the backbone's input width."""
    if h.ndim != 2 or h.shape[1] != params.input_dim:
        raise ValueError(f"need an (n, {params.input_dim}) batch, got shape {h.shape}")


def forward(params: BackboneParams, x: np.ndarray) -> np.ndarray:
    """Embed a (n, in_dim) batch x as (n, out_dim). Pure function."""
    x = np.asarray(x, dtype=np.float64)
    check_input(params, x)
    return record_forward(params.layers, x, new_tape(params.layers, x.shape[:-1]))


def new_tape(layers: list, rows: tuple) -> list[np.ndarray]:
    """Fresh buffers for one record_forward over `rows`, (n,) or (K, n):
    one per layer, shaped rows + (out,)."""
    return [np.empty(rows + w.shape[-1:]) for w, _ in layers]


def record_forward(layers: list, h: np.ndarray, tape: list) -> np.ndarray:
    """The layer loop on a checked float64 batch, with or without a client axis.

    h is (n, in_dim) and each layer (w, b) a (in, out) weight with a bias
    that broadcasts over the rows of h @ w; or, for K clients stacked on a
    leading axis, h is (K, n, in_dim), w is (K, in, out) and b is (K, 1, out).
    Batched @ runs each client's slice through the same product as the 2-D
    call, so every client's numbers are bitwise what it gets alone.

    Writes every layer's output into the C-contiguous float64 buffers of a
    new_tape-shaped tape, for reverse_sweep: each hidden layer's after its
    ReLU, which is all the sweep needs of it, and the last layer's raw.
    Returns that last buffer, the embeddings. h and the layers are not
    mutated.
    """
    for i, (w, b) in enumerate(layers):
        z = np.matmul(h, w, out=tape[i])
        z += b
        if i < len(layers) - 1:
            h = np.maximum(z, 0.0, out=z)
    return z


def reverse_sweep(
    layers: list,
    h: np.ndarray,
    tape: list,
    g: np.ndarray,
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    grad_x: np.ndarray | None = None,
) -> None:
    """Backpropagate grad_out g through the record_forward tape of input h.

    g is (n, out_dim), or (K, n, out_dim) with a leading client axis. Writes
    each layer's weight and bias gradient into the preallocated float64
    (weight, bias) pairs of grad_layers, shaped (in, out) and (out,), or
    (K, in, out) and (K, out) with the client axis; they may be views into
    one flat buffer. Reductions run over the rows (axis -2) of each client
    alone. The sweep reuses the tape: each hidden layer's output is read
    for the last time just before the gradient w.r.t. it overwrites it.
    grad_x, a C-contiguous float64 array shaped like h, receives the
    gradient w.r.t. h; without it the last product is skipped. h, g and the
    layers are not mutated.
    """
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul((tape[i - 1] if i else h).swapaxes(-1, -2), g, out=gw)
        np.add.reduce(g, axis=-2, out=gb)
        if i:
            out = tape[i - 1]
            # the ReLU's slope at its output: an output is > 0 exactly
            # where its input is, NaN included
            slope = out > 0.0
            g = np.matmul(g, layers[i][0].swapaxes(-1, -2), out=out)
            g *= slope
        elif grad_x is not None:
            np.matmul(g, layers[0][0].swapaxes(-1, -2), out=grad_x)


@dataclass
class SgdState:
    """SGD with classic momentum; weight decay folded into the velocity.

    velocity is None until the first update makes it zeros shaped like the
    parameter.
    """

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: np.ndarray | None = None

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")


def sgd_update(state: SgdState, param: np.ndarray, grad: np.ndarray) -> None:
    """One update in place: v <- momentum*v + grad + wd*param; param <- param - lr*v.

    Mutates the float64 array param and the velocity in `state`. grad is
    read once and then holds the update's scaled terms, so it ends
    overwritten. Every shape is checked before anything moves.
    """
    v = np.zeros_like(param) if state.velocity is None else state.velocity
    if not param.shape == grad.shape == v.shape:
        raise ValueError(f"shape mismatch: param {param.shape}, grad {grad.shape}, velocity {v.shape}")
    state.velocity = v
    # the order of (momentum*v + grad) + wd*param, one operation at a time
    v *= state.momentum
    v += grad
    np.multiply(state.weight_decay, param, out=grad)
    v += grad
    np.multiply(state.learning_rate, v, out=grad)
    param -= grad


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
    """Inverse of write_tensors; round-trips bit-exactly. A short or long file raises ValueError."""
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
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    return out
