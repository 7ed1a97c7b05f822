"""Classification losses over class-embedding heads, with analytic gradients.

Three variants:
  softmax  - cross entropy on raw dot-product logits w^T x (no bias)
  cosface  - additive cosine margin: s * (cos - m) on the target logit
  arcface  - additive angular margin: s * cos(theta + m) on the target logit

The margin variants L2-normalize both the feature and the embedding columns
before computing logits; gradients chain through the normalization. Every
gradient here is checked against central finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check

_VARIANTS = ("softmax", "cosface", "arcface")

# keeps arccos differentiable at the boundary
_COS_CLIP = 1.0 - 1e-7


@dataclass
class LossSpec:
    variant: str = "softmax"
    margin: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        check(self, [
            ("variant", self.variant in _VARIANTS, f"unknown variant {self.variant!r}"),
            ("margin", self.margin >= 0.0, f"need >= 0, got {self.margin}"),
            ("scale", self.scale > 0.0, f"need > 0, got {self.scale}"),
        ])

    @classmethod
    def softmax(cls) -> "LossSpec":
        return cls("softmax")

    @classmethod
    def cosface(cls, margin: float = 0.35, scale: float = 64.0) -> "LossSpec":
        return cls("cosface", margin, scale)

    @classmethod
    def arcface(cls, margin: float = 0.5, scale: float = 64.0) -> "LossSpec":
        return cls("arcface", margin, scale)

    @property
    def normalizes(self) -> bool:
        return self.variant != "softmax"


class NonFiniteError(ValueError):
    """A training quantity went non-finite or lost its norm: the run diverged.

    Raised instead of a plain ValueError wherever trained state is checked,
    so a caller can tell a diverged run from a program error.
    """


@dataclass
class LossGrad:
    loss: float                  # (K,) per-client means from a stacked loss_and_grad
    grad_feature: np.ndarray     # (d,) or (n, d) for a batch
    grad_embeddings: np.ndarray  # (d, num_classes)


def stable_log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis via max subtraction."""
    logits = np.array(logits, dtype=np.float64)
    _log_softmax_inplace(logits)
    return logits


def _log_softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """stable_log_softmax written over a float64 logits buffer.

    Returns the exp of the shifted logits, a same-shaped array the caller may
    reuse as scratch.
    """
    if np.count_nonzero(np.isfinite(logits)) != logits.size:
        raise NonFiniteError("non-finite logits")
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits)
    logits -= np.log(np.add.reduce(e, axis=-1, keepdims=True))
    return e


def check_inputs(embeddings: np.ndarray, feature_shape: tuple, labels: np.ndarray) -> None:
    """Shape and label-range rule shared by every loss entry point."""
    n, feature_dim = feature_shape
    d, c = embeddings.shape
    if feature_dim != d:
        raise ValueError(f"feature dim {feature_dim} != embedding dim {d}")
    if labels.shape != (n,):
        raise ValueError(f"labels of shape {labels.shape} for {n} features")
    if np.count_nonzero((labels < 0) | (labels >= c)):
        raise ValueError(f"label out of range for {c} classes")


def target_index(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Flat positions of the (row, label) entries in a C-contiguous (..., n, C) array.

    labels is (n,), or (K, n) for K clients stacked on a leading axis.
    """
    return np.arange(0, labels.size * num_classes, num_classes).reshape(labels.shape) + labels


def batch_loss_and_grad(
    spec: LossSpec, embeddings: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> LossGrad:
    """Mean loss over a batch plus gradients w.r.t. features and embeddings.

    embeddings: (d, C) head columns; features: (n, d); labels: (n,) ints.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    check_inputs(embeddings, features.shape, labels)
    lg = loss_and_grad(spec, embeddings, features, target_index(labels, embeddings.shape[1]))
    lg.loss = float(lg.loss)
    lg.grad_feature = _squeeze(lg.grad_feature, features)
    return lg


def loss_and_grad(
    spec: LossSpec, embeddings: np.ndarray, features: np.ndarray, target: np.ndarray
) -> LossGrad:
    """batch_loss_and_grad on checked float64 inputs, with labels as target_index.

    One client: embeddings (d, C), features (n, d), target (n,); the loss is
    a float64 scalar. K clients stacked on a leading axis: embeddings
    (K, d, C), features (K, n, d), target (K, n); the loss is a (K,) array
    of per-client means. Products are batched @, reductions run over one
    client's rows or columns (axis -1 or -2), so each client's numbers are
    bitwise what it gets alone. Skips the per-call conversions and label
    checks; the finiteness and zero-norm checks on the trained quantities
    stay, and one bad client raises for the whole group. grad_feature is
    shaped like features. No input is mutated.
    """
    n = features.shape[-2]

    if spec.variant == "softmax":
        logp = features @ embeddings                        # (..., n, C) logits
        delta = _log_softmax_inplace(logp)
        loss = -(np.add.reduce(logp.reshape(-1)[target], axis=-1) / n)
        np.exp(logp, out=delta)                             # softmax probabilities
        delta.reshape(-1)[target] -= 1.0
        delta /= n
        grad_feat = delta @ embeddings.swapaxes(-1, -2)
        grad_emb = features.swapaxes(-1, -2) @ delta
        return LossGrad(loss, grad_feat, grad_emb)

    # margin variants: normalized feature and columns, scaled logits
    # (sqrt of the summed squares is np.linalg.norm's own path for these axes)
    w_norm = np.sqrt(np.add.reduce(embeddings * embeddings, axis=-2, keepdims=True))
    x_norm = np.sqrt(np.add.reduce(features * features, axis=-1, keepdims=True))
    # count_nonzero is .all() without the method's Python wrapper; NaN counts as nonzero
    if np.count_nonzero(x_norm) != x_norm.size or np.count_nonzero(w_norm) != w_norm.size:
        raise NonFiniteError("zero-norm feature or embedding under a normalizing loss variant")
    w_hat = embeddings / w_norm
    x_hat = features / x_norm
    cos = x_hat @ w_hat                                     # (..., n, C)
    cos_t = cos.reshape(-1)[target]

    logp = spec.scale * cos                                 # logits, then log-softmax in place
    # d(target logit)/d(cos): cosface shifts (slope 1), arcface warps through arccos
    target_slope = None
    if spec.variant == "cosface":
        logp.reshape(-1)[target] = spec.scale * (cos_t - spec.margin)
    else:
        theta = np.arccos(np.clip(cos_t, -_COS_CLIP, _COS_CLIP))
        logp.reshape(-1)[target] = spec.scale * np.cos(theta + spec.margin)
        inside = np.abs(cos_t) < _COS_CLIP
        target_slope = np.where(inside, np.sin(theta + spec.margin) / np.sin(theta), 0.0)

    delta = _log_softmax_inplace(logp)
    loss = -(np.add.reduce(logp.reshape(-1)[target], axis=-1) / n)
    np.exp(logp, out=delta)
    delta.reshape(-1)[target] -= 1.0
    delta *= spec.scale / n                                 # dL/d(cos) before margin slopes
    if target_slope is not None:
        delta.reshape(-1)[target] *= target_slope

    # chain through both normalizations:
    #   dcos_j/dw_j = (x_hat - cos_j w_hat_j) / |w_j|
    #   dcos_j/dx   = (w_hat_j - cos_j x_hat) / |x|
    cos *= delta                                            # cos now holds cos * delta
    grad_emb = x_hat.swapaxes(-1, -2) @ delta
    grad_feat = delta @ w_hat.swapaxes(-1, -2)
    w_hat *= np.add.reduce(cos, axis=-2, keepdims=True)
    grad_emb -= w_hat
    grad_emb /= w_norm
    x_hat *= np.add.reduce(cos, axis=-1, keepdims=True)
    grad_feat -= x_hat
    grad_feat /= x_norm
    return LossGrad(loss, grad_feat, grad_emb)


def _squeeze(grad_feat: np.ndarray, features: np.ndarray) -> np.ndarray:
    return grad_feat[0] if features.shape[0] == 1 and grad_feat.shape[0] == 1 else grad_feat
