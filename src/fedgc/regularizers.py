"""Cross-client separation regularizers on the stacked class-embedding matrix.

The softmax regularizer treats every class embedding in turn as a frozen
anchor and penalizes, softmax-style, how strongly the embeddings of *other*
clients point at it:

    sum over anchors a of  log(1 + sum_{w cross-client} exp(w.T a - a.T a))

Because the anchor occurrences are stop-gradients, the gradient on a column w
is a softmax-weighted sum of the anchors of other clients; a column receives
exactly zero gradient from its own anchor term. Similar embeddings get
exponentially larger pushes, which is what makes this a hard-example-mining
variant of the plain cosine (dot-product) regularizer.

Values are computed in the shifted log-sum-exp form above; the naive
direct-exponential form is kept only as a small-scale cross-check because
exp(|w|^2) overflows quickly for unnormalized embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .losses import NonFiniteError


@dataclass
class StackedEmbeddings:
    """All client heads side by side: W is (d, C), client_of maps column -> client.

    anchor_mask optionally restricts which columns act as anchors; every
    column still acts as a negative for other clients' anchors.
    """

    W: np.ndarray
    client_of: np.ndarray
    anchor_mask: np.ndarray | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.client_of = np.asarray(self.client_of, dtype=np.int64)
        if self.W.ndim != 2:
            raise ValueError("W must be 2-D (d, C)")
        if self.client_of.shape != (self.W.shape[1],):
            raise ValueError("client_of must assign every column to one client")
        if self.anchor_mask is not None:
            self.anchor_mask = np.asarray(self.anchor_mask, dtype=bool)
            if self.anchor_mask.shape != (self.W.shape[1],):
                raise ValueError("anchor_mask must be one flag per column")

    @property
    def num_clients(self) -> int:
        return int(self.client_of.max()) + 1 if self.client_of.size else 0

    @property
    def num_columns(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "StackedEmbeddings":
        mask = None if self.anchor_mask is None else self.anchor_mask.copy()
        return StackedEmbeddings(self.W.copy(), self.client_of.copy(), mask)


@dataclass
class RegGrad:
    value: float
    grad: np.ndarray  # (d, C), same layout as the stacked matrix


def _owner_sets(emb: StackedEmbeddings, shared_groups) -> list[frozenset[int]]:
    owners = [frozenset((int(k),)) for k in emb.client_of]
    for col, clients in shared_groups or ():
        owners[col] = frozenset(int(k) for k in clients)
    return owners


def _pair_mask(emb: StackedEmbeddings, shared_groups) -> np.ndarray:
    """allowed[w, a]: column w is a negative for anchor a.

    True iff the owner sets are disjoint (plain case: different clients) and
    column a is an anchor.
    """
    if not shared_groups:
        allowed = emb.client_of[:, None] != emb.client_of[None, :]
    else:
        owners = _owner_sets(emb, shared_groups)
        allowed = np.array([[ow.isdisjoint(oa) for oa in owners] for ow in owners])
    if emb.anchor_mask is not None:
        allowed = allowed & emb.anchor_mask[None, :]
    return allowed


def _columns(emb: StackedEmbeddings, normalize_columns: bool) -> np.ndarray:
    w = emb.W
    if not np.isfinite(w).all():
        raise NonFiniteError("non-finite entry in stacked embeddings")
    if not normalize_columns:
        return w
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0.0):
        raise NonFiniteError("zero-norm column cannot be normalized")
    return w / norms


def _chain_normalization(emb: StackedEmbeddings, grad_n: np.ndarray) -> np.ndarray:
    # d(w/|w|)/dw applied column-wise: (g - (w_hat . g) w_hat) / |w|
    norms = np.linalg.norm(emb.W, axis=0)
    w_hat = emb.W / norms
    return (grad_n - w_hat * (w_hat * grad_n).sum(axis=0)) / norms


def _softmax_reg(emb: StackedEmbeddings, shared_groups, normalize_columns: bool) -> RegGrad:
    a_mat = _columns(emb, normalize_columns)
    allowed = _pair_mask(emb, shared_groups)

    gram = a_mat.T @ a_mat
    # exponent of negative w against anchor a, shifted by the self term
    shifted = gram - np.diag(gram)[None, :]
    shifted = np.where(allowed, shifted, -np.inf)
    # the self term contributes exp(0) to every anchor denominator
    with_self = np.vstack([shifted, np.zeros((1, emb.num_columns))])
    per_anchor = logsumexp(with_self, axis=0)  # log(1 + sum exp(...)), 0 if no negatives

    weights = np.exp(shifted - per_anchor[None, :])
    weights[~allowed] = 0.0
    grad_n = a_mat @ weights.T  # grad[:, w] = sum_a weights[w, a] * anchor_a

    if emb.anchor_mask is not None:
        per_anchor = per_anchor * emb.anchor_mask
    grad = _chain_normalization(emb, grad_n) if normalize_columns else grad_n
    return RegGrad(float(per_anchor.sum()), grad)


def softmax_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Softmax regularizer value and stop-gradient-aware gradient."""
    return _softmax_reg(emb, None, normalize_columns)


def masked_softmax_reg(
    emb: StackedEmbeddings,
    shared_groups: list[tuple[int, frozenset[int]]],
    normalize_columns: bool = False,
) -> RegGrad:
    """Softmax regularizer for stacks containing shared-identity columns.

    shared_groups lists (column, client set) for every column whose identity
    is held by more than one client. A shared column is anchored only against
    clients outside its group, and is never a negative for anchors of clients
    inside its group. With no shared groups this is softmax_reg exactly.
    """
    for col, clients in shared_groups:
        if not 0 <= col < emb.num_columns:
            raise ValueError(f"shared column {col} out of range")
        if len(clients) < 1:
            raise ValueError("shared group must name at least one client")
    return _softmax_reg(emb, shared_groups, normalize_columns)


def cosine_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Sum of cross-client pairwise dot products (each pair counted twice).

    No stop-gradient here: the gradient on a column is twice the sum of all
    other clients' columns, so every column is pushed away from the bulk of
    the rest with equal weight.
    """
    a_mat = _columns(emb, normalize_columns)
    allowed = _pair_mask(emb, None).astype(np.float64)
    gram = a_mat.T @ a_mat
    value = float((gram * allowed).sum())
    grad_n = a_mat @ (allowed + allowed.T)
    grad = _chain_normalization(emb, grad_n) if normalize_columns else grad_n
    return RegGrad(value, grad)


def softmax_reg_naive(emb: StackedEmbeddings, shared_groups=None) -> RegGrad:
    """Direct-exponential evaluation, one anchor at a time.

    Overflows for large column norms; exists only to cross-check the stable
    form on small stacks.
    """
    w = emb.W
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite entry in stacked embeddings")
    allowed = _pair_mask(emb, shared_groups)
    value = 0.0
    grad = np.zeros_like(w)
    for a in range(emb.num_columns):
        if emb.anchor_mask is not None and not emb.anchor_mask[a]:
            continue
        negatives = np.flatnonzero(allowed[:, a])
        anchor = w[:, a]
        self_term = np.exp(anchor @ anchor)
        cross = np.exp(w[:, negatives].T @ anchor)
        denom = self_term + cross.sum()
        value += -np.log(self_term / denom)
        for j, col in enumerate(negatives):
            grad[:, col] += (cross[j] / denom) * anchor
    return RegGrad(float(value), grad)
