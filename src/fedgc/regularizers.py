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
direct-exponential form (gradcheck.softmax_reg_naive) serves only as a
small-scale cross-check because exp(|w|^2) overflows quickly for
unnormalized embeddings.

Nothing here holds a dense C x C array. The softmax penalty streams the
anchors in blocks: each block's scores against every column, their
log-sum-exp and their softmax weights live in one (B, C) buffer, with B set
by a fixed element budget, so memory is O(d C + C B). Each anchor's term is
independent, so blocking changes only the summation order. Which pairs may
be separated comes from the stack itself: the owners of a column are the
clients holding a column of the same identity (class_of). A stack with one
column per identity compares client_of; a stack where an identity repeats
uses a C x K 0/1 ownership matrix M, and two columns are separable iff
their entry of M M^T is 0. The cosine penalty needs no pairs at all: it is
evaluated in closed form from per-client column sums in O(d C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import NonFiniteError


@dataclass
class StackedEmbeddings:
    """All client heads side by side: W is (d, C), client_of maps column -> client.

    class_of maps column -> identity and defaults to one identity per column;
    columns of different clients that name the same identity are copies of
    one shared class. anchor_mask optionally restricts which columns act as
    anchors; every column still acts as a negative for other clients' anchors.
    """

    W: np.ndarray
    client_of: np.ndarray
    anchor_mask: np.ndarray | None = None
    class_of: np.ndarray | None = None

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
        if self.class_of is None:
            self.class_of = np.arange(self.W.shape[1])
        self.class_of = np.asarray(self.class_of, dtype=np.int64)
        if self.class_of.shape != (self.W.shape[1],):
            raise ValueError("class_of must name one identity per column")

    @property
    def num_clients(self) -> int:
        return int(self.client_of.max()) + 1 if self.client_of.size else 0

    @property
    def num_columns(self) -> int:
        return self.W.shape[1]

    def shared_columns(self) -> list[np.ndarray]:
        """Ascending column indices of every identity held more than once, by identity."""
        order = np.argsort(self.class_of, kind="stable")
        ids = self.class_of[order]
        repeats = ids[1:] == ids[:-1]
        if not repeats.any():
            return []
        held_more = np.r_[repeats, False] | np.r_[False, repeats]  # sorted runs of length > 1
        order, ids = order[held_more], ids[held_more]
        return np.split(order, np.flatnonzero(ids[1:] != ids[:-1]) + 1)

    def copy(self) -> "StackedEmbeddings":
        mask = None if self.anchor_mask is None else self.anchor_mask.copy()
        return StackedEmbeddings(self.W.copy(), self.client_of.copy(), mask, self.class_of.copy())


@dataclass
class RegGrad:
    value: float
    grad: np.ndarray  # (d, C), same layout as the stacked matrix


# Elements in one block of pair scores: 4 MiB of float64 per temporary, so a
# pass over all C x C pairs holds O(C * B) memory instead of O(C^2).
_BLOCK_ELEMENTS = 1 << 19


def _blocks(count: int, width: int) -> list[slice]:
    """Cut `count` rows into slices of at most _BLOCK_ELEMENTS / width rows."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _ownership(emb: StackedEmbeddings) -> np.ndarray | None:
    """C x K 0/1 matrix of the clients owning each column; None when no identity repeats.

    The owners of a column are the clients holding a column of its identity.
    Two columns may be separated iff they share no owner.
    """
    ids, identity = np.unique(emb.class_of, return_inverse=True)
    if ids.size == emb.num_columns:
        return None
    _, client = np.unique(emb.client_of, return_inverse=True)
    held = np.zeros((ids.size, int(client.max()) + 1))
    held[identity, client] = 1.0
    return held[identity]


def _same_owner(emb: StackedEmbeddings, owners: np.ndarray | None, anchors: np.ndarray) -> np.ndarray:
    """same[i, w]: column w may not act as a negative for anchor column anchors[i]."""
    if owners is None:
        return emb.client_of[anchors, None] == emb.client_of[None, :]
    return owners[anchors] @ owners.T != 0.0


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


def _anchor_columns(emb: StackedEmbeddings) -> np.ndarray:
    if emb.anchor_mask is None:
        return np.arange(emb.num_columns)
    return np.flatnonzero(emb.anchor_mask)


def softmax_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Softmax regularizer value and stop-gradient-aware gradient.

    A column is a negative for an anchor only when their owner sets are
    disjoint, so copies of one shared identity are never pushed apart.
    """
    a_mat = _columns(emb, normalize_columns)
    owners = _ownership(emb)
    anchors = _anchor_columns(emb)
    value = 0.0
    grad_n = np.zeros_like(a_mat)
    for blk in _blocks(anchors.size, emb.num_columns):
        cols = anchors[blk]
        block = a_mat[:, cols]
        # exponent of every negative w against each anchor a, shifted by the self term
        scores = block.T @ a_mat
        scores -= scores[np.arange(cols.size), cols][:, None]
        np.putmask(scores, _same_owner(emb, owners, cols), -np.inf)
        # log(1 + sum exp(...)) with the self term's exp(0) folded in; 0 if no negatives
        top = np.maximum(scores.max(axis=1), 0.0)
        scores -= top[:, None]
        np.exp(scores, out=scores)
        denom = scores.sum(axis=1) + np.exp(-top)
        value += float((top + np.log(denom)).sum())
        scores /= denom[:, None]
        grad_n += block @ scores  # grad[:, w] = sum_a weight[a, w] * anchor_a
    grad = _chain_normalization(emb, grad_n) if normalize_columns else grad_n
    return RegGrad(value, grad)


def cosine_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Sum of cross-client pairwise dot products (each pair counted twice).

    No stop-gradient here: the gradient on a column is twice the sum of all
    other clients' columns, so every column is pushed away from the bulk of
    the rest with equal weight.

    Evaluated in closed form from column sums: with S the sum of all columns,
    S_A the sum of the anchor columns and S_k, S_{A,k} the same sums over
    client k, value = S.S_A - sum_k S_k.S_{A,k}, and column v of client k
    gets (S_A - S_{A,k}) + [v is an anchor] (S - S_k).
    """
    a_mat = _columns(emb, normalize_columns)
    is_anchor = np.ones(emb.num_columns) if emb.anchor_mask is None else emb.anchor_mask * 1.0
    a_anchor = a_mat * is_anchor
    ids, client = np.unique(emb.client_of, return_inverse=True)
    own = np.zeros((ids.size, a_mat.shape[0]))  # per-client column sums
    own_anchor = np.zeros_like(own)
    np.add.at(own, client, a_mat.T)
    np.add.at(own_anchor, client, a_anchor.T)
    total, total_anchor = a_mat.sum(axis=1), a_anchor.sum(axis=1)
    value = float(total @ total_anchor - (own * own_anchor).sum())
    grad_n = (total_anchor - own_anchor[client]).T + is_anchor * (total - own[client]).T
    grad = _chain_normalization(emb, grad_n) if normalize_columns else grad_n
    return RegGrad(value, grad)
