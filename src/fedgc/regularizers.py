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
independent, so blocking changes only the summation order. Both penalties
separate two columns iff their owner sets, the clients holding a column of
their identity (class_of), are disjoint. _ownership numbers the owner sets,
the clients first and then one per identity several clients hold, and
tabulates which sets meet: the softmax penalty masks each block by a gather
from that table, and the cosine penalty is a closed form over per-set
column sums in O(d (C + S^2)).
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
    one shared class.
    """

    W: np.ndarray
    client_of: np.ndarray
    class_of: np.ndarray | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.client_of = np.asarray(self.client_of, dtype=np.int64)
        if self.W.ndim != 2:
            raise ValueError("W must be 2-D (d, C)")
        if self.client_of.shape != (self.W.shape[1],):
            raise ValueError("client_of must assign every column to one client")
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
        return StackedEmbeddings(self.W.copy(), self.client_of.copy(), self.class_of.copy())


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


def _ownership(emb: StackedEmbeddings) -> tuple[np.ndarray, np.ndarray]:
    """Owner-set id of every column, and the S x S table of which owner sets intersect.

    Sets 0..K-1 are the single clients in client order; every identity that
    more than one client holds adds one set, the clients holding it. Columns
    u and v may be separated iff table[set_of[u], set_of[v]] is False.
    """
    clients = np.unique(emb.client_of)
    client = np.searchsorted(clients, emb.client_of)
    k = clients.size
    ids = np.sort(emb.class_of)
    if not (ids[1:] == ids[:-1]).any():
        return client, np.eye(k, dtype=bool)
    ids, ident = np.unique(emb.class_of, return_inverse=True)
    # an identity is held by several clients iff it has several (identity, client) pairs
    held = np.bincount(np.unique(ident * k + client) // k, minlength=ids.size) > 1
    shared = held[ident]
    set_of = np.where(shared, k - 1 + np.cumsum(held)[ident], client)
    # (set, client) memberships; the sets that contain one client all meet
    sets = np.r_[np.arange(k), set_of[shared]]
    member = np.r_[np.arange(k), client[shared]]
    table = np.zeros((k + int(held.sum()),) * 2, dtype=bool)
    for c in range(k):
        meeting = sets[member == c]
        table[np.ix_(meeting, meeting)] = True
    return set_of, table


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


def softmax_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Softmax regularizer value and stop-gradient-aware gradient.

    A column is a negative for an anchor only when their owner sets are
    disjoint, so copies of one shared identity are never pushed apart.
    """
    a_mat = _columns(emb, normalize_columns)
    set_of, table = _ownership(emb)
    value = 0.0
    grad_n = np.zeros_like(a_mat)
    for blk in _blocks(emb.num_columns, emb.num_columns):
        cols = np.arange(blk.start, blk.stop)
        block = a_mat[:, cols]
        # exponent of every negative w against each anchor a, shifted by the self term
        scores = block.T @ a_mat
        scores -= scores[np.arange(cols.size), cols][:, None]
        # pairs whose owner sets meet, gathered as (C, B) from the block's rows
        # of the symmetric table: rows of B flags copy faster than a take along C
        np.copyto(scores, -np.inf, where=table[set_of[cols]].T.take(set_of, axis=0).T)
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
    columns whose owner set is disjoint from its own, each with equal
    weight, so copies of one shared identity are never pushed apart.

    Evaluated in closed form from column sums: with S the sum of all columns,
    P_t the sum over owner set t and N_t the sum of P over every set meeting
    t, value = S.S - sum_t P_t.N_t, and column v of set t gets 2 (S - N_t).
    """
    a_mat = _columns(emb, normalize_columns)
    set_of, table = _ownership(emb)
    d, s = a_mat.shape[0], table.shape[0]
    # per-set column sums, accumulated in column order
    bins = (set_of[:, None] * d + np.arange(d)).ravel()
    own = np.bincount(bins, a_mat.T.ravel(), s * d).reshape(s, d)
    # sums over the sets meeting each set; with nothing shared, each set alone
    meets, met = np.nonzero(table)
    pair_bins = (meets[:, None] * d + np.arange(d)).ravel()
    near = np.bincount(pair_bins, own[met].ravel(), s * d).reshape(s, d)
    total = a_mat.sum(axis=1)
    value = float(total @ total - (near * own).sum())
    far = (total - near[set_of]).T
    grad_n = far + far
    grad = _chain_normalization(emb, grad_n) if normalize_columns else grad_n
    return RegGrad(value, grad)
